#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "common/rng.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "test_util.hpp"

namespace spatl::nn {
namespace {

using spatl::testutil::grad_check;

TEST(Linear, ForwardMatchesHandComputation) {
  Linear lin(2, 3);
  // W (3,2), b (3)
  lin.weight() = Tensor({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  lin.bias() = Tensor({3}, std::vector<float>{0.5f, -0.5f, 1.0f});
  Tensor x({1, 2}, std::vector<float>{1, 1});
  Tensor y = lin.forward(x, true);
  ASSERT_EQ(y.shape(), (tensor::Shape{1, 3}));
  EXPECT_FLOAT_EQ(y[0], 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y[1], 6.5f);   // 3+4-0.5
  EXPECT_FLOAT_EQ(y[2], 12.0f);  // 5+6+1
}

TEST(Linear, RejectsWrongInputWidth) {
  Linear lin(4, 2);
  Tensor x({1, 3});
  EXPECT_THROW(lin.forward(x, true), std::invalid_argument);
}

TEST(Linear, GradientCheck) {
  common::Rng rng(1);
  Linear lin(5, 4);
  lin.init_params(rng);
  Tensor x = Tensor::randn({3, 5}, rng);
  const auto r = grad_check(lin, x);
  EXPECT_LT(r.max_rel_err, 2e-2) << "abs=" << r.max_abs_err;
}

TEST(ReLU, ForwardAndGradient) {
  ReLU relu;
  Tensor x({4}, std::vector<float>{-1, 0, 2, -3});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor g({4}, std::vector<float>{1, 1, 1, 1});
  Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  common::Rng rng(2);
  Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 60}));
  Tensor dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5f);
  common::Rng rng(3);
  Tensor x = Tensor::randn({100}, rng);
  Tensor y = drop.forward(x, /*train=*/false);
  EXPECT_TRUE(tensor::allclose(x, y));
}

TEST(Dropout, TrainModeZeroesAndRescales) {
  Dropout drop(0.5f);
  Tensor x = Tensor::ones({4000});
  Tensor y = drop.forward(x, /*train=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1/(1-0.5)
    }
  }
  EXPECT_NEAR(double(zeros) / double(y.numel()), 0.5, 0.05);
  // Backward uses the same mask.
  Tensor g = Tensor::ones({4000});
  Tensor dx = drop.backward(g);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_FLOAT_EQ(dx[i], y[i]);
  }
}

TEST(Dropout, RejectsInvalidRate) {
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
}

TEST(ChannelGate, MasksSelectedChannels) {
  ChannelGate gate(3);
  gate.set_mask({1, 0, 1});
  EXPECT_NEAR(gate.keep_fraction(), 2.0 / 3.0, 1e-9);
  Tensor x = Tensor::ones({2, 3, 2, 2});
  Tensor y = gate.forward(x, true);
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_FLOAT_EQ(y[(n * 3 + 0) * 4 + p], 1.0f);
      EXPECT_FLOAT_EQ(y[(n * 3 + 1) * 4 + p], 0.0f);
      EXPECT_FLOAT_EQ(y[(n * 3 + 2) * 4 + p], 1.0f);
    }
  }
  Tensor dx = gate.backward(Tensor::ones({2, 3, 2, 2}));
  EXPECT_FLOAT_EQ(dx[4], 0.0f);  // channel 1 grad zeroed
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
}

TEST(ChannelGate, RejectsWrongMaskSize) {
  ChannelGate gate(4);
  EXPECT_THROW(gate.set_mask({1, 0}), std::invalid_argument);
}

TEST(Conv2d, KnownKernelValues) {
  // Single 2x2 input, 1x1 kernel with weight 2: output = 2*input.
  Conv2d conv(1, 1, 1, 1, 0);
  conv.weight() = Tensor({1, 1}, std::vector<float>{2.0f});
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y = conv.forward(x, true);
  ASSERT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 8.0f);
}

TEST(Conv2d, AveragingKernel) {
  // 3x3 kernel of 1/9 over constant image = same constant (interior).
  Conv2d conv(1, 1, 3, 1, 1);
  conv.weight() = Tensor({1, 9}, std::vector<float>(9, 1.0f / 9.0f));
  Tensor x = Tensor::full({1, 1, 5, 5}, 9.0f);
  Tensor y = conv.forward(x, true);
  // Interior pixel: all 9 taps inside -> 9.0. Corner: only 4 taps -> 4.0.
  EXPECT_FLOAT_EQ(y.at({0, 0, 2, 2}), 9.0f);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 4.0f);
}

TEST(Conv2d, EvalForwardMatchesTrainForwardBitForBit) {
  // Eval builds its columns panel by panel and drops them; train keeps
  // them for backward. The output may not depend on which one ran.
  struct Case {
    std::size_t in, out, kernel, stride, pad, h, w;
    bool bias;
  };
  const Case cases[] = {{3, 8, 3, 1, 1, 16, 16, false},
                        {8, 16, 3, 2, 1, 9, 7, true},
                        {8, 16, 1, 2, 0, 8, 8, false},
                        {4, 6, 5, 1, 2, 6, 5, true},
                        {16, 32, 3, 1, 1, 1, 1, false}};
  for (const Case& c : cases) {
    common::Rng rng(c.in * 31 + c.kernel * 7 + c.h);
    Conv2d conv(c.in, c.out, c.kernel, c.stride, c.pad, c.bias);
    conv.init_params(rng);
    if (c.bias) {
      for (float& v : conv.params()[1].value->storage()) {
        v = rng.normal_float(0, 1);
      }
    }
    const Tensor x = Tensor::randn({3, c.in, c.h, c.w}, rng);
    const Tensor eval = conv.forward(x, /*train=*/false);
    const Tensor train = conv.forward(x, /*train=*/true);
    ASSERT_EQ(eval.shape(), train.shape());
    EXPECT_EQ(std::memcmp(eval.data(), train.data(),
                          eval.numel() * sizeof(float)),
              0)
        << "kernel " << c.kernel << " stride " << c.stride << " plane "
        << c.h << "x" << c.w;
  }
}

TEST(Conv2d, BackwardWithoutTrainForwardThrows) {
  common::Rng rng(5);
  Conv2d conv(2, 3, 3, 1, 1);
  conv.init_params(rng);
  const Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  const Tensor y = conv.forward(x, /*train=*/false);
  EXPECT_THROW(conv.backward(y), std::logic_error);
  // An eval forward also drops the columns a train forward kept.
  conv.forward(x, /*train=*/true);
  conv.forward(x, /*train=*/false);
  EXPECT_THROW(conv.backward(y), std::logic_error);
  conv.forward(x, /*train=*/true);
  EXPECT_NO_THROW(conv.backward(y));
}

class ConvGradCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t, std::size_t>> {};

TEST_P(ConvGradCheck, MatchesFiniteDifference) {
  const auto [in_ch, out_ch, kernel, stride] = GetParam();
  common::Rng rng(11);
  Conv2d conv(in_ch, out_ch, kernel, stride, kernel / 2, /*bias=*/true);
  conv.init_params(rng);
  Tensor x = Tensor::randn({2, in_ch, 6, 6}, rng);
  const auto r = grad_check(conv, x);
  EXPECT_LT(r.max_rel_err, 3e-2) << "abs=" << r.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradCheck,
    ::testing::Values(std::make_tuple(1, 1, 3, 1), std::make_tuple(2, 3, 3, 1),
                      std::make_tuple(3, 2, 3, 2), std::make_tuple(2, 2, 1, 1),
                      std::make_tuple(1, 4, 5, 1)));

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn(2);
  common::Rng rng(13);
  Tensor x = Tensor::randn({8, 2, 4, 4}, rng, 5.0f, 3.0f);
  Tensor y = bn.forward(x, /*train=*/true);
  // Per-channel mean ~0, var ~1 after normalization with gamma=1, beta=0.
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 8; ++n) {
      for (std::size_t p = 0; p < 16; ++p) {
        mean += y[(n * 2 + c) * 16 + p];
        ++count;
      }
    }
    mean /= double(count);
    for (std::size_t n = 0; n < 8; ++n) {
      for (std::size_t p = 0; p < 16; ++p) {
        const double d = y[(n * 2 + c) * 16 + p] - mean;
        var += d * d;
      }
    }
    var /= double(count);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1, /*momentum=*/1.0f);  // running stats = last batch stats
  common::Rng rng(17);
  Tensor x = Tensor::randn({16, 1, 4, 4}, rng, 2.0f, 2.0f);
  bn.forward(x, /*train=*/true);
  // Evaluating the same batch with running stats should also normalize it.
  Tensor y = bn.forward(x, /*train=*/false);
  EXPECT_NEAR(y.mean(), 0.0f, 0.05f);
}

TEST(BatchNorm2d, GradientCheck) {
  common::Rng rng(19);
  BatchNorm2d bn(3);
  Tensor x = Tensor::randn({4, 3, 3, 3}, rng);
  const auto r = grad_check(bn, x);
  EXPECT_LT(r.max_rel_err, 3e-2) << "abs=" << r.max_abs_err;
}

TEST(BatchNorm2d, BackwardWithoutTrainForwardThrows) {
  BatchNorm2d bn(1);
  Tensor x = Tensor::ones({1, 1, 2, 2});
  bn.forward(x, /*train=*/false);
  EXPECT_THROW(bn.backward(x), std::logic_error);
}

TEST(MaxPool2d, SelectsMaximaAndRoutesGradient) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 4, 4},
           std::vector<float>{1, 2, 5, 6,   //
                              3, 4, 7, 8,   //
                              9, 10, 13, 14,  //
                              11, 12, 15, 16});
  Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
  EXPECT_FLOAT_EQ(y[2], 12.0f);
  EXPECT_FLOAT_EQ(y[3], 16.0f);
  Tensor g({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx.at({0, 0, 1, 1}), 1.0f);
  EXPECT_FLOAT_EQ(dx.at({0, 0, 1, 3}), 2.0f);
  EXPECT_FLOAT_EQ(dx.at({0, 0, 3, 1}), 3.0f);
  EXPECT_FLOAT_EQ(dx.at({0, 0, 3, 3}), 4.0f);
  EXPECT_FLOAT_EQ(dx.at({0, 0, 0, 0}), 0.0f);
}

TEST(GlobalAvgPool, MeansAndGradient) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = gap.forward(x, true);
  ASSERT_EQ(y.shape(), (tensor::Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
  Tensor g({1, 2}, std::vector<float>{4.0f, 8.0f});
  Tensor dx = gap.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[4], 2.0f);
}

TEST(Sequential, ComposesAndNamesParams) {
  Sequential seq;
  seq.emplace<Linear>(4, 8);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 2);
  common::Rng rng(23);
  seq.init_params(rng);
  auto params = seq.params("net.");
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "net.0.Linear.weight");
  EXPECT_EQ(params[1].name, "net.0.Linear.bias");
  EXPECT_EQ(params[2].name, "net.2.Linear.weight");
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor y = seq.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 2}));
}

TEST(Sequential, GradientCheckThroughStack) {
  Sequential seq;
  seq.emplace<Linear>(6, 5);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(5, 3);
  common::Rng rng(29);
  seq.init_params(rng);
  Tensor x = Tensor::randn({2, 6}, rng);
  const auto r = grad_check(seq, x);
  EXPECT_LT(r.max_rel_err, 2e-2);
}

TEST(BasicBlock, IdentitySkipPreservesShape) {
  common::Rng rng(31);
  BasicBlock block(8, 8, 1);
  block.init_params(rng);
  Tensor x = Tensor::randn({2, 8, 6, 6}, rng);
  Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_FALSE(block.has_projection());
}

TEST(BasicBlock, ProjectionHandlesStrideAndWidth) {
  common::Rng rng(37);
  BasicBlock block(4, 8, 2);
  block.init_params(rng);
  Tensor x = Tensor::randn({2, 4, 8, 8}, rng);
  Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 8, 4, 4}));
  EXPECT_TRUE(block.has_projection());
}

TEST(BasicBlock, GradientCheck) {
  common::Rng rng(41);
  BasicBlock block(3, 4, 2);
  block.init_params(rng);
  Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
  // eps must stay small: batch-norm's curvature dominates the finite
  // difference above ~1e-2 even though the analytic gradient is exact.
  const auto r = grad_check(block, x, /*train=*/true, /*eps=*/1e-2f);
  EXPECT_LT(r.max_rel_err, 2e-2) << "abs=" << r.max_abs_err;
}

TEST(Sgd, PlainStepMatchesHandComputation) {
  Linear lin(1, 1, /*bias=*/false);
  lin.weight() = Tensor({1, 1}, std::vector<float>{1.0f});
  auto params = lin.params();
  (*params[0].grad)[0] = 2.0f;
  Sgd opt(params, {.lr = 0.1, .momentum = 0.0, .weight_decay = 0.0});
  opt.step();
  EXPECT_FLOAT_EQ(lin.weight()[0], 0.8f);
}

TEST(Sgd, MomentumAccumulates) {
  Linear lin(1, 1, /*bias=*/false);
  lin.weight() = Tensor({1, 1}, std::vector<float>{0.0f});
  auto params = lin.params();
  Sgd opt(params, {.lr = 1.0, .momentum = 0.5, .weight_decay = 0.0});
  (*params[0].grad)[0] = 1.0f;
  opt.step();  // v=1, w=-1
  EXPECT_FLOAT_EQ(lin.weight()[0], -1.0f);
  opt.step();  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(lin.weight()[0], -2.5f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Linear lin(1, 1, /*bias=*/false);
  lin.weight() = Tensor({1, 1}, std::vector<float>{1.0f});
  auto params = lin.params();
  params[0].grad->zero();
  Sgd opt(params, {.lr = 0.1, .momentum = 0.0, .weight_decay = 0.5});
  opt.step();
  EXPECT_FLOAT_EQ(lin.weight()[0], 0.95f);  // w -= lr * wd * w
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 with Adam; gradient = 2(w-3).
  Linear lin(1, 1, /*bias=*/false);
  lin.weight() = Tensor({1, 1}, std::vector<float>{0.0f});
  auto params = lin.params();
  Adam opt(params, {.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    (*params[0].grad)[0] = 2.0f * (lin.weight()[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(lin.weight()[0], 3.0f, 1e-2f);
}

TEST(Optimizer, ZeroGradClearsGradients) {
  Linear lin(2, 2);
  auto params = lin.params();
  params[0].grad->fill(5.0f);
  Sgd opt(params, {});
  opt.zero_grad();
  EXPECT_FLOAT_EQ(params[0].grad->sum(), 0.0f);
}

TEST(ParamFlattening, RoundTrip) {
  common::Rng rng(43);
  Linear lin(3, 2);
  lin.init_params(rng);
  auto params = lin.params("p.");
  const auto flat = flatten_values(params);
  ASSERT_EQ(flat.size(), 8u);  // 6 weights + 2 biases
  lin.weight().zero();
  unflatten_values(flat, params);
  EXPECT_FLOAT_EQ(lin.weight()[0], flat[0]);
  EXPECT_THROW(unflatten_values(std::vector<float>(3), params),
               std::invalid_argument);
}

TEST(ParamFlattening, PrefixFilter) {
  Linear a(2, 2), b(2, 2);
  std::vector<ParamView> views;
  a.collect_params("encoder.0.", views);
  b.collect_params("predictor.0.", views);
  EXPECT_EQ(filter_by_prefix(views, "encoder.").size(), 2u);
  EXPECT_EQ(filter_by_prefix(views, "predictor.").size(), 2u);
  EXPECT_EQ(filter_by_prefix(views, "nothing.").size(), 0u);
}

}  // namespace
}  // namespace spatl::nn
