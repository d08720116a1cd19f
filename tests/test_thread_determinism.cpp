// Thread-count invariance: the same seeded computation produces
// bit-identical floats on pools of 1, 2, and 8 threads.
//
// This locks parallel_for's fixed-chunk contract (chunk boundaries depend
// only on the range and grain, never on pool size) end to end: first on the
// raw tensor/nn kernels, then on a full seeded federated run whose
// aggregated parameters must not move by a single bit when the machine's
// core count changes. SPATL's headline comparisons are replayed from seeds;
// a thread-count-dependent reduction would corrupt them invisibly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/runner.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/module.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace spatl {
namespace {

using tensor::Tensor;

// These suites lock the SCALAR reference backend: its outputs are the
// repository's bit-identity oracle. The cpu-simd backend has its own
// thread-count invariance lock in test_backend.cpp; pinning here keeps this
// suite meaningful even when SPATL_BACKEND is exported in the environment.
class ScalarBackendEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    tensor::set_active_backend(tensor::BackendKind::kScalar);
  }
};

const auto* const kPinScalar =
    ::testing::AddGlobalTestEnvironment(new ScalarBackendEnv);

/// Run `fn` with every parallel_for pinned to a pool of `threads` threads.
template <typename Fn>
auto with_pool_size(std::size_t threads, Fn&& fn) {
  common::ThreadPool pool(threads);
  common::ThreadPool::ScopedOverride scope(pool);
  return fn();
}

testing::AssertionResult bit_identical(const std::vector<float>& a,
                                       const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    return testing::AssertionFailure() << "float payloads differ bitwise";
  }
  return testing::AssertionSuccess();
}

const std::vector<float>& storage(const Tensor& t) { return t.storage(); }

TEST(ThreadDeterminism, MatmulFamilyBitIdenticalAcrossPoolSizes) {
  const auto run = [] {
    common::Rng rng(123);
    const Tensor a = Tensor::randn({67, 123}, rng);
    const Tensor b = Tensor::randn({123, 45}, rng);
    const Tensor bt = Tensor::randn({45, 123}, rng);
    const Tensor at = Tensor::randn({123, 67}, rng);
    std::vector<float> flat;
    Tensor c;
    tensor::matmul(a, b, c);
    flat.insert(flat.end(), storage(c).begin(), storage(c).end());
    tensor::matmul_tn(at, b, c);
    flat.insert(flat.end(), storage(c).begin(), storage(c).end());
    tensor::matmul_nt(a, bt, c);
    flat.insert(flat.end(), storage(c).begin(), storage(c).end());
    return flat;
  };
  const auto one = with_pool_size(1, run);
  const auto two = with_pool_size(2, run);
  const auto eight = with_pool_size(8, run);
  EXPECT_TRUE(bit_identical(one, two));
  EXPECT_TRUE(bit_identical(one, eight));
}

TEST(ThreadDeterminism, ConvAndBatchNormBitIdenticalAcrossPoolSizes) {
  const auto run = [] {
    common::Rng rng(7);
    nn::Conv2d conv(3, 8, 3, 1, 1, /*bias=*/true);
    conv.init_params(rng);
    nn::BatchNorm2d bn(8);
    bn.init_params(rng);
    const Tensor x = Tensor::randn({4, 3, 12, 12}, rng);
    Tensor y = conv.forward(x, /*train=*/true);
    Tensor z = bn.forward(y, /*train=*/true);
    const Tensor dz = Tensor::randn(z.shape(), rng, 0.0f, 0.1f);
    Tensor dy = bn.backward(dz);
    Tensor dx = conv.backward(dy);
    std::vector<float> flat;
    for (const Tensor* t : {&z, &dx}) {
      flat.insert(flat.end(), storage(*t).begin(), storage(*t).end());
    }
    std::vector<nn::ParamView> views;
    conv.collect_params("conv.", views);
    bn.collect_params("bn.", views);
    const auto grads = nn::flatten_grads(views);
    flat.insert(flat.end(), grads.begin(), grads.end());
    flat.insert(flat.end(), storage(bn.running_mean()).begin(),
                storage(bn.running_mean()).end());
    flat.insert(flat.end(), storage(bn.running_var()).begin(),
                storage(bn.running_var()).end());
    return flat;
  };
  const auto one = with_pool_size(1, run);
  const auto two = with_pool_size(2, run);
  const auto eight = with_pool_size(8, run);
  EXPECT_TRUE(bit_identical(one, two));
  EXPECT_TRUE(bit_identical(one, eight));
}

TEST(ThreadDeterminism, CoordinateMedianBitIdenticalAcrossPoolSizes) {
  // 16 rows of 40003 columns: thousands of blocks in many pool chunks, a
  // tail block, and a counted variant whose odd rows are +inf-padded the
  // way the robust aggregator pads masked updates. Each column's bits
  // depend only on its values, on either backend.
  common::Rng rng(31);
  const std::size_t n = 16, dim = 40003;
  std::vector<std::vector<float>> values(n, std::vector<float>(dim));
  std::vector<std::uint32_t> counts(dim, 0);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t j = 0; j < dim; ++j) {
      const bool owned = s % 2 == 0 || rng.bernoulli(0.5);
      values[s][j] = owned ? rng.normal_float(0.0f, 1.0f)
                           : std::numeric_limits<float>::infinity();
      counts[j] += owned ? 1 : 0;
    }
  }
  std::vector<const float*> rows;
  for (const auto& v : values) rows.push_back(v.data());
  const auto run = [&] {
    std::vector<float> flat(2 * dim);
    tensor::coordinate_median(rows.data(), n, nullptr, dim, flat.data());
    tensor::coordinate_median(rows.data(), n, counts.data(), dim,
                              flat.data() + dim);
    return flat;
  };
  std::vector<tensor::BackendKind> kinds = {tensor::BackendKind::kScalar};
  if (tensor::cpu_simd_supported()) {
    kinds.push_back(tensor::BackendKind::kCpuSimd);
  }
  for (const auto kind : kinds) {
    tensor::set_active_backend(kind);
    const auto one = with_pool_size(1, run);
    const auto two = with_pool_size(2, run);
    const auto eight = with_pool_size(8, run);
    EXPECT_TRUE(bit_identical(one, two)) << tensor::backend_name(kind);
    EXPECT_TRUE(bit_identical(one, eight)) << tensor::backend_name(kind);
  }
  tensor::set_active_backend(tensor::BackendKind::kScalar);
}

TEST(ThreadDeterminism, FederatedRunBitIdenticalAcrossPoolSizes) {
  const auto run = [] {
    data::SyntheticConfig scfg;
    scfg.num_samples = 240;
    scfg.image_size = 8;
    scfg.num_classes = 10;
    scfg.noise_stddev = 0.2f;
    scfg.seed = 11;
    const auto source = data::make_synth_cifar(scfg);
    common::Rng rng(13);
    fl::FlEnvironment env(source, /*clients=*/4, /*beta=*/0.5,
                          /*val_fraction=*/0.25, rng);
    fl::FlConfig cfg;
    cfg.model.arch = "cnn2";
    cfg.model.in_channels = 3;
    cfg.model.input_size = 8;
    cfg.model.width_mult = 0.25;
    cfg.model.num_classes = 10;
    cfg.local.epochs = 1;
    cfg.local.batch_size = 32;
    cfg.local.lr = 0.05;
    cfg.seed = 21;
    fl::FedAvg algo(env, cfg);
    fl::RunOptions opts;
    opts.rounds = 3;
    opts.eval_every = 10;  // skip per-round eval; it does not mutate weights
    fl::run_federated(algo, opts);
    return nn::flatten_values(algo.global_model().all_params());
  };
  const auto one = with_pool_size(1, run);
  const auto two = with_pool_size(2, run);
  const auto eight = with_pool_size(8, run);
  EXPECT_TRUE(bit_identical(one, two));
  EXPECT_TRUE(bit_identical(one, eight));
}

}  // namespace
}  // namespace spatl
