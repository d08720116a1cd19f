// ComputeContext backend seam (tensor/backend.hpp): selection semantics,
// the scalar oracle's bit-identity against the historical kernels, NaN/Inf
// propagation on every backend, the cpu-simd backend's documented ulp
// bound + thread-count invariance and its pinned output bits, and the
// exactness of the conv data path around the GEMMs.
//
// Contract under test (tensor/ops.hpp):
//   (a) scalar is bit-identical to the pre-backend kernels on finite inputs
//       (matmul_nt deliberately moved from double to float accumulation;
//       its replica below IS the new documented contract),
//   (b) NaN/Inf in either operand propagates per IEEE-754 on both backends
//       even where pruned rows used to swallow them,
//   (c) cpu-simd is within max ulp distance 4*k of scalar per element and
//       is itself bit-identical across 1/2/8-thread pools,
//   (d) cpu-simd's output bits match known answers recorded before its
//       register-tiled kernels,
//   (e) the conv data path (im2col/col2im, ReLU, MaxPool2d) matches naive
//       loops bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/runner.hpp"
#include "fl/store/format.hpp"
#include "nn/conv.hpp"
#include "nn/depthwise.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace spatl {
namespace {

using tensor::BackendKind;
using tensor::Shape;
using tensor::Tensor;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Pin a backend for one scope, restoring the previous one on exit.
class BackendGuard {
 public:
  explicit BackendGuard(BackendKind kind)
      : prev_(tensor::active_backend()) {
    tensor::set_active_backend(kind);
  }
  ~BackendGuard() { tensor::set_active_backend(prev_); }

 private:
  BackendKind prev_;
};

template <typename Fn>
auto with_pool_size(std::size_t threads, Fn&& fn) {
  common::ThreadPool pool(threads);
  common::ThreadPool::ScopedOverride scope(pool);
  return fn();
}

/// Ulp distance on the monotonic integer number line, +/-0 identified.
/// Returns 0 when both are NaN; the maximum value when exactly one is.
std::int64_t ulp_distance(float a, float b) {
  const bool na = std::isnan(a), nb = std::isnan(b);
  if (na || nb) {
    return na == nb ? 0 : std::numeric_limits<std::int64_t>::max();
  }
  const auto monotonic = [](float x) {
    std::int32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits >= 0 ? std::int64_t(bits)
                     : -std::int64_t(bits & 0x7FFFFFFF);
  };
  const std::int64_t d = monotonic(a) - monotonic(b);
  return d < 0 ? -d : d;
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

Tensor transpose2d(const Tensor& t) {
  const std::size_t m = t.dim(0), n = t.dim(1);
  Tensor out({n, m});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) out[j * m + i] = t[i * n + j];
  }
  return out;
}

/// Zero out full rows of `a` — the salient-pruning pattern the elision
/// fast path exists for.
void prune_rows(Tensor& a, std::initializer_list<std::size_t> rows) {
  const std::size_t k = a.dim(1);
  for (std::size_t r : rows) {
    for (std::size_t p = 0; p < k; ++p) a[r * k + p] = 0.0f;
  }
}

// --- historical-kernel replicas (criterion (a) oracles) --------------------
//
// These serial loops are byte-for-byte the pre-backend matmul/matmul_tn
// bodies, unconditional zero-skip included. Serial is enough: no reduction
// crosses a row, so chunking cannot change any output bit.

Tensor historical_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += av * b[p * n + j];
      }
    }
  }
  return c;
}

Tensor historical_matmul_tn(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[p * m + i];
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += av * b[p * n + j];
      }
    }
  }
  return c;
}

/// The documented float-over-k contract for matmul_nt (ops.hpp) — the one
/// deliberate departure from the pre-backend kernel, which widened to
/// double.
Tensor contract_matmul_nt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[j * k + p];
      c[i * n + j] = acc;
    }
  }
  return c;
}

// --- selection -------------------------------------------------------------

TEST(BackendSelect, ParseNamesAndReject) {
  EXPECT_EQ(tensor::parse_backend("scalar"), BackendKind::kScalar);
  EXPECT_EQ(tensor::parse_backend("cpu-simd"), BackendKind::kCpuSimd);
  const BackendKind autod = tensor::parse_backend("auto");
  EXPECT_EQ(autod, tensor::cpu_simd_supported() ? BackendKind::kCpuSimd
                                                : BackendKind::kScalar);
  EXPECT_THROW(tensor::parse_backend("gpu"), std::invalid_argument);
  EXPECT_THROW(tensor::parse_backend(""), std::invalid_argument);
}

TEST(BackendSelect, NamesRoundTrip) {
  EXPECT_STREQ(tensor::backend_name(BackendKind::kScalar), "scalar");
  EXPECT_STREQ(tensor::backend_name(BackendKind::kCpuSimd), "cpu-simd");
  EXPECT_STREQ(tensor::scalar_context().name(), "scalar");
}

TEST(BackendSelect, SetActiveSwitchesAndRestores) {
  const BackendKind before = tensor::active_backend();
  {
    BackendGuard guard(BackendKind::kScalar);
    EXPECT_EQ(tensor::active_backend(), BackendKind::kScalar);
  }
  EXPECT_EQ(tensor::active_backend(), before);
}

TEST(BackendSelect, CpuSimdContextNeverNull) {
  // Falls back to scalar on unsupported hardware rather than handing the
  // dispatcher a null context.
  const tensor::ComputeContext& ctx = tensor::cpu_simd_context();
  if (tensor::cpu_simd_supported()) {
    EXPECT_EQ(ctx.kind(), BackendKind::kCpuSimd);
  } else {
    EXPECT_EQ(ctx.kind(), BackendKind::kScalar);
  }
}

// --- (a) scalar bit-identity on finite inputs ------------------------------

TEST(ScalarOracle, BitIdenticalToHistoricalKernelsOnPrunedFiniteInputs) {
  BackendGuard guard(BackendKind::kScalar);
  common::Rng rng(0x5CA1A);
  Tensor a = Tensor::randn({37, 53}, rng);
  prune_rows(a, {0, 9, 20, 36});  // exercise the elision fast path
  const Tensor b = Tensor::randn({53, 29}, rng);

  Tensor c;
  tensor::matmul(a, b, c);
  EXPECT_TRUE(bit_identical(c.storage(), historical_matmul(a, b).storage()));

  const Tensor at = transpose2d(a);
  Tensor c_tn;
  tensor::matmul_tn(at, b, c_tn);
  EXPECT_TRUE(
      bit_identical(c_tn.storage(), historical_matmul_tn(at, b).storage()));

  const Tensor bt = transpose2d(b);
  Tensor c_nt;
  tensor::matmul_nt(a, bt, c_nt);
  EXPECT_TRUE(
      bit_identical(c_nt.storage(), contract_matmul_nt(a, bt).storage()));
}

// --- (b) NaN/Inf propagation on both backends ------------------------------

std::vector<BackendKind> available_backends() {
  std::vector<BackendKind> kinds{BackendKind::kScalar};
  if (tensor::cpu_simd_supported()) kinds.push_back(BackendKind::kCpuSimd);
  return kinds;
}

bool has_nan(const Tensor& t) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (std::isnan(t[i])) return true;
  }
  return false;
}

TEST(NonFinitePropagation, PrunedRowsTimesPoisonedBOnEveryBackend) {
  for (const BackendKind kind : available_backends()) {
    BackendGuard guard(kind);
    for (const float poison : {kNaN, kInf, -kInf}) {
      common::Rng rng(0xF00D);
      Tensor a = Tensor::randn({8, 16}, rng);
      prune_rows(a, {2, 5});
      Tensor b = Tensor::randn({16, 11}, rng);
      b[7 * 11 + 4] = poison;

      Tensor c;
      tensor::matmul(a, b, c);
      // The pruned rows hit 0 * poison: the swallowed case pre-PR.
      EXPECT_TRUE(std::isnan(c[2 * 11 + 4]))
          << tensor::backend_name(kind) << " poison " << poison;
      EXPECT_TRUE(std::isnan(c[5 * 11 + 4]))
          << tensor::backend_name(kind) << " poison " << poison;

      Tensor c_tn;
      tensor::matmul_tn(transpose2d(a), b, c_tn);
      EXPECT_TRUE(std::isnan(c_tn[2 * 11 + 4])) << tensor::backend_name(kind);
      EXPECT_TRUE(std::isnan(c_tn[5 * 11 + 4])) << tensor::backend_name(kind);

      Tensor c_nt;
      tensor::matmul_nt(a, transpose2d(b), c_nt);
      EXPECT_TRUE(std::isnan(c_nt[2 * 11 + 4])) << tensor::backend_name(kind);
    }
  }
}

TEST(NonFinitePropagation, ConvForwardCarriesPoisonedInput) {
  for (const BackendKind kind : available_backends()) {
    BackendGuard guard(kind);
    common::Rng rng(31);
    nn::Conv2d conv(2, 4, 3, 1, 1, /*bias=*/true);
    conv.init_params(rng);
    Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
    x[10] = kNaN;
    const Tensor y = conv.forward(x, /*train=*/true);
    EXPECT_TRUE(has_nan(y)) << tensor::backend_name(kind);
  }
}

TEST(NonFinitePropagation, ConvBackwardZeroGradTimesPoisonedWeights) {
  // The exploded-weights case the divergence guard depends on: weights went
  // NaN, the incoming gradient is all zero (dead ReLU region), and dX must
  // still read NaN — pre-PR the zero rows of the gradient GEMM swallowed it.
  for (const BackendKind kind : available_backends()) {
    BackendGuard guard(kind);
    common::Rng rng(32);
    nn::Conv2d conv(2, 4, 3, 1, 1, /*bias=*/false);
    conv.init_params(rng);
    std::vector<nn::ParamView> params;
    conv.collect_params("conv.", params);
    ASSERT_EQ(params.size(), 1u);
    (*params[0].value)[3] = kNaN;  // one exploded weight

    Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
    (void)conv.forward(x, /*train=*/true);
    Tensor gout({1, 4, 6, 6});  // all-zero upstream gradient
    const Tensor dx = conv.backward(gout);
    EXPECT_TRUE(has_nan(dx)) << tensor::backend_name(kind);
  }
}

TEST(NonFinitePropagation, DepthwiseBackwardPoisonedFilter) {
  // Same bug class in the depthwise backward's gv == 0 skip.
  common::Rng rng(33);
  nn::DepthwiseConv2d dw(2, 3, 1, 1);
  dw.init_params(rng);
  std::vector<nn::ParamView> params;
  dw.collect_params("dw.", params);
  ASSERT_EQ(params.size(), 1u);
  (*params[0].value)[1] = kNaN;

  Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  (void)dw.forward(x, /*train=*/true);
  Tensor gout({1, 2, 5, 5});  // all-zero upstream gradient
  const Tensor dx = dw.backward(gout);
  EXPECT_TRUE(has_nan(dx));
}

TEST(NonFinitePropagation, DepthwiseBackwardPoisonedInput) {
  common::Rng rng(34);
  nn::DepthwiseConv2d dw(1, 3, 1, 1);
  dw.init_params(rng);
  Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
  x[12] = kInf;
  (void)dw.forward(x, /*train=*/true);
  Tensor gout({1, 1, 5, 5});  // all-zero upstream gradient
  (void)dw.backward(gout);
  std::vector<nn::ParamView> params;
  dw.collect_params("dw.", params);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_TRUE(has_nan(*params[0].grad))
      << "0 * Inf from the poisoned input must reach the filter gradient";
}

// --- (c) cpu-simd: ulp bound vs scalar, bit-identity across pools ----------

struct GemmCase {
  std::size_t m, k, n;
};

// Shapes chosen to hit every SIMD code path: the 24-column nn/tn tile, the
// 8- and 16-column remainders, the masked tail, 1- to 4-row tiles, the
// 2x4 nt tile, its row and column remainders, and the k tail.
const GemmCase kGemmCases[] = {
    {1, 1, 1},   {2, 3, 4},    {7, 5, 3},     {16, 16, 16},
    {33, 17, 9}, {67, 123, 45}, {12, 64, 40},  {5, 9, 77},
};

std::vector<float> run_gemm_family(const GemmCase& gc, bool pruned) {
  common::Rng rng(gc.m * 7919 + gc.k * 131 + gc.n);
  Tensor a = Tensor::randn({gc.m, gc.k}, rng);
  if (pruned && gc.m > 2) prune_rows(a, {0, gc.m / 2});
  const Tensor b = Tensor::randn({gc.k, gc.n}, rng);
  const Tensor at = transpose2d(a);
  const Tensor bt = transpose2d(b);
  std::vector<float> flat;
  Tensor c;
  tensor::matmul(a, b, c);
  flat.insert(flat.end(), c.storage().begin(), c.storage().end());
  tensor::matmul_tn(at, b, c);
  flat.insert(flat.end(), c.storage().begin(), c.storage().end());
  tensor::matmul_nt(a, bt, c);
  flat.insert(flat.end(), c.storage().begin(), c.storage().end());
  return flat;
}

// The |a|·|b| dot per output element: the natural scale for accumulation
// error. A bound in ulps *of the result* is not cancellation-safe — when
// partial products nearly cancel, the result's magnitude (and with it its
// ulp) shrinks while the rounding error, proportional to the magnitudes
// that were summed, does not. The contract therefore measures ulps at the
// scale of the absolute-value dot product (tensor/ops.hpp).
std::vector<float> abs_dot_scale(const GemmCase& gc, bool pruned) {
  common::Rng rng(gc.m * 7919 + gc.k * 131 + gc.n);
  Tensor a = Tensor::randn({gc.m, gc.k}, rng);
  if (pruned && gc.m > 2) prune_rows(a, {0, gc.m / 2});
  const Tensor b = Tensor::randn({gc.k, gc.n}, rng);
  std::vector<float> scale(gc.m * gc.n, 0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < gc.m; ++i) {
    for (std::size_t p = 0; p < gc.k; ++p) {
      const float av = std::fabs(pa[i * gc.k + p]);
      for (std::size_t j = 0; j < gc.n; ++j) {
        scale[i * gc.n + j] += av * std::fabs(pb[p * gc.n + j]);
      }
    }
  }
  return scale;
}

TEST(SimdBackend, WithinDocumentedUlpBoundOfScalarAcrossPools) {
  if (!tensor::cpu_simd_supported()) {
    GTEST_SKIP() << "CPU lacks AVX2/FMA";
  }
  constexpr float kUlpAtUnit = 1.1920929e-7f;  // 2^-23: ulp spacing at 1.0
  for (const GemmCase& gc : kGemmCases) {
    for (const bool pruned : {false, true}) {
      const auto scalar = [&] {
        BackendGuard guard(BackendKind::kScalar);
        return run_gemm_family(gc, pruned);
      }();
      // All three variants compute the same product, so one m x n scale
      // table covers the whole concatenated family output.
      const auto scale = abs_dot_scale(gc, pruned);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        const auto simd = with_pool_size(threads, [&] {
          BackendGuard guard(BackendKind::kCpuSimd);
          return run_gemm_family(gc, pruned);
        });
        ASSERT_EQ(simd.size(), scalar.size());
        ASSERT_EQ(simd.size(), 3 * scale.size());
        const std::int64_t bound = 4 * std::int64_t(gc.k);
        for (std::size_t i = 0; i < simd.size(); ++i) {
          // Primary contract: <= 4k ulps measured at the |a|.|b| scale.
          // The result-relative ulp distance is accepted too (it is the
          // tighter reading whenever no cancellation occurred).
          const float abs_err = std::fabs(simd[i] - scalar[i]);
          const float abs_bound =
              float(bound) * kUlpAtUnit * scale[i % scale.size()];
          if (abs_err <= abs_bound) continue;
          ASSERT_LE(ulp_distance(simd[i], scalar[i]), bound)
              << "m=" << gc.m << " k=" << gc.k << " n=" << gc.n
              << " pruned=" << pruned << " threads=" << threads
              << " element " << i << ": " << simd[i] << " vs " << scalar[i]
              << " (|a|.|b| scale " << scale[i % scale.size()] << ")";
        }
      }
    }
  }
}

TEST(SimdBackend, BitIdenticalAcrossPoolSizes) {
  if (!tensor::cpu_simd_supported()) {
    GTEST_SKIP() << "CPU lacks AVX2/FMA";
  }
  const auto run = [] {
    BackendGuard guard(BackendKind::kCpuSimd);
    std::vector<float> flat;
    for (const GemmCase& gc : kGemmCases) {
      const auto r = run_gemm_family(gc, /*pruned=*/true);
      flat.insert(flat.end(), r.begin(), r.end());
    }
    return flat;
  };
  const auto one = with_pool_size(1, run);
  const auto two = with_pool_size(2, run);
  const auto eight = with_pool_size(8, run);
  EXPECT_TRUE(bit_identical(one, two));
  EXPECT_TRUE(bit_identical(one, eight));
}

// --- (d) cpu-simd known answers ---------------------------------------------
//
// CRC-32s of cpu-simd GEMM outputs on seeded inputs, recorded from the
// one-row-at-a-time AVX2 panels that preceded the register-tiled kernels.
// The tiled kernels promise the same operation sequence per output element
// (an FMA chain over ascending p from +0 for nn/tn; eight lane partials, the
// same hsum tree and the same scalar tail for nt), so not one output bit may
// move. A kernel change that alters any output fails here.

std::uint32_t crc_of(const Tensor& t) {
  return fl::store::crc32(t.data(), t.numel() * sizeof(float));
}

/// How the A operand is thinned, mimicking what reaches the GEMMs in
/// training: post-ReLU activations and gradients (about half zero) and
/// gradients routed back through 2x2 max-pooling (three quarters zero more).
enum class Sparsity { kDense, kRelu, kPool };

Tensor seeded_operand(std::size_t rows, std::size_t cols, Sparsity s,
                      common::Rng& rng) {
  Tensor t = Tensor::randn({rows, cols}, rng);
  for (float& v : t.storage()) {
    if (s != Sparsity::kDense && v < 0.0f) v = 0.0f;
    if (s == Sparsity::kPool && rng.uniform() < 0.75) v = 0.0f;
  }
  return t;
}

/// One GEMM-bearing layer at a benchmark workload's training shape: `rows`
/// im2col rows (batch x out_h x out_w, or the batch for a Linear), `patch`
/// columns (C_in x k x k, or in_features) and `out` channels. Forward is
/// matmul_nt(cols, W), backward matmul_tn(dRows, cols) for dW and
/// matmul(dRows, W) for dCols.
struct LayerCrc {
  const char* layer;
  std::size_t rows, patch, out;
  std::uint32_t fwd_nt, dw_tn, dx_nn;
};

const LayerCrc kLayerCrcs[] = {
    // cnn2 / 16x16 / width 0.5, batch 16: 5x5 convs, then the predictor.
    {"cnn2.conv1", 4096, 25, 16, 0xdd49f4eau, 0x204e3bebu, 0x255ae4f7u},
    {"cnn2.conv2", 1024, 400, 32, 0x5ca187b7u, 0xf7952c17u, 0xab24342du},
    {"cnn2.fc1", 16, 512, 128, 0x1a5526a5u, 0x1caeb891u, 0x31130766u},
    {"cnn2.fc2", 16, 128, 10, 0xd32673bfu, 0x48cda674u, 0xf5470accu},
    // resnet20 / 16x16 / width 0.5, batch 16: one of each distinct shape,
    // 1x1 strided projections included.
    {"resnet20.stem", 4096, 27, 8, 0xed4833bcu, 0x82489f46u, 0xff7d09c1u},
    {"resnet20.stage1", 4096, 72, 8, 0x81d19168u, 0xce4c992du, 0xaceefed5u},
    {"resnet20.down2", 1024, 72, 16, 0xb9df4ea3u, 0x1d616e75u, 0xef10b8fdu},
    {"resnet20.proj2", 1024, 8, 16, 0xf3d53c9cu, 0x6755edc0u, 0xd426fa4du},
    {"resnet20.stage2", 1024, 144, 16, 0x3cf61adbu, 0x7ab77247u, 0x06a8b9f3u},
    {"resnet20.down3", 256, 144, 32, 0xd9a4962du, 0xe144977eu, 0x69c000a5u},
    {"resnet20.proj3", 256, 16, 32, 0x7a1ef5cfu, 0x9da95b9cu, 0x8eceb217u},
    {"resnet20.stage3", 256, 288, 32, 0xa76397a2u, 0x4a455103u, 0xa0b403e2u},
    // vgg11 / 8x8 / width 0.5, batch 16.
    {"vgg11.conv1", 1024, 27, 32, 0xd552eb8eu, 0x2f3a482fu, 0x0d4fee08u},
    {"vgg11.conv2", 256, 288, 64, 0xf92b95b6u, 0x04d82f99u, 0x49d5f675u},
    {"vgg11.conv3", 64, 576, 128, 0x93276503u, 0xb549b741u, 0xf071c9d8u},
    {"vgg11.conv4", 64, 1152, 128, 0x867860f1u, 0xdae7bf79u, 0xfdcf0b73u},
    {"vgg11.conv5", 16, 1152, 256, 0x3b2f5753u, 0xd4e8ff54u, 0x3d282381u},
    {"vgg11.conv6", 16, 2304, 256, 0x2fb8db45u, 0xed529d11u, 0x7200e286u},
};

TEST(SimdKnownAnswer, WorkloadLayerGemmsMatchRecordedBits) {
  if (!tensor::cpu_simd_supported()) {
    GTEST_SKIP() << "CPU lacks AVX2/FMA";
  }
  BackendGuard guard(BackendKind::kCpuSimd);
  for (const LayerCrc& lc : kLayerCrcs) {
    common::Rng rng(lc.rows * 1000003 + lc.patch * 1009 + lc.out);
    const Tensor cols = seeded_operand(lc.rows, lc.patch, Sparsity::kRelu, rng);
    const Tensor w = seeded_operand(lc.out, lc.patch, Sparsity::kDense, rng);
    const Tensor grows = seeded_operand(lc.rows, lc.out, Sparsity::kPool, rng);
    Tensor c;
    tensor::matmul_nt(cols, w, c);
    EXPECT_EQ(crc_of(c), lc.fwd_nt) << lc.layer << " fwd_nt";
    tensor::matmul_tn(grows, cols, c);
    EXPECT_EQ(crc_of(c), lc.dw_tn) << lc.layer << " dw_tn";
    tensor::matmul(grows, w, c);
    EXPECT_EQ(crc_of(c), lc.dx_nn) << lc.layer << " dx_nn";
  }
}

/// Edge geometries: m off the row tile, n % 8 in 1..7, k < 8 and k % 8 != 0,
/// k spanning several depth blocks, sparse A, and a poisoned B (NaN and
/// +/-Inf, so b_finite is false and every 0 * non-finite product must be
/// formed).
struct EdgeCrc {
  std::size_t m, k, n;
  Sparsity sparsity;
  bool poison_b;
  std::uint32_t nn, tn, nt;
};

const EdgeCrc kEdgeCrcs[] = {
    {1, 1, 1, Sparsity::kDense, false,
     0x9359b754u, 0x9359b754u, 0x9359b754u},
    {37, 5, 9, Sparsity::kDense, false,
     0xac10d644u, 0xac10d644u, 0xac10d644u},
    {13, 3, 15, Sparsity::kRelu, false,
     0x9464ac46u, 0x9464ac46u, 0x9464ac46u},
    {29, 13, 18, Sparsity::kRelu, false,
     0xd8d7fd5au, 0xd8d7fd5au, 0xdd62ec75u},
    {7, 21, 20, Sparsity::kPool, false,
     0xf5670d35u, 0xf5670d35u, 0x01047c89u},
    {45, 8, 22, Sparsity::kRelu, false,
     0xce0e0af5u, 0xce0e0af5u, 0xf33f9ac8u},
    {11, 19, 3, Sparsity::kPool, false,
     0x3c7c1d5du, 0x3c7c1d5du, 0x98dfe42eu},
    {6, 17, 45, Sparsity::kDense, false,
     0x34de9615u, 0x34de9615u, 0x2c94012cu},
    {50, 33, 13, Sparsity::kPool, false,
     0x9108a63bu, 0x9108a63bu, 0x27c90eeau},
    {26, 7, 100, Sparsity::kRelu, false,
     0xfb8745a5u, 0xfb8745a5u, 0xfb8745a5u},
    {23, 11, 27, Sparsity::kRelu, true,
     0x3f1fb2a9u, 0x3f1fb2a9u, 0x5ceddbf8u},
    {9, 40, 31, Sparsity::kPool, true,
     0x01c2a208u, 0x01c2a208u, 0x7374da6du},
    {10, 520, 9, Sparsity::kRelu, false,
     0x7f488ed5u, 0x7f488ed5u, 0x6d6ec5acu},
    {5, 300, 10, Sparsity::kPool, true,
     0x8d429d8bu, 0x8d429d8bu, 0xf9a7c86cu},
};

TEST(SimdKnownAnswer, EdgeGeometriesMatchRecordedBits) {
  if (!tensor::cpu_simd_supported()) {
    GTEST_SKIP() << "CPU lacks AVX2/FMA";
  }
  BackendGuard guard(BackendKind::kCpuSimd);
  for (const EdgeCrc& ec : kEdgeCrcs) {
    common::Rng rng(ec.m * 7919 + ec.k * 131 + ec.n);
    Tensor a = seeded_operand(ec.m, ec.k, ec.sparsity, rng);
    if (ec.m > 4) prune_rows(a, {1, ec.m - 2});
    Tensor b = seeded_operand(ec.k, ec.n, Sparsity::kDense, rng);
    if (ec.poison_b) {
      b[(ec.k / 2) * ec.n + ec.n - 1] = kNaN;
      b[ec.n / 3] = kInf;
      b[(ec.k - 1) * ec.n] = -kInf;
    }
    Tensor c;
    tensor::matmul(a, b, c);
    EXPECT_EQ(crc_of(c), ec.nn) << ec.m << "x" << ec.k << "x" << ec.n << " nn";
    tensor::matmul_tn(transpose2d(a), b, c);
    EXPECT_EQ(crc_of(c), ec.tn) << ec.m << "x" << ec.k << "x" << ec.n << " tn";
    tensor::matmul_nt(a, transpose2d(b), c);
    EXPECT_EQ(crc_of(c), ec.nt) << ec.m << "x" << ec.k << "x" << ec.n << " nt";
  }
}

// --- (e) conv data path vs naive loops --------------------------------------
//
// im2col/col2im, ReLU and MaxPool2d are pure data movement (plus col2im's
// per-pixel sums), so every backend must reproduce these naive loops bit
// for bit, on any geometry and with NaN, Inf and -0 in the data.

/// Randn data salted with the values that trip up branch-free rewrites.
Tensor salted(Shape shape, common::Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  const float specials[] = {0.0f, -0.0f, kNaN, kInf, -kInf, 1e-40f, -1e-40f};
  for (std::size_t i = 0; i < t.numel(); i += 5) {
    t[i] = specials[(i / 5) % (sizeof(specials) / sizeof(float))];
  }
  return t;
}

struct ConvGeomCase {
  std::size_t batch, channels, h, w, kernel, stride, pad;
};

const ConvGeomCase kConvGeoms[] = {
    {2, 3, 7, 5, 3, 2, 1}, {2, 2, 2, 3, 3, 1, 2}, {1, 1, 1, 1, 1, 1, 0},
    {2, 4, 9, 6, 1, 2, 0}, {1, 2, 3, 3, 5, 1, 2}, {2, 3, 6, 8, 3, 1, 0},
    {1, 2, 5, 7, 3, 2, 2}, {2, 1, 2, 1, 3, 1, 1}, {1, 3, 8, 8, 5, 2, 1},
    {3, 2, 16, 16, 3, 1, 1}, {2, 16, 8, 8, 5, 1, 2}, {2, 3, 6, 5, 2, 2, 1},
    {1, 2, 4, 5, 7, 1, 3},
};

tensor::Conv2dGeom geom_of(const ConvGeomCase& gc) {
  return tensor::Conv2dGeom{gc.channels, gc.h, gc.w,
                            gc.kernel,   gc.stride, gc.pad};
}

Tensor naive_im2col(const Tensor& in, const tensor::Conv2dGeom& g) {
  const std::size_t batch = in.dim(0), oh = g.out_h(), ow = g.out_w();
  Tensor cols({batch * oh * ow, g.patch_size()});
  std::size_t idx = 0;
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox)
        for (std::size_t c = 0; c < g.in_channels; ++c)
          for (std::size_t ky = 0; ky < g.kernel; ++ky)
            for (std::size_t kx = 0; kx < g.kernel; ++kx) {
              const long iy = long(oy * g.stride + ky) - long(g.pad);
              const long ix = long(ox * g.stride + kx) - long(g.pad);
              const bool inside = iy >= 0 && iy < long(g.in_h) && ix >= 0 &&
                                  ix < long(g.in_w);
              cols[idx++] =
                  inside ? in[((n * g.in_channels + c) * g.in_h +
                               std::size_t(iy)) * g.in_w + std::size_t(ix)]
                         : 0.0f;
            }
  return cols;
}

Tensor naive_col2im(const Tensor& cols, const tensor::Conv2dGeom& g,
                    std::size_t batch) {
  Tensor out({batch, g.in_channels, g.in_h, g.in_w});
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t idx = 0;
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox)
        for (std::size_t c = 0; c < g.in_channels; ++c)
          for (std::size_t ky = 0; ky < g.kernel; ++ky)
            for (std::size_t kx = 0; kx < g.kernel; ++kx) {
              const float v = cols[idx++];
              const long iy = long(oy * g.stride + ky) - long(g.pad);
              const long ix = long(ox * g.stride + kx) - long(g.pad);
              if (iy >= 0 && iy < long(g.in_h) && ix >= 0 &&
                  ix < long(g.in_w)) {
                out[((n * g.in_channels + c) * g.in_h + std::size_t(iy)) *
                        g.in_w +
                    std::size_t(ix)] += v;
              }
            }
  return out;
}

TEST(ConvDataPath, Im2colAndCol2imMatchNaiveLoops) {
  for (const ConvGeomCase& gc : kConvGeoms) {
    const tensor::Conv2dGeom g = geom_of(gc);
    common::Rng rng(gc.h * 131 + gc.w * 17 + gc.kernel * 5 + gc.pad);
    const Tensor in = salted({gc.batch, gc.channels, gc.h, gc.w}, rng);
    Tensor cols;
    tensor::im2col(in, g, cols);
    EXPECT_TRUE(bit_identical(cols.storage(), naive_im2col(in, g).storage()))
        << "im2col h=" << gc.h << " w=" << gc.w << " k=" << gc.kernel
        << " s=" << gc.stride << " p=" << gc.pad;

    const Tensor dcols = salted(cols.shape(), rng);
    Tensor dx;
    tensor::col2im(dcols, g, gc.batch, dx);
    EXPECT_TRUE(
        bit_identical(dx.storage(), naive_col2im(dcols, g, gc.batch).storage()))
        << "col2im h=" << gc.h << " w=" << gc.w << " k=" << gc.kernel
        << " s=" << gc.stride << " p=" << gc.pad;
  }
}

TEST(ConvDataPath, Im2colFinitenessReportMatchesItsColumns) {
  // A train conv forward records whether every column it kept is finite,
  // so a NaN on a pixel no window reads (e.g. past a strided 1x1 window)
  // must not clear the report, and one that some window reads must. The
  // kept columns are im2col's.
  for (const ConvGeomCase& gc : kConvGeoms) {
    const tensor::Conv2dGeom g = geom_of(gc);
    common::Rng rng(gc.h * 7 + gc.w * 3 + gc.kernel + gc.stride);
    const Tensor w = Tensor::randn({2, g.patch_size()}, rng);
    const std::size_t numel = gc.batch * gc.channels * gc.h * gc.w;
    const std::size_t step = std::max<std::size_t>(1, numel / 7);
    for (std::size_t at = 0; at <= numel; at += step) {
      Tensor in = Tensor::randn({gc.batch, gc.channels, gc.h, gc.w}, rng);
      if (at < numel) in[at] = (at % 2 == 0) ? kNaN : -kInf;
      tensor::ConvColumns kept;
      Tensor out;
      tensor::conv2d_forward(in, g, w, nullptr, &kept, out);
      const Tensor& cols = kept.matrix();
      EXPECT_EQ(kept.finite(), tensor::all_finite(cols.data(), cols.numel()))
          << "h=" << gc.h << " w=" << gc.w << " k=" << gc.kernel
          << " s=" << gc.stride << " p=" << gc.pad << " at=" << at;
      EXPECT_TRUE(bit_identical(cols.storage(), naive_im2col(in, g).storage()));
    }
  }
}

TEST(ConvDataPath, ReluMatchesNaiveLoops) {
  common::Rng rng(77);
  const Tensor x = salted({3, 5, 7, 9}, rng);
  const Tensor g = salted(x.shape(), rng);
  nn::ReLU relu;
  const Tensor y = relu.forward(x, /*train=*/true);
  const Tensor dx = relu.backward(g);
  Tensor want_y = x, want_dx = g;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    want_y[i] = std::max(x[i], 0.0f);
    if (x[i] <= 0.0f) want_dx[i] = 0.0f;
  }
  EXPECT_TRUE(bit_identical(y.storage(), want_y.storage()));
  EXPECT_TRUE(bit_identical(dx.storage(), want_dx.storage()));
}

struct PoolCase {
  std::size_t batch, channels, h, w, kernel, stride;
};

TEST(ConvDataPath, MaxPoolMatchesNaiveLoops) {
  const PoolCase cases[] = {
      {2, 3, 8, 8, 2, 2}, {2, 2, 7, 5, 2, 2}, {1, 3, 9, 9, 3, 2},
      {1, 2, 6, 7, 2, 1}, {2, 2, 6, 6, 3, 3}, {1, 1, 2, 2, 2, 2},
      {2, 4, 3, 17, 2, 2},
  };
  for (const PoolCase& pc : cases) {
    common::Rng rng(pc.h * 31 + pc.w * 7 + pc.kernel + pc.stride);
    Tensor x = salted({pc.batch, pc.channels, pc.h, pc.w}, rng);
    // Tied windows (first max wins), an all-NaN window and an all -Inf
    // window (neither has a max; the argmax stays at the plane origin).
    for (std::size_t i = 0; i + 1 < x.numel(); i += 11) x[i + 1] = x[i];
    x[0] = x[1] = x[pc.w] = x[pc.w + 1] = kNaN;
    const std::size_t plane = pc.h * pc.w;
    if (pc.batch * pc.channels > 1) {
      x[plane] = x[plane + 1] = x[plane + pc.w] = x[plane + pc.w + 1] = -kInf;
    }

    const std::size_t oh = (pc.h - pc.kernel) / pc.stride + 1;
    const std::size_t ow = (pc.w - pc.kernel) / pc.stride + 1;
    Tensor want_y({pc.batch, pc.channels, oh, ow});
    std::vector<std::size_t> want_arg(want_y.numel());
    for (std::size_t p = 0; p < pc.batch * pc.channels; ++p)
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -kInf;
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < pc.kernel; ++ky)
            for (std::size_t kx = 0; kx < pc.kernel; ++kx) {
              const std::size_t at =
                  (oy * pc.stride + ky) * pc.w + ox * pc.stride + kx;
              if (x[p * plane + at] > best) {
                best = x[p * plane + at];
                best_idx = at;
              }
            }
          want_y[(p * oh + oy) * ow + ox] = best;
          want_arg[(p * oh + oy) * ow + ox] = p * plane + best_idx;
        }

    nn::MaxPool2d pool(pc.kernel, pc.stride);
    const Tensor y = pool.forward(x, /*train=*/true);
    EXPECT_TRUE(bit_identical(y.storage(), want_y.storage()))
        << "h=" << pc.h << " w=" << pc.w << " k=" << pc.kernel
        << " s=" << pc.stride;

    const Tensor g = salted(y.shape(), rng);
    Tensor want_dx(x.shape());
    for (std::size_t i = 0; i < g.numel(); ++i) want_dx[want_arg[i]] += g[i];
    const Tensor dx = pool.backward(g);
    EXPECT_TRUE(bit_identical(dx.storage(), want_dx.storage()))
        << "h=" << pc.h << " w=" << pc.w << " k=" << pc.kernel
        << " s=" << pc.stride;
  }
}

// --- (f) conv layer known answers ------------------------------------------
//
// CRC-32s of whole Conv2d and BasicBlock forward/backward passes on both
// backends, recorded from the conv data path that staged the forward GEMM
// through a full-size rows tensor, scanned the im2col matrix a second time
// for the dW elision licence and scatter-added col2im into a zeroed tensor.
// Every rewrite of that path keeps each output element's operation order,
// so not one bit may move on either backend.

/// Where a NaN lands in a conv input: nowhere, on a pixel every window
/// reads, or on a pixel a strided 1x1 window skips (im2col never copies it,
/// so dW keeps its elision licence).
enum class Poison { kNone, kRead, kSkipped };

struct ConvCrcCase {
  const char* name;
  std::size_t batch, in_ch, out_ch, h, w, kernel, stride, pad;
  bool bias;
  Poison poison;
  std::uint32_t scalar[4], simd[4];  // out, dx, dW, db (0 without bias)
};

const ConvCrcCase kConvCrcs[] = {
    {"cnn2.conv1", 4, 1, 8, 16, 16, 5, 1, 2, true, Poison::kNone,
     {0x7b88569cu, 0xf92b52ddu, 0xa673920au, 0x04c48cbbu},
     {0xb826c56fu, 0x47663e78u, 0x1cbb9792u, 0x04c48cbbu}},
    {"cnn2.conv2", 4, 8, 16, 8, 8, 5, 1, 2, true, Poison::kNone,
     {0x13d2cd57u, 0x15c74507u, 0xf3fdfd93u, 0xf33c6cf2u},
     {0x8bad82cdu, 0x353f6687u, 0x13abf117u, 0xf33c6cf2u}},
    {"resnet20.3x3s1", 4, 8, 8, 16, 16, 3, 1, 1, false, Poison::kNone,
     {0xa371e4f1u, 0xb5f3651eu, 0x09d9527au, 0x00000000u},
     {0x5fedae8bu, 0x25c77bf5u, 0x828bdff0u, 0x00000000u}},
    {"resnet20.3x3s2", 4, 8, 16, 16, 16, 3, 2, 1, false, Poison::kNone,
     {0x7188806fu, 0x851129cbu, 0x4374ee6cu, 0x00000000u},
     {0x2decdb07u, 0x1f2f75e4u, 0x6182b255u, 0x00000000u}},
    {"resnet20.1x1s1", 4, 8, 16, 8, 8, 1, 1, 0, false, Poison::kNone,
     {0x7e30dd8fu, 0x9dca4c30u, 0xced740afu, 0x00000000u},
     {0x9a0d41deu, 0x78859c7fu, 0x489d944au, 0x00000000u}},
    {"resnet20.1x1s2", 4, 16, 32, 8, 8, 1, 2, 0, false, Poison::kNone,
     {0x329546e3u, 0xfa669cf0u, 0xea7fb930u, 0x00000000u},
     {0xb9030a6du, 0x80311b2eu, 0x1aed9e3bu, 0x00000000u}},
    {"vgg11.2x2", 4, 32, 64, 2, 2, 3, 1, 1, false, Poison::kNone,
     {0xec24a173u, 0xa575d60eu, 0xa2cb08d2u, 0x00000000u},
     {0x5696f5c9u, 0x51157f3du, 0x84260353u, 0x00000000u}},
    {"vgg11.1x1", 4, 64, 64, 1, 1, 3, 1, 1, false, Poison::kNone,
     {0xbc3bcb13u, 0x0f045779u, 0xa0689c18u, 0x00000000u},
     {0x2fcf0452u, 0x1cab30c3u, 0x5e3d9e2du, 0x00000000u}},
    {"odd.7x5", 3, 3, 5, 7, 5, 3, 1, 1, true, Poison::kNone,
     {0xd34f6319u, 0xc6ddedd4u, 0x0ba65fcbu, 0xe308e28au},
     {0xa2ee70cbu, 0xb8d9e867u, 0x307e4088u, 0xe308e28au}},
    {"odd.7x9s2", 2, 4, 6, 7, 9, 3, 2, 1, false, Poison::kNone,
     {0xf99518d6u, 0x49834a63u, 0x7e5f4f47u, 0x00000000u},
     {0x2959ec9eu, 0x03445f74u, 0xea14603au, 0x00000000u}},
    {"batch1", 1, 8, 8, 16, 16, 3, 1, 1, false, Poison::kNone,
     {0x72977166u, 0x34a2b7a7u, 0x86f358d1u, 0x00000000u},
     {0x7003f398u, 0xa0a53b55u, 0x11b741bfu, 0x00000000u}},
    {"nan.read", 2, 4, 8, 6, 6, 3, 1, 1, true, Poison::kRead,
     {0x743d2c22u, 0x488cf501u, 0xcb05cdd9u, 0xc6c3e3a3u},
     {0xce865624u, 0x390edbd2u, 0xf0b488efu, 0xc6c3e3a3u}},
    {"nan.skipped", 2, 4, 8, 6, 6, 1, 2, 0, false, Poison::kSkipped,
     {0xb02678bbu, 0xe324718cu, 0xecbbdec9u, 0x00000000u},
     {0x5d9d5414u, 0xd0ad0ca3u, 0x64c88a88u, 0x00000000u}},
};

/// Post-ReLU-like activations (about half zero), so dW's elision matters.
Tensor seeded_activations(Shape shape, common::Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (float& v : t.storage()) v = v < 0.0f ? 0.0f : v;
  return t;
}

/// Output gradients thinned as max-pooling and ReLU thin them.
Tensor seeded_grad(Shape shape, common::Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (float& v : t.storage()) {
    if (rng.uniform() < 0.6) v = 0.0f;
  }
  return t;
}

std::uint32_t grads_crc(nn::Module& m) {
  const std::vector<float> g = nn::flatten_grads(m.params());
  return fl::store::crc32(g.data(), g.size() * sizeof(float));
}

std::vector<std::uint32_t> conv_pass_crcs(const ConvCrcCase& cc) {
  common::Rng rng(cc.batch * 1000003 + cc.in_ch * 7919 + cc.out_ch * 131 +
                  cc.h * 17 + cc.w * 5 + cc.kernel * 3 + cc.stride);
  nn::Conv2d conv(cc.in_ch, cc.out_ch, cc.kernel, cc.stride, cc.pad, cc.bias);
  conv.init_params(rng);
  std::vector<nn::ParamView> params = conv.params();
  if (cc.bias) {
    for (float& v : params[1].value->storage()) v = rng.normal_float(0, 0.5f);
  }
  Tensor x = seeded_activations({cc.batch, cc.in_ch, cc.h, cc.w}, rng);
  if (cc.poison == Poison::kRead) x[cc.h * cc.w + cc.w + 2] = kNaN;
  if (cc.poison == Poison::kSkipped) x[cc.w + 1] = kNaN;
  const Tensor y = conv.forward(x, /*train=*/true);
  const Tensor dx = conv.backward(seeded_grad(y.shape(), rng));
  return {crc_of(y), crc_of(dx), crc_of(*params[0].grad),
          cc.bias ? crc_of(*params[1].grad) : 0u};
}

struct BlockCrcCase {
  const char* name;
  std::size_t batch, in_ch, out_ch, h, w, stride;
  std::uint32_t scalar[4], simd[4];  // out, dx, param grads, eval out
};

const BlockCrcCase kBlockCrcs[] = {
    {"identity", 4, 8, 8, 8, 8, 1,
     {0x96640936u, 0x82d43f8du, 0x36868fdeu, 0x888472f3u},
     {0xf60ec4fau, 0x9ceea9d4u, 0xe5315a43u, 0xf28c9444u}},
    {"projection", 4, 8, 16, 8, 8, 2,
     {0x6d4377b4u, 0xbdf74b3bu, 0x1a28efbfu, 0x6c52ae36u},
     {0x544018c4u, 0xde6ae6ceu, 0x029a178eu, 0xf8ed66b6u}},
    {"projection.odd", 3, 4, 8, 7, 5, 2,
     {0x7d4fcf44u, 0xb19459beu, 0x21b7727fu, 0x688e523bu},
     {0x4344d74du, 0x07e25033u, 0x173e7386u, 0x22c8644bu}},
};

std::vector<std::uint32_t> block_pass_crcs(const BlockCrcCase& bc) {
  common::Rng rng(bc.batch * 1000003 + bc.in_ch * 7919 + bc.out_ch * 131 +
                  bc.h * 17 + bc.w * 5 + bc.stride);
  nn::BasicBlock block(bc.in_ch, bc.out_ch, bc.stride);
  block.init_params(rng);
  const Tensor x = seeded_activations({bc.batch, bc.in_ch, bc.h, bc.w}, rng);
  const Tensor y = block.forward(x, /*train=*/true);
  const Tensor dx = block.backward(seeded_grad(y.shape(), rng));
  const std::uint32_t grads = grads_crc(block);
  const Tensor eval = block.forward(x, /*train=*/false);
  return {crc_of(y), crc_of(dx), grads, crc_of(eval)};
}

std::string hex_list(const std::vector<std::uint32_t>& crcs) {
  std::string out = "{";
  char buf[16];
  for (std::size_t i = 0; i < crcs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s0x%08xu", i ? ", " : "", crcs[i]);
    out += buf;
  }
  return out + "}";
}

TEST(ConvKnownAnswer, Conv2dPassesMatchRecordedBits) {
  for (const ConvCrcCase& cc : kConvCrcs) {
    {
      BackendGuard guard(BackendKind::kScalar);
      const auto got = conv_pass_crcs(cc);
      EXPECT_EQ(got, std::vector<std::uint32_t>(cc.scalar, cc.scalar + 4))
          << cc.name << " scalar: " << hex_list(got);
    }
    if (tensor::cpu_simd_supported()) {
      BackendGuard guard(BackendKind::kCpuSimd);
      const auto got = conv_pass_crcs(cc);
      EXPECT_EQ(got, std::vector<std::uint32_t>(cc.simd, cc.simd + 4))
          << cc.name << " cpu-simd: " << hex_list(got);
    }
  }
}

TEST(ConvKnownAnswer, BasicBlockPassesMatchRecordedBits) {
  for (const BlockCrcCase& bc : kBlockCrcs) {
    {
      BackendGuard guard(BackendKind::kScalar);
      const auto got = block_pass_crcs(bc);
      EXPECT_EQ(got, std::vector<std::uint32_t>(bc.scalar, bc.scalar + 4))
          << bc.name << " scalar: " << hex_list(got);
    }
    if (tensor::cpu_simd_supported()) {
      BackendGuard guard(BackendKind::kCpuSimd);
      const auto got = block_pass_crcs(bc);
      EXPECT_EQ(got, std::vector<std::uint32_t>(bc.simd, bc.simd + 4))
          << bc.name << " cpu-simd: " << hex_list(got);
    }
  }
}

// --- runner plumbing -------------------------------------------------------

TEST(RunnerBackend, RunOptionsBackendIsAppliedBeforeRoundOne) {
  BackendGuard restore(tensor::active_backend());
  tensor::set_active_backend(BackendKind::kScalar);

  data::SyntheticConfig scfg;
  scfg.num_samples = 60;
  scfg.image_size = 8;
  scfg.num_classes = 10;
  scfg.seed = 11;
  const auto source = data::make_synth_cifar(scfg);
  common::Rng rng(13);
  fl::FlEnvironment env(source, /*clients=*/2, /*beta=*/0.5,
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
  opts.rounds = 1;
  opts.eval_every = 10;
  opts.backend = "auto";
  fl::run_federated(algo, opts);
  EXPECT_EQ(tensor::active_backend(), tensor::parse_backend("auto"));

  // An unknown name surfaces as the usual invalid_argument, before any
  // round runs.
  opts.backend = "warp-drive";
  EXPECT_THROW(fl::run_federated(algo, opts), std::invalid_argument);

  // Empty leaves the ambient backend untouched.
  tensor::set_active_backend(BackendKind::kScalar);
  opts.backend.clear();
  fl::run_federated(algo, opts);
  EXPECT_EQ(tensor::active_backend(), BackendKind::kScalar);
}

}  // namespace
}  // namespace spatl
