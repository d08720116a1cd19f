// The scalar reference backend — the repository's bit-identity oracle.
//
// These loops ARE the historical GEMM semantics: on all-finite B the
// zero-row elision (skip a_ip == 0 terms, common after salient pruning)
// produces byte-for-byte the outputs every seeded replay in the repo was
// recorded against. The one deliberate change from the pre-backend kernels
// is that the elision is now *guarded*: the caller pre-scans B once and
// passes `b_finite`, and with a non-finite B every product is formed so
// 0 * NaN = NaN and 0 * Inf = NaN propagate per IEEE-754. The old
// unconditional skip silently swallowed a NaN/Inf column of B wherever the
// pruned row of A was zero — exactly the exploded-weights case the
// divergence guard (DESIGN.md §8) relies on these kernels propagating.
//
// Accumulation contract (documented in ops.hpp): float32 accumulation over
// the k dimension in ascending order for every variant. SIMD backends are
// ulp-bounded against these loops, never the other way around.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/backend.hpp"

namespace spatl::tensor {
namespace {

/// Order-preserving int32 key of a float's bits (negative floats flip
/// their magnitude bits); the map is its own inverse.
inline std::int32_t median_key(std::int32_t bits) {
  return bits ^ ((bits >> 31) & 0x7fffffff);
}

inline float key_value(std::int32_t key) {
  const std::int32_t bits = median_key(key);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

class ScalarContext final : public ComputeContext {
 public:
  BackendKind kind() const override { return BackendKind::kScalar; }

  void gemm_nn(const float* a, const float* b, float* c, std::size_t row_lo,
               std::size_t row_hi, std::size_t k, std::size_t n,
               bool b_finite) const override {
    for (std::size_t i = row_lo; i < row_hi; ++i) {
      float* crow = c + i * n;
      std::fill(crow, crow + n, 0.0f);
      const float* arow = a + i * k;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (b_finite && av == 0.0f) continue;  // pruned-row elision
        const float* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }

  void gemm_tn(const float* a, const float* b, float* c, std::size_t row_lo,
               std::size_t row_hi, std::size_t m, std::size_t k,
               std::size_t n, bool b_finite) const override {
    for (std::size_t i = row_lo; i < row_hi; ++i) {
      float* crow = c + i * n;
      std::fill(crow, crow + n, 0.0f);
      for (std::size_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
        if (b_finite && av == 0.0f) continue;
        const float* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }

  void gemm_nt(const float* a, const float* b, float* c, std::size_t row_lo,
               std::size_t row_hi, std::size_t k,
               std::size_t n) const override {
    for (std::size_t i = row_lo; i < row_hi; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] = acc;
      }
    }
  }

  void median_blocks(const float* const* rows, const std::uint32_t* counts,
                     const MedianNetwork& net, std::size_t dim,
                     std::size_t block_lo, std::size_t block_hi,
                     float* out) const override {
    constexpr std::size_t kLanes = kMedianBlock;
    const std::size_t n = net.wires;
    std::vector<std::int32_t> tile(n * kLanes);
    for (std::size_t block = block_lo; block < block_hi; ++block) {
      const std::size_t col = block * kLanes;
      const std::size_t width = std::min(kLanes, dim - col);
      bool nan[kLanes] = {};
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t l = 0; l < width; ++l) {
          std::int32_t bits;
          std::memcpy(&bits, rows[s] + col + l, sizeof(bits));
          nan[l] |= (bits & 0x7fffffff) > 0x7f800000;
          tile[s * kLanes + l] = median_key(bits);
        }
      }
      for (const auto& [a, b] : net.pairs) {
        for (std::size_t l = 0; l < width; ++l) {
          const std::int32_t x = tile[a + l], y = tile[b + l];
          tile[a + l] = x < y ? x : y;
          tile[b + l] = x > y ? x : y;
        }
      }
      for (std::size_t l = 0; l < width; ++l) {
        const std::size_t c = counts != nullptr ? counts[col + l] : n;
        float med = 0.0f;
        if (c > 0) {
          med = key_value(tile[c / 2 * kLanes + l]);
          if (c % 2 == 0) {
            med = 0.5f * (key_value(tile[(c / 2 - 1) * kLanes + l]) + med);
          }
        }
        out[col + l] = nan[l] ? std::numeric_limits<float>::quiet_NaN() : med;
      }
    }
  }
};

}  // namespace

const ComputeContext& scalar_context() {
  static const ScalarContext ctx;
  return ctx;
}

}  // namespace spatl::tensor
