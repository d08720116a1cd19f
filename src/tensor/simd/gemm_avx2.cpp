// AVX2+FMA GEMM panels for the cpu-simd backend.
//
// Register-tiled kernels over the same row panels the scalar reference
// receives, so the fixed-chunk contract (and therefore per-backend
// thread-count bit-identity) is untouched. Differences from the scalar
// oracle are confined to rounding: FMA contracts each multiply-add, and the
// nt dot products accumulate in eight lanes reduced at the end. Both are
// covered by the documented ulp bound in tensor/ops.hpp and locked by
// tests/test_backend.cpp, which also pins this backend's output bits.
//
// Per-element operation order (what the tiling may never change):
//
//   nn/tn  C[i,j] is one FMA chain over ascending p starting from +0:
//          acc = fma(A[i,p], B[p,j], acc). A kRowTile x 24 tile reuses each
//          B load across its rows; k is cut into blocks whose partial sums
//          round-trip through C, which is exact.
//   nt     C[i,j] is hsum of eight lane chains acc[l] over p = l (mod 8),
//          p < k - k % 8, followed by fma(A[i,p], B[j,p], s) over the tail.
//          A 2 x 4 tile shares each A/B load across the tile, and
//          reduce4 forms four hsums at once with hsum's exact tree.
//
// Zero elision: with a finite B (the caller's `b_finite` pre-scan), nn/tn
// drop a depth p when every A value of the row tile is zero. Rows of a
// mixed tile still form fma(0, b, acc) == acc for finite b, so each output
// equals the one-row chain that skips its own zeros. The one exception is
// the sign of a zero sum: an accumulator that underflowed to -0 (a partial
// sum below 2^-150 in magnitude) turns +0 when such a term is added.
// NaN/Inf semantics match the reference exactly: with a non-finite B no
// depth is dropped and vector FMA propagates non-finite values per
// IEEE-754.
//
// This file is compiled with -mavx2 -mfma (see src/tensor/CMakeLists.txt)
// and only ever dispatched to after the runtime CPU check below, so no
// illegal instruction can escape. It is the sanctioned home for vector
// intrinsics — the simd-isolation lint rule keeps <immintrin.h> out of
// every directory but this one.
#include "tensor/backend.hpp"
#include "tensor/simd/kernels.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace spatl::tensor::simd {
namespace {

constexpr std::size_t kRowTile = kGemmRowTile;  // nn/tn tile rows
constexpr std::size_t kColVecs = 3;             // nn/tn tile width / 8
constexpr std::size_t kDepthBlock = 256;        // nn/tn k block
constexpr std::size_t kNtRows = 2;              // nt tile rows

/// Load mask covering the first `r` (1..7) lanes of a vector.
inline __m256i tail_mask(std::size_t r) {
  alignas(32) static const int kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                             0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLanes + (8 - r)));
}

/// Sum of the eight lanes: ((l0+l4) + (l1+l5)) + ((l2+l6) + (l3+l7)).
inline float hsum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

/// [hsum(v0), hsum(v1), hsum(v2), hsum(v3)]: the same adds, with the same
/// operand order, as four hsum calls (so NaN payloads propagate alike).
inline __m128 reduce4(__m256 v0, __m256 v1, __m256 v2, __m256 v3) {
  __m128 a0 = _mm_add_ps(_mm256_castps256_ps128(v0),
                         _mm256_extractf128_ps(v0, 1));
  __m128 a1 = _mm_add_ps(_mm256_castps256_ps128(v1),
                         _mm256_extractf128_ps(v1, 1));
  __m128 a2 = _mm_add_ps(_mm256_castps256_ps128(v2),
                         _mm256_extractf128_ps(v2, 1));
  __m128 a3 = _mm_add_ps(_mm256_castps256_ps128(v3),
                         _mm256_extractf128_ps(v3, 1));
  _MM_TRANSPOSE4_PS(a0, a1, a2, a3);  // a_l = lane l of each input
  return _mm_add_ps(_mm_add_ps(a0, a1), _mm_add_ps(a2, a3));
}

// ------------------------------------------------------------- nn / tn ----

/// One MR x (8*NV [+ masked tail]) tile of C over the `cnt` packed depths
/// of one k block. `apack` holds MR A values per depth, `depth` the depth
/// index p of each; `first` starts the chains from +0, otherwise they
/// resume from the partial sums already in C.
template <std::size_t MR, std::size_t NV, bool kTail>
void axpy_tile(const float* apack, const std::uint32_t* depth,
               std::size_t cnt, const float* b, float* c, std::size_t n,
               std::size_t j, bool first, __m256i mask) {
  constexpr std::size_t NW = NV + (kTail ? 1 : 0);
  __m256 acc[MR][NW];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NW; ++v) {
      const float* src = c + r * n + j + 8 * v;
      acc[r][v] = first            ? _mm256_setzero_ps()
                  : v < NV         ? _mm256_loadu_ps(src)
                                   : _mm256_maskload_ps(src, mask);
    }
  }
  for (std::size_t t = 0; t < cnt; ++t) {
    const float* bp = b + std::size_t(depth[t]) * n + j;
    __m256 bv[NW];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NW; ++v) {
      bv[v] = v < NV ? _mm256_loadu_ps(bp + 8 * v)
                     : _mm256_maskload_ps(bp + 8 * v, mask);
    }
    const float* ap = apack + t * MR;
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256 va = _mm256_broadcast_ss(ap + r);
#pragma GCC unroll 4
      for (std::size_t v = 0; v < NW; ++v) {
        acc[r][v] = _mm256_fmadd_ps(va, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NW; ++v) {
      float* dst = c + r * n + j + 8 * v;
      if (v < NV) {
        _mm256_storeu_ps(dst, acc[r][v]);
      } else {
        _mm256_maskstore_ps(dst, mask, acc[r][v]);
      }
    }
  }
}

/// Every column of an MR-row strip for one packed k block.
template <std::size_t MR>
void axpy_strip(const float* apack, const std::uint32_t* depth,
                std::size_t cnt, const float* b, float* c, std::size_t n,
                bool first) {
  const __m256i none = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 8 * kColVecs <= n; j += 8 * kColVecs) {
    axpy_tile<MR, kColVecs, false>(apack, depth, cnt, b, c, n, j, first,
                                   none);
  }
  const std::size_t vecs = (n - j) / 8;
  const std::size_t rest = (n - j) % 8;
  const __m256i mask = rest != 0 ? tail_mask(rest) : none;
  switch (vecs * 2 + (rest != 0 ? 1 : 0)) {
    case 1:
      axpy_tile<MR, 0, true>(apack, depth, cnt, b, c, n, j, first, mask);
      break;
    case 2:
      axpy_tile<MR, 1, false>(apack, depth, cnt, b, c, n, j, first, mask);
      break;
    case 3:
      axpy_tile<MR, 1, true>(apack, depth, cnt, b, c, n, j, first, mask);
      break;
    case 4:
      axpy_tile<MR, 2, false>(apack, depth, cnt, b, c, n, j, first, mask);
      break;
    case 5:
      axpy_tile<MR, 2, true>(apack, depth, cnt, b, c, n, j, first, mask);
      break;
    default: break;  // n is a multiple of the tile width
  }
}

/// MR rows of C from row i0 for nn/tn, where A(i, p) = a_at(i, p).
template <std::size_t MR, typename AAt>
void axpy_rows(const float* b, float* c, std::size_t i0, std::size_t k,
               std::size_t n, bool b_finite, const AAt& a_at) {
  alignas(32) float apack[kDepthBlock * MR];
  std::uint32_t depth[kDepthBlock];
  for (std::size_t p0 = 0; p0 == 0 || p0 < k; p0 += kDepthBlock) {
    const std::size_t pn = std::min(kDepthBlock, k - p0);
    // Pack the tile's A values depth by depth, keeping a depth unless the
    // elision licence holds and all MR values are zero (branch-free).
    std::size_t cnt = 0;
    for (std::size_t p = p0; p < p0 + pn; ++p) {
      float* dst = apack + cnt * MR;
      bool live = !b_finite;
#pragma GCC unroll 4
      for (std::size_t r = 0; r < MR; ++r) {
        dst[r] = a_at(i0 + r, p);
        live |= dst[r] != 0.0f;
      }
      depth[cnt] = std::uint32_t(p);
      cnt += live ? 1 : 0;
    }
    axpy_strip<MR>(apack, depth, cnt, b, c + i0 * n, n, p0 == 0);
  }
}

template <typename AAt>
void gemm_axpy(const float* b, float* c, std::size_t row_lo,
               std::size_t row_hi, std::size_t k, std::size_t n,
               bool b_finite, const AAt& a_at) {
  std::size_t i = row_lo;
  for (; i + kRowTile <= row_hi; i += kRowTile) {
    axpy_rows<kRowTile>(b, c, i, k, n, b_finite, a_at);
  }
  switch (row_hi - i) {
    case 1: axpy_rows<1>(b, c, i, k, n, b_finite, a_at); break;
    case 2: axpy_rows<2>(b, c, i, k, n, b_finite, a_at); break;
    case 3: axpy_rows<3>(b, c, i, k, n, b_finite, a_at); break;
    default: break;
  }
}

// ------------------------------------------------------------------ nt ----

/// MR rows x 4 columns of dot products starting at (i, j).
template <std::size_t MR>
void dot_tile(const float* a, const float* b, float* c, std::size_t i,
              std::size_t j, std::size_t k, std::size_t n) {
  __m256 acc[MR][4];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) acc[r][q] = _mm256_setzero_ps();
  }
  const float* brow = b + j * k;
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    __m256 bv[4];
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) {
      bv[q] = _mm256_loadu_ps(brow + q * k + p);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256 va = _mm256_loadu_ps(a + (i + r) * k + p);
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) {
        acc[r][q] = _mm256_fmadd_ps(va, bv[q], acc[r][q]);
      }
    }
  }
  __m128 s[MR];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) {
    s[r] = reduce4(acc[r][0], acc[r][1], acc[r][2], acc[r][3]);
  }
  for (; p < k; ++p) {
    const __m128 bp = _mm_setr_ps(brow[p], brow[k + p], brow[2 * k + p],
                                  brow[3 * k + p]);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      s[r] = _mm_fmadd_ps(_mm_set1_ps(a[(i + r) * k + p]), bp, s[r]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r) {
    _mm_storeu_ps(c + (i + r) * n + j, s[r]);
  }
}

/// One dot product C[i, j] (the column remainder past the 4-wide tiles).
float dot1(const float* arow, const float* brow, std::size_t k) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p), _mm256_loadu_ps(brow + p),
                          acc);
  }
  float s = hsum(acc);
  for (; p < k; ++p) s = std::fma(arow[p], brow[p], s);
  return s;
}

/// Rows [row_lo, row_hi) of C = A B^T. Each 4-column slab of B is swept
/// over every row of the panel while it sits in L1.
void gemm_dots(const float* a, const float* b, float* c, std::size_t row_lo,
               std::size_t row_hi, std::size_t k, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    std::size_t i = row_lo;
    for (; i + kNtRows <= row_hi; i += kNtRows) {
      dot_tile<kNtRows>(a, b, c, i, j, k, n);
    }
    if (i < row_hi) dot_tile<1>(a, b, c, i, j, k, n);
  }
  for (; j < n; ++j) {
    for (std::size_t i = row_lo; i < row_hi; ++i) {
      c[i * n + j] = dot1(a + i * k, b + j * k, k);
    }
  }
}

class Avx2Context final : public ComputeContext {
 public:
  BackendKind kind() const override { return BackendKind::kCpuSimd; }

  void gemm_nn(const float* a, const float* b, float* c, std::size_t row_lo,
               std::size_t row_hi, std::size_t k, std::size_t n,
               bool b_finite) const override {
    gemm_axpy(b, c, row_lo, row_hi, k, n, b_finite,
              [a, k](std::size_t i, std::size_t p) { return a[i * k + p]; });
  }

  void gemm_tn(const float* a, const float* b, float* c, std::size_t row_lo,
               std::size_t row_hi, std::size_t m, std::size_t k,
               std::size_t n, bool b_finite) const override {
    gemm_axpy(b, c, row_lo, row_hi, k, n, b_finite,
              [a, m](std::size_t i, std::size_t p) { return a[p * m + i]; });
  }

  void gemm_nt(const float* a, const float* b, float* c, std::size_t row_lo,
               std::size_t row_hi, std::size_t k,
               std::size_t n) const override {
    gemm_dots(a, b, c, row_lo, row_hi, k, n);
  }

  void median_blocks(const float* const* rows, const std::uint32_t* counts,
                     const MedianNetwork& net, std::size_t dim,
                     std::size_t block_lo, std::size_t block_hi,
                     float* out) const override {
    median_blocks_avx2(rows, counts, net, dim, block_lo, block_hi, out);
  }
};

}  // namespace

const ComputeContext* avx2_context() {
  static const Avx2Context ctx;
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported ? &ctx : nullptr;
}

}  // namespace spatl::tensor::simd

#else  // non-x86-64 build target (or AVX2/FMA not enabled for this TU)

namespace spatl::tensor::simd {

const ComputeContext* avx2_context() { return nullptr; }

}  // namespace spatl::tensor::simd

#endif
