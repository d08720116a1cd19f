// AVX2 coordinate-median blocks for the cpu-simd backend.
//
// One block is eight columns, one per vector lane. The n client values of
// a block become order-preserving int32 keys in an n x 8 tile that stays
// in L1, the comparator list that tensor::coordinate_median
// built runs as _mm256_min_epi32 / _mm256_max_epi32 pairs over the tile,
// and the middle order statistic(s) are read back per lane. Integer min and
// max are exact and the even-count average is the same single add and
// multiply as the scalar reference's 0.5f * (lo + hi), so this file and
// src/tensor/ops_reference.cpp return the same bits by construction.
//
// Compiled with -mavx2 -mfma (src/tensor/CMakeLists.txt) and reached only
// through the runtime-checked Avx2Context of gemm_avx2.cpp.
#include "tensor/backend.hpp"
#include "tensor/simd/kernels.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spatl::tensor::simd {
namespace {

static_assert(kMedianBlock == 8, "one AVX2 vector of floats per block");

/// The first `r` (1..8) lanes of a vector.
inline __m256i lane_mask(std::size_t r) {
  alignas(32) static const int kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                             0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLanes + (8 - r)));
}

/// Order-preserving key of float bits (and back: the map is an involution).
inline __m256i median_key(__m256i bits) {
  const __m256i magnitude = _mm256_set1_epi32(0x7fffffff);
  return _mm256_xor_si256(
      bits, _mm256_and_si256(_mm256_srai_epi32(bits, 31), magnitude));
}

inline __m256 key_value(__m256i key) {
  return _mm256_castsi256_ps(median_key(key));
}

}  // namespace

void median_blocks_avx2(const float* const* rows, const std::uint32_t* counts,
                        const MedianNetwork& net, std::size_t dim,
                        std::size_t block_lo, std::size_t block_hi,
                        float* out) {
  const std::size_t n = net.wires;
  // n x 8 keys on a 32-byte boundary; wire w is the vector at tile + w.
  std::vector<std::int32_t> storage((n + 1) * kMedianBlock);
  auto* tile = reinterpret_cast<__m256i*>(
      (reinterpret_cast<std::uintptr_t>(storage.data()) + 31) &
      ~std::uintptr_t(31));
  auto* keys = reinterpret_cast<std::int32_t*>(tile);
  const __m256i magnitude = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 qnan = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fc00000));
  for (std::size_t block = block_lo; block < block_hi; ++block) {
    const std::size_t col = block * kMedianBlock;
    const std::size_t width = std::min(kMedianBlock, dim - col);
    const bool full = width == kMedianBlock;
    const __m256i mask = lane_mask(width);
    __m256i nan = _mm256_setzero_si256();
    for (std::size_t s = 0; s < n; ++s) {
      const float* src = rows[s] + col;
      const __m256i bits = _mm256_castps_si256(
          full ? _mm256_loadu_ps(src) : _mm256_maskload_ps(src, mask));
      nan = _mm256_or_si256(
          nan, _mm256_cmpgt_epi32(_mm256_and_si256(bits, magnitude),
                                  inf_bits));
      _mm256_store_si256(tile + s, median_key(bits));
    }
    for (const auto& [a, b] : net.pairs) {
      auto* pa = reinterpret_cast<__m256i*>(keys + a);
      auto* pb = reinterpret_cast<__m256i*>(keys + b);
      const __m256i x = _mm256_load_si256(pa);
      const __m256i y = _mm256_load_si256(pb);
      _mm256_store_si256(pa, _mm256_min_epi32(x, y));
      _mm256_store_si256(pb, _mm256_max_epi32(x, y));
    }
    __m256 med;
    if (counts == nullptr) {
      med = key_value(tile[n / 2]);
      if (n % 2 == 0) {
        med = _mm256_mul_ps(half,
                            _mm256_add_ps(key_value(tile[n / 2 - 1]), med));
      }
    } else {
      // Per-lane counts: pick wire c / 2 (and c / 2 - 1) by comparing each
      // sorted wire's index with the lane's.
      const auto* src = reinterpret_cast<const int*>(counts + col);
      const __m256i c =
          full ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src))
               : _mm256_maskload_epi32(src, mask);
      const __m256i mid = _mm256_srli_epi32(c, 1);
      const __m256i below = _mm256_sub_epi32(mid, one);
      __m256i hi = _mm256_setzero_si256(), lo = _mm256_setzero_si256();
      for (std::size_t w = 0; w < n; ++w) {
        const __m256i idx = _mm256_set1_epi32(int(w));
        hi = _mm256_blendv_epi8(hi, tile[w], _mm256_cmpeq_epi32(mid, idx));
        lo = _mm256_blendv_epi8(lo, tile[w], _mm256_cmpeq_epi32(below, idx));
      }
      const __m256 odd = key_value(hi);
      const __m256 even =
          _mm256_mul_ps(half, _mm256_add_ps(key_value(lo), odd));
      const __m256i is_even =
          _mm256_cmpeq_epi32(_mm256_and_si256(c, one), _mm256_setzero_si256());
      med = _mm256_blendv_ps(odd, even, _mm256_castsi256_ps(is_even));
      const __m256i none = _mm256_cmpeq_epi32(c, _mm256_setzero_si256());
      med = _mm256_andnot_ps(_mm256_castsi256_ps(none), med);
    }
    med = _mm256_blendv_ps(med, qnan, _mm256_castsi256_ps(nan));
    if (full) {
      _mm256_storeu_ps(out + col, med);
    } else {
      _mm256_maskstore_ps(out + col, mask, med);
    }
  }
}

}  // namespace spatl::tensor::simd

#endif
