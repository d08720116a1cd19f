// Internal seam between the backend registry (tensor/backend.cpp) and the
// SIMD translation units. This header is deliberately intrinsics-free: the
// simd-isolation lint rule confines <immintrin.h> (and friends) to
// src/tensor/simd/*.cpp, so vector code can never leak into portable
// translation units through an include.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spatl::tensor {
class ComputeContext;
struct MedianNetwork;
namespace simd {

/// The AVX2+FMA ComputeContext, or nullptr when the build target is not
/// x86-64 or the running CPU lacks AVX2/FMA (checked once at first call).
const ComputeContext* avx2_context();

/// ComputeContext::median_blocks on AVX2 (src/tensor/simd/median_avx2.cpp).
/// Only the AVX2 context calls it, after its runtime CPU check.
void median_blocks_avx2(const float* const* rows, const std::uint32_t* counts,
                        const MedianNetwork& net, std::size_t dim,
                        std::size_t block_lo, std::size_t block_hi,
                        float* out);

}  // namespace simd
}  // namespace spatl::tensor
