// Compute kernels over Tensors: GEMM (with transpose variants), im2col /
// col2im for convolution, softmax + cross-entropy, and row reductions.
//
// All kernels parallelize over their outermost independent dimension via
// common::parallel_for; none of them allocate inside the hot loop when the
// caller supplies an output tensor.
//
// GEMM accumulation contract (tensor/backend.hpp dispatches under it):
//
//  * Every matmul variant accumulates in float32 over the k dimension in
//    ascending order on the scalar backend. No variant widens to double —
//    matmul_nt historically did, which made its rounding incommensurable
//    with the other variants and with any SIMD implementation; it now
//    follows the same contract.
//  * The scalar backend is the bit-identity oracle: for a fixed backend,
//    outputs are byte-stable across thread-pool sizes (the fixed-chunk
//    contract of common/parallel.hpp) and across runs.
//  * The cpu-simd backend may contract multiply-adds (FMA) and split the
//    k accumulation across vector lanes reduced at the end. Per output
//    element, its divergence from scalar is bounded by 4 * k ulps measured
//    at the magnitude of dot(|a_i|, |b_j|) — the absolute-value dot product
//    is the natural error scale for a k-term sum; ulps *of the result*
//    would not be cancellation-safe, since near-total cancellation shrinks
//    the result (and its ulp) without shrinking the accumulated rounding
//    error. Equivalently: |simd - scalar| <= 4k * 2^-23 * dot(|a_i|,|b_j|),
//    with +/-0 identified and NaN pairing with NaN.
//    tests/test_backend.cpp enforces the bound.
//  * NaN/Inf semantics are backend-independent: the zero-term elision for
//    pruned rows is licensed by a one-shot all_finite pre-scan of B, so
//    0 * NaN = NaN and 0 * Inf = NaN always propagate per IEEE-754.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace spatl::tensor {

/// True when every one of `count` floats at `p` is finite (no NaN/Inf).
/// O(count), branch-free within blocks of 1024 floats and exiting early
/// between them; the GEMM entry points run it once per call on the B
/// operand to license the pruned-row elision (see ops.cpp).
bool all_finite(const float* p, std::size_t count);

// ---------------------------------------------------------------- GEMM ----

/// C = A(m,k) * B(k,n). Shapes are validated; C is resized/overwritten.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A^T(k,m) * B(k,n) -> (m,n). A is stored (k,m).
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A(m,k) * B^T(n,k) -> (m,n). B is stored (n,k).
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c);

Tensor matmul(const Tensor& a, const Tensor& b);

// ------------------------------------------------------------- im2col ----

/// Geometry of a 2-D convolution / pooling window sweep.
struct Conv2dGeom {
  std::size_t in_channels = 0;
  std::size_t in_h = 0, in_w = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  std::size_t patch_size() const { return in_channels * kernel * kernel; }
};

/// input: (N, C, H, W) -> columns: (N * out_h * out_w, C*k*k).
/// Zero padding outside the image.
void im2col(const Tensor& input, const Conv2dGeom& g, Tensor& columns);

/// Adjoint of im2col: scatter-add columns back into (N, C, H, W).
void col2im(const Tensor& columns, const Conv2dGeom& g, std::size_t batch,
            Tensor& input_grad);

// ------------------------------------------------- softmax / loss ----

/// Row-wise softmax of logits (N, C) into probs (N, C), numerically stable.
void softmax_rows(const Tensor& logits, Tensor& probs);

/// Mean cross-entropy over the batch given integer labels; optionally also
/// produces d(loss)/d(logits) = (probs - onehot)/N in `dlogits`.
float cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                    Tensor* dlogits = nullptr);

/// Row-wise argmax of (N, C). Requires C > 0 when N > 0 (a zero-width row
/// has no maximum); throws std::invalid_argument otherwise.
std::vector<int> argmax_rows(const Tensor& scores);

/// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace spatl::tensor
