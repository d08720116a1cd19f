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
#include <cstdint>
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

/// input: (N, C, H, W) -> columns: (N * out_h * out_w, C*k*k), one row
/// per output pixel (image-major), zero padding outside the image.
void im2col(const Tensor& input, const Conv2dGeom& g, Tensor& columns);

class ConvColumns;

/// Convolution forward: out (N, O, out_h, out_w) = im2col(input) * W^T,
/// plus bias[o] on channel o when `bias` is non-null. W is (O, C*k*k).
/// The GEMM is matmul_nt's, over its row panels; each panel's columns are
/// built right before the GEMM reads them and its output goes through an
/// L1-sized buffer straight to NCHW, so no (pixels, O) tensor exists.
/// With `columns` non-null the panels are rows of its matrix, which then
/// holds the whole column matrix for the backward pass, together with
/// whether every value in it is finite. With null, the panels live in
/// per-thread scratch that the next call reuses.
void conv2d_forward(const Tensor& input, const Conv2dGeom& g, const Tensor& w,
                    const float* bias, ConvColumns* columns, Tensor& out);

/// Convolution weight gradient: dW (O, C*k*k) = grad_rows^T * columns, with
/// grad_rows the output gradient as (N * out_h * out_w, O) rows. The GEMM
/// is matmul_tn's; its pruned-row elision is licensed by the finiteness
/// conv2d_forward recorded, so the columns are not scanned again.
void conv2d_backward_weights(const Tensor& grad_rows,
                             const ConvColumns& columns, Tensor& dw);

/// The column matrix a training conv forward keeps for its backward pass.
/// Only conv2d_forward writes it and its finiteness, and only
/// conv2d_backward_weights takes that finiteness as an elision licence, so
/// no caller can vouch for values the kernels did not scan.
class ConvColumns {
 public:
  const Tensor& matrix() const { return matrix_; }
  /// Whether every value of matrix() is finite.
  bool finite() const { return finite_; }

 private:
  friend void conv2d_forward(const Tensor&, const Conv2dGeom&, const Tensor&,
                             const float*, ConvColumns*, Tensor&);
  friend void conv2d_backward_weights(const Tensor&, const ConvColumns&,
                                      Tensor&);
  Tensor matrix_;
  bool finite_ = true;
};

/// Adjoint of im2col: (N, C, H, W) where each pixel is the sum, from +0 in
/// ascending row order, of the column entries that im2col copied from it.
void col2im(const Tensor& columns, const Conv2dGeom& g, std::size_t batch,
            Tensor& input_grad);

/// Convolution input gradient: col2im(grad_rows * W), with grad_rows the
/// output gradient as (N * out_h * out_w, O) rows and W (O, C*k*k). The
/// product is matmul's, computed a chunk of images at a time into reused
/// per-thread scratch, so no (pixels, C*k*k) tensor is allocated.
void conv2d_backward_data(const Tensor& grad_rows, const Tensor& w,
                          const Conv2dGeom& g, Tensor& input_grad);

// ------------------------------------------------ coordinate median ----

/// Per-coordinate median of n rows of `dim` floats into out[0, dim). With
/// `counts` null every column has n values. Otherwise column j has
/// counts[j] <= n values and the rows hold +inf in its other slots (how
/// the robust aggregator lays out a masked update's unowned coordinates).
///
///  * Count c: the order statistic at c / 2 when c is odd, and
///    0.5f * (lo + hi) of the order statistics at c / 2 - 1 and c / 2 when
///    it is even. A column with count 0 yields +0.
///  * Values are ranked on order-preserving int32 keys, a total order in
///    which -0 ranks below +0: {-0, +0, +0} has median +0, {-0, -0, +0}
///    has -0, and the even pair {-0, +0} averages to +0. Any other column
///    without a NaN gets exactly what a push_back + nth_element loop
///    returns (for a -0/+0 tie among the middle order statistics that loop
///    may return either zero).
///  * A column with a NaN among its values yields the quiet NaN, so the
///    divergence guard sees it (nth_element's ordering is undefined there).
///
/// Columns are sorted in blocks of kMedianBlock by a Batcher odd-even
/// merge network over n wires padded with +inf to a power of two; the
/// comparators that touch a padding wire are no-ops and are dropped, as
/// are those that feed no wire a selection reads. Blocks run on the pool
/// through parallel_for, and each column's bits depend only on its own
/// values, so outputs are identical on every backend and pool size.
void coordinate_median(const float* const* rows, std::size_t n,
                       const std::uint32_t* counts, std::size_t dim,
                       float* out);

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
