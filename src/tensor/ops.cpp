#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "tensor/backend.hpp"

namespace spatl::tensor {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Row panel size for the GEMM family: about 16k multiply-adds per panel,
/// no more than kMaxParallelChunks panels, rounded up to a multiple of
/// kGemmRowTile so backends can tile rows. The geometry is bit-neutral: a
/// backend fixes each output element's operation order on its own, and no
/// GEMM reduction crosses a row, so any panel split yields the same bits.
std::size_t gemm_grain(std::size_t m, std::size_t k, std::size_t n) {
  const std::size_t work =
      std::max<std::size_t>(1, 16384 / std::max<std::size_t>(1, k * n));
  const std::size_t rows = common::detail::chunk_size_for(m, work);
  return (rows + kGemmRowTile - 1) / kGemmRowTile * kGemmRowTile;
}

/// Kernel taps [lo, hi) whose input coordinate x0 + tap lies inside
/// [0, extent); the others read zero padding.
struct InsideSpan {
  std::size_t lo, hi;
};

InsideSpan inside_span(std::ptrdiff_t x0, std::size_t extent,
                       std::size_t kernel) {
  const auto k = std::ptrdiff_t(kernel);
  const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-x0, 0, k);
  const std::ptrdiff_t hi =
      std::clamp<std::ptrdiff_t>(std::ptrdiff_t(extent) - x0, lo, k);
  return {std::size_t(lo), std::size_t(hi)};
}

}  // namespace

bool all_finite(const float* p, std::size_t count) {
  // A float is non-finite exactly when its exponent field is all ones, and
  // then (bits & 0x7f800000) + 0x00800000 carries into bit 31. OR-ing that
  // over a fixed-size block is branch-free and vectorizes; the early exit
  // is taken between blocks.
  constexpr std::size_t kBlock = 1024;
  constexpr std::uint32_t kExponent = 0x7f800000u;
  constexpr std::uint32_t kCarry = 0x00800000u;
  constexpr std::uint32_t kSign = 0x80000000u;
  std::uint32_t flags = 0;
  std::size_t i = 0;
  for (; i + kBlock <= count; i += kBlock) {
    const float* block = p + i;
    for (std::size_t j = 0; j < kBlock; ++j) {
      std::uint32_t bits;
      std::memcpy(&bits, block + j, sizeof(bits));
      flags |= (bits & kExponent) + kCarry;
    }
    if ((flags & kSign) != 0) return false;
  }
  for (; i < count; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    flags |= (bits & kExponent) + kCarry;
  }
  return (flags & kSign) == 0;
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: inputs must be rank-2");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimensions differ");
  if (c.shape() != Shape{m, n}) c = Tensor({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Non-finite inputs are NOT rejected: the divergence guard deliberately
  // runs these kernels on exploded weights to detect and roll back bad
  // rounds. The one-shot pre-scan below only licenses the backends'
  // pruned-row elision — with a non-finite B every 0 * NaN/Inf product must
  // be formed so it propagates per IEEE-754. Aliasing the output with an
  // input, however, is always a caller bug.
  SPATL_DCHECK(pc != pa && pc != pb);
  const bool b_finite = all_finite(pb, k * n);
  const ComputeContext& ctx = active_context();
  common::parallel_for_ranges(
      0, m,
      [&](std::size_t row_lo, std::size_t row_hi) {
        ctx.gemm_nn(pa, pb, pc, row_lo, row_hi, k, n, b_finite);
      },
      /*grain=*/gemm_grain(m, k, n));
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_tn: inputs must be rank-2");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_tn: inner dimensions differ");
  if (c.shape() != Shape{m, n}) c = Tensor({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  SPATL_DCHECK(pc != pa && pc != pb);
  const bool b_finite = all_finite(pb, k * n);
  const ComputeContext& ctx = active_context();
  common::parallel_for_ranges(
      0, m,
      [&](std::size_t row_lo, std::size_t row_hi) {
        ctx.gemm_tn(pa, pb, pc, row_lo, row_hi, m, k, n, b_finite);
      },
      gemm_grain(m, k, n));
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_nt: inputs must be rank-2");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k, "matmul_nt: inner dimensions differ");
  if (c.shape() != Shape{m, n}) c = Tensor({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  SPATL_DCHECK(pc != pa && pc != pb);
  const ComputeContext& ctx = active_context();
  common::parallel_for_ranges(
      0, m,
      [&](std::size_t row_lo, std::size_t row_hi) {
        ctx.gemm_nt(pa, pb, pc, row_lo, row_hi, k, n);
      },
      gemm_grain(m, k, n));
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul(a, b, c);
  return c;
}

namespace {

/// im2col rows [lo, hi). K is the kernel size when known at compile time
/// (the common 1/3/5), so every per-tap loop has a constant trip count and
/// unrolls into plain loads and stores; K == 0 reads it from `g`.
template <std::size_t K>
void im2col_rows(const float* in, float* out, const Conv2dGeom& g,
                 std::size_t lo, std::size_t hi) {
  const std::size_t kernel = K != 0 ? K : g.kernel;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t hw = g.in_h * g.in_w;
  const std::size_t cols = g.patch_size();
  for (std::size_t r = lo; r < hi; ++r) {
    const std::size_t n = r / (oh * ow);
    const std::size_t rem = r % (oh * ow);
    const std::ptrdiff_t iy0 =
        std::ptrdiff_t(rem / ow * g.stride) - std::ptrdiff_t(g.pad);
    const std::ptrdiff_t ix0 =
        std::ptrdiff_t(rem % ow * g.stride) - std::ptrdiff_t(g.pad);
    const InsideSpan ys = inside_span(iy0, g.in_h, kernel);
    const InsideSpan xs = inside_span(ix0, g.in_w, kernel);
    const bool x_inside = xs.lo == 0 && xs.hi == kernel;
    float* dst = out + r * cols;
    const float* src_n = in + n * g.in_channels * hw;
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t ky = 0; ky < kernel; ++ky, dst += kernel) {
        if (ky < ys.lo || ky >= ys.hi) {
#pragma GCC unroll 8
          for (std::size_t kx = 0; kx < kernel; ++kx) dst[kx] = 0.0f;
          continue;
        }
        const float* src = src_n + c * hw +
                           std::size_t(iy0 + std::ptrdiff_t(ky)) * g.in_w;
        if (x_inside) {
          const float* run = src + ix0;  // ix0 >= 0 when x_inside
#pragma GCC unroll 8
          for (std::size_t kx = 0; kx < kernel; ++kx) dst[kx] = run[kx];
          continue;
        }
        // Border: read a clamped in-range tap, keep it only inside.
#pragma GCC unroll 8
        for (std::size_t kx = 0; kx < kernel; ++kx) {
          const bool inside = kx >= xs.lo && kx < xs.hi;
          const std::ptrdiff_t ix = std::clamp<std::ptrdiff_t>(
              ix0 + std::ptrdiff_t(kx), 0, std::ptrdiff_t(g.in_w) - 1);
          dst[kx] = inside ? src[ix] : 0.0f;
        }
      }
    }
  }
}

/// col2im over one image. Each input pixel receives at most one term per
/// (oy, ox), so walking (oy, ox) in ascending order fixes every pixel's
/// summation order. K as in im2col_rows.
template <std::size_t K>
void col2im_image(const float* col, float* dst_n, const Conv2dGeom& g) {
  const std::size_t kernel = K != 0 ? K : g.kernel;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t hw = g.in_h * g.in_w;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    const std::ptrdiff_t iy0 =
        std::ptrdiff_t(oy * g.stride) - std::ptrdiff_t(g.pad);
    const InsideSpan ys = inside_span(iy0, g.in_h, kernel);
    for (std::size_t ox = 0; ox < ow; ++ox, col += g.patch_size()) {
      const std::ptrdiff_t ix0 =
          std::ptrdiff_t(ox * g.stride) - std::ptrdiff_t(g.pad);
      const InsideSpan xs = inside_span(ix0, g.in_w, kernel);
      const bool x_inside = xs.lo == 0 && xs.hi == kernel;
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        for (std::size_t ky = ys.lo; ky < ys.hi; ++ky) {
          const float* tap = col + (c * kernel + ky) * kernel;
          float* dst = dst_n + c * hw +
                       std::size_t(iy0 + std::ptrdiff_t(ky)) * g.in_w;
          if (x_inside) {
            float* run = dst + ix0;  // ix0 >= 0 when x_inside
#pragma GCC unroll 8
            for (std::size_t kx = 0; kx < kernel; ++kx) run[kx] += tap[kx];
            continue;
          }
          for (std::size_t kx = xs.lo; kx < xs.hi; ++kx) {
            dst[std::size_t(ix0 + std::ptrdiff_t(kx))] += tap[kx];
          }
        }
      }
    }
  }
}

}  // namespace

void im2col(const Tensor& input, const Conv2dGeom& g, Tensor& columns) {
  require(input.rank() == 4, "im2col: input must be (N,C,H,W)");
  const std::size_t batch = input.dim(0);
  require(input.dim(1) == g.in_channels && input.dim(2) == g.in_h &&
              input.dim(3) == g.in_w,
          "im2col: input shape does not match geometry");
  const std::size_t rows = batch * g.out_h() * g.out_w();
  const std::size_t cols = g.patch_size();
  if (columns.shape() != Shape{rows, cols}) columns = Tensor({rows, cols});
  const float* in = input.data();
  float* out = columns.data();
  common::parallel_for_ranges(
      0, rows,
      [&](std::size_t lo, std::size_t hi) {
        switch (g.kernel) {
          case 1: im2col_rows<1>(in, out, g, lo, hi); break;
          case 3: im2col_rows<3>(in, out, g, lo, hi); break;
          case 5: im2col_rows<5>(in, out, g, lo, hi); break;
          default: im2col_rows<0>(in, out, g, lo, hi); break;
        }
      },
      std::max<std::size_t>(1, 4096 / std::max<std::size_t>(1, cols)));
}

void col2im(const Tensor& columns, const Conv2dGeom& g, std::size_t batch,
            Tensor& input_grad) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t rows = batch * oh * ow;
  const std::size_t cols = g.patch_size();
  require(columns.shape() == Shape{rows, cols},
          "col2im: column shape mismatch");
  const Shape in_shape{batch, g.in_channels, g.in_h, g.in_w};
  if (input_grad.shape() != in_shape) input_grad = Tensor(in_shape);
  input_grad.zero();
  const float* src = columns.data();
  float* out = input_grad.data();
  const std::size_t image = g.in_channels * g.in_h * g.in_w;
  // Parallelize over batch images: rows of the same image never collide
  // across different n, so per-image chunks are race-free.
  common::parallel_for(
      0, batch,
      [&](std::size_t n) {
        const float* col = src + n * oh * ow * cols;
        switch (g.kernel) {
          case 1: col2im_image<1>(col, out + n * image, g); break;
          case 3: col2im_image<3>(col, out + n * image, g); break;
          case 5: col2im_image<5>(col, out + n * image, g); break;
          default: col2im_image<0>(col, out + n * image, g); break;
        }
      },
      /*grain=*/1);
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  require(logits.rank() == 2, "softmax_rows: logits must be (N,C)");
  if (!probs.same_shape(logits)) probs = Tensor(logits.shape());
  // Outputs may legitimately be non-finite when training has diverged (the
  // divergence guard handles that); only in-place aliasing is forbidden.
  SPATL_DCHECK(probs.data() != logits.data());
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  const float* in = logits.data();
  float* out = probs.data();
  common::parallel_for_ranges(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float* row = in + i * c;
          float* prow = out + i * c;
          const float mx = *std::max_element(row, row + c);
          double sum = 0.0;
          for (std::size_t j = 0; j < c; ++j) {
            prow[j] = std::exp(row[j] - mx);
            sum += prow[j];
          }
          const float inv = static_cast<float>(1.0 / sum);
          for (std::size_t j = 0; j < c; ++j) prow[j] *= inv;
        }
      },
      std::max<std::size_t>(1, 1024 / std::max<std::size_t>(1, c)));
}

float cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                    Tensor* dlogits) {
  require(logits.rank() == 2, "cross_entropy: logits must be (N,C)");
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  require(labels.size() == n, "cross_entropy: label count mismatch");
  Tensor probs;
  softmax_rows(logits, probs);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int y = labels[i];
    require(y >= 0 && std::size_t(y) < c, "cross_entropy: label out of range");
    loss -= std::log(std::max(probs[i * c + y], 1e-12f));
  }
  loss /= double(n);
  if (dlogits != nullptr) {
    *dlogits = probs;
    float* g = dlogits->data();
    const float inv_n = 1.0f / float(n);
    for (std::size_t i = 0; i < n; ++i) {
      g[i * c + std::size_t(labels[i])] -= 1.0f;
    }
    for (std::size_t i = 0; i < n * c; ++i) g[i] *= inv_n;
  }
  return static_cast<float>(loss);
}

std::vector<int> argmax_rows(const Tensor& scores) {
  require(scores.rank() == 2, "argmax_rows: input must be (N,C)");
  const std::size_t n = scores.dim(0), c = scores.dim(1);
  // A (N, 0) tensor has no maximum per row; max_element over an empty range
  // would dereference-free but yield index 0 into a zero-width row, which
  // callers then use to index labels/probabilities out of bounds.
  require(n == 0 || c > 0, "argmax_rows: rows must have at least one column");
  std::vector<int> out(n);
  const float* p = scores.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = p + i * c;
    out[i] = int(std::max_element(row, row + c) - row);
  }
  return out;
}

double accuracy(const Tensor& logits, const std::vector<int>& labels) {
  const auto pred = argmax_rows(logits);
  if (pred.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == labels[i]) ++hits;
  }
  return double(hits) / double(pred.size());
}

}  // namespace spatl::tensor
