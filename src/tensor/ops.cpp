#include "tensor/ops.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

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

/// A half-open index range [lo, hi).
struct InsideSpan {
  std::size_t lo, hi;
};

// A float is non-finite exactly when its exponent field is all ones, and
// then (bits & 0x7f800000) + 0x00800000 carries into bit 31. OR-ing that
// over a fixed-size block is branch-free and vectorizes.
constexpr std::uint32_t kSignBit = 0x80000000u;

inline std::uint32_t exponent_carry_of(const float* p) {
  std::uint32_t bits;
  std::memcpy(&bits, p, sizeof(bits));
  return (bits & 0x7f800000u) + 0x00800000u;
}

template <std::size_t N>
std::uint32_t exponent_carry_block(const float* p) {
  std::uint32_t flags = 0;
  for (std::size_t j = 0; j < N; ++j) flags |= exponent_carry_of(p + j);
  return flags;
}

/// The carry flags of `count` floats: bit 31 is set exactly when one of
/// them is NaN or +/-Inf.
std::uint32_t exponent_carry(const float* p, std::size_t count) {
  constexpr std::size_t kBlock = 64;
  std::uint32_t flags = 0;
  std::size_t i = 0;
  for (; i + kBlock <= count; i += kBlock) {
    flags |= exponent_carry_block<kBlock>(p + i);
  }
  for (; i < count; ++i) flags |= exponent_carry_of(p + i);
  return flags;
}

}  // namespace

bool all_finite(const float* p, std::size_t count) {
  constexpr std::size_t kBlock = 1024;
  std::size_t i = 0;
  for (; i + kBlock <= count; i += kBlock) {
    if ((exponent_carry_block<kBlock>(p + i) & kSignBit) != 0) return false;
  }
  return (exponent_carry(p + i, count - i) & kSignBit) == 0;
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

namespace {

/// matmul_tn with the elision licence supplied: `b_finite` must equal
/// all_finite over B. Callers are matmul_tn, which scans B, and
/// conv2d_backward_weights, which reads the report conv2d_forward made
/// while writing B.
void matmul_tn_licensed(const Tensor& a, const Tensor& b, Tensor& c,
                        bool b_finite) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_tn: inputs must be rank-2");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_tn: inner dimensions differ");
  if (c.shape() != Shape{m, n}) c = Tensor({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  SPATL_DCHECK(pc != pa && pc != pb);
  SPATL_DCHECK(b_finite == all_finite(pb, k * n));
  const ComputeContext& ctx = active_context();
  common::parallel_for_ranges(
      0, m,
      [&](std::size_t row_lo, std::size_t row_hi) {
        ctx.gemm_tn(pa, pb, pc, row_lo, row_hi, m, k, n, b_finite);
      },
      gemm_grain(m, k, n));
}

}  // namespace

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require(b.rank() == 2, "matmul_tn: inputs must be rank-2");
  matmul_tn_licensed(a, b, c, all_finite(b.data(), b.numel()));
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

/// Per-thread scratch that only grows (column panels, the epilogue buffer,
/// a chunk's column gradient), so steady-state calls allocate nothing.
float* thread_scratch(std::vector<float>& buf, std::size_t count) {
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

void require_geometry(const Tensor& input, const Conv2dGeom& g,
                      const char* msg) {
  require(input.rank() == 4 && input.dim(1) == g.in_channels &&
              input.dim(2) == g.in_h && input.dim(3) == g.in_w,
          msg);
}

/// Output positions [lo, hi) along one axis whose window reads input
/// coordinate `i`: o * stride + tap == i + pad with 0 <= tap < kernel and
/// 0 <= o < extent. Ascending o means descending tap.
InsideSpan taps_reading(std::size_t i, std::size_t extent,
                        const Conv2dGeom& g) {
  const std::size_t top = i + g.pad;  // o * stride + tap
  const std::size_t lo =
      top + 1 >= g.kernel ? (top + 1 - g.kernel + g.stride - 1) / g.stride : 0;
  const std::size_t hi = std::min(extent, top / g.stride + 1);
  return {std::min(lo, hi), hi};
}

/// Kernel taps [lo, hi) of a window starting at input coordinate x0 that
/// land inside [0, extent); the others read zero padding.
InsideSpan taps_inside(std::ptrdiff_t x0, std::size_t extent,
                       std::size_t kernel) {
  const auto k = std::ptrdiff_t(kernel);
  const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-x0, 0, k);
  const std::ptrdiff_t hi =
      std::clamp<std::ptrdiff_t>(std::ptrdiff_t(extent) - x0, lo, k);
  return {std::size_t(lo), std::size_t(hi)};
}

/// With `kernel >= stride` consecutive windows leave no gap, so the input
/// coordinates they read along one axis are a prefix [0, end).
std::size_t read_end(std::size_t extent, std::size_t out,
                     const Conv2dGeom& g) {
  const std::size_t reach = out == 0 ? 0 : (out - 1) * g.stride + g.kernel;
  return std::min(extent, reach > g.pad ? reach - g.pad : 0);
}

/// Whether every input pixel some window reads is finite (kernel >= stride).
/// The columns hold exactly those pixels plus zeros, so this is the
/// columns' finiteness at 1/k^2 of their size.
bool read_pixels_finite(const Tensor& input, const Conv2dGeom& g) {
  const std::size_t h = g.in_h, w = g.in_w;
  const std::size_t rows = read_end(h, g.out_h(), g);
  const std::size_t cols = read_end(w, g.out_w(), g);
  // Usually every pixel is read and the planes form one contiguous run.
  const bool whole = rows == h && cols == w;
  const std::size_t run = whole ? input.numel() : cols;
  const std::size_t runs = whole ? 1 : input.dim(0) * g.in_channels * rows;
  const float* in = input.data();
  std::atomic<bool> finite{true};
  common::parallel_for_ranges(
      0, runs,
      [&](std::size_t lo, std::size_t hi) {
        std::uint32_t flags = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const float* at = whole ? in : in + (i / rows * h + i % rows) * w;
          flags |= exponent_carry(at, run);
        }
        if ((flags & kSignBit) != 0) {
          finite.store(false, std::memory_order_relaxed);
        }
      },
      std::max<std::size_t>(1, 4096 / std::max<std::size_t>(1, run)));
  return finite.load(std::memory_order_relaxed);
}

/// One column-matrix row whose window lies inside the image: for every
/// channel and kernel row, the K floats starting at `win` + c * plane +
/// ky * in_w. Every run but the last is copied as whole vectors of
/// kSpill >= K floats: the spill lands where the next run goes, and the
/// source has floats after the run (the next image row or plane).
template <std::size_t K>
inline float* im2col_inside(const float* win, float* d, std::size_t channels,
                            std::size_t plane, std::size_t width) {
  constexpr std::size_t kSpill = K == 3 ? 4 : K == 5 ? 8 : K;
  for (std::size_t c = 0; c < channels; ++c, win += plane) {
    const float* run = win;
    const bool last_channel = c + 1 == channels;
#pragma GCC unroll 8
    for (std::size_t ky = 0; ky < K; ++ky, run += width, d += K) {
      if (last_channel && ky + 1 == K) {
        std::memcpy(d, run, K * sizeof(float));
      } else {
        std::memcpy(d, run, kSpill * sizeof(float));
      }
    }
  }
  return d;
}

/// One column-matrix row whose window at (iy0, ix0) crosses the border:
/// kernel rows outside `ys` and taps outside [0, width) read zero.
template <std::size_t K>
inline float* im2col_border(const float* src_n, float* d, std::size_t kernel,
                            std::size_t channels, std::size_t height,
                            std::size_t width, std::ptrdiff_t iy0,
                            InsideSpan ys, std::ptrdiff_t ix0) {
  if (K != 0) kernel = K;
  const std::size_t plane = height * width;
  const InsideSpan xs = taps_inside(ix0, width, kernel);
  const bool x_inside = xs.lo == 0 && xs.hi == kernel;
  for (std::size_t c = 0; c < channels; ++c, src_n += plane) {
    for (std::size_t ky = 0; ky < kernel; ++ky, d += kernel) {
      if (ky < ys.lo || ky >= ys.hi) {
#pragma GCC unroll 8
        for (std::size_t kx = 0; kx < kernel; ++kx) d[kx] = 0.0f;
        continue;
      }
      const float* row = src_n + std::size_t(iy0 + std::ptrdiff_t(ky)) * width;
      if (x_inside) {
        std::memcpy(d, row + ix0, kernel * sizeof(float));
        continue;
      }
      // Read a clamped in-range tap, keep it only inside.
#pragma GCC unroll 8
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        const bool inside = kx >= xs.lo && kx < xs.hi;
        const std::ptrdiff_t ix = std::clamp<std::ptrdiff_t>(
            ix0 + std::ptrdiff_t(kx), 0, std::ptrdiff_t(width) - 1);
        d[kx] = inside ? row[ix] : 0.0f;
      }
    }
  }
  return d;
}

/// Rows [lo, hi) of the column matrix of `input` into `dst` (row lo
/// first), one output line at a time: the line's vertical taps are worked
/// out once, and windows inside the image copy fixed-size runs with no
/// bounds test. K is the kernel size when known at compile time (the common
/// 1/3/5); K == 0 reads it from `g` and takes the bounds-tested path
/// throughout.
template <std::size_t K>
void im2col_rows(const float* input, float* dst, const Conv2dGeom& g,
                 std::size_t lo, std::size_t hi) {
  const std::size_t kernel = K != 0 ? K : g.kernel;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t h = g.in_h, w = g.in_w, pad = g.pad, plane = h * w;
  // Output columns [x_lo, x_hi) have windows inside horizontally.
  const std::size_t x_lo =
      K == 0 ? ow : std::min(ow, (pad + g.stride - 1) / g.stride);
  const std::size_t x_hi =
      K == 0 || w + pad < kernel
          ? x_lo
          : std::clamp((w + pad - kernel) / g.stride + 1, x_lo, ow);
  for (std::size_t r = lo; r < hi;) {
    const std::size_t line = r / ow;
    const std::size_t ox_begin = r % ow;
    const std::size_t ox_end = std::min(ow, ox_begin + (hi - r));
    const float* src_n = input + line / oh * g.in_channels * plane;
    const std::ptrdiff_t iy0 =
        std::ptrdiff_t(line % oh * g.stride) - std::ptrdiff_t(pad);
    const InsideSpan ys = taps_inside(iy0, h, kernel);
    const bool y_inside = ys.lo == 0 && ys.hi == kernel;
    float* d = dst + (r - lo) * g.patch_size();
    for (std::size_t ox = ox_begin; ox < ox_end; ++ox) {
      const std::ptrdiff_t ix0 =
          std::ptrdiff_t(ox * g.stride) - std::ptrdiff_t(pad);
      if (y_inside && ox >= x_lo && ox < x_hi) {
        d = im2col_inside<K>(src_n + std::size_t(iy0) * w + std::size_t(ix0),
                             d, g.in_channels, plane, w);
      } else {
        d = im2col_border<K>(src_n, d, kernel, g.in_channels, h, w, iy0, ys,
                             ix0);
      }
    }
    r += ox_end - ox_begin;
  }
}

void im2col_dispatch(const float* input, float* dst, const Conv2dGeom& g,
                     std::size_t lo, std::size_t hi) {
  switch (g.kernel) {
    case 1: im2col_rows<1>(input, dst, g, lo, hi); break;
    case 3: im2col_rows<3>(input, dst, g, lo, hi); break;
    case 5: im2col_rows<5>(input, dst, g, lo, hi); break;
    default: im2col_rows<0>(input, dst, g, lo, hi); break;
  }
}

/// One pixel of every channel: dst[c * plane] = sum over t < n, from +0 and
/// in order, of base[taps[t] + c * kk]. N == n when known at compile time
/// (the loop unrolls); N == 0 reads n.
template <std::size_t N>
inline void sum_taps(const float* base, const std::ptrdiff_t* taps,
                     std::size_t n, std::size_t channels, std::size_t kk,
                     float* dst, std::size_t plane) {
  if (N != 0) n = N;
  for (std::size_t c = 0; c < channels; ++c, base += kk, dst += plane) {
    float acc = 0.0f;
#pragma GCC unroll 32
    for (std::size_t t = 0; t < n; ++t) acc += base[taps[t]];
    *dst = acc;
  }
}

/// Where col2im finds the taps of input pixel `pixel` (row-major in its
/// plane) in an image's column rows: the `count` offsets from `base`
/// listed in PlaneGather::taps from `first` on, in (oy, ox)-ascending order
/// (the order the recorded conv CRCs fix).
struct PixelGather {
  std::ptrdiff_t base;
  std::uint32_t pixel, first, count;
};

/// The gathers of the pixels of an input plane that some window reads.
/// They are the same for every image, and for every channel up to an
/// offset of c * k * k, so col2im finds them once per call.
struct PlaneGather {
  std::vector<PixelGather> pixels;  // by tap count, then row-major
  std::vector<std::ptrdiff_t> taps;
  bool sparse = false;  // some pixel is read by no window (1x1 stride 2)
};

PlaneGather plane_gather(const Conv2dGeom& g) {
  const std::size_t kernel = g.kernel, stride = g.stride, pad = g.pad;
  const std::size_t oh = g.out_h(), ow = g.out_w(), cols = g.patch_size();
  PlaneGather pg;
  // A stride-1 window inside the output grid has all kernel^2 taps at the
  // same offsets from its tap (0, 0), output row (iy + pad, ix + pad), so
  // all such pixels share the list's first kernel^2 entries: ky descending
  // (oy ascending), then kx descending (ox ascending).
  if (stride == 1) {
    for (std::size_t t = 0; t < kernel * kernel; ++t) {
      const std::size_t ky = kernel - 1 - t / kernel;
      const std::size_t kx = kernel - 1 - t % kernel;
      pg.taps.push_back(std::ptrdiff_t(ky * kernel + kx) -
                        std::ptrdiff_t((ky * ow + kx) * cols));
    }
  }
  pg.pixels.reserve(g.in_h * g.in_w);
  for (std::size_t iy = 0; iy < g.in_h; ++iy) {
    const InsideSpan ys = taps_reading(iy, oh, g);
    for (std::size_t ix = 0; ix < g.in_w; ++ix) {
      const InsideSpan xs = taps_reading(ix, ow, g);
      const auto pixel = std::uint32_t(iy * g.in_w + ix);
      if (ys.lo == ys.hi || xs.lo == xs.hi) {
        pg.sparse = true;
        continue;
      }
      if (stride == 1 && ys.hi - ys.lo == kernel && xs.hi - xs.lo == kernel) {
        pg.pixels.push_back({std::ptrdiff_t(((iy + pad) * ow + ix + pad) * cols),
                             pixel, 0, std::uint32_t(kernel * kernel)});
        continue;
      }
      const auto first = std::uint32_t(pg.taps.size());
      for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
        const std::size_t ky = iy + pad - oy * stride;
        for (std::size_t ox = xs.lo; ox < xs.hi; ++ox) {
          const std::size_t kx = ix + pad - ox * stride;
          pg.taps.push_back(
              std::ptrdiff_t((oy * ow + ox) * cols + ky * kernel + kx));
        }
      }
      pg.pixels.push_back(
          {0, pixel, first, std::uint32_t(pg.taps.size()) - first});
    }
  }
  // Pixels are independent, so they can go in any order: grouped by tap
  // count, col2im_image's dispatch on the count takes the same branch for
  // long runs instead of alternating (as 1, 2, 1, 2 along a stride-2 row).
  std::stable_sort(pg.pixels.begin(), pg.pixels.end(),
                   [](const PixelGather& a, const PixelGather& b) {
                     return a.count < b.count;
                   });
  return pg;
}

/// col2im over one image as a gather: every input pixel of every channel
/// sums its taps from +0 and is stored once; pixels no window reads are
/// +0. The pixel loop is outermost: a pixel's taps sit at the same offsets
/// in every channel's part of the column rows, so they are summed channel
/// by channel, walking each column row forward. The tap counts that common
/// windows produce are unrolled.
void col2im_image(const float* col, float* dst_n, const Conv2dGeom& g,
                  const PlaneGather& pg) {
  const std::size_t kk = g.kernel * g.kernel, channels = g.in_channels;
  const std::size_t plane = g.in_h * g.in_w;
  if (pg.sparse) std::fill(dst_n, dst_n + channels * plane, 0.0f);
  for (const PixelGather& px : pg.pixels) {
    const float* base = col + px.base;
    const std::ptrdiff_t* t = pg.taps.data() + px.first;
    float* dst = dst_n + px.pixel;
    const std::size_t n = px.count;
    switch (n) {
      case 1: sum_taps<1>(base, t, n, channels, kk, dst, plane); break;
      case 2: sum_taps<2>(base, t, n, channels, kk, dst, plane); break;
      case 4: sum_taps<4>(base, t, n, channels, kk, dst, plane); break;
      case 6: sum_taps<6>(base, t, n, channels, kk, dst, plane); break;
      case 9: sum_taps<9>(base, t, n, channels, kk, dst, plane); break;
      case 25: sum_taps<25>(base, t, n, channels, kk, dst, plane); break;
      default: sum_taps<0>(base, t, n, channels, kk, dst, plane); break;
    }
  }
}

/// Rows per step of conv2d_forward's epilogue: the GEMM output of one step
/// fits a buffer of about this many floats (8 KB), so it is still in L1
/// when it is transposed to NCHW.
constexpr std::size_t kEpilogueFloats = 2048;

/// Stores rows [r0, r1) of a (rows, n) GEMM output held in `buf` to the
/// NCHW tensor `out` (hw pixels per image), adding bias[c] to channel c
/// when `bias` is non-null: one add per element, so where it happens does
/// not change the result.
void store_nchw(const float* buf, std::size_t r0, std::size_t r1,
                std::size_t n, std::size_t hw, const float* bias,
                float* out) {
  for (std::size_t r = r0; r < r1;) {
    const std::size_t img = r / hw, p0 = r % hw;
    const std::size_t run = std::min(r1 - r, hw - p0);
    const float* src = buf + (r - r0) * n;
    float* dst = out + img * n * hw + p0;
    for (std::size_t c = 0; c < n; ++c) {
      float* plane = dst + c * hw;
      const float* col = src + c;
      if (bias != nullptr) {
        const float b = bias[c];
        for (std::size_t q = 0; q < run; ++q) plane[q] = col[q * n] + b;
      } else {
        for (std::size_t q = 0; q < run; ++q) plane[q] = col[q * n];
      }
    }
    r += run;
  }
}

}  // namespace

void im2col(const Tensor& input, const Conv2dGeom& g, Tensor& columns) {
  require_geometry(input, g, "im2col: input shape does not match geometry");
  const std::size_t rows = input.dim(0) * g.out_h() * g.out_w();
  const std::size_t cols = g.patch_size();
  if (columns.shape() != Shape{rows, cols}) columns = Tensor({rows, cols});
  const float* in = input.data();
  float* out = columns.data();
  common::parallel_for_ranges(
      0, rows,
      [&](std::size_t lo, std::size_t hi) {
        im2col_dispatch(in, out + lo * cols, g, lo, hi);
      },
      std::max<std::size_t>(1, 4096 / std::max<std::size_t>(1, cols)));
}

void conv2d_forward(const Tensor& input, const Conv2dGeom& g, const Tensor& w,
                    const float* bias, ConvColumns* columns, Tensor& out) {
  require_geometry(input, g,
                   "conv2d_forward: input shape does not match geometry");
  const std::size_t k = g.patch_size();
  require(w.rank() == 2 && w.dim(1) == k,
          "conv2d_forward: weight must be (out, C*k*k)");
  const std::size_t oh = g.out_h(), ow = g.out_w(), hw = oh * ow;
  const std::size_t m = input.dim(0) * hw, n = w.dim(0);
  const Shape out_shape{input.dim(0), n, oh, ow};
  if (out.shape() != out_shape) out = Tensor(out_shape);
  Tensor* kept = columns != nullptr ? &columns->matrix_ : nullptr;
  if (kept != nullptr && kept->shape() != Shape{m, k}) *kept = Tensor({m, k});
  // Kept columns get their finiteness recorded: the licence for the dW
  // GEMM's elision (conv2d_backward_weights). When kernel >= stride the
  // columns hold exactly the pixels the windows read plus zeros, so those
  // pixels are scanned at 1/k^2 of the columns' size; sparser windows get
  // their written panels scanned instead.
  const bool scan_input = kept != nullptr && g.kernel >= g.stride;
  const bool scan_cols = kept != nullptr && g.kernel < g.stride;
  std::atomic<bool> finite{!scan_input || read_pixels_finite(input, g)};
  const float* in = input.data();
  const float* pw = w.data();
  float* pout = out.data();
  float* pcols = kept != nullptr ? kept->data() : nullptr;
  SPATL_DCHECK(pout != in && pout != pw);
  const ComputeContext& ctx = active_context();
  const std::size_t step = std::max(
      kGemmRowTile,
      kEpilogueFloats / std::max<std::size_t>(1, n) / kGemmRowTile *
          kGemmRowTile);
  common::parallel_for_ranges(
      0, m,
      [&](std::size_t lo, std::size_t hi) {
        thread_local std::vector<float> panel_scratch, gemm_scratch;
        float* gemm_out = thread_scratch(gemm_scratch, step * n);
        std::uint32_t flags = 0;
        for (std::size_t r0 = lo; r0 < hi; r0 += step) {
          const std::size_t r1 = std::min(hi, r0 + step);
          float* panel = pcols != nullptr ? pcols + r0 * k
                                          : thread_scratch(panel_scratch,
                                                           step * k);
          im2col_dispatch(in, panel, g, r0, r1);
          if (scan_cols) flags |= exponent_carry(panel, (r1 - r0) * k);
          ctx.gemm_nt(panel, pw, gemm_out, 0, r1 - r0, k, n);
          store_nchw(gemm_out, r0, r1, n, hw, bias, pout);
        }
        if ((flags & kSignBit) != 0) {
          finite.store(false, std::memory_order_relaxed);
        }
      },
      gemm_grain(m, k, n));
  if (columns != nullptr) {
    columns->finite_ = finite.load(std::memory_order_relaxed);
  }
}

void conv2d_backward_weights(const Tensor& grad_rows,
                             const ConvColumns& columns, Tensor& dw) {
  matmul_tn_licensed(grad_rows, columns.matrix_, dw, columns.finite_);
}

void col2im(const Tensor& columns, const Conv2dGeom& g, std::size_t batch,
            Tensor& input_grad) {
  const std::size_t image_rows = g.out_h() * g.out_w();
  require(columns.shape() == Shape{batch * image_rows, g.patch_size()},
          "col2im: column shape mismatch");
  const Shape in_shape{batch, g.in_channels, g.in_h, g.in_w};
  if (input_grad.shape() != in_shape) input_grad = Tensor(in_shape);
  const PlaneGather pg = plane_gather(g);
  const std::size_t image = g.in_channels * g.in_h * g.in_w;
  const float* col = columns.data();
  float* out = input_grad.data();
  common::parallel_for(
      0, batch,
      [&](std::size_t n) {
        col2im_image(col + n * image_rows * g.patch_size(), out + n * image, g,
                     pg);
      },
      /*grain=*/1);
}

void conv2d_backward_data(const Tensor& grad_rows, const Tensor& w,
                          const Conv2dGeom& g, Tensor& input_grad) {
  require(grad_rows.rank() == 2 && w.rank() == 2 &&
              grad_rows.dim(1) == w.dim(0) && w.dim(1) == g.patch_size(),
          "conv2d_backward_data: expected (pixels, out) and (out, C*k*k)");
  const std::size_t hw = g.out_h() * g.out_w();
  const std::size_t m = grad_rows.dim(0), k = w.dim(0), n = w.dim(1);
  require(hw > 0 && m % hw == 0,
          "conv2d_backward_data: rows must be whole images");
  const std::size_t batch = m / hw;
  const Shape in_shape{batch, g.in_channels, g.in_h, g.in_w};
  if (input_grad.shape() != in_shape) input_grad = Tensor(in_shape);
  const PlaneGather pg = plane_gather(g);
  const std::size_t image = g.in_channels * g.in_h * g.in_w;
  const float* pa = grad_rows.data();
  const float* pb = w.data();
  float* out = input_grad.data();
  const bool b_finite = all_finite(pb, k * n);
  const ComputeContext& ctx = active_context();
  // Each chunk of whole images (at least one gemm_grain panel of rows) gets
  // its column gradient from matmul's kernel into per-thread scratch and
  // gathers it into its images right away, while it is still in cache. The
  // scratch holds one chunk, never the batch's (pixels, C*k*k) matrix.
  common::parallel_for_ranges(
      0, batch,
      [&](std::size_t lo, std::size_t hi) {
        thread_local std::vector<float> dcols;
        const std::size_t rows = (hi - lo) * hw;
        float* pc = thread_scratch(dcols, rows * n);
        ctx.gemm_nn(pa + lo * hw * k, pb, pc, 0, rows, k, n, b_finite);
        for (std::size_t img = lo; img < hi; ++img) {
          col2im_image(pc + (img - lo) * hw * n, out + img * image, g, pg);
        }
      },
      std::max<std::size_t>(1, gemm_grain(m, k, n) / hw));
}

namespace {

/// Batcher's odd-even merge sort over `wires` values padded with +inf to a
/// power of two, keeping the comparators that join two real wires (a
/// padding wire holds the largest key, so its comparators change nothing)
/// and feed one of the output wires [first_out, last_out].
MedianNetwork median_network(std::size_t wires, std::size_t first_out,
                             std::size_t last_out) {
  std::size_t size = 1;
  while (size < wires) size <<= 1;
  std::vector<std::pair<std::size_t, std::size_t>> all;
  for (std::size_t p = 1; p < size; p <<= 1) {
    for (std::size_t k = p; k > 0; k >>= 1) {
      for (std::size_t j = k % p; j + k < size; j += 2 * k) {
        for (std::size_t i = j; i < j + k && i + k < wires; ++i) {
          if (i / (2 * p) == (i + k) / (2 * p)) all.emplace_back(i, i + k);
        }
      }
    }
  }
  std::vector<std::uint8_t> live(wires, 0);
  for (std::size_t w = first_out; w <= last_out; ++w) live[w] = 1;
  std::vector<std::uint8_t> keep(all.size(), 0);
  for (std::size_t c = all.size(); c-- > 0;) {
    const auto [a, b] = all[c];
    if (live[a] || live[b]) keep[c] = live[a] = live[b] = 1;
  }
  MedianNetwork net;
  net.wires = wires;
  for (std::size_t c = 0; c < all.size(); ++c) {
    if (!keep[c]) continue;
    net.pairs.emplace_back(std::uint32_t(all[c].first * kMedianBlock),
                           std::uint32_t(all[c].second * kMedianBlock));
  }
  return net;
}

}  // namespace

void coordinate_median(const float* const* rows, std::size_t n,
                       const std::uint32_t* counts, std::size_t dim,
                       float* out) {
  if (n == 0) {
    std::fill(out, out + dim, 0.0f);
    return;
  }
  // A column of count c reads wire c / 2, and wire c / 2 - 1 when c is
  // even, so the network only has to sort the wires the counts reach.
  std::size_t first = (n - 1) / 2, last = n / 2;
  if (counts != nullptr && dim > 0) {
    const auto [lo, hi] = std::minmax_element(counts, counts + dim);
    SPATL_DCHECK(*hi <= n);
    first = *lo > 0 ? (*lo - 1) / 2 : 0;
    last = std::max<std::size_t>(first, *hi / 2);
  }
  const MedianNetwork net = median_network(n, first, last);
  const ComputeContext& ctx = active_context();
  const std::size_t blocks = (dim + kMedianBlock - 1) / kMedianBlock;
  common::parallel_for_ranges(
      0, blocks,
      [&](std::size_t lo, std::size_t hi) {
        ctx.median_blocks(rows, counts, net, dim, lo, hi, out);
      },
      /*grain=*/std::max<std::size_t>(1, 32768 / (n * kMedianBlock)));
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
