#include "nn/pool.hpp"

#include <limits>
#include <stdexcept>

#include "common/parallel.hpp"

namespace spatl::nn {

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {}

Tensor MaxPool2d::forward(const Tensor& input, bool /*train*/) {
  if (input.rank() != 4) {
    throw std::invalid_argument("MaxPool2d: expected (N,C,H,W)");
  }
  cached_in_shape_ = input.shape();
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  if (h < kernel_ || w < kernel_) {
    throw std::invalid_argument("MaxPool2d: input smaller than kernel");
  }
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  Tensor out({n, c, oh, ow});
  argmax_.assign(out.numel(), 0);
  const float* in = input.data();
  float* o = out.data();
  // First strict maximum wins, and NaN never compares greater: a window
  // with no maximum (all NaN or -Inf) outputs -Inf and routes its gradient
  // to the plane's origin.
  const bool pairs = kernel_ == 2 && stride_ == 2;
  common::parallel_for(
      0, n * c,
      [&](std::size_t plane_idx) {
        const float* plane = in + plane_idx * h * w;
        float* oplane = o + plane_idx * oh * ow;
        std::uint32_t* aplane = argmax_.data() + plane_idx * oh * ow;
        const auto base = std::uint32_t(plane_idx * h * w);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            float best = -std::numeric_limits<float>::infinity();
            std::size_t best_idx = 0;
            // Branch-free: random data makes every comparison a coin flip.
            const auto take = [&](std::size_t at) {
              const float v = plane[at];
              const std::size_t wins = 0 - std::size_t(v > best);
              best_idx ^= (best_idx ^ at) & wins;
              best = v > best ? v : best;
            };
            const std::size_t corner = oy * stride_ * w + ox * stride_;
            if (pairs) {
              take(corner);
              take(corner + 1);
              take(corner + w);
              take(corner + w + 1);
            } else {
              for (std::size_t ky = 0; ky < kernel_; ++ky) {
                for (std::size_t kx = 0; kx < kernel_; ++kx) {
                  take(corner + ky * w + kx);
                }
              }
            }
            oplane[oy * ow + ox] = best;
            aplane[oy * ow + ox] = base + std::uint32_t(best_idx);
          }
        }
      },
      1);
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor dx(cached_in_shape_);
  const float* g = grad_output.data();
  float* d = dx.data();
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    d[argmax_[i]] += g[i];
  }
  return dx;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool /*train*/) {
  if (input.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool: expected (N,C,H,W)");
  }
  cached_in_shape_ = input.shape();
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t hw = input.dim(2) * input.dim(3);
  Tensor out({n, c});
  const float* in = input.data();
  const float inv = 1.0f / float(hw);
  for (std::size_t i = 0; i < n * c; ++i) {
    double acc = 0.0;
    const float* plane = in + i * hw;
    for (std::size_t p = 0; p < hw; ++p) acc += plane[p];
    out[i] = float(acc) * inv;
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const std::size_t hw = cached_in_shape_[2] * cached_in_shape_[3];
  Tensor dx(cached_in_shape_);
  const float inv = 1.0f / float(hw);
  const float* g = grad_output.data();
  float* d = dx.data();
  const std::size_t planes = cached_in_shape_[0] * cached_in_shape_[1];
  for (std::size_t i = 0; i < planes; ++i) {
    const float v = g[i] * inv;
    float* plane = d + i * hw;
    for (std::size_t p = 0; p < hw; ++p) plane[p] = v;
  }
  return dx;
}

}  // namespace spatl::nn
