#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace spatl::nn {

// ------------------------------------------------------------- Linear ----

Linear::Linear(std::size_t in_features, std::size_t out_features, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      w_({out_features, in_features}),
      gw_({out_features, in_features}),
      b_(bias ? Tensor({out_features}) : Tensor()),
      gb_(bias ? Tensor({out_features}) : Tensor()) {}

void Linear::init_params(common::Rng& rng) {
  // He-uniform: suitable for the ReLU trunks used throughout.
  const float bound = std::sqrt(6.0f / float(in_));
  for (auto& v : w_.storage()) v = rng.uniform_float(-bound, bound);
  if (has_bias_) b_.zero();
}

Tensor Linear::forward(const Tensor& input, bool /*train*/) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Linear: expected (N," + std::to_string(in_) +
                                "), got " + tensor::shape_to_string(input.shape()));
  }
  cached_input_ = input;
  Tensor out;
  tensor::matmul_nt(input, w_, out);  // (N,in) x (out,in)^T
  if (has_bias_) {
    const std::size_t n = out.dim(0);
    float* p = out.data();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < out_; ++j) p[i * out_ + j] += b_[j];
    }
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  // dW += dY^T X ; db += colsum(dY) ; dX = dY W
  Tensor dw;
  tensor::matmul_tn(grad_output, cached_input_, dw);  // (out,in)
  gw_ += dw;
  if (has_bias_) {
    const std::size_t n = grad_output.dim(0);
    const float* g = grad_output.data();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < out_; ++j) gb_[j] += g[i * out_ + j];
    }
  }
  Tensor dx;
  tensor::matmul(grad_output, w_, dx);  // (N,out) x (out,in)
  return dx;
}

void Linear::collect_params(const std::string& prefix,
                            std::vector<ParamView>& out) {
  out.push_back({prefix + "weight", &w_, &gw_});
  if (has_bias_) out.push_back({prefix + "bias", &b_, &gb_});
}

// --------------------------------------------------------------- ReLU ----

namespace {

// Both ReLU passes are branch-free bit selects, so their cost does not
// depend on the sign pattern of the data. ReLU::forward/backward call them
// on fixed-size blocks, which lets the compiler vectorize the loops.
constexpr std::size_t kReluBlock = 64;

inline void relu_forward_span(float* __restrict y,
                              std::uint8_t* __restrict live,
                              std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const float v = y[i];
    // max(v, 0): only v < 0 becomes +0; -0 and NaN pass through.
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits &= std::uint32_t(v < 0.0f) - 1u;
    std::memcpy(y + i, &bits, sizeof(bits));
    live[i] = !(v <= 0.0f);  // backward's mask: NaN is live, -0 is not
  }
}

inline void relu_backward_span(float* __restrict g,
                               const std::uint8_t* __restrict live,
                               std::size_t count) {
  // A dead unit's gradient becomes +0 whatever it was (NaN and Inf
  // included); a live unit's passes through bit for bit.
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, g + i, sizeof(bits));
    bits &= 0u - std::uint32_t(live[i]);
    std::memcpy(g + i, &bits, sizeof(bits));
  }
}

}  // namespace

Tensor ReLU::forward(const Tensor& input, bool /*train*/) {
  Tensor out = input;
  const std::size_t count = out.numel();
  live_.resize(count);
  float* y = out.data();
  std::uint8_t* live = live_.data();
  std::size_t i = 0;
  for (; i + kReluBlock <= count; i += kReluBlock) {
    relu_forward_span(y + i, live + i, kReluBlock);
  }
  relu_forward_span(y + i, live + i, count - i);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor dx = grad_output;
  const std::size_t count = dx.numel();
  SPATL_DCHECK(live_.size() == count);
  float* g = dx.data();
  const std::uint8_t* live = live_.data();
  std::size_t i = 0;
  for (; i + kReluBlock <= count; i += kReluBlock) {
    relu_backward_span(g + i, live + i, kReluBlock);
  }
  relu_backward_span(g + i, live + i, count - i);
  return dx;
}

// ------------------------------------------------------------ Flatten ----

Tensor Flatten::forward(const Tensor& input, bool /*train*/) {
  cached_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

// ------------------------------------------------------------ Dropout ----

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {
  if (p < 0.0f || p >= 1.0f) {
    throw std::invalid_argument("Dropout: rate must be in [0,1)");
  }
}

Tensor Dropout::forward(const Tensor& input, bool train) {
  if (!train || p_ == 0.0f) {
    mask_.clear();
    return input;
  }
  mask_.resize(input.numel());
  const float scale = 1.0f / (1.0f - p_);
  Tensor out = input;
  float* v = out.data();
  for (std::size_t i = 0; i < mask_.size(); ++i) {
    mask_[i] = rng_.bernoulli(p_) ? 0.0f : scale;
    v[i] *= mask_[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;
  Tensor dx = grad_output;
  float* g = dx.data();
  for (std::size_t i = 0; i < mask_.size(); ++i) g[i] *= mask_[i];
  return dx;
}

// -------------------------------------------------------- ChannelGate ----

ChannelGate::ChannelGate(std::size_t channels) : mask_(channels, 1) {}

double ChannelGate::keep_fraction() const {
  if (mask_.empty()) return 1.0;
  std::size_t kept = 0;
  for (auto m : mask_) kept += m;
  return double(kept) / double(mask_.size());
}

void ChannelGate::set_mask(std::vector<std::uint8_t> mask) {
  if (mask.size() != mask_.size()) {
    throw std::invalid_argument("ChannelGate: mask size mismatch");
  }
  mask_ = std::move(mask);
}

Tensor ChannelGate::forward(const Tensor& input, bool /*train*/) {
  if (input.rank() != 4 || input.dim(1) != mask_.size()) {
    throw std::invalid_argument("ChannelGate: expected (N," +
                                std::to_string(mask_.size()) + ",H,W)");
  }
  Tensor out = input;
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t hw = input.dim(2) * input.dim(3);
  float* p = out.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      if (!mask_[ch]) {
        float* row = p + (i * c + ch) * hw;
        std::fill(row, row + hw, 0.0f);
      }
    }
  }
  return out;
}

Tensor ChannelGate::backward(const Tensor& grad_output) {
  Tensor dx = grad_output;
  const std::size_t n = dx.dim(0), c = dx.dim(1);
  const std::size_t hw = dx.dim(2) * dx.dim(3);
  float* p = dx.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      if (!mask_[ch]) {
        float* row = p + (i * c + ch) * hw;
        std::fill(row, row + hw, 0.0f);
      }
    }
  }
  return dx;
}

}  // namespace spatl::nn
