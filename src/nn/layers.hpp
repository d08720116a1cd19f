// Pointwise and dense layers: Linear, ReLU, Flatten, Dropout, ChannelGate.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace spatl::nn {

/// Fully-connected layer: y = x W^T + b, with x (N, in), W (out, in).
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, bool bias = true);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamView>& out) override;
  void init_params(common::Rng& rng) override;
  std::string type_name() const override { return "Linear"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_, out_;
  bool has_bias_;
  Tensor w_, gw_;
  Tensor b_, gb_;
  Tensor cached_input_;
};

/// Elementwise max(x, 0). Backward passes the gradient where x > 0 or x is
/// NaN and zeroes it where x <= 0 (-0 included).
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "ReLU"; }

 private:
  std::vector<std::uint8_t> live_;  // 1 where !(x <= 0), per element
};

/// (N, C, H, W) -> (N, C*H*W). Remembers the input shape for backward.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "Flatten"; }

 private:
  tensor::Shape cached_shape_;
};

/// Inverted dropout: scales kept activations by 1/(1-p) at train time so
/// eval needs no rescaling.
class Dropout : public Module {
 public:
  explicit Dropout(float p, std::uint64_t seed = 0x0d7097u);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "Dropout"; }

  float rate() const { return p_; }

 private:
  float p_;
  common::Rng rng_;
  std::vector<float> mask_;
};

/// Multiplicative per-channel 0/1 gate applied to a (N, C, H, W) feature
/// map. This is how channel pruning is realized functionally: zeroing an
/// output channel is equivalent to removing the filter, and downstream
/// layers see exactly the pruned activations. FLOPs accounting over the
/// kept fraction is done analytically in spatl::prune.
class ChannelGate : public Module {
 public:
  explicit ChannelGate(std::size_t channels);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "ChannelGate"; }

  std::size_t channels() const { return mask_.size(); }
  /// Fraction of channels currently kept.
  double keep_fraction() const;
  const std::vector<std::uint8_t>& mask() const { return mask_; }
  void set_mask(std::vector<std::uint8_t> mask);
  void reset() { std::fill(mask_.begin(), mask_.end(), std::uint8_t{1}); }

 private:
  std::vector<std::uint8_t> mask_;
};

}  // namespace spatl::nn
