// 2-D convolution via im2col + GEMM.
#pragma once

#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace spatl::nn {

/// Conv2d with square kernels, configurable stride/padding, NCHW layout.
/// Weight is stored (out_channels, in_channels * k * k) so that forward is a
/// single GEMM over im2col columns. Only a train forward keeps the columns;
/// backward after an eval forward throws std::logic_error.
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, std::size_t pad = 1, bool bias = false);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamView>& out) override;
  void init_params(common::Rng& rng) override;
  std::string type_name() const override { return "Conv2d"; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }
  Tensor& weight() { return w_; }
  const Tensor& weight() const { return w_; }

 private:
  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Tensor w_, gw_;  // (out, in*k*k)
  Tensor b_, gb_;  // (out)
  tensor::ConvColumns cached_cols_;  // of the last train forward's input
  bool cached_train_ = false;
  tensor::Conv2dGeom cached_geom_;
  std::size_t cached_batch_ = 0;
};

}  // namespace spatl::nn
