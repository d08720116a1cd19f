#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace spatl::nn {

namespace {

// (N, C, oh, ow) -> (rows=N*oh*ow, C) row-major: the output gradient in
// the layout of the forward GEMM's output.
void nchw_to_rows(const Tensor& nchw, Tensor& rows) {
  const std::size_t batch = nchw.dim(0), channels = nchw.dim(1);
  const std::size_t hw = nchw.dim(2) * nchw.dim(3);
  const tensor::Shape shape{batch * hw, channels};
  if (rows.shape() != shape) rows = Tensor(shape);
  const float* src = nchw.data();
  float* dst = rows.data();
  common::parallel_for(
      0, batch,
      [&](std::size_t n) {
        const float* src_n = src + n * channels * hw;
        float* dst_n = dst + n * hw * channels;
        for (std::size_t c = 0; c < channels; ++c) {
          const float* plane = src_n + c * hw;
          for (std::size_t p = 0; p < hw; ++p) {
            dst_n[p * channels + c] = plane[p];
          }
        }
      },
      1);
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      w_({out_channels, in_channels * kernel * kernel}),
      gw_({out_channels, in_channels * kernel * kernel}),
      b_(bias ? Tensor({out_channels}) : Tensor()),
      gb_(bias ? Tensor({out_channels}) : Tensor()) {}

void Conv2d::init_params(common::Rng& rng) {
  // He-normal over fan-in, the standard init for ReLU conv trunks.
  const float fan_in = float(in_channels_ * kernel_ * kernel_);
  const float stddev = std::sqrt(2.0f / fan_in);
  for (auto& v : w_.storage()) v = rng.normal_float(0.0f, stddev);
  if (has_bias_) b_.zero();
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: expected (N," +
                                std::to_string(in_channels_) + ",H,W), got " +
                                tensor::shape_to_string(input.shape()));
  }
  const tensor::Conv2dGeom geom{in_channels_, input.dim(2), input.dim(3),
                                kernel_,      stride_,      pad_};
  // A training forward keeps its im2col matrix for backward, reusing the
  // buffer from step to step. An eval forward builds its columns panel by
  // panel inside the call and frees the training cache, so a model that
  // only evaluates holds no column matrix.
  cached_train_ = train;
  if (!train) cached_cols_ = tensor::ConvColumns();
  cached_batch_ = input.dim(0);
  cached_geom_ = geom;
  Tensor out;
  // The GEMM dispatches through the active compute backend
  // (tensor/backend.hpp); im2col, the bias add and the NCHW store around it
  // are data movement plus independent per-element adds, so they are
  // backend-agnostic and bit-stable.
  tensor::conv2d_forward(input, geom, w_, has_bias_ ? b_.data() : nullptr,
                         train ? &cached_cols_ : nullptr, out);
  return out;
}

Tensor Conv2d::accumulate_param_grads(const Tensor& grad_output) {
  if (!cached_train_) {
    throw std::logic_error("Conv2d::backward requires a train forward");
  }
  SPATL_DCHECK_SHAPE(grad_output.shape(),
                     (tensor::Shape{cached_batch_, out_channels_,
                                    cached_geom_.out_h(),
                                    cached_geom_.out_w()}));
  Tensor grows;
  nchw_to_rows(grad_output, grows);  // (rows, out)
  // dW += dRows^T * cols
  Tensor dw;
  tensor::conv2d_backward_weights(grows, cached_cols_, dw);
  gw_ += dw;
  if (has_bias_) {
    const float* g = grows.data();
    float* gb = gb_.data();
    const std::size_t nrows = grows.dim(0);
    for (std::size_t r = 0; r < nrows; ++r) {
      for (std::size_t c = 0; c < out_channels_; ++c) {
        gb[c] += g[r * out_channels_ + c];
      }
    }
  }
  return grows;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor grows = accumulate_param_grads(grad_output);
  // dX = col2im(dRows * W)
  Tensor dx;
  tensor::conv2d_backward_data(grows, w_, cached_geom_, dx);
  return dx;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  (void)accumulate_param_grads(grad_output);
}

void Conv2d::collect_params(const std::string& prefix,
                            std::vector<ParamView>& out) {
  out.push_back({prefix + "weight", &w_, &gw_});
  if (has_bias_) out.push_back({prefix + "bias", &b_, &gb_});
}

}  // namespace spatl::nn
