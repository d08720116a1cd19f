#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace spatl::nn {

namespace {

// (rows=N*oh*ow, C) row-major -> (N, C, oh, ow), adding bias[c] to channel
// c when `bias` is non-null (one add per element, so the result does not
// depend on where the add happens).
void rows_to_nchw(const Tensor& rows, const float* bias, std::size_t batch,
                  std::size_t channels, std::size_t oh, std::size_t ow,
                  Tensor& out) {
  const tensor::Shape shape{batch, channels, oh, ow};
  if (out.shape() != shape) out = Tensor(shape);
  const float* src = rows.data();
  float* dst = out.data();
  const std::size_t hw = oh * ow;
  common::parallel_for(
      0, batch,
      [&](std::size_t n) {
        const float* src_n = src + n * hw * channels;
        float* dst_n = dst + n * channels * hw;
        for (std::size_t c = 0; c < channels; ++c) {
          float* plane = dst_n + c * hw;
          const float* col = src_n + c;
          if (bias != nullptr) {
            const float b = bias[c];
            for (std::size_t p = 0; p < hw; ++p) {
              plane[p] = col[p * channels] + b;
            }
          } else {
            for (std::size_t p = 0; p < hw; ++p) plane[p] = col[p * channels];
          }
        }
      },
      1);
}

// Inverse of rows_to_nchw.
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

Tensor Conv2d::forward(const Tensor& input, bool /*train*/) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: expected (N," +
                                std::to_string(in_channels_) + ",H,W), got " +
                                tensor::shape_to_string(input.shape()));
  }
  cached_batch_ = input.dim(0);
  cached_geom_ = tensor::Conv2dGeom{in_channels_, input.dim(2), input.dim(3),
                                    kernel_,      stride_,      pad_};
  tensor::im2col(input, cached_geom_, cached_cols_);
  Tensor rows;
  // The heavy lifting is one GEMM; it dispatches through the active compute
  // backend (tensor/backend.hpp). Everything around it — im2col, the bias
  // add, the layout shuffle — is pure data movement plus independent
  // per-element adds, so it is backend-agnostic and bit-stable.
  tensor::matmul_nt(cached_cols_, w_, rows);  // (rows, out)
  Tensor out;
  rows_to_nchw(rows, has_bias_ ? b_.data() : nullptr, cached_batch_,
               out_channels_, cached_geom_.out_h(), cached_geom_.out_w(), out);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  SPATL_DCHECK_SHAPE(grad_output.shape(),
                     (tensor::Shape{cached_batch_, out_channels_,
                                    cached_geom_.out_h(),
                                    cached_geom_.out_w()}));
  Tensor grows;
  nchw_to_rows(grad_output, grows);  // (rows, out)
  // dW += dRows^T * cols
  Tensor dw;
  tensor::matmul_tn(grows, cached_cols_, dw);
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
  // dCols = dRows * W ; dX = col2im(dCols)
  Tensor dcols;
  tensor::matmul(grows, w_, dcols);
  Tensor dx;
  tensor::col2im(dcols, cached_geom_, cached_batch_, dx);
  return dx;
}

void Conv2d::collect_params(const std::string& prefix,
                            std::vector<ParamView>& out) {
  out.push_back({prefix + "weight", &w_, &gw_});
  if (has_bias_) out.push_back({prefix + "bias", &b_, &gb_});
}

}  // namespace spatl::nn
