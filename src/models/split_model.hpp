// SplitModel: the encoder/predictor decomposition at the heart of SPATL.
//
// The encoder embeds the input and is the only part shared with the FL
// server; the predictor is the locally-customized head that transfers the
// encoder's knowledge to each client's non-IID data (paper §IV-A). Both are
// Sequential modules; parameters are name-prefixed "encoder." and
// "predictor." so FL code can split them by prefix.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "models/layer_info.hpp"
#include "models/model_config.hpp"
#include "nn/batchnorm.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"

namespace spatl::models {

class SplitModel {
 public:
  SplitModel() = default;

  const ModelConfig& config() const { return config_; }

  /// Full forward: predictor(encoder(x)). Returns logits (N, classes).
  nn::Tensor forward(const nn::Tensor& input, bool train);

  /// Backward from d(loss)/d(logits) through predictor then encoder,
  /// accumulating every parameter gradient. d(loss)/d(input) is not
  /// formed: the encoder's first layer runs backward_params.
  void backward(const nn::Tensor& grad_logits);

  /// Encoder-only forward (the embedding shared across clients).
  nn::Tensor encode(const nn::Tensor& input, bool train);

  std::vector<nn::ParamView> all_params();
  std::vector<nn::ParamView> encoder_params();
  std::vector<nn::ParamView> predictor_params();

  void zero_grad();
  void init_params(common::Rng& rng);

  nn::Sequential& encoder() { return *encoder_; }
  nn::Sequential& predictor() { return *predictor_; }

  /// Prunable points, in encoder order. gates()[i] masks the output
  /// channels of the conv whose LayerInfo has out_gate == i.
  const std::vector<nn::ChannelGate*>& gates() const { return gates_; }
  /// gate_convs()[i] is the convolution whose output channels gates()[i]
  /// masks — the weights channel-saliency scores are computed from.
  const std::vector<nn::Conv2d*>& gate_convs() const { return gate_convs_; }

  /// Which gates bound each conv's input/output channels (-1 = ungated).
  /// SPATL's salient-parameter upload masks conv weight rows by the output
  /// gate and column blocks by the input gate.
  struct ConvBinding {
    nn::Conv2d* conv = nullptr;
    int in_gate = -1;
    int out_gate = -1;
  };
  const std::vector<ConvBinding>& conv_bindings() const {
    return conv_bindings_;
  }
  void reset_gates();
  /// Per-gate keep fractions (1.0 = dense).
  std::vector<double> gate_keep_fractions() const;

  /// All batch-norm layers (for copying running statistics).
  const std::vector<nn::BatchNorm2d*>& batch_norms() const { return bns_; }

  /// Structural description of the encoder (see layer_info.hpp).
  const std::vector<LayerInfo>& layers() const { return layers_; }

  std::size_t encoder_param_count();
  std::size_t predictor_param_count();

 private:
  friend SplitModel build_model(const ModelConfig& config, common::Rng& rng);

  ModelConfig config_;
  std::shared_ptr<nn::Sequential> encoder_;
  std::shared_ptr<nn::Sequential> predictor_;
  std::vector<nn::ChannelGate*> gates_;
  std::vector<nn::Conv2d*> gate_convs_;
  std::vector<ConvBinding> conv_bindings_;
  std::vector<nn::BatchNorm2d*> bns_;
  std::vector<LayerInfo> layers_;
};

/// Construct and He-initialize a model from a config. Throws on unknown
/// architecture names.
SplitModel build_model(const ModelConfig& config, common::Rng& rng);

/// Copy every parameter AND batch-norm running statistic from src to dst.
/// Both must come from the same ModelConfig.
void copy_full_state(SplitModel& src, SplitModel& dst);

/// Parameter count of the paper-scale (32x32 / 28x28, width 1.0) instance —
/// used for analytic communication-byte accounting without instantiating
/// the full network weights repeatedly.
std::size_t full_scale_encoder_params(const std::string& arch);

}  // namespace spatl::models
