// Module: the layer abstraction used by every model in the repo.
//
// Instead of a general autograd tape, each module caches what it needs in
// forward() and implements the exact adjoint in backward(). FL algorithms
// and PPO only ever need whole-model gradients, so this layer-graph scheme
// is simpler, faster, and easier to verify by finite differences.
//
// Parameters are exposed through `ParamView`s: stable, deterministic,
// name-addressable references into the module's weight and gradient tensors.
// The FL layer flattens these views into contiguous float vectors for
// aggregation, and splits encoder/predictor by name prefix.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace spatl::nn {

using tensor::Tensor;

/// A named, mutable reference to one parameter tensor and its gradient.
struct ParamView {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;

  /// Forward pass. `train` toggles batch-stat collection / dropout.
  /// Modules cache whatever backward() needs.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Backward pass given d(loss)/d(output); accumulates into parameter
  /// gradients and returns d(loss)/d(input). Must follow a forward() call.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() where nobody reads d(loss)/d(input), as for a model's first
  /// layer: accumulates the same parameter gradients, and a module may
  /// skip computing the input gradient. Default: backward(), result dropped.
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Append this module's parameters (names prefixed by `prefix`) to `out`.
  virtual void collect_params(const std::string& prefix,
                              std::vector<ParamView>& out) {
    (void)prefix;
    (void)out;
  }

  /// Initialize weights (He/Xavier per layer type). Default: nothing.
  virtual void init_params(common::Rng& rng) { (void)rng; }

  virtual std::string type_name() const = 0;

  /// All parameters of this module (convenience wrapper).
  std::vector<ParamView> params(const std::string& prefix = "") {
    std::vector<ParamView> out;
    collect_params(prefix, out);
    return out;
  }

  void zero_grad() {
    for (auto& p : params()) p.grad->zero();
  }
};

using ModulePtr = std::shared_ptr<Module>;

// ------------------------------------------------- flat parameter I/O ----

/// Total scalar count across views.
std::size_t param_count(const std::vector<ParamView>& views);

/// Concatenate all parameter values into one flat vector (deterministic
/// view order). This is the wire format of the FL layer.
std::vector<float> flatten_values(const std::vector<ParamView>& views);
std::vector<float> flatten_grads(const std::vector<ParamView>& views);

/// Write a flat vector back into the parameter tensors. Size must match.
void unflatten_values(const std::vector<float>& flat,
                      const std::vector<ParamView>& views);

/// Views whose name starts with `prefix`.
std::vector<ParamView> filter_by_prefix(const std::vector<ParamView>& views,
                                        const std::string& prefix);

}  // namespace spatl::nn
