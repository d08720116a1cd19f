// Sequential container and the residual BasicBlock used by ResNets.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace spatl::nn {

/// Ordered chain of modules. Child names are "<index>.<TypeName>." prefixes
/// so parameter names are stable and human-readable, e.g.
/// "encoder.3.Conv2d.weight".
class Sequential : public Module {
 public:
  Sequential() = default;

  Sequential& add(ModulePtr module) {
    children_.push_back(std::move(module));
    return *this;
  }

  template <typename M, typename... Args>
  M* emplace(Args&&... args) {
    auto m = std::make_shared<M>(std::forward<Args>(args)...);
    M* raw = m.get();
    children_.push_back(std::move(m));
    return raw;
  }

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamView>& out) override;
  void init_params(common::Rng& rng) override;
  std::string type_name() const override { return "Sequential"; }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_[i]; }
  const std::vector<ModulePtr>& children() const { return children_; }

 private:
  std::vector<ModulePtr> children_;
};

/// CIFAR-style residual block:
///   main: conv3x3(stride) -> BN -> gate -> ReLU -> conv3x3 -> BN
///   skip: identity, or conv1x1(stride) -> BN when shape changes
///   out:  ReLU(main + skip)
/// The ChannelGate after the first conv is the prunable point of the block —
/// pruning internal channels preserves the block's output shape, matching
/// how structured pruning is applied to ResNets in the AMC/GNN-RL line of
/// work the paper builds on.
class BasicBlock : public Module {
 public:
  BasicBlock(std::size_t in_channels, std::size_t out_channels,
             std::size_t stride);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamView>& out) override;
  void init_params(common::Rng& rng) override;
  std::string type_name() const override { return "BasicBlock"; }

  ChannelGate& gate() { return *gate_; }
  Conv2d& conv1() { return *conv1_; }
  Conv2d& conv2() { return *conv2_; }
  BatchNorm2d& bn1() { return *bn1_; }
  BatchNorm2d& bn2() { return *bn2_; }
  bool has_projection() const { return proj_conv_ != nullptr; }
  BatchNorm2d* proj_bn() { return proj_bn_.get(); }

 private:
  std::shared_ptr<Conv2d> conv1_, conv2_;
  std::shared_ptr<BatchNorm2d> bn1_, bn2_;
  std::shared_ptr<ChannelGate> gate_;
  std::shared_ptr<ReLU> relu1_;
  std::shared_ptr<Conv2d> proj_conv_;    // nullptr for identity skip
  std::shared_ptr<BatchNorm2d> proj_bn_;
  ReLU relu2_;  // the output ReLU over main + skip
};

}  // namespace spatl::nn
