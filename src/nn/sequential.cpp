#include "nn/sequential.hpp"

namespace spatl::nn {

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& child : children_) x = child->forward(x, train);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::collect_params(const std::string& prefix,
                                std::vector<ParamView>& out) {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i]->collect_params(
        prefix + std::to_string(i) + "." + children_[i]->type_name() + ".",
        out);
  }
}

void Sequential::init_params(common::Rng& rng) {
  for (auto& child : children_) child->init_params(rng);
}

BasicBlock::BasicBlock(std::size_t in_channels, std::size_t out_channels,
                       std::size_t stride)
    : conv1_(std::make_shared<Conv2d>(in_channels, out_channels, 3, stride, 1)),
      conv2_(std::make_shared<Conv2d>(out_channels, out_channels, 3, 1, 1)),
      bn1_(std::make_shared<BatchNorm2d>(out_channels)),
      bn2_(std::make_shared<BatchNorm2d>(out_channels)),
      gate_(std::make_shared<ChannelGate>(out_channels)),
      relu1_(std::make_shared<ReLU>()) {
  if (stride != 1 || in_channels != out_channels) {
    proj_conv_ = std::make_shared<Conv2d>(in_channels, out_channels, 1, stride,
                                          /*pad=*/0);
    proj_bn_ = std::make_shared<BatchNorm2d>(out_channels);
  }
}

Tensor BasicBlock::forward(const Tensor& input, bool train) {
  Tensor main = conv1_->forward(input, train);
  main = bn1_->forward(main, train);
  main = gate_->forward(main, train);
  main = relu1_->forward(main, train);
  main = conv2_->forward(main, train);
  main = bn2_->forward(main, train);
  if (proj_conv_) {
    main += proj_bn_->forward(proj_conv_->forward(input, train), train);
  } else {
    main += input;
  }
  return relu2_.forward(main, train);
}

Tensor BasicBlock::backward(const Tensor& grad_output) {
  const Tensor g = relu2_.backward(grad_output);
  // g flows into both the main branch and the skip branch.
  Tensor gmain = bn2_->backward(g);
  gmain = conv2_->backward(gmain);
  gmain = relu1_->backward(gmain);
  gmain = gate_->backward(gmain);
  gmain = bn1_->backward(gmain);
  Tensor dx = conv1_->backward(gmain);

  if (proj_conv_) {
    dx += proj_conv_->backward(proj_bn_->backward(g));
  } else {
    dx += g;
  }
  return dx;
}

void BasicBlock::collect_params(const std::string& prefix,
                                std::vector<ParamView>& out) {
  conv1_->collect_params(prefix + "conv1.", out);
  bn1_->collect_params(prefix + "bn1.", out);
  conv2_->collect_params(prefix + "conv2.", out);
  bn2_->collect_params(prefix + "bn2.", out);
  if (proj_conv_) {
    proj_conv_->collect_params(prefix + "proj.", out);
    proj_bn_->collect_params(prefix + "proj_bn.", out);
  }
}

void BasicBlock::init_params(common::Rng& rng) {
  conv1_->init_params(rng);
  bn1_->init_params(rng);
  conv2_->init_params(rng);
  bn2_->init_params(rng);
  if (proj_conv_) {
    proj_conv_->init_params(rng);
    proj_bn_->init_params(rng);
  }
}

}  // namespace spatl::nn
