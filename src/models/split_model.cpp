#include "models/split_model.hpp"

#include <map>
#include <stdexcept>

#include "nn/conv.hpp"
#include "nn/depthwise.hpp"
#include "nn/pool.hpp"

namespace spatl::models {

std::string layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv: return "Conv";
    case LayerKind::kDepthwiseConv: return "DepthwiseConv";
    case LayerKind::kBatchNorm: return "BatchNorm";
    case LayerKind::kReLU: return "ReLU";
    case LayerKind::kMaxPool: return "MaxPool";
    case LayerKind::kGlobalAvgPool: return "GlobalAvgPool";
    case LayerKind::kLinear: return "Linear";
    case LayerKind::kAdd: return "Add";
  }
  return "?";
}

std::size_t scaled_width(std::size_t base, double mult) {
  const auto w = static_cast<std::size_t>(double(base) * mult + 0.5);
  return w < 4 ? 4 : w;
}

bool is_known_arch(const std::string& arch) {
  return arch == "resnet20" || arch == "resnet32" || arch == "resnet56" ||
         arch == "resnet18" || arch == "vgg11" || arch == "cnn2" ||
         arch == "mobilenet";
}

nn::Tensor SplitModel::forward(const nn::Tensor& input, bool train) {
  return predictor_->forward(encoder_->forward(input, train), train);
}

void SplitModel::backward(const nn::Tensor& grad_logits) {
  encoder_->backward_params(predictor_->backward(grad_logits));
}

nn::Tensor SplitModel::encode(const nn::Tensor& input, bool train) {
  return encoder_->forward(input, train);
}

std::vector<nn::ParamView> SplitModel::all_params() {
  std::vector<nn::ParamView> out;
  encoder_->collect_params("encoder.", out);
  predictor_->collect_params("predictor.", out);
  return out;
}

std::vector<nn::ParamView> SplitModel::encoder_params() {
  std::vector<nn::ParamView> out;
  encoder_->collect_params("encoder.", out);
  return out;
}

std::vector<nn::ParamView> SplitModel::predictor_params() {
  std::vector<nn::ParamView> out;
  predictor_->collect_params("predictor.", out);
  return out;
}

void SplitModel::zero_grad() {
  encoder_->zero_grad();
  predictor_->zero_grad();
}

void SplitModel::init_params(common::Rng& rng) {
  encoder_->init_params(rng);
  predictor_->init_params(rng);
}

void SplitModel::reset_gates() {
  for (auto* g : gates_) g->reset();
}

std::vector<double> SplitModel::gate_keep_fractions() const {
  std::vector<double> out;
  out.reserve(gates_.size());
  for (const auto* g : gates_) out.push_back(g->keep_fraction());
  return out;
}

std::size_t SplitModel::encoder_param_count() {
  return nn::param_count(encoder_params());
}

std::size_t SplitModel::predictor_param_count() {
  return nn::param_count(predictor_params());
}

void copy_full_state(SplitModel& src, SplitModel& dst) {
  nn::unflatten_values(nn::flatten_values(src.all_params()),
                       dst.all_params());
  const auto& sbns = src.batch_norms();
  const auto& dbns = dst.batch_norms();
  if (sbns.size() != dbns.size()) {
    throw std::invalid_argument("copy_full_state: model mismatch");
  }
  for (std::size_t i = 0; i < sbns.size(); ++i) {
    dbns[i]->running_mean() = sbns[i]->running_mean();
    dbns[i]->running_var() = sbns[i]->running_var();
  }
}

// ------------------------------------------------------------ builders ----

namespace {

/// Incrementally records LayerInfo while a builder assembles the encoder.
struct EncoderRecorder {
  std::vector<LayerInfo>& layers;
  std::size_t h, w;  // current spatial size
  std::size_t ch;    // current channel count

  int conv(std::size_t out_ch, std::size_t kernel, std::size_t stride,
           std::size_t pad, int in_gate, int out_gate) {
    LayerInfo li;
    li.kind = LayerKind::kConv;
    li.in_ch = ch;
    li.out_ch = out_ch;
    li.kernel = kernel;
    li.stride = stride;
    li.in_h = h;
    li.in_w = w;
    li.out_h = (h + 2 * pad - kernel) / stride + 1;
    li.out_w = (w + 2 * pad - kernel) / stride + 1;
    li.in_gate = in_gate;
    li.out_gate = out_gate;
    layers.push_back(li);
    h = li.out_h;
    w = li.out_w;
    ch = out_ch;
    return int(layers.size()) - 1;
  }

  int depthwise(std::size_t kernel, std::size_t stride, std::size_t pad,
                int in_gate) {
    LayerInfo li;
    li.kind = LayerKind::kDepthwiseConv;
    li.in_ch = li.out_ch = ch;
    li.kernel = kernel;
    li.stride = stride;
    li.in_h = h;
    li.in_w = w;
    li.out_h = (h + 2 * pad - kernel) / stride + 1;
    li.out_w = (w + 2 * pad - kernel) / stride + 1;
    li.in_gate = in_gate;
    layers.push_back(li);
    h = li.out_h;
    w = li.out_w;
    return int(layers.size()) - 1;
  }

  int simple(LayerKind kind) {
    LayerInfo li;
    li.kind = kind;
    li.in_ch = li.out_ch = ch;
    li.in_h = li.out_h = h;
    li.in_w = li.out_w = w;
    layers.push_back(li);
    return int(layers.size()) - 1;
  }

  int maxpool(std::size_t kernel) {
    LayerInfo li;
    li.kind = LayerKind::kMaxPool;
    li.in_ch = li.out_ch = ch;
    li.kernel = kernel;
    li.stride = kernel;
    li.in_h = h;
    li.in_w = w;
    li.out_h = (h - kernel) / kernel + 1;
    li.out_w = (w - kernel) / kernel + 1;
    layers.push_back(li);
    h = li.out_h;
    w = li.out_w;
    return int(layers.size()) - 1;
  }

  int add(int skip_from) {
    LayerInfo li;
    li.kind = LayerKind::kAdd;
    li.in_ch = li.out_ch = ch;
    li.in_h = li.out_h = h;
    li.in_w = li.out_w = w;
    li.skip_from = skip_from;
    layers.push_back(li);
    return int(layers.size()) - 1;
  }
};

struct BuilderContext {
  nn::Sequential& enc;
  nn::Sequential& pred;
  std::vector<nn::ChannelGate*>& gates;
  std::vector<nn::Conv2d*>& gate_convs;
  std::vector<models::SplitModel::ConvBinding>& conv_bindings;
  std::vector<nn::BatchNorm2d*>& bns;
  EncoderRecorder rec;
};

void build_resnet(BuilderContext& ctx, const ModelConfig& cfg,
                  const std::vector<std::size_t>& blocks_per_stage,
                  const std::vector<std::size_t>& stage_widths) {
  const std::size_t w0 = scaled_width(stage_widths[0], cfg.width_mult);
  auto* stem_conv = ctx.enc.emplace<nn::Conv2d>(cfg.in_channels, w0, 3, 1, 1);
  auto* stem_bn = ctx.enc.emplace<nn::BatchNorm2d>(w0);
  auto* stem_gate = ctx.enc.emplace<nn::ChannelGate>(w0);
  ctx.enc.emplace<nn::ReLU>();
  ctx.gates.push_back(stem_gate);
  ctx.gate_convs.push_back(stem_conv);
  ctx.bns.push_back(stem_bn);
  const int stem_gate_idx = 0;
  ctx.conv_bindings.push_back({stem_conv, -1, stem_gate_idx});
  ctx.rec.conv(w0, 3, 1, 1, /*in_gate=*/-1, /*out_gate=*/stem_gate_idx);
  ctx.rec.simple(LayerKind::kBatchNorm);
  ctx.rec.simple(LayerKind::kReLU);

  int prev_out_gate = stem_gate_idx;  // gate masking the current trunk output
  for (std::size_t s = 0; s < blocks_per_stage.size(); ++s) {
    const std::size_t width = scaled_width(stage_widths[s], cfg.width_mult);
    for (std::size_t b = 0; b < blocks_per_stage[s]; ++b) {
      const std::size_t stride = (s > 0 && b == 0) ? 2 : 1;
      auto* block = ctx.enc.emplace<nn::BasicBlock>(ctx.rec.ch, width, stride);
      const int gate_idx = int(ctx.gates.size());
      ctx.gates.push_back(&block->gate());
      ctx.gate_convs.push_back(&block->conv1());
      ctx.bns.push_back(&block->bn1());
      ctx.bns.push_back(&block->bn2());
      if (block->has_projection()) ctx.bns.push_back(block->proj_bn());
      // Structural record: conv1 -> bn -> relu -> conv2 -> bn -> add.
      const int block_input_layer = int(ctx.rec.layers.size()) - 1;
      ctx.rec.conv(width, 3, stride, 1, prev_out_gate, gate_idx);
      ctx.rec.simple(LayerKind::kBatchNorm);
      ctx.rec.simple(LayerKind::kReLU);
      ctx.rec.conv(width, 3, 1, 1, gate_idx, -1);
      ctx.rec.simple(LayerKind::kBatchNorm);
      ctx.rec.add(block_input_layer);
      ctx.conv_bindings.push_back({&block->conv1(), prev_out_gate, gate_idx});
      ctx.conv_bindings.push_back({&block->conv2(), gate_idx, -1});
      prev_out_gate = -1;  // block output is ungated
    }
  }
  ctx.enc.emplace<nn::GlobalAvgPool>();
  ctx.rec.simple(LayerKind::kGlobalAvgPool);

  const std::size_t emb = ctx.rec.ch;
  ctx.pred.emplace<nn::Linear>(emb, cfg.predictor_hidden);
  ctx.pred.emplace<nn::ReLU>();
  ctx.pred.emplace<nn::Linear>(cfg.predictor_hidden, cfg.num_classes);
}

void build_vgg11(BuilderContext& ctx, const ModelConfig& cfg) {
  // 'M' entries are max-pools; 0 widths denote them. Pools are applied only
  // while the spatial size admits them (small bench inputs skip the last).
  const std::vector<std::size_t> plan = {64, 0,   128, 0,   256, 256,
                                         0,  512, 512, 0,   512, 512, 0};
  int prev_gate = -1;
  for (std::size_t entry : plan) {
    if (entry == 0) {
      if (ctx.rec.h >= 2 && ctx.rec.w >= 2) {
        ctx.enc.emplace<nn::MaxPool2d>(2);
        ctx.rec.maxpool(2);
      }
      continue;
    }
    const std::size_t width = scaled_width(entry, cfg.width_mult);
    auto* conv = ctx.enc.emplace<nn::Conv2d>(ctx.rec.ch, width, 3, 1, 1);
    auto* bn = ctx.enc.emplace<nn::BatchNorm2d>(width);
    auto* gate = ctx.enc.emplace<nn::ChannelGate>(width);
    ctx.enc.emplace<nn::ReLU>();
    const int gate_idx = int(ctx.gates.size());
    ctx.gates.push_back(gate);
    ctx.gate_convs.push_back(conv);
    ctx.conv_bindings.push_back({conv, prev_gate, gate_idx});
    ctx.bns.push_back(bn);
    ctx.rec.conv(width, 3, 1, 1, prev_gate, gate_idx);
    ctx.rec.simple(LayerKind::kBatchNorm);
    ctx.rec.simple(LayerKind::kReLU);
    prev_gate = gate_idx;
  }
  ctx.enc.emplace<nn::Flatten>();
  const std::size_t features = ctx.rec.ch * ctx.rec.h * ctx.rec.w;

  ctx.pred.emplace<nn::Linear>(features, cfg.predictor_hidden * 2);
  ctx.pred.emplace<nn::ReLU>();
  ctx.pred.emplace<nn::Dropout>(0.5f);
  ctx.pred.emplace<nn::Linear>(cfg.predictor_hidden * 2, cfg.num_classes);
}

void build_cnn2(BuilderContext& ctx, const ModelConfig& cfg) {
  const std::size_t w1 = scaled_width(32, cfg.width_mult);
  const std::size_t w2 = scaled_width(64, cfg.width_mult);

  auto* conv1 = ctx.enc.emplace<nn::Conv2d>(cfg.in_channels, w1, 5, 1, 2,
                                            /*bias=*/true);
  auto* g1 = ctx.enc.emplace<nn::ChannelGate>(w1);
  ctx.enc.emplace<nn::ReLU>();
  ctx.enc.emplace<nn::MaxPool2d>(2);
  ctx.gates.push_back(g1);
  ctx.gate_convs.push_back(conv1);
  ctx.conv_bindings.push_back({conv1, -1, 0});
  ctx.rec.conv(w1, 5, 1, 2, -1, 0);
  ctx.rec.simple(LayerKind::kReLU);
  ctx.rec.maxpool(2);

  auto* conv2 = ctx.enc.emplace<nn::Conv2d>(w1, w2, 5, 1, 2, /*bias=*/true);
  auto* g2 = ctx.enc.emplace<nn::ChannelGate>(w2);
  ctx.enc.emplace<nn::ReLU>();
  ctx.enc.emplace<nn::MaxPool2d>(2);
  ctx.gates.push_back(g2);
  ctx.gate_convs.push_back(conv2);
  ctx.conv_bindings.push_back({conv2, 0, 1});
  ctx.rec.conv(w2, 5, 1, 2, 0, 1);
  ctx.rec.simple(LayerKind::kReLU);
  ctx.rec.maxpool(2);

  ctx.enc.emplace<nn::Flatten>();
  const std::size_t features = ctx.rec.ch * ctx.rec.h * ctx.rec.w;

  ctx.pred.emplace<nn::Linear>(features, cfg.predictor_hidden * 2, true);
  ctx.pred.emplace<nn::ReLU>();
  ctx.pred.emplace<nn::Linear>(cfg.predictor_hidden * 2, cfg.num_classes,
                               true);
}

void build_mobilenet(BuilderContext& ctx, const ModelConfig& cfg) {
  // CIFAR-style MobileNet-v1: stem conv, then depthwise-separable blocks
  // (depthwise 3x3 -> BN -> ReLU -> pointwise 1x1 -> BN -> gate -> ReLU).
  // The prunable point of each block is the pointwise conv's output.
  const std::size_t stem = scaled_width(32, cfg.width_mult);
  auto* stem_conv = ctx.enc.emplace<nn::Conv2d>(cfg.in_channels, stem, 3, 1, 1);
  auto* stem_bn = ctx.enc.emplace<nn::BatchNorm2d>(stem);
  auto* stem_gate = ctx.enc.emplace<nn::ChannelGate>(stem);
  ctx.enc.emplace<nn::ReLU>();
  ctx.gates.push_back(stem_gate);
  ctx.gate_convs.push_back(stem_conv);
  ctx.conv_bindings.push_back({stem_conv, -1, 0});
  ctx.bns.push_back(stem_bn);
  ctx.rec.conv(stem, 3, 1, 1, -1, 0);
  ctx.rec.simple(LayerKind::kBatchNorm);
  ctx.rec.simple(LayerKind::kReLU);

  struct Block { std::size_t width; std::size_t stride; };
  const std::vector<Block> plan = {{64, 1},  {128, 2}, {128, 1},
                                   {256, 2}, {256, 1}, {512, 2}};
  int prev_gate = 0;
  for (const auto& b : plan) {
    // Depthwise stage on the (gated) current channels.
    auto* dw = ctx.enc.emplace<nn::DepthwiseConv2d>(ctx.rec.ch, 3, b.stride, 1);
    auto* dw_bn = ctx.enc.emplace<nn::BatchNorm2d>(ctx.rec.ch);
    ctx.enc.emplace<nn::ReLU>();
    ctx.bns.push_back(dw_bn);
    (void)dw;
    ctx.rec.depthwise(3, b.stride, 1, prev_gate);
    ctx.rec.simple(LayerKind::kBatchNorm);
    ctx.rec.simple(LayerKind::kReLU);
    // Pointwise expansion, gated.
    const std::size_t width = scaled_width(b.width, cfg.width_mult);
    auto* pw = ctx.enc.emplace<nn::Conv2d>(ctx.rec.ch, width, 1, 1, 0);
    auto* pw_bn = ctx.enc.emplace<nn::BatchNorm2d>(width);
    auto* gate = ctx.enc.emplace<nn::ChannelGate>(width);
    ctx.enc.emplace<nn::ReLU>();
    const int gate_idx = int(ctx.gates.size());
    ctx.gates.push_back(gate);
    ctx.gate_convs.push_back(pw);
    ctx.conv_bindings.push_back({pw, prev_gate, gate_idx});
    ctx.bns.push_back(pw_bn);
    ctx.rec.conv(width, 1, 1, 0, prev_gate, gate_idx);
    ctx.rec.simple(LayerKind::kBatchNorm);
    ctx.rec.simple(LayerKind::kReLU);
    prev_gate = gate_idx;
  }
  ctx.enc.emplace<nn::GlobalAvgPool>();
  ctx.rec.simple(LayerKind::kGlobalAvgPool);

  ctx.pred.emplace<nn::Linear>(ctx.rec.ch, cfg.predictor_hidden);
  ctx.pred.emplace<nn::ReLU>();
  ctx.pred.emplace<nn::Linear>(cfg.predictor_hidden, cfg.num_classes);
}

}  // namespace

SplitModel build_model(const ModelConfig& config, common::Rng& rng) {
  if (!is_known_arch(config.arch)) {
    throw std::invalid_argument("build_model: unknown arch '" + config.arch +
                                "'");
  }
  SplitModel m;
  m.config_ = config;
  m.encoder_ = std::make_shared<nn::Sequential>();
  m.predictor_ = std::make_shared<nn::Sequential>();

  BuilderContext ctx{
      *m.encoder_,
      *m.predictor_,
      m.gates_,
      m.gate_convs_,
      m.conv_bindings_,
      m.bns_,
      EncoderRecorder{m.layers_, config.input_size, config.input_size,
                      config.in_channels}};

  if (config.arch == "resnet20") {
    build_resnet(ctx, config, {3, 3, 3}, {16, 32, 64});
  } else if (config.arch == "resnet32") {
    build_resnet(ctx, config, {5, 5, 5}, {16, 32, 64});
  } else if (config.arch == "resnet56") {
    build_resnet(ctx, config, {9, 9, 9}, {16, 32, 64});
  } else if (config.arch == "resnet18") {
    build_resnet(ctx, config, {2, 2, 2, 2}, {16, 32, 64, 128});
  } else if (config.arch == "vgg11") {
    build_vgg11(ctx, config);
  } else if (config.arch == "mobilenet") {
    build_mobilenet(ctx, config);
  } else {
    build_cnn2(ctx, config);
  }
  m.init_params(rng);
  return m;
}

std::size_t full_scale_encoder_params(const std::string& arch) {
  static std::map<std::string, std::size_t> cache;
  auto it = cache.find(arch);
  if (it != cache.end()) return it->second;
  ModelConfig cfg;
  cfg.arch = arch;
  cfg = cfg.full_scale();
  common::Rng rng(1);
  SplitModel m = build_model(cfg, rng);
  const std::size_t n = m.encoder_param_count();
  cache[arch] = n;
  return n;
}

}  // namespace spatl::models
