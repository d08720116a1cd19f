#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/spatl.hpp"
#include "data/loader.hpp"
#include "data/train.hpp"
#include "fl/store/store.hpp"
#include "models/split_model.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "prune/flops.hpp"
#include "tensor/ops.hpp"

namespace spatl::e2e {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::size_t kind_index(const std::string& type_name) {
  static const std::map<std::string, std::string> kKindOf = {
      {"Conv2d", "conv"},        {"DepthwiseConv2d", "conv"},
      {"BatchNorm2d", "bn"},     {"ReLU", "relu"},
      {"MaxPool2d", "pool"},     {"GlobalAvgPool", "pool"},
      {"Linear", "linear"},      {"BasicBlock", "block"}};
  const auto it = kKindOf.find(type_name);
  const std::string kind = it == kKindOf.end() ? "other" : it->second;
  std::size_t k = 0;
  while (k + 1 < kLayerKinds.size() && kind != kLayerKinds[k]) ++k;
  return k;  // "other" is last
}

models::SplitModel fresh_model(const Federation& federation) {
  common::Rng rng(federation.seed() ^ 0x9E0BEULL);
  return models::build_model(federation.config().model, rng);
}

/// A private copy of the model a client trains in the workload's next
/// round: SPATL client 0's own model, the global model otherwise. Probing a
/// trained model keeps the activation sparsity the GEMMs' zero elision sees.
models::SplitModel trained_model(const Federation& federation,
                                 fl::FederatedAlgorithm& algorithm) {
  models::SplitModel copy = fresh_model(federation);
  auto* spatl = dynamic_cast<core::SpatlAlgorithm*>(&algorithm);
  models::copy_full_state(
      spatl != nullptr ? spatl->client_model(0) : algorithm.global_model(),
      copy);
  return copy;
}

/// Half of the entries zero (ReLU'd normals), the sparsity the GEMMs'
/// zero-elision sees on activations and their gradients.
tensor::Tensor relu_normal(tensor::Shape shape, common::Rng& rng) {
  tensor::Tensor t(std::move(shape));
  for (auto& v : t.storage()) v = std::max(0.0f, rng.normal_float(0.0f, 1.0f));
  return t;
}

tensor::Tensor normal(tensor::Shape shape, common::Rng& rng) {
  tensor::Tensor t(std::move(shape));
  for (auto& v : t.storage()) v = rng.normal_float(0.0f, 0.1f);
  return t;
}

double predictor_flops_per_sample(models::SplitModel& model) {
  double flops = 0.0;
  for (const auto& child : model.predictor().children()) {
    if (const auto* lin = dynamic_cast<const nn::Linear*>(child.get())) {
      models::LayerInfo l;
      l.kind = models::LayerKind::kLinear;
      l.in_ch = lin->in_features();
      l.out_ch = lin->out_features();
      flops += prune::dense_layer_flops(l);
    }
  }
  return flops;
}

}  // namespace

double LayerProbe::fwd_bwd_ms() const {
  double total = 0.0;
  for (std::size_t k = 0; k < kLayerKinds.size(); ++k) {
    total += fwd_ms[k] + bwd_ms[k];
  }
  return total;
}

LayerProbe probe_layers(const Federation& federation,
                        fl::FederatedAlgorithm& trained, std::size_t iters) {
  models::SplitModel model = trained_model(federation, trained);
  const data::Dataset& shard = federation.environment().client(0).train;
  const std::size_t batch =
      std::min(federation.config().local.batch_size, shard.size());
  const data::Dataset probe_batch = shard.slice(0, batch);
  const auto& local = federation.config().local;
  nn::Sgd sgd(model.all_params(), {.lr = local.lr,
                                   .momentum = local.momentum,
                                   .weight_decay = local.weight_decay});

  std::vector<nn::Module*> chain;
  for (const auto& m : model.encoder().children()) chain.push_back(m.get());
  for (const auto& m : model.predictor().children()) chain.push_back(m.get());

  constexpr std::size_t K = kLayerKinds.size();
  std::array<std::vector<double>, K> fwd, bwd;
  std::vector<double> step;
  double conv_flops = 0.0;  // fwd + bwd, top-level convs, one batch
  std::vector<double> conv_ms;
  // Iteration 0 warms caches and buffers and is not counted.
  for (std::size_t it = 0; it <= iters; ++it) {
    std::array<double, K> f{}, b{};
    double conv_t = 0.0;
    model.zero_grad();
    tensor::Tensor x = probe_batch.images();
    for (nn::Module* m : chain) {
      const std::size_t k = kind_index(m->type_name());
      const double t0 = now_seconds();
      tensor::Tensor y = m->forward(x, /*train=*/true);
      const double dt = now_seconds() - t0;
      f[k] += dt;
      if (const auto* conv = dynamic_cast<const nn::Conv2d*>(m)) {
        conv_t += dt;
        if (it == 0) {
          models::LayerInfo l;
          l.kind = models::LayerKind::kConv;
          l.in_ch = conv->in_channels();
          l.out_ch = conv->out_channels();
          l.kernel = conv->kernel();
          l.stride = conv->stride();
          l.out_h = y.dim(2);
          l.out_w = y.dim(3);
          conv_flops += 3.0 * double(batch) * prune::dense_layer_flops(l);
        }
      }
      x = std::move(y);
    }
    tensor::Tensor grad;
    tensor::cross_entropy(x, probe_batch.labels(), &grad);
    for (auto m = chain.rbegin(); m != chain.rend(); ++m) {
      const std::size_t k = kind_index((*m)->type_name());
      const double t0 = now_seconds();
      grad = (*m)->backward(grad);
      const double dt = now_seconds() - t0;
      b[k] += dt;
      if (dynamic_cast<const nn::Conv2d*>(*m) != nullptr) conv_t += dt;
    }
    const double t0 = now_seconds();
    sgd.step();
    const double step_t = now_seconds() - t0;
    if (it == 0) continue;
    for (std::size_t k = 0; k < K; ++k) {
      fwd[k].push_back(f[k] * 1e3);
      bwd[k].push_back(b[k] * 1e3);
    }
    step.push_back(step_t * 1e3);
    conv_ms.push_back(conv_t * 1e3);
  }

  LayerProbe out;
  for (std::size_t k = 0; k < K; ++k) {
    out.fwd_ms[k] = median(fwd[k]);
    out.bwd_ms[k] = median(bwd[k]);
  }
  out.sgd_step_ms = median(step);
  const double conv_time = median(conv_ms);
  out.conv_gflops = conv_time > 0.0 ? conv_flops / (conv_time * 1e-3) / 1e9 : 0.0;
  return out;
}

GemmProbe probe_gemm(const Federation& federation, std::size_t iters) {
  models::SplitModel model = fresh_model(federation);
  const std::size_t batch = federation.config().local.batch_size;
  common::Rng rng(federation.seed() ^ 0x6E33ULL);

  // (rows, k, out) of each layer's forward product; the two backward
  // products of a training step have the same FLOP count.
  struct Shape3 {
    std::size_t rows, k, out;
  };
  std::vector<Shape3> shapes;
  for (const auto& l : model.layers()) {
    if (l.kind != models::LayerKind::kConv) continue;
    shapes.push_back(
        {batch * l.out_h * l.out_w, l.in_ch * l.kernel * l.kernel, l.out_ch});
  }
  for (const auto& child : model.predictor().children()) {
    if (const auto* lin = dynamic_cast<const nn::Linear*>(child.get())) {
      shapes.push_back({batch, lin->in_features(), lin->out_features()});
    }
  }

  double flops = 0.0;
  double seconds = 0.0;
  for (const Shape3& s : shapes) {
    const tensor::Tensor cols = relu_normal({s.rows, s.k}, rng);
    const tensor::Tensor grows = relu_normal({s.rows, s.out}, rng);
    const tensor::Tensor w = normal({s.out, s.k}, rng);
    tensor::Tensor y, dw, dcols;
    std::vector<double> times;
    for (std::size_t it = 0; it <= iters; ++it) {
      const double t0 = now_seconds();
      tensor::matmul_nt(cols, w, y);       // forward: (rows,k) x (out,k)^T
      tensor::matmul_tn(grows, cols, dw);  // weight gradient
      tensor::matmul(grows, w, dcols);     // input gradient
      if (it > 0) times.push_back(now_seconds() - t0);
    }
    seconds += median(times);
    flops += 3.0 * 2.0 * double(s.rows) * double(s.k) * double(s.out);
  }
  GemmProbe out;
  out.batch_ms = seconds * 1e3;
  out.gflops = seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
  return out;
}

DataProbe probe_data(const Federation& federation,
                     fl::FederatedAlgorithm& trained, std::size_t iters) {
  const fl::ClientData& client = federation.environment().client(0);
  std::vector<double> train, eval;
  for (std::size_t it = 0; it < iters; ++it) {
    models::SplitModel model = trained_model(federation, trained);
    common::Rng rng(federation.seed() ^ 0xDA7AULL);
    double t0 = now_seconds();
    data::train_supervised(model, client.train, federation.config().local, rng,
                           model.all_params());
    train.push_back((now_seconds() - t0) * 1e3);
    t0 = now_seconds();
    data::evaluate(model, client.val);
    eval.push_back((now_seconds() - t0) * 1e3);
  }
  return {median(train), median(eval)};
}

StoreProbe probe_store(fl::FederatedAlgorithm& algorithm,
                       const std::filesystem::path& dir, std::size_t commits) {
  std::filesystem::remove_all(dir);
  fl::RunCheckpoint ckpt;
  algorithm.save_state(ckpt);
  fl::store::StoreConfig sc;
  sc.dir = dir.string();
  sc.keep_last = 2;
  fl::store::CheckpointStore store(sc);

  StoreProbe out;
  std::vector<double> commit_ms;
  for (std::size_t round = 1; round <= commits; ++round) {
    const double t0 = now_seconds();
    const bool ok = store.commit(round, ckpt);
    commit_ms.push_back((now_seconds() - t0) * 1e3);
    if (!ok) ++out.rejected_attempts;
  }
  out.commit_ms = median(commit_ms);
  const auto gens = store.generations();
  if (!gens.empty()) {
    out.commit_mb = double(std::filesystem::file_size(gens.front().path)) / 1e6;
  }
  const double t0 = now_seconds();
  const fl::store::RecoveryOutcome rec = store.recover_latest(
      [&](const fl::RunCheckpoint& c, const fl::store::Generation&) {
        algorithm.load_state(c);
      });
  out.recover_ms = (now_seconds() - t0) * 1e3;
  out.rejected_attempts += rec.failed_attempts;
  out.recovered = rec.applied.has_value();
  std::filesystem::remove_all(dir);
  return out;
}

std::size_t train_steps_per_round(const Federation& federation) {
  const auto& local = federation.config().local;
  const fl::FlEnvironment& env = federation.environment();
  std::size_t steps = 0;
  for (std::size_t i = 0; i < env.num_clients(); ++i) {
    const std::size_t n = env.client(i).train.size();
    steps += local.epochs * ((n + local.batch_size - 1) / local.batch_size);
  }
  return steps;
}

std::size_t train_samples_per_round(const Federation& federation) {
  const fl::FlEnvironment& env = federation.environment();
  std::size_t samples = 0;
  for (std::size_t i = 0; i < env.num_clients(); ++i) {
    samples += env.client(i).train.size();
  }
  return samples * federation.config().local.epochs;
}

double train_gflop_per_round(const Federation& federation) {
  models::SplitModel model = fresh_model(federation);
  const double per_sample = prune::dense_encoder_flops(model.layers()) +
                            predictor_flops_per_sample(model);
  return 3.0 * per_sample * double(train_samples_per_round(federation)) / 1e9;
}

}  // namespace spatl::e2e
