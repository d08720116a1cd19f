// Per-layer probes for the traced run.
//
// Each probe times calls into one layer's public functions from the
// benchmark's own code, on the workload's own shapes and data, so the
// library needs no extra instrumentation. All probes run under the pool
// and backend the workload pinned.
#pragma once

#include <array>
#include <cstddef>
#include <filesystem>
#include <string>

#include "fl/algorithm.hpp"
#include "harness.hpp"

namespace spatl::e2e {

/// Module kinds the nn probe attributes time to.
inline constexpr std::array<const char*, 7> kLayerKinds = {
    "conv", "bn", "relu", "pool", "linear", "block", "other"};

/// nn: each top-level child of the encoder and predictor, forward in order
/// and backward in reverse, on one training batch of client 0, then one SGD
/// step, on a copy of the model the run trained (see trained_model in
/// probes.cpp). Times are medians over iterations, in ms per batch.
struct LayerProbe {
  std::array<double, kLayerKinds.size()> fwd_ms{};
  std::array<double, kLayerKinds.size()> bwd_ms{};
  double sgd_step_ms = 0.0;
  /// Forward + backward FLOPs of the top-level convolutions (analytic,
  /// prune::dense_layer_flops) over their measured time.
  double conv_gflops = 0.0;
  /// Forward + backward over all kinds, ms per batch.
  double fwd_bwd_ms() const;
};
LayerProbe probe_layers(const Federation& federation,
                        fl::FederatedAlgorithm& trained, std::size_t iters);

/// tensor: the three GEMMs of every convolution's training step (forward
/// im2col product, weight gradient, input gradient) and of every predictor
/// Linear, on the workload's im2col shapes at its batch size. Activation-side
/// operands are half zeros, as after a ReLU.
struct GemmProbe {
  double gflops = 0.0;
  /// GEMM time of one training batch (all layers, fwd + bwd), ms.
  double batch_ms = 0.0;
};
GemmProbe probe_gemm(const Federation& federation, std::size_t iters);

/// data: one client's local training and evaluation on client 0's shard,
/// starting from a copy of the trained model.
struct DataProbe {
  double train_ms = 0.0;
  double eval_ms = 0.0;
};
DataProbe probe_data(const Federation& federation,
                     fl::FederatedAlgorithm& trained, std::size_t iters);

/// fl::store: commits of the workload's checkpoint into a fresh store and a
/// recovery-ladder walk that restores it into `algorithm`.
struct StoreProbe {
  double commit_ms = 0.0;
  double commit_mb = 0.0;
  double recover_ms = 0.0;
  std::size_t rejected_attempts = 0;
  bool recovered = false;
};
StoreProbe probe_store(fl::FederatedAlgorithm& algorithm,
                       const std::filesystem::path& dir, std::size_t commits);

/// prune: analytic dense training FLOPs of one round (every participant,
/// every local epoch; backward counted as twice the forward), in GFLOP.
double train_gflop_per_round(const Federation& federation);

/// Optimizer steps one round takes across all participants.
std::size_t train_steps_per_round(const Federation& federation);
/// Samples one round trains on across all participants and local epochs.
std::size_t train_samples_per_round(const Federation& federation);

/// Median of a non-empty sample (copied).
double median(std::vector<double> values);

}  // namespace spatl::e2e
