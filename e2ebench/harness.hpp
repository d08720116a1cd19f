// Set-up and measured federated runs for one workload.
//
// A Federation is everything a workload needs before round 1: the
// synthesized source data, its non-IID partition, and (for SPATL) the
// pretrained selection agent. make_algorithm() adds the model build. Both
// go through the bench_util builders the paper benches use, so this
// benchmark measures the same federation they report on.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/transfer.hpp"
#include "fl/algorithm.hpp"
#include "fl/environment.hpp"
#include "fl/runner.hpp"
#include "workloads.hpp"

namespace spatl::e2e {

/// CPUs this process may run on (the affinity mask, as `nproc` reports).
std::size_t usable_cpus();
/// "model name" from /proc/cpuinfo, or "unknown".
std::string cpu_model();
/// One-minute load average, or -1 when unavailable.
double load_average();
/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();
/// User + system CPU seconds consumed by this process so far.
double process_cpu_seconds();
/// Monotonic wall clock in seconds.
double now_seconds();

/// The bench's pretrained selection agent for SPATL workloads (the recipe
/// of bench::shared_pretrained_agent; null for the baselines). It is a
/// shipped artifact rather than an input, so its seed is fixed; rebuilding
/// it is part of every set-up. Smoke mode runs a single PPO round.
std::shared_ptr<const core::PretrainResult> pretrain_agent(
    const Workload& workload, bool smoke);

class Federation {
 public:
  /// Data synthesis and partitioning keyed on `seed`; `agent` is the
  /// pretrained selector SPATL clients clone (null for the baselines).
  Federation(const Workload& workload, std::uint64_t seed,
             std::shared_ptr<const core::PretrainResult> agent);

  /// Model build: a fresh algorithm at round 0 over this federation.
  std::unique_ptr<fl::FederatedAlgorithm> make_algorithm() const;

  const Workload& workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }
  const fl::FlEnvironment& environment() const { return *env_; }
  const fl::FlConfig& config() const { return config_; }

 private:
  const Workload& workload_;
  std::uint64_t seed_;
  std::unique_ptr<fl::FlEnvironment> env_;
  fl::FlConfig config_;
  std::shared_ptr<const core::PretrainResult> agent_;
};

/// One federated run of `rounds` rounds from a fresh algorithm.
struct RunOutcome {
  std::size_t rounds_attempted = 0;
  std::size_t rounds_failed = 0;
  /// Wall latency of each completed round (ms), in round order.
  std::vector<double> round_ms;
  /// Wall time from the start of the run until the average accuracy first
  /// reached the workload's target.
  std::optional<double> time_to_target_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double comm_bytes = 0.0;
  fl::RunResult result;
  std::vector<float> final_weights;
  /// The trained algorithm, kept for the per-layer probes.
  std::unique_ptr<fl::FederatedAlgorithm> algorithm;
  /// Why rounds failed (threw, non-finite loss, skipped, missing).
  std::vector<std::string> round_errors;
  /// Run-level correctness-gate failures, one line each; each counts as one
  /// failed operation on top of rounds_failed.
  std::vector<std::string> violations;
};

/// Run the workload once. `scratch` holds the durable store (a fresh
/// subdirectory, removed afterwards).
RunOutcome run_workload(const Federation& federation, std::size_t rounds,
                        const std::filesystem::path& scratch);

}  // namespace spatl::e2e
