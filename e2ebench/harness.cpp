#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench_util.hpp"
#include "nn/module.hpp"

namespace spatl::e2e {

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::size_t(CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

double load_average() {
  double load[1] = {-1.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Dense FedAvg traffic per round: every participant downloads and uploads
/// every parameter as float32.
double dense_fedavg_bytes_per_round(fl::FederatedAlgorithm& algorithm,
                                    std::size_t participants) {
  const double params =
      double(nn::param_count(algorithm.global_model().all_params()));
  return 2.0 * 4.0 * params * double(participants);
}

bench::BenchScale scale_of(const Workload& w) {
  bench::BenchScale s;
  s.samples_per_client = w.samples_per_client;
  s.local_epochs = w.local_epochs;
  s.input_size = w.input_size;
  s.width_mult = w.width;
  return s;
}

}  // namespace

std::shared_ptr<const core::PretrainResult> pretrain_agent(
    const Workload& workload, bool smoke) {
  if (workload.algorithm != "spatl") return nullptr;
  core::PretrainConfig pc;
  pc.arch = "resnet56";
  pc.input_size = 10;
  pc.width_mult = 0.25;
  pc.warmup_epochs = 1;
  pc.rl_rounds = smoke ? 1 : 6;
  pc.episodes_per_round = smoke ? 1 : 3;
  pc.train_samples = 300;
  pc.val_samples = 120;
  return std::make_shared<const core::PretrainResult>(
      core::pretrain_selection_agent(pc));
}

Federation::Federation(const Workload& workload, std::uint64_t seed,
                       std::shared_ptr<const core::PretrainResult> agent)
    : workload_(workload), seed_(seed), agent_(std::move(agent)) {
  const bench::BenchScale s = scale_of(workload);
  const data::Dataset source =
      bench::make_source(workload.domain, workload.clients, s, seed);
  common::Rng env_rng(seed ^ 0xE47ULL);
  env_ = std::make_unique<fl::FlEnvironment>(source, workload.clients,
                                             bench::RunSpec{}.beta,
                                             /*val_fraction=*/0.25, env_rng);
  config_ = bench::make_fl_config(workload.arch, workload.domain, s, seed);
}

std::unique_ptr<fl::FederatedAlgorithm> Federation::make_algorithm() const {
  if (workload_.algorithm == "spatl") {
    return std::make_unique<core::SpatlAlgorithm>(
        *env_, config_, bench::default_spatl_options(), &agent_->agent);
  }
  return fl::make_baseline(workload_.algorithm, *env_, config_);
}

RunOutcome run_workload(const Federation& federation, std::size_t rounds,
                        const std::filesystem::path& scratch) {
  const Workload& w = federation.workload();
  RunOutcome out;
  out.rounds_attempted = rounds;
  out.algorithm = federation.make_algorithm();

  fl::RunOptions ro;
  ro.rounds = rounds;
  ro.sample_ratio = 1.0;
  ro.eval_every = 1;
  ro.sampling_seed = federation.seed() ^ 0x5A3BULL;

  std::filesystem::path store_dir;
  if (w.byzantine_fraction > 0.0) {
    fl::FaultConfig fc;
    fc.byzantine_fraction = w.byzantine_fraction;
    fc.attack_kind = fl::AttackKind::kSignFlip;
    fc.round_deadline = 0.0;  // no stragglers: every round has all clients
    fc.seed = federation.seed() ^ 0xB12ULL;
    ro.faults = fc;
    fl::ResilienceConfig rc;
    rc.validate_updates = true;
    rc.aggregator = fl::AggregatorKind::kCoordinateMedian;
    ro.resilience = rc;
  }
  if (w.durable_store) {
    store_dir = scratch / "store";
    std::filesystem::remove_all(store_dir);
    fl::store::StoreConfig sc;
    sc.dir = store_dir.string();
    sc.keep_last = 2;
    ro.ckpt_store = sc;
    ro.checkpoint_every = 1;
    ro.crash_at_rounds = {std::max<std::size_t>(1, rounds / 2)};
  }

  const double start = now_seconds();
  double last = start;
  const double cpu_start = process_cpu_seconds();
  std::size_t seen = 0;
  const auto on_round = [&](std::size_t, const fl::RoundRecord& rec) {
    const double t = now_seconds();
    out.round_ms.push_back((t - last) * 1e3);
    last = t;
    ++seen;
    if (rec.stats.skipped || !std::isfinite(rec.avg_loss)) {
      ++out.rounds_failed;
      out.round_errors.push_back("round " + std::to_string(rec.round) +
                               (rec.stats.skipped ? " was skipped"
                                                  : " ended with a non-finite loss"));
    }
    if (!out.time_to_target_s && rec.avg_accuracy >= w.target_accuracy) {
      out.time_to_target_s = t - start;
    }
  };
  try {
    out.result = fl::run_federated(*out.algorithm, ro, on_round);
  } catch (const std::exception& e) {
    out.round_errors.push_back(std::string("run threw: ") + e.what());
    out.rounds_failed = rounds;
  }
  out.wall_s = now_seconds() - start;
  out.cpu_s = process_cpu_seconds() - cpu_start;
  if (!store_dir.empty()) std::filesystem::remove_all(store_dir);
  if (seen < rounds && out.rounds_failed < rounds) {
    out.round_errors.push_back("expected " + std::to_string(rounds) +
                               " evaluated rounds, saw " + std::to_string(seen));
    out.rounds_failed = std::max(out.rounds_failed, rounds - seen);
  }

  out.comm_bytes = out.result.comm.total();
  out.final_weights =
      nn::flatten_values(out.algorithm->global_model().all_params());

  // Correctness gate, per run.
  const double per_round = out.comm_bytes / double(rounds);
  if (w.algorithm == "fedavg") {
    const double dense = dense_fedavg_bytes_per_round(*out.algorithm, w.clients);
    if (per_round != dense) {
      out.violations.push_back("FedAvg traffic " + std::to_string(per_round) +
                               " B/round != dense count " +
                               std::to_string(dense));
    }
  }
  if (w.durable_store) {
    const fl::RunResult& r = out.result;
    if (r.crashes_injected != 1 || r.recoveries_from_store != 1 ||
        r.recovery_attempts_failed != 0 || r.store_commit_failures != 0) {
      out.violations.push_back(
          "crash drill: " + std::to_string(r.crashes_injected) + " crashes, " +
          std::to_string(r.recoveries_from_store) + " store recoveries, " +
          std::to_string(r.recovery_attempts_failed) + " rejected attempts, " +
          std::to_string(r.store_commit_failures) + " failed commits");
    }
  }
  for (const float v : out.final_weights) {
    if (!std::isfinite(v)) {
      out.violations.push_back("final global weights are not finite");
      break;
    }
  }
  return out;
}

}  // namespace spatl::e2e
