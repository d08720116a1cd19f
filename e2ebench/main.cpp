// spatl_e2ebench — the repository's end-to-end benchmark.
//
//   spatl_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scratch DIR] [--source-id ID] [--smoke]
//
// --trace 0 reports the end-to-end metrics (untraced runs): throughput,
// round latency, time to target accuracy, final accuracy, traffic, set-up
// time and peak memory. --trace 1 runs the seed's federation untraced and
// traced, checks they end bit-identical, and reports per-layer metrics from
// the tracer's spans and from probes of each layer's public functions.
// --smoke shrinks every run to one round so a full pass over all workloads
// is cheap enough for a test. The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// The process exits non-zero when any correctness gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/spatl.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "tensor/backend.hpp"
#include "workloads.hpp"

namespace {

using namespace spatl;
using e2e::Workload;

/// The --seconds budget the workloads' round counts are calibrated for.
constexpr double kNominalSeconds = 30.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kNominalSeconds;
  int trace = 0;
  bool smoke = false;
  std::string scratch = ".bench_build/scratch";
  std::string source_id = "unknown";
};

[[noreturn]] void fail_usage(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: spatl_e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--source-id ID] [--smoke]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) fail_usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') fail_usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) {
        fail_usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") fail_usage("--trace must be 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else if (flag == "--source-id") {
      a.source_id = value;
    } else {
      fail_usage("unknown flag " + flag);
    }
  }
  if (!have_workload) fail_usage("--workload is required");
  return a;
}

// --- metric report ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed beside the value only
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note)});
  }
  void violation(const std::string& what) {
    violations_.push_back(what);
    ++gate_failures_;
  }
  void add_run(const e2e::RunOutcome& run) {
    attempted_ += run.rounds_attempted;
    failed_ += run.rounds_failed + run.violations.size();
    for (const auto* list : {&run.round_errors, &run.violations}) {
      violations_.insert(violations_.end(), list->begin(), list->end());
    }
  }
  bool correct() const { return violations_.empty(); }

  void print(const std::string& header) const {
    std::printf("%s\n", header.c_str());
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    for (const std::string& v : violations_) {
      std::printf("  GATE FAILED: %s\n", v.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(1, attempted_));
    json += ", \"failed\": " + std::to_string(failed_ + gate_failures_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[64];
      // %.17g keeps every digit; non-finite values are not valid JSON.
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t gate_failures_ = 0;
};

/// Linear-interpolated percentile (p in [0, 1]) of a non-empty sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * double(v.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

/// Bitwise equality: -0.0 differs from +0.0 and a NaN equals itself.
bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::size_t scaled_rounds(const Workload& w, const Args& args) {
  if (args.smoke) return 1;
  return std::max<std::size_t>(
      1, std::size_t(std::lround(double(w.rounds) * args.seconds /
                                 kNominalSeconds)));
}

// --- end-to-end run (--trace 0) ---------------------------------------------

/// Evaluations averaged into final_accuracy: one round's accuracy swings by
/// several points on these small non-IID federations.
constexpr std::size_t kFinalRounds = 3;

double final_accuracy(const fl::RunResult& result) {
  const auto& h = result.history;
  const std::size_t n = std::min(kFinalRounds, h.size());
  double sum = 0.0;
  for (std::size_t i = h.size() - n; i < h.size(); ++i) sum += h[i].avg_accuracy;
  return n > 0 ? sum / double(n) : 0.0;
}

void run_end_to_end(const Workload& w, const Args& args, Report& report) {
  const std::filesystem::path scratch = args.scratch;

  // Set-up, repeated (at least three times, and for two seconds, up to 25
  // times): data synthesis, partitioning, agent pretraining and the model
  // build. The last federation is the one measured.
  std::vector<double> setup_s;
  std::shared_ptr<const core::PretrainResult> agent;
  std::unique_ptr<e2e::Federation> federation;
  const double setup_start = e2e::now_seconds();
  while (setup_s.empty() ||
         (!args.smoke && setup_s.size() < 25 &&
          (setup_s.size() < 3 || e2e::now_seconds() - setup_start < 2.0))) {
    federation.reset();
    const double t0 = e2e::now_seconds();
    agent = e2e::pretrain_agent(w, args.smoke);
    federation = std::make_unique<e2e::Federation>(w, args.seed, agent);
    federation->make_algorithm();
    setup_s.push_back(e2e::now_seconds() - t0);
  }

  // Quality runs on the reference federation, then the seed's federation.
  // Timings pool every run; quality figures come from the first ones.
  const e2e::Federation reference(w, w.reference_seed, agent);
  const std::size_t quality_rounds = args.smoke ? 1 : w.quality_rounds;
  std::vector<e2e::RunOutcome> runs;
  for (std::size_t i = 0; i < w.quality_runs; ++i) {
    runs.push_back(e2e::run_workload(reference, quality_rounds, scratch));
  }
  runs.push_back(e2e::run_workload(*federation, scaled_rounds(w, args), scratch));
  const std::span<const e2e::RunOutcome> quality(runs.data(), w.quality_runs);

  std::vector<double> round_ms;
  double wall = 0.0;
  for (const e2e::RunOutcome& r : runs) {
    report.add_run(r);
    round_ms.insert(round_ms.end(), r.round_ms.begin(), r.round_ms.end());
    wall += r.wall_s;
  }
  std::vector<double> to_target;
  bool reached = true;
  bool replayed = true;
  for (const e2e::RunOutcome& q : quality) {
    reached = reached && q.time_to_target_s.has_value();
    to_target.push_back(q.time_to_target_s.value_or(q.wall_s));
    replayed = replayed && bit_identical(q.final_weights, quality[0].final_weights);
  }
  // Determinism: every quality run replays the same federation.
  if (!replayed) {
    report.violation("repeated quality runs ended with different weights");
  }
  const fl::RunResult& ref = quality[0].result;
  // One smoke round cannot be expected to learn; the gate needs the full
  // quality run.
  const double chance = 1.0 / double(reference.config().model.num_classes);
  if (w.gate_above_chance && !args.smoke && final_accuracy(ref) <= chance) {
    report.violation("final accuracy " + std::to_string(final_accuracy(ref)) +
                     " is not above chance " + std::to_string(chance));
  }
  if (round_ms.empty()) round_ms.push_back(wall * 1e3);
  std::printf("quality run (reference seed %llu) accuracy by round:",
              static_cast<unsigned long long>(w.reference_seed));
  for (const fl::RoundRecord& rec : ref.history) {
    std::printf(" %.4f", rec.avg_accuracy);
  }
  std::printf("\n");

  const std::string n = "n=" + std::to_string(round_ms.size()) + " rounds";
  report.add("rounds_per_s", double(round_ms.size()) / wall, "1/s", n);
  report.add("round_ms_p50", percentile(round_ms, 0.5), "ms", n);
  report.add("round_ms_p90", percentile(round_ms, 0.9), "ms", n);
  report.add("time_to_target_s", e2e::median(to_target), "s",
             reached ? "reference federation, target " +
                           std::to_string(w.target_accuracy) + ", median of " +
                           std::to_string(w.quality_runs)
                     : "TARGET NOT REACHED in " +
                           std::to_string(quality_rounds) +
                           " rounds (quality-run wall time)");
  report.add("final_accuracy", final_accuracy(ref), "ratio",
             "reference federation, mean of the last " +
                 std::to_string(kFinalRounds) + " evaluations");
  // Traffic of the reference federation: SPATL's salient selection depends
  // on the data, so per-seed bytes would move with the seed, not the code.
  report.add("comm_mb_per_round",
             quality[0].comm_bytes / double(quality_rounds) / 1e6, "MB",
             "reference federation, uplink + downlink");
  report.add("setup_s", e2e::median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()));
  report.add("peak_rss_mb", e2e::peak_rss_mb(), "MB");
}

// --- traced run (--trace 1) -------------------------------------------------

struct PhaseStats {
  std::map<std::string, double> total_ms;
  double round_ms = 0.0;      // sum of fl/round spans
  double explained_ms = 0.0;  // direct children of fl/round
};

PhaseStats phase_stats(const std::vector<obs::SpanEvent>& events) {
  PhaseStats out;
  std::vector<const obs::SpanEvent*> rounds;
  for (const obs::SpanEvent& e : events) {
    out.total_ms[e.name] += double(e.dur_ns) / 1e6;
    if (std::strcmp(e.name, "fl/round") == 0) rounds.push_back(&e);
  }
  for (const obs::SpanEvent* r : rounds) {
    out.round_ms += double(r->dur_ns) / 1e6;
    for (const obs::SpanEvent& e : events) {
      if (e.tid == r->tid && e.depth == r->depth + 1 &&
          e.start_ns >= r->start_ns &&
          e.start_ns + e.dur_ns <= r->start_ns + r->dur_ns) {
        out.explained_ms += double(e.dur_ns) / 1e6;
      }
    }
  }
  return out;
}

std::uint64_t counter(const char* name) {
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

void run_traced(const Workload& w, const Args& args, Report& report) {
  const std::filesystem::path scratch = args.scratch;
  const auto agent = e2e::pretrain_agent(w, args.smoke);
  const e2e::Federation federation(w, args.seed, agent);
  const std::size_t rounds = scaled_rounds(w, args);
  const double per_round = 1.0 / double(rounds);

  e2e::RunOutcome plain = e2e::run_workload(federation, rounds, scratch);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_capacity(std::size_t(1) << 18);
  tracer.set_enabled(true);
  const std::uint64_t batches0 = counter("threadpool.batches");
  const std::uint64_t chunks0 = counter("threadpool.chunks");
  e2e::RunOutcome traced = e2e::run_workload(federation, rounds, scratch);
  const std::uint64_t batches = counter("threadpool.batches") - batches0;
  const std::uint64_t chunks = counter("threadpool.chunks") - chunks0;
  tracer.set_enabled(false);
  const PhaseStats phases = phase_stats(tracer.events());
  if (tracer.dropped() > 0) {
    report.violation("tracer ring dropped " + std::to_string(tracer.dropped()) +
                     " spans");
  }

  report.add_run(plain);
  report.add_run(traced);
  // Telemetry on/off contract: tracing must not change a single bit.
  if (!bit_identical(plain.final_weights, traced.final_weights)) {
    report.violation("traced and untraced runs ended with different weights");
  }

  const std::size_t iters = args.smoke ? 1 : 5;
  const e2e::LayerProbe layers =
      e2e::probe_layers(federation, *plain.algorithm, iters);
  const e2e::GemmProbe gemm = e2e::probe_gemm(federation, iters);
  const e2e::DataProbe data =
      e2e::probe_data(federation, *plain.algorithm, args.smoke ? 1 : 3);
  const e2e::StoreProbe store = e2e::probe_store(
      *plain.algorithm, scratch / "store-probe", args.smoke ? 1 : 5);
  if (!store.recovered || store.rejected_attempts != 0) {
    report.violation("store probe: recovered=" +
                     std::to_string(store.recovered) + ", rejected attempts=" +
                     std::to_string(store.rejected_attempts));
  }

  const auto phase = [&](const char* name) {
    const auto it = phases.total_ms.find(name);
    return it == phases.total_ms.end() ? 0.0 : it->second * per_round;
  };
  const double train_ms = phase("fl/train");
  const double steps = double(e2e::train_steps_per_round(federation));
  const double samples = double(e2e::train_samples_per_round(federation));
  const double gflop = e2e::train_gflop_per_round(federation);

  report.add("common.pool_batches_per_round", double(batches) * per_round,
             "count");
  report.add("common.pool_chunks_per_round", double(chunks) * per_round,
             "count");
  report.add("common.cpu_util",
             plain.cpu_s / (plain.wall_s * double(w.threads)), "ratio",
             "untraced run, " + std::to_string(w.threads) + " pool threads");
  report.add("tensor.gemm_gflops", gemm.gflops, "GFLOP/s");
  for (std::size_t k = 0; k < e2e::kLayerKinds.size(); ++k) {
    const std::string kind = e2e::kLayerKinds[k];
    report.add("nn." + kind + ".fwd_ms", layers.fwd_ms[k], "ms", "per batch");
    report.add("nn." + kind + ".bwd_ms", layers.bwd_ms[k], "ms", "per batch");
  }
  report.add("nn.conv.gflops", layers.conv_gflops, "GFLOP/s",
             "top-level convolutions, fwd + bwd");
  report.add("nn.non_gemm_share",
             std::clamp(1.0 - gemm.batch_ms / layers.fwd_bwd_ms(), 0.0, 1.0),
             "ratio", "of fwd + bwd time outside the GEMMs");
  report.add("nn.sgd_step_ms", layers.sgd_step_ms, "ms", "per batch");
  // Probe cost of one round's training: fwd + bwd scale with the samples
  // trained (the last batch of an epoch is partial), the SGD step with the
  // number of steps.
  const double probe_round_ms =
      layers.fwd_bwd_ms() * samples / double(federation.config().local.batch_size) +
      layers.sgd_step_ms * steps;
  report.add("nn.probe_train_share",
             train_ms > 0.0 ? probe_round_ms / train_ms : 0.0, "ratio",
             "probe per-batch cost x one round's batches / fl.train_ms");
  report.add("data.train_ms_per_client", data.train_ms, "ms", "client 0");
  report.add("data.eval_ms_per_client", data.eval_ms, "ms", "client 0");
  report.add("fl.train_ms", train_ms, "ms");
  report.add("fl.eval_ms", phase("fl/eval"), "ms");
  report.add("fl.aggregate_ms", phase("fl/aggregate"), "ms");
  report.add("fl.uplink_ms", phase("fl/uplink"), "ms");
  report.add("fl.checkpoint_ms", phase("fl/checkpoint"), "ms");
  report.add("fl.round_explained_share",
             phases.round_ms > 0.0 ? phases.explained_ms / phases.round_ms : 0.0,
             "ratio", "direct child spans / fl/round");
  report.add("fl.store_commit_ms", store.commit_ms, "ms", "per commit");
  report.add("fl.store_commit_mb", store.commit_mb, "MB", "per generation");
  report.add("fl.store_recover_ms", store.recover_ms, "ms", "ladder walk");
  report.add("core.select_ms", phase("spatl/select"), "ms");
  double density = 1.0;
  if (const auto* sp =
          dynamic_cast<const core::SpatlAlgorithm*>(plain.algorithm.get())) {
    const auto sparsities = sp->client_sparsities();
    double sum = 0.0;
    for (const double s : sparsities) sum += s;
    if (!sparsities.empty()) density = 1.0 - sum / double(sparsities.size());
  }
  report.add("core.uplink_density", density, "ratio",
             "1 - mean client sparsity (1 = dense)");
  report.add("rl.episode_ms", phase("rl/episode"), "ms");
  report.add("rl.env_step_ms", phase("rl/env_step"), "ms");
  report.add("rl.update_ms", phase("rl/update"), "ms");
  report.add("rl.act_ms", phase("rl/act"), "ms");
  report.add("prune.train_gflop_per_round", gflop, "GFLOP", "dense, analytic");
  report.add("prune.train_gflops", train_ms > 0.0 ? gflop / (train_ms * 1e-3) : 0.0,
             "GFLOP/s");
  report.add("obs.trace_overhead", traced.wall_s / plain.wall_s - 1.0, "ratio",
             "traced wall / untraced wall - 1");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<Workload> all = e2e::workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (it == all.end()) fail_usage("unknown workload '" + args.workload + "'");
  const Workload& w = *it;

  // Pin the execution environment before anything computes.
  const std::size_t nproc = e2e::usable_cpus();
  if (!tensor::cpu_simd_supported()) {
    std::fprintf(stderr, "error: the cpu-simd backend needs AVX2 and FMA, "
                         "which this CPU does not support\n");
    return 2;
  }
  if (w.threads > nproc) {
    std::fprintf(stderr,
                 "error: workload %s pins a %zu-thread pool but only %zu CPUs "
                 "are usable\n",
                 w.name.c_str(), w.threads, nproc);
    return 2;
  }
  tensor::set_active_backend(tensor::BackendKind::kCpuSimd);
  common::ThreadPool pool(w.threads - 1);
  common::ThreadPool::ScopedOverride pin(pool);
  std::filesystem::create_directories(args.scratch);

  const double load_start = e2e::load_average();
  Report report;
  try {
    if (args.trace == 1) {
      run_traced(w, args, report);
    } else {
      run_end_to_end(w, args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const double load_end = e2e::load_average();

  std::printf("host: nproc=%zu pool_threads=%zu backend=%s cpu=\"%s\" "
              "source=%s load_start=%.2f load_end=%.2f\n",
              nproc, w.threads, tensor::backend_name(tensor::active_backend()),
              e2e::cpu_model().c_str(), args.source_id.c_str(), load_start,
              load_end);
  report.print("workload " + w.name + " seed=" + std::to_string(args.seed) +
               " trace=" + std::to_string(args.trace) +
               (args.smoke ? " smoke" : "") + "\n  (" + w.why + ")");
  return report.correct() ? 0 : 1;
}
