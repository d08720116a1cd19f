// This binary IS a CLI diagnostics surface, hence:
// spatl-lint: allow(raw-stderr)
//
// bench_perf — min-of-N microbenchmarks over the hot kernels, emitting a
// machine-readable BENCH_PERF.json that scripts/perf_gate.py compares
// against the checked-in baseline of its backend
// (bench/baselines/BENCH_PERF.<backend>.baseline.json).
//
//   bench_perf [--out FILE] [--smoke] [--handicap kernel=factor]
//              [--backend scalar|cpu-simd|auto]
//
// --backend pins the tensor ComputeContext for the whole sweep and stamps
// the resolved name into the JSON, so the perf gate can refuse to compare a
// run against the wrong backend's baseline (bench/baselines/ keeps one file
// per backend).
//
// Kernels: the GEMM and a convolution training step (im2col, the three
// GEMMs, col2im) that dominate training compute, the coordinate-median
// and Krum robust aggregation paths, the lossless checkpoint
// double-packing round trip, and a durable store commit. Each kernel runs `reps` iterations per trial and the minimum
// per-rep wall time across trials is reported — the minimum is the
// standard noise-rejecting statistic for microbenches (interruptions only
// ever make a trial slower, never faster). Every kernel runs on a one-thread
// pool, like the calibration below.
//
// Host calibration: after every kernel trial the sweep also times one trial
// of a fixed scalar loop, and the minimum over all of them is written as
// "calibration_ns". The gate compares min_ns_per_rep / calibration_ns with
// the baseline's ratio, so a host that runs everything slower (a shared VM,
// a lower clock) moves both and the ratio holds, while a slower kernel
// moves only its own time.
//
// --smoke collapses to one rep x one trial per kernel: a schema/liveness
// check cheap enough to ride ctest, making no wall-time claims.
//
// --handicap multiplies one kernel's reported time post-measurement. It
// exists so the perf gate's failure path is demonstrable (and tested)
// without actually pessimising a kernel; a handicapped run marks itself in
// the JSON and must never be used to refresh the baseline.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "fl/checkpoint.hpp"
#include "fl/fault.hpp"
#include "fl/robust.hpp"
#include "fl/store/store.hpp"
#include "nn/conv.hpp"
#include "obs/export.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"

namespace {

using spatl::common::Rng;
using spatl::common::Timer;
using spatl::tensor::Tensor;

// Checksum accumulator the kernels feed so the optimizer cannot discard
// their work; printed at the end to keep the data dependency live.
double g_sink = 0.0;

struct KernelResult {
  std::uint64_t reps = 0;
  std::uint64_t trials = 0;
  double min_ns_per_rep = 0.0;
  double handicap = 1.0;
};

/// The fixed calibration loop: a dependent multiply-add chain and a
/// dependent sum over 256 KB, so it tracks the core clock and cache speed
/// the kernels run at. Not vectorized at -O2 (the sums are ordered).
class Calibration {
 public:
  Calibration() : buf_(1 << 16) {
    Rng rng(0xBE7C00ULL);
    for (float& v : buf_) v = rng.uniform_float(0.0f, 1.0f);
  }

  /// Runs one trial and keeps the fastest so far.
  void trial() {
    Timer timer;
    float acc = 0.0f, x = 1.0f;
    for (const float v : buf_) acc += v;
    for (int k = 0; k < 65536; ++k) x = x * 0.999f + 0.5f;
    g_sink += double(acc) + double(x);
    best_ = std::min(best_, timer.seconds() * 1.0e9);
  }

  double best_ns() const { return best_; }

 private:
  std::vector<float> buf_;
  double best_ = std::numeric_limits<double>::infinity();
};

template <typename Body>
KernelResult measure(std::uint64_t reps, std::uint64_t trials,
                     Calibration& calibration, Body&& body) {
  KernelResult result;
  result.reps = reps;
  result.trials = trials;
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t t = 0; t < trials; ++t) {
    Timer timer;
    for (std::uint64_t r = 0; r < reps; ++r) body();
    best = std::min(best, timer.seconds() * 1.0e9 / double(reps));
    calibration.trial();
  }
  result.min_ns_per_rep = best;
  return result;
}

std::vector<spatl::fl::RobustUpdate> make_updates(
    const std::vector<std::vector<float>>& payloads) {
  std::vector<spatl::fl::RobustUpdate> updates;
  updates.reserve(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    spatl::fl::RobustUpdate u;
    u.client = i;
    u.weight = 1.0 + 0.1 * double(i % 3);
    u.values = &payloads[i];
    updates.push_back(u);
  }
  return updates;
}

}  // namespace

int main(int argc, char** argv) {
  spatl::common::Flags flags(argc, argv, 1);
  try {
    flags.check_known({"out", "smoke", "handicap", "backend"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: %s\n", e.what());
    std::fprintf(stderr,
                 "usage: bench_perf [--out FILE] [--smoke] "
                 "[--handicap kernel=factor] "
                 "[--backend scalar|cpu-simd|auto]\n");
    return 2;
  }
  const bool smoke = flags.get_bool("smoke", false);
  const std::string out_path = flags.get("out", "BENCH_PERF.json");

  try {
    const std::string backend = flags.get("backend", "");
    if (!backend.empty()) {
      spatl::tensor::set_active_backend(spatl::tensor::parse_backend(backend));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: %s\n", e.what());
    return 2;
  }

  // One optional post-measurement handicap, "kernel=factor".
  std::string handicap_kernel;
  double handicap_factor = 1.0;
  const std::string handicap = flags.get("handicap");
  if (!handicap.empty()) {
    const auto eq = handicap.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bench_perf: --handicap expects kernel=factor\n");
      return 2;
    }
    handicap_kernel = handicap.substr(0, eq);
    handicap_factor = std::stod(handicap.substr(eq + 1));
  }

  // Trial/rep budgets: sized so the full sweep stays in the low seconds on
  // a laptop-class core while each trial is long enough (>~1 ms) for the
  // steady-clock resolution to be noise-free.
  const std::uint64_t trials = smoke ? 1 : 5;
  const auto reps = [smoke](std::uint64_t n) { return smoke ? 1 : n; };

  std::map<std::string, KernelResult> results;
  // One thread for the kernels, like the calibration loop they are
  // divided by.
  spatl::common::ThreadPool pool(0);
  spatl::common::ThreadPool::ScopedOverride one_thread(pool);
  Calibration calibration;

  // --- gemm: the 128^3 GEMM at the heart of every dense/conv layer -------
  {
    Rng rng(0xBE7C01ULL);
    const std::size_t n = 128;
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    Tensor c({n, n});
    results["gemm"] = measure(reps(8), trials, calibration, [&] {
      spatl::tensor::matmul(a, b, c);
      g_sink += double(c.data()[0]);
    });
  }

  // --- conv: one training step of cnn2's second conv ---------------------
  // Forward + backward at batch 16, 16 -> 32 channels, 5x5 over 8x8 (the
  // FedAvg cnn2 workload's conv2). The upstream gradient is what ReLU and
  // 2x2 max-pooling hand back: one position per pooling window, half of
  // those dead, so the backward GEMMs see their training-time sparsity.
  {
    Rng rng(0xBE7C02ULL);
    spatl::nn::Conv2d conv(16, 32, 5, 1, 2, /*bias=*/true);
    conv.init_params(rng);
    Tensor input = Tensor::randn({16, 16, 8, 8}, rng);
    for (float& v : input.storage()) v = std::max(v, 0.0f);
    Tensor grad({16, 32, 8, 8});
    for (std::size_t plane = 0; plane < 16 * 32; ++plane) {
      for (std::size_t wy = 0; wy < 8; wy += 2) {
        for (std::size_t wx = 0; wx < 8; wx += 2) {
          if (rng.uniform() < 0.5) continue;
          const std::size_t y = wy + rng.uniform_index(2);
          const std::size_t x = wx + rng.uniform_index(2);
          grad[plane * 64 + y * 8 + x] = rng.normal_float(0.0f, 1.0f);
        }
      }
    }
    results["conv"] = measure(reps(16), trials, calibration, [&] {
      Tensor out = conv.forward(input, /*train=*/true);
      Tensor dx = conv.backward(grad);
      g_sink += double(out.data()[0]) + double(dx.data()[0]);
    });
  }

  // Shared robust-aggregation workload: 16 clients x dim 4096, dense.
  const std::size_t kDim = 4096;
  std::vector<std::vector<float>> payloads(16);
  {
    Rng rng(0xBE7C03ULL);
    for (auto& p : payloads) {
      p.resize(kDim);
      for (float& v : p) v = rng.uniform_float(-1.0f, 1.0f);
    }
  }
  const std::vector<spatl::fl::RobustUpdate> updates = make_updates(payloads);

  // --- robust_median: per-coordinate weighted median ----------------------
  {
    spatl::fl::ResilienceConfig rc;
    rc.aggregator = spatl::fl::AggregatorKind::kCoordinateMedian;
    const auto agg = spatl::fl::make_robust_aggregator(rc);
    results["robust_median"] = measure(reps(16), trials, calibration, [&] {
      const auto outcome = agg->aggregate(updates, kDim);
      g_sink += double(outcome.value[0]);
    });
  }

  // --- robust_krum: pairwise-distance Krum selection ----------------------
  {
    spatl::fl::ResilienceConfig rc;
    rc.aggregator = spatl::fl::AggregatorKind::kKrum;
    rc.krum_f = 3;
    const auto agg = spatl::fl::make_robust_aggregator(rc);
    results["robust_krum"] = measure(reps(16), trials, calibration, [&] {
      const auto outcome = agg->aggregate(updates, kDim);
      g_sink += double(outcome.value[0]);
    });
  }

  // --- ckpt_pack: lossless 64-bit packing round trip ----------------------
  {
    Rng rng(0xBE7C04ULL);
    std::vector<double> doubles(kDim);
    for (double& v : doubles) v = rng.uniform(-10.0, 10.0);
    std::vector<std::uint64_t> words(kDim);
    for (std::uint64_t& w : words) w = rng.next();
    results["ckpt_pack"] = measure(reps(64), trials, calibration, [&] {
      const auto packed_d = spatl::fl::pack_doubles("bench.doubles", doubles);
      const auto back_d = spatl::fl::unpack_doubles(packed_d.value);
      const auto packed_u = spatl::fl::pack_u64s("bench.words", words);
      const auto back_u = spatl::fl::unpack_u64s(packed_u.value);
      g_sink += back_d[0] + double(back_u[0] & 0xFFU);
    });
  }

  // --- store_commit: durable generation write (atomic rename + manifest) --
  {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "spatl_bench_perf_store";
    fs::remove_all(dir);
    spatl::fl::store::StoreConfig cfg;
    cfg.dir = dir.string();
    cfg.keep_last = 2;  // pruning included: that is the steady-state cost
    spatl::fl::store::CheckpointStore store(cfg);
    Rng rng(0xBE7C05ULL);
    std::vector<float> weights(16384);
    for (float& v : weights) v = rng.uniform_float(-1.0f, 1.0f);
    spatl::fl::RunCheckpoint ckpt;
    ckpt.entries.push_back(spatl::fl::pack_floats("bench.weights", weights));
    std::size_t round = 0;
    results["store_commit"] = measure(reps(8), trials, calibration, [&] {
      if (!store.commit(++round, ckpt)) g_sink += 1.0;
    });
    fs::remove_all(dir);
  }

  if (!handicap_kernel.empty()) {
    const auto it = results.find(handicap_kernel);
    if (it == results.end()) {
      std::fprintf(stderr, "bench_perf: unknown kernel '%s' in --handicap\n",
                   handicap_kernel.c_str());
      return 2;
    }
    it->second.min_ns_per_rep *= handicap_factor;
    it->second.handicap = handicap_factor;
  }

  spatl::obs::JsonObject kernels;
  for (const auto& [name, r] : results) {
    spatl::obs::JsonObject k;
    k.add("reps", r.reps)
        .add("trials", r.trials)
        .add("min_ns_per_rep", r.min_ns_per_rep);
    if (r.handicap != 1.0) k.add("handicap", r.handicap);
    kernels.add_raw(name, k.str());
  }
  spatl::obs::JsonObject doc;
  doc.add("schema", "spatl-bench-perf-v1")
      .add("mode", smoke ? "smoke" : "full")
      .add("backend",
           spatl::tensor::backend_name(spatl::tensor::active_backend()))
      .add("calibration_ns", calibration.best_ns())
      .add_raw("kernels", kernels.str());

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_perf: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << doc.str() << "\n";
  out.close();

  for (const auto& [name, r] : results) {
    std::printf("%-14s %10.0f ns/rep  (min of %llu x %llu reps)%s\n",
                name.c_str(), r.min_ns_per_rep,
                (unsigned long long)r.trials, (unsigned long long)r.reps,
                r.handicap != 1.0 ? "  [HANDICAPPED]" : "");
  }
  std::printf("%-14s %10.0f ns      (min over all kernel trials)\n",
              "calibration", calibration.best_ns());
  std::printf("checksum %.6f -> %s\n", g_sink, out_path.c_str());
  return 0;
}
