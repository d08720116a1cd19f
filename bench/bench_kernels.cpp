// This binary IS a CLI diagnostics surface, hence:
// spatl-lint: allow(raw-stderr)
//
// bench_kernels — backend x shape sweep over the GEMM family and the
// im2col+GEMM convolution forward, reporting ns/rep, GFLOP/s, and the
// cpu-simd speedup over the scalar reference per shape.
//
//   bench_kernels [--out FILE.csv] [--smoke] [--min-conv-speedup X]
//
// This is the PR's acceptance instrument for the SIMD backend: the
// single-core conv forward must clear --min-conv-speedup (default 0 = just
// report). scripts/check.sh --perf runs it with the documented 4x floor;
// the --smoke ctest registration only proves the sweep runs and the CSV
// schema holds, making no wall-time claims.
//
// Correctness is NOT re-litigated here (tests/test_backend.cpp owns the ulp
// bound); the sweep only feeds a checksum sink so the optimizer cannot
// discard kernel work.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "nn/conv.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"

namespace {

using spatl::common::Rng;
using spatl::common::Timer;
using spatl::tensor::BackendKind;
using spatl::tensor::Tensor;

double g_sink = 0.0;

template <typename Body>
double min_ns_per_rep(std::uint64_t reps, std::uint64_t trials, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t t = 0; t < trials; ++t) {
    Timer timer;
    for (std::uint64_t r = 0; r < reps; ++r) body();
    best = std::min(best, timer.seconds() * 1.0e9 / double(reps));
  }
  return best;
}

struct Row {
  std::string kernel;
  std::string shape;
  double flops = 0.0;  // per rep
  double scalar_ns = 0.0;
  double simd_ns = 0.0;  // 0 when the CPU lacks AVX2/FMA

  double speedup() const { return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0; }
};

/// Measure `body` once per available backend.
template <typename Body>
Row sweep(const std::string& kernel, const std::string& shape, double flops,
          std::uint64_t reps, std::uint64_t trials, Body&& body) {
  Row row;
  row.kernel = kernel;
  row.shape = shape;
  row.flops = flops;
  spatl::tensor::set_active_backend(BackendKind::kScalar);
  row.scalar_ns = min_ns_per_rep(reps, trials, body);
  if (spatl::tensor::cpu_simd_supported()) {
    spatl::tensor::set_active_backend(BackendKind::kCpuSimd);
    row.simd_ns = min_ns_per_rep(reps, trials, body);
    spatl::tensor::set_active_backend(BackendKind::kScalar);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  spatl::common::Flags flags(argc, argv, 1);
  try {
    flags.check_known({"out", "smoke", "min-conv-speedup"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_kernels: %s\n", e.what());
    std::fprintf(stderr,
                 "usage: bench_kernels [--out FILE.csv] [--smoke] "
                 "[--min-conv-speedup X]\n");
    return 2;
  }
  const bool smoke = flags.get_bool("smoke", false);
  const std::string out_path = flags.get("out", "");
  const double min_conv_speedup = flags.get_double("min-conv-speedup", 0.0);

  const std::uint64_t trials = smoke ? 1 : 5;
  const auto reps = [smoke](std::uint64_t n) -> std::uint64_t {
    return smoke ? 1 : n;
  };

  // Every kernel runs on the calling thread alone: the floor compares one
  // core of each backend, which a pool sized to the host would blur.
  spatl::common::ThreadPool serial(0);
  spatl::common::ThreadPool::ScopedOverride one_core(serial);

  std::vector<Row> rows;

  // --- GEMM variants over training-shaped sizes ---------------------------
  struct GemmShape {
    std::size_t m, k, n;
    std::uint64_t r;
  };
  const GemmShape gemm_shapes[] = {
      {128, 128, 128, 16}, {64, 576, 128, 16}, {256, 72, 32, 32}};
  for (const GemmShape& s : gemm_shapes) {
    Rng rng(0xC0FFEEULL + s.m);
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor at = Tensor::randn({s.k, s.m}, rng);
    const Tensor bt = Tensor::randn({s.n, s.k}, rng);
    const double flops = 2.0 * double(s.m) * double(s.k) * double(s.n);
    char shape[64];
    std::snprintf(shape, sizeof(shape), "%zux%zux%zu", s.m, s.k, s.n);
    Tensor c;
    rows.push_back(sweep("gemm_nn", shape, flops, reps(s.r), trials, [&] {
      spatl::tensor::matmul(a, b, c);
      g_sink += double(c.data()[0]);
    }));
    rows.push_back(sweep("gemm_tn", shape, flops, reps(s.r), trials, [&] {
      spatl::tensor::matmul_tn(at, b, c);
      g_sink += double(c.data()[0]);
    }));
    rows.push_back(sweep("gemm_nt", shape, flops, reps(s.r), trials, [&] {
      spatl::tensor::matmul_nt(a, bt, c);
      g_sink += double(c.data()[0]);
    }));
  }

  // --- conv forward: im2col + GEMM, GEMM-dominated shape ------------------
  double conv_speedup = 0.0;
  {
    Rng rng(0xC0FFEE42ULL);
    spatl::nn::Conv2d conv(16, 32, 3);
    conv.init_params(rng);
    const Tensor input = Tensor::randn({8, 16, 16, 16}, rng);
    // 8 images, 16x16 output plane, 32 out-channels, 16*3*3 patch.
    const double flops = 2.0 * 8.0 * 16.0 * 16.0 * 32.0 * (16.0 * 3.0 * 3.0);
    const Row row =
        sweep("conv_fwd", "8x16x16x16->32", flops, reps(8), trials, [&] {
          Tensor out = conv.forward(input, /*train=*/false);
          g_sink += double(out.data()[0]);
        });
    conv_speedup = row.speedup();
    rows.push_back(row);
  }

  // --- report -------------------------------------------------------------
  std::string csv =
      "kernel,shape,scalar_ns_per_rep,scalar_gflops,simd_ns_per_rep,"
      "simd_gflops,speedup\n";
  std::printf("%-10s %-16s %14s %8s %14s %8s %8s\n", "kernel", "shape",
              "scalar ns/rep", "GF/s", "simd ns/rep", "GF/s", "speedup");
  for (const Row& r : rows) {
    const double sg = r.scalar_ns > 0.0 ? r.flops / r.scalar_ns : 0.0;
    const double vg = r.simd_ns > 0.0 ? r.flops / r.simd_ns : 0.0;
    std::printf("%-10s %-16s %14.0f %8.2f %14.0f %8.2f %7.2fx\n",
                r.kernel.c_str(), r.shape.c_str(), r.scalar_ns, sg, r.simd_ns,
                vg, r.speedup());
    char line[256];
    std::snprintf(line, sizeof(line), "%s,%s,%.0f,%.3f,%.0f,%.3f,%.3f\n",
                  r.kernel.c_str(), r.shape.c_str(), r.scalar_ns, sg,
                  r.simd_ns, vg, r.speedup());
    csv += line;
  }
  std::printf("checksum %.6f\n", g_sink);

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    out << csv;
  }

  if (min_conv_speedup > 0.0 && !smoke) {
    if (!spatl::tensor::cpu_simd_supported()) {
      std::printf("conv speedup floor skipped: CPU lacks AVX2/FMA\n");
    } else if (conv_speedup < min_conv_speedup) {
      std::fprintf(stderr,
                   "bench_kernels: conv_fwd speedup %.2fx is below the "
                   "required %.2fx floor\n",
                   conv_speedup, min_conv_speedup);
      return 1;
    } else {
      std::printf("conv_fwd speedup %.2fx clears the %.2fx floor\n",
                  conv_speedup, min_conv_speedup);
    }
  }
  return 0;
}
