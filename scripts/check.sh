#!/usr/bin/env bash
# Verification tiers. See DESIGN.md §9.
#
#   scripts/check.sh [--san] [build-dir]   sanitizer tier (default): build the
#       whole tree under AddressSanitizer + UndefinedBehaviorSanitizer with
#       SPATL_DCHECK invariants on and leak detection enabled, and run the
#       full test suite. Default build dir: build-sanitize.
#
#   scripts/check.sh --fast [build-dir]    tier-1 only: plain Release build +
#       ctest, no sanitizers. The quick pre-commit loop. Default: build.
#       New suites register through tests/CMakeLists.txt and ride along
#       automatically (e.g. tests/test_async.cpp's semi-async buffer,
#       quorum-attribution, and mid-buffer resume suites,
#       tests/test_churn.cpp's churn / admission / retry / failover /
#       alert suites, and tests/test_store.cpp's durable-store /
#       storage-chaos suites plus the bench_chaos smoke drill).
#
#   scripts/check.sh --thread [build-dir]  race tier: ThreadSanitizer build
#       (TSan cannot be combined with ASan, so it gets its own tree) running
#       the full suite, including tests/test_concurrency.cpp stress tests and
#       tests/test_observability.cpp's concurrent metrics-registry merge
#       probe. Default build dir: build-tsan.
#
#   scripts/check.sh --lint [build-dir]    static tier: the project-aware
#       spatl_lint passes (legacy per-file rules, include-graph layering,
#       checkpoint-coverage audit, RNG stream discipline) gated on the
#       checked-in baseline tools/analysis/lint_baseline.txt — any
#       non-baselined finding fails the tier, per-rule counts are printed,
#       and a SARIF 2.1.0 report lands in <build-dir>/spatl_lint.sarif —
#       plus clang-tidy over src/ against the exported
#       compile_commands.json (when clang-tidy is installed; its major
#       version must match CLANG_TIDY_MAJOR_PIN below or the tier fails
#       loudly). Default: build.
#
#   scripts/check.sh --coverage [build-dir]  coverage tier: Debug build with
#       SPATL_COVERAGE=ON (gcov instrumentation), full ctest run, then a
#       per-file line-coverage table over src/ with a TOTAL row. Slower
#       than --fast and advisory (no threshold gate), so it is NOT part of
#       --all. Default build dir: build-coverage.
#
#   scripts/check.sh --perf [build-dir]    perf tier: Release build of the
#       bench_perf kernel microbenches (GEMM, conv training step, robust
#       aggregation, checkpoint packing, store commit), run once per
#       compute backend (scalar and, where the CPU supports it, cpu-simd)
#       with min-of-N timings written to <build-dir>/BENCH_PERF.<backend>.json
#       and gated by scripts/perf_gate.py against the matching
#       bench/baselines/BENCH_PERF.<backend>.baseline.json; then the
#       bench_kernels backend x shape sweep enforcing the SIMD conv forward
#       speedup floor; then `python3 e2ebench/run.py --smoke`, one round of
#       every end-to-end workload through the benchmark's correctness
#       gates. Machine-dependent by nature, so it is NOT part of
#       --all; tolerances in the baselines are sized for laptop-class
#       variance. Refresh a baseline by copying a clean
#       BENCH_PERF.<backend>.json over it on a quiet machine. Default:
#       build.
#
#   scripts/check.sh --all                 every tier in sequence — the
#       pre-merge gate (coverage and perf excluded: advisory/machine-
#       dependent, not merge gates).
#
# All tiers configure with SPATL_WERROR=ON: warnings fail the gate.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="san"
case "${1:-}" in
  --fast|--san|--thread|--lint|--coverage|--perf|--all) MODE="${1#--}"; shift ;;
esac

NPROC="$(nproc)"

run_fast() {
  local dir="${1:-build}"
  cmake -B "$dir" -S . -DSPATL_WERROR=ON
  cmake --build "$dir" -j "$NPROC"
  ctest --test-dir "$dir" --output-on-failure -j "$NPROC"
  echo "fast check passed"
}

run_san() {
  local dir="${1:-build-sanitize}"
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPATL_SANITIZE=address,undefined \
    -DSPATL_DEBUG_CHECKS=ON \
    -DSPATL_WERROR=ON
  cmake --build "$dir" -j "$NPROC"
  # halt_on_error so UBSan findings fail the suite instead of scrolling by.
  UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    ctest --test-dir "$dir" --output-on-failure -j "$NPROC"
  echo "sanitizer check passed"
}

run_thread() {
  local dir="${1:-build-tsan}"
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPATL_SANITIZE=thread \
    -DSPATL_DEBUG_CHECKS=ON \
    -DSPATL_WERROR=ON
  cmake --build "$dir" -j "$NPROC"
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ctest --test-dir "$dir" --output-on-failure -j "$NPROC"
  echo "thread-sanitizer check passed"
}

# clang-tidy is an optional tier, but when it runs it must run a known
# checker set: different majors enable different checks, so an unpinned
# binary silently diverges between machines. Bump deliberately, in lockstep
# with a clean run over the tree.
CLANG_TIDY_MAJOR_PIN=18

run_lint() {
  local dir="${1:-build}"
  cmake -B "$dir" -S . -DSPATL_WERROR=ON
  cmake --build "$dir" -j "$NPROC" --target spatl_lint
  # Gated on tools/analysis/lint_baseline.txt (picked up automatically):
  # exits non-zero on any non-baselined finding, prints per-rule counts,
  # and writes a SARIF 2.1.0 report for code-scanning consumers.
  "$dir"/tools/spatl_lint --sarif "$dir"/spatl_lint.sarif .
  if command -v clang-tidy >/dev/null 2>&1; then
    # Fail loudly on version drift instead of quietly linting with a
    # different checker set than the pin was validated against.
    local major
    major="$(clang-tidy --version | sed -n 's/.*version \([0-9][0-9]*\)\..*/\1/p' | head -n 1)"
    if [ -z "$major" ]; then
      echo "error: cannot parse clang-tidy version (wanted major $CLANG_TIDY_MAJOR_PIN)" >&2
      exit 1
    fi
    if [ "$major" != "$CLANG_TIDY_MAJOR_PIN" ]; then
      echo "error: clang-tidy major version $major != pinned $CLANG_TIDY_MAJOR_PIN" >&2
      echo "       (update CLANG_TIDY_MAJOR_PIN in scripts/check.sh together with a clean run)" >&2
      exit 1
    fi
    # .clang-tidy at the repo root selects bugprone/concurrency/performance.
    find src -name '*.cpp' -print0 |
      xargs -0 -P "$NPROC" -n 8 clang-tidy -p "$dir" --quiet
    echo "clang-tidy $major passed"
  else
    echo "clang-tidy not installed; skipped (spatl_lint still enforced)"
  fi
  echo "lint check passed"
}

run_coverage() {
  local dir="${1:-build-coverage}"
  if ! command -v gcov >/dev/null 2>&1; then
    echo "error: gcov not found (needed for the coverage tier)" >&2
    exit 1
  fi
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DSPATL_COVERAGE=ON \
    -DSPATL_WERROR=ON
  # Stale counters from a previous run would inflate the numbers.
  find "$dir" -name '*.gcda' -delete
  cmake --build "$dir" -j "$NPROC"
  ctest --test-dir "$dir" --output-on-failure -j "$NPROC"

  local root dir_abs scratch
  root="$(pwd)"
  dir_abs="$(cd "$dir" && pwd)"
  # gcov spews one .gcov per source next to its cwd — contain the spam.
  scratch="$dir_abs/coverage-scratch"
  rm -rf "$scratch"
  mkdir -p "$scratch"
  find "$dir_abs/src" -name '*.gcda' -print0 |
    (cd "$scratch" && xargs -0 gcov -r -s "$root" 2>/dev/null) |
    awk '
      /^File / { f = $2; gsub("\047", "", f) }
      /^Lines executed:/ {
        split($0, a, /[:% ]+/)  # "Lines executed:NN.NN% of M"
        if (f ~ /^src\// && a[5] + 0 > lines[f] + 0) {
          lines[f] = a[5]
          pct[f] = a[3]
        }
      }
      END {
        for (f in lines) printf "%s %d %.2f\n", f, lines[f], pct[f]
      }' |
    sort |
    awk '
      { printf "  %6.1f%%  %6d  %s\n", $3, $2, $1
        t += $2; h += $2 * $3 / 100 }
      END {
        if (t > 0) printf "  %6.1f%%  %6d  TOTAL (line coverage, src/)\n",
                          h / t * 100, t
      }'
  echo "coverage report done (objects in $dir, .gcov files in $scratch)"
}

run_perf() {
  local dir="${1:-build}"
  cmake -B "$dir" -S . -DSPATL_WERROR=ON
  cmake --build "$dir" -j "$NPROC" --target bench_perf bench_kernels
  # Full min-of-N sweep per compute backend (a smoke run makes no wall-time
  # claim and would be rejected by the gate). Each backend gates against its
  # own baseline: scalar and cpu-simd timings differ by design, and
  # perf_gate.py refuses a backend-mismatched comparison.
  local backend
  for backend in scalar cpu-simd; do
    "$dir"/bench/bench_perf --backend "$backend" \
      --out "$dir"/BENCH_PERF."$backend".json
    # On hardware without AVX2/FMA the cpu-simd request falls back to the
    # scalar context and stamps "scalar" into the JSON; skip the gate there
    # rather than comparing scalar timings against the SIMD baseline.
    if [ "$backend" = "cpu-simd" ] && \
       ! grep -q '"backend": *"cpu-simd"' "$dir"/BENCH_PERF."$backend".json
    then
      echo "perf: cpu-simd unsupported on this CPU; gate skipped"
      continue
    fi
    python3 scripts/perf_gate.py "$dir"/BENCH_PERF."$backend".json \
      bench/baselines/BENCH_PERF."$backend".baseline.json
  done
  # Backend x shape sweep with the SIMD conv acceptance floor (self-skips
  # on hardware without AVX2/FMA).
  "$dir"/bench/bench_kernels --min-conv-speedup 4 \
    --out "$dir"/BENCH_KERNELS.csv
  # One round of every e2ebench workload, traced and untraced: runs the
  # benchmark's correctness gates (finite losses, analytic traffic,
  # bit-identical repeat and traced runs, crash-drill recovery) and checks
  # its metric names against BENCHMARK.json.
  python3 e2ebench/run.py --smoke
  echo "perf check passed"
}

case "$MODE" in
  fast)   run_fast "${1:-}" ;;
  san)    run_san "${1:-}" ;;
  thread) run_thread "${1:-}" ;;
  lint)   run_lint "${1:-}" ;;
  coverage) run_coverage "${1:-}" ;;
  perf)   run_perf "${1:-}" ;;
  all)
    run_fast
    run_san
    run_thread
    run_lint
    echo "all check tiers passed"
    ;;
esac
