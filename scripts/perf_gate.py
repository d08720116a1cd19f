#!/usr/bin/env python3
"""Performance regression gate over bench_perf output.

    python3 scripts/perf_gate.py <current.json> <baseline.json>

Both files are "spatl-bench-perf-v1" documents and must agree on their
"backend" stamp (timings are only comparable within one compute backend;
documents without the field default to "scalar"). The baseline additionally
carries tolerances: `tolerance_default` (fractional headroom applied to
every kernel) and per-kernel overrides under `tolerances` for kernels with
inherently noisier timings (disk-bound store commits, for example).

Timings are host-relative: each document carries `calibration_ns`, the
min-of-N time of a fixed loop bench_perf ran between its kernel trials,
and a kernel is judged by its ratio to it. A host that is slower overall
(a shared VM, a lower clock) slows the loop with the kernels, so absolute
baselines recorded elsewhere still apply. A kernel FAILS when

    current.min_ns_per_rep / current.calibration_ns >
        baseline.min_ns_per_rep / baseline.calibration_ns * (1 + tolerance)

and the "limit ns" column prints that bound scaled to the current host.

Missing kernels fail too (a silently dropped kernel must not pass the
gate). Smoke-mode current runs are refused, since they make no honest
wall-time claim; a handicapped run is compared like any other, which is
how its inflated kernel demonstrates the failure path. Exit codes: 0
pass, 1 regression, 2 bad input.
"""

import json
import sys

SCHEMA = "spatl-bench-perf-v1"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != SCHEMA:
        print(f"perf_gate: {path} is not a {SCHEMA} document", file=sys.stderr)
        sys.exit(2)
    return doc


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current = load(argv[1])
    baseline = load(argv[2])

    if current.get("mode") != "full":
        print("perf_gate: current run is not a full sweep (smoke mode makes "
              "no wall-time claims)", file=sys.stderr)
        return 2
    # Timings are only comparable within one compute backend; a scalar run
    # must never be judged against the cpu-simd baseline or vice versa.
    # Pre-backend documents carry no field and default to scalar.
    cur_backend = current.get("backend", "scalar")
    base_backend = baseline.get("backend", "scalar")
    if cur_backend != base_backend:
        print(f"perf_gate: backend mismatch — current run is '{cur_backend}' "
              f"but baseline is '{base_backend}'", file=sys.stderr)
        return 2
    handicapped = [
        name for name, k in current.get("kernels", {}).items()
        if "handicap" in k
    ]
    if handicapped:
        print(f"perf_gate: current run is handicapped ({', '.join(handicapped)}) "
              "— measurements are synthetic", file=sys.stderr)
        # A handicapped run still flows through the comparison below: the
        # handicap exists precisely to demonstrate the failure path.

    calibrations = []
    for path, doc in ((argv[1], current), (argv[2], baseline)):
        cal = doc.get("calibration_ns")
        if not isinstance(cal, (int, float)) or cal <= 0:
            print(f"perf_gate: {path} has no calibration_ns (re-record it "
                  "with the current bench_perf)", file=sys.stderr)
            return 2
        calibrations.append(float(cal))
    # Baseline times rescaled to the current host.
    host_scale = calibrations[0] / calibrations[1]
    print(f"calibration: current {calibrations[0]:.0f} ns, baseline "
          f"{calibrations[1]:.0f} ns (host scale {host_scale:.3f})")

    tol_default = float(baseline.get("tolerance_default", 1.0))
    tol_overrides = baseline.get("tolerances", {})

    failures = 0
    print(f"{'kernel':<16}{'baseline ns':>14}{'current ns':>14}"
          f"{'limit ns':>14}{'tol':>7}  verdict")
    for name, base in sorted(baseline.get("kernels", {}).items()):
        base_ns = float(base["min_ns_per_rep"])
        tol = float(tol_overrides.get(name, tol_default))
        limit = base_ns * host_scale * (1.0 + tol)
        cur = current.get("kernels", {}).get(name)
        if cur is None:
            print(f"{name:<16}{base_ns:>14.0f}{'missing':>14}{limit:>14.0f}"
                  f"{tol:>7.2f}  FAIL (kernel absent from current run)")
            failures += 1
            continue
        cur_ns = float(cur["min_ns_per_rep"])
        verdict = "ok" if cur_ns <= limit else "FAIL"
        if verdict == "FAIL":
            failures += 1
        print(f"{name:<16}{base_ns:>14.0f}{cur_ns:>14.0f}{limit:>14.0f}"
              f"{tol:>7.2f}  {verdict}")

    extra = sorted(set(current.get("kernels", {})) -
                   set(baseline.get("kernels", {})))
    if extra:
        print(f"note: kernels not in baseline (unchecked): {', '.join(extra)}")

    if failures:
        print(f"perf gate FAILED: {failures} kernel(s) regressed beyond "
              "tolerance", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
