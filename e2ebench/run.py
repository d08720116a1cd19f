#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --smoke

The first form builds e2ebench/ (and the library sources it compiles) into
the build directory, then runs one workload; the benchmark binary prints a
readable report and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. The exit code is the binary's: non-zero
when a correctness gate failed.

--smoke runs every workload of BENCHMARK.json for one round, traced and
untraced, and checks that each prints exactly the metric names and units
BENCHMARK.json declares.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build; both
are inside the checkout. Build output goes to stderr.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env or ROOT / ".bench_build").resolve()


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    out = build_dir() / "e2ebench"
    out.mkdir(parents=True, exist_ok=True)
    binary = out / "spatl_e2ebench"
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True)
            except OSError as exc:
                fail(f"cannot run {cmd[0]}: {exc}")
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                # A failed configure must not leave a cache behind that
                # makes the next attempt skip configuration.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"building the benchmark failed: {' '.join(cmd)}")
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def source_id():
    """The git commit when available, else a digest of the sources."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()[:12]
    digest = hashlib.sha1()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:12]


def run(binary, args, scratch_name):
    """Run the binary once; return (exit code, stdout)."""
    scratch = build_dir() / scratch_name
    cmd = [str(binary), *args, "--scratch", str(scratch),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, proc.stdout


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} trace={trace}"
            code, out = run(binary, ["--workload", workload["name"],
                                     "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--smoke"],
                            f"smoke-{os.getpid()}")
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: last line is not JSON")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: keys {sorted(result)}")
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{label}: exit {code}, correct="
                                f"{result.get('correct')}")
            got = {name: m.get("unit")
                   for name, m in result.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, extra {extra}, "
                                f"unit mismatch {units}")
            print(f"smoke {label}: {len(got)} metrics, "
                  f"attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload; check metric names")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if args.smoke:
        return smoke(binary)
    code, out = run(binary, ["--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", repr(args.seconds),
                             "--trace", str(args.trace)],
                    f"scratch-{os.getpid()}")
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
