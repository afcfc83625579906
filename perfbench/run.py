#!/usr/bin/env python3
"""Builds and runs the pkifmm wall-clock benchmark (perfbench/fmm_bench.cpp).

One run of one workload:

    python3 perfbench/run.py --workload vlist-ellipsoid --seed 1 \
        --seconds 25 --trace 0

builds the benchmark from the sources of this checkout (CMake, Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs
it, and passes its output through: the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones and writes the
spans to .perfbench_out/. The metric names are checked against
BENCHMARK.json.

Steadiness mode runs a workload k times and prints each metric's median
and quartiles; with the same seed on every run it also checks that the
exact counts (flops, messages, bytes, leaves) repeat exactly:

    python3 perfbench/run.py --workload ulist-uniform --steady 5
    python3 perfbench/run.py --workload ulist-uniform --steady 5 --vary-seed
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench_out"

_child = None     # the running build step or benchmark binary
_stopped_by = 0   # signal that asked us to stop


def _on_signal(signum, _frame):
    """Stops the running child and its descendants (compilers included);
    the wait in progress then returns and the caller exits."""
    global _stopped_by
    _stopped_by = signum
    if _child is not None and _child.returncode is None:
        try:
            os.killpg(_child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass


def spawn(cmd, **kwargs):
    """Starts cmd in its own process group, so a signal stops all of it."""
    global _child
    _child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    return _child


def exit_if_stopped():
    if _stopped_by:
        sys.exit(128 + _stopped_by)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def call(cmd):
    """Runs a build step with its output on stderr; True on success."""
    ok = spawn(cmd, stdout=sys.stderr, stderr=sys.stderr).wait() == 0
    exit_if_stopped()
    return ok


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"pkifmm sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        cache.unlink()  # configured for another checkout
    if not cache.is_file():
        if not call(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]):
            fail("cmake configure failed")
    if not call(["cmake", "--build", str(build_dir), "--target", "perfbench_fmm",
                 "-j", str(min(4, os.cpu_count() or 1))]):
        fail("build failed")
    return build_dir / "perfbench_fmm"


def code_identity():
    """git sha (when this is a git checkout) and a digest of the sources."""
    sha = os.environ.get("PKIFMM_GIT_SHA", "")
    if not sha:
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


def run_once(binary, args, seed, identity, echo):
    """Runs the benchmark binary once; returns (result, counts, exit code)."""
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out-dir={OUT_DIR}", f"--git-sha={identity[0]}",
           f"--src-digest={identity[1]}"]
    child = spawn(cmd, stdout=subprocess.PIPE, text=True)
    out, _ = child.communicate()
    exit_if_stopped()
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    result = counts = None
    for line in lines:
        if line.startswith("perfbench-counts "):
            counts = json.loads(line[len("perfbench-counts "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return result, counts, child.returncode


def check_names(result, trace):
    """The metrics a run prints must be exactly those BENCHMARK.json lists."""
    spec_path = ROOT / "BENCHMARK.json"
    if result is None or not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result.get("metrics", {}))
    if want != got:
        fail(f"metric names differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}", 1)


def steady(binary, args, identity):
    results, counts = [], []
    for i in range(args.steady):
        seed = args.seed + i if args.vary_seed else args.seed
        result, cnt, code = run_once(binary, args, seed, identity, echo=False)
        if code != 0 or result is None or not result.get("correct"):
            fail(f"run {i + 1} (seed {seed}) failed with exit code {code}", 1)
        check_names(result, args.trace)
        results.append(result)
        counts.append(cnt)
        print(f"run {i + 1}/{args.steady} seed {seed}: " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>11}  unit")
    for name, m in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        print(f"{name:<24} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>11.4f}  {m['unit']}")

    if args.vary_seed:
        print("\nseeds vary: exact counts not compared")
        return
    # Same inputs, so every exact count must repeat: the set-ups fully,
    # the iterations over the prefix every run reached.
    ref = counts[0]
    for i, c in enumerate(counts[1:], start=2):
        n = min(len(ref["iters"]), len(c["iters"]))
        if c["setups"] != ref["setups"] or c["iters"][:n] != ref["iters"][:n]:
            fail(f"exact counts of run {i} differ from run 1 "
                 f"({', '.join(ref['names'])})", 1)
    print(f"\nexact counts ({', '.join(ref['names'])}) repeat across all "
          f"{args.steady} runs")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K",
                    help="run K times and report median and quartiles")
    ap.add_argument("--vary-seed", action="store_true",
                    help="with --steady: use seeds seed, seed+1, ...")
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    binary = build()
    identity = code_identity()
    if args.steady > 0:
        steady(binary, args, identity)
        return 0
    result, _, code = run_once(binary, args, args.seed, identity, echo=True)
    if code == 0:
        check_names(result, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
