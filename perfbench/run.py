#!/usr/bin/env python3
"""photoninject benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Workloads (see workloads.PROPERTIES for what each varies and why):

  chain   chirp-test and modulate through cli.main, plus an inject chain
          built from public functions: signals, diode, optics, mic and
          WAV writes do the work
  detect  detect through cli.main on 2/4/8-channel recordings labelled
          injected, acoustic, wide_beam or quiet: the NCC kernel and
          multichannel WAV reads do the work
  sweep   planners called directly: lookup_device + get_diode +
          simulate_attack, max_range, load_scenario, expected_time +
          enumerate_pins; profile loading and the PIN walk do the work

The seed generates the inputs under .perfbench_work/ before timing. The
workload runs in a fresh worker process (so its peak RSS is its own) with
BLAS/OpenMP threads capped at one. With --trace 0 the last line carries
the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of a traced run, whose spans are written to .perfbench_work/. Earlier
lines give a table with sample counts, the environment and a SHA-256
over every op's exit code, stdout and output files, which two commits
run on the same seed should share.

End-to-end metrics:
  setup_s           median wall time of `python -m photoninject.cli
                    profiles` in a fresh interpreter (import, parser,
                    first profile load), over SETUP_RUNS processes
  throughput_ops_s  ops completed per second of the timed loop
  latency_p50_ms,   per-op latency percentiles over all timed ops
  latency_p90_ms
  peak_rss_mb       peak RSS of the worker process
Printed only: audio_s_per_s (channel-seconds of audio per second, chain
and detect) and error_rate (failed / attempted, also in the last line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread caps)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11
WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "throughput_ops_s": "1/s",
              "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "peak_rss_mb": "MB"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure_setup(env, runs) -> list[float]:
    """Wall seconds of fresh `photoninject profiles` processes."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "photoninject.cli", "profiles"],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or "Google Home Mini" not in proc.stdout:
            raise RuntimeError(f"profiles failed: exit {proc.returncode}, "
                               f"{proc.stderr.strip()}")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="photoninject benchmark (see module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "photoninject", "__init__.py")):
        print(f"error: no package at {src}/photoninject; run from the root "
              "of a photoninject checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")

    import photoninject

    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops = workloads.GENERATORS[args.workload](
        np.random.default_rng(args.seed), work)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump(ops, fh)

    # half the set-up runs before the workload and half after, so one
    # stretch of outside load does not set the median
    setup = [] if args.trace else measure_setup(env, SETUP_RUNS // 2)

    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.csv")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--manifest",
         manifest, "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--result", result_path] + (["--spans", spans_path] if args.trace else []),
        env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(result_path) as fh:
        res = json.load(fh)
    if not args.trace:
        setup += measure_setup(env, SETUP_RUNS - len(setup))
    shutil.rmtree(work, ignore_errors=True)

    n = res["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client  {len(ops)} ops/pass  {res['passes']} passes")
    for prop, why in workloads.PROPERTIES[args.workload].items():
        print(f"  varies {prop}: {why}")
    for kind, (count, lo, median, hi) in res["kinds"].items():
        print(f"  op {kind:<22} n={count:<6} latency min {lo:.3f}  "
              f"median {median:.3f}  max {hi:.3f} ms")
    print(json.dumps({"env": {
        "python": platform.python_version(), "numpy": np.__version__,
        "kernel_backend": photoninject.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "blas_threads": os.environ["OMP_NUM_THREADS"]}}))
    print(f"sha256 {args.workload} seed {args.seed}: {res['digest']}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")

    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.metric_unit(name)}
                   for name, value in res["per_layer"].items()}
        print(f"{'per-layer metric (per op unless a ratio)':<34} "
              f"{'value':>14}  unit   n")
        for name, m in metrics.items():
            print(f"{name:<34} {m['value']:>14.6g}  {m['unit']:<6} {n}")
        print("self time per op, top keys by op kind:")
        for kind, keys in sorted(res["by_kind"].items()):
            top = sorted(keys.items(), key=lambda kv: -kv[1])[:4]
            print(f"  {kind:<22} " + "  ".join(
                f"{k} {1e3 * v:.3f} ms" for k, v in top))
        print(f"spans written to {spans_path}")
    else:
        res["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        samples = dict.fromkeys(END_TO_END, f"{n} ops, median of "
                                f"{res['blocks']} blocks") | {
            "setup_s": f"{len(setup)} processes", "peak_rss_mb": "1 process"}
        print(f"{'metric':<18} {'value':>12}  unit   n")
        for name, m in metrics.items():
            print(f"{name:<18} {m['value']:>12.6g}  {m['unit']:<6} {samples[name]}")
        if args.workload != "sweep":
            print(f"{'audio_s_per_s':<18} {res['audio_s_per_s']:>12.6g}  "
                  f"{'s/s':<6} {n}")
        print(f"{'error_rate':<18} {res['error_rate']:>12.6g}  "
              f"{'ratio':<6} {n}")

    print(json.dumps({"correct": res["failed"] == 0, "attempted": n,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
