"""Run one workload's ops in a closed loop, one client, in this process.

Reads the op list that run.py generated and repeats it in whole passes:
pass 0 warms up and checks every op against its oracle, recording a
SHA-256 of its outputs (exit code, stdout, output files); the timed
passes that follow must reproduce those bytes. An op fails if it raises,
returns an unexpected exit code, fails its oracle, or drifts from pass 0.
Timing stops at the first pass boundary after --seconds.

With --trace 1, one untimed and one untraced pass run first, then spans
are recorded around the package's layers (see tracing.py) and the traced
passes give the per-layer metrics; the mean op time difference between
the traced and the untraced pass is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from photoninject import (authsim, cli, defense, devices, diode,  # noqa: E402
                          injection, mic, optics, profiles, wavio)

import tracing  # noqa: E402
import workloads  # noqa: E402


class Runner:
    """Executes, checks and digests ops; holds the optional tracer."""

    tracer: tracing.Tracer | None = None

    # --- execution (timed) ---

    def execute(self, op):
        kind = op["kind"]
        if "argv" in op:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
            text = out.getvalue()
            if self.tracer is not None and not self.tracer.paused:
                self.tracer.counts["cli.stdout_bytes"] += len(text.encode())
            return rc, text
        return getattr(self, "op_" + kind)(op)

    def op_inject(self, op):
        audio = wavio.load_wav(op["in"])
        profile = profiles.get_diode(op["diode"])
        mic_profile = profiles.get_mic(op["mic"])
        point = diode.optimize_operating_point(profile, op["budget_mw"])
        drive = diode.modulate(profile, point, audio)
        light = diode.emitted_light(profile, drive)
        path = optics.OpticalPath.default(op["distance_m"], profile.wavelength_nm)
        at_port = optics.attenuate(light, path, optics.Aperture(op["port_m"]),
                                   op["distance_m"])
        heard = mic.transduce(mic_profile, at_port, rng_seed=op["seed"])
        wavio.save_wav(heard, op["out"])
        return 0, ""

    def op_plan(self, op):
        device = devices.lookup_device(op["device"])
        profile = profiles.get_diode(op["diode"])
        scenario = injection.AttackScenario(
            device=device, diode=profile,
            path=optics.OpticalPath.default(op["distance_m"],
                                            profile.wavelength_nm),
            aperture=optics.Aperture(device.port_diameter_m),
            budget_mw=op["budget_mw"], distance_m=op["distance_m"],
            wake_word_matched=op["wake_word_matched"], rng_seed=op["seed"])
        return scenario, injection.simulate_attack(scenario, op["trials"])

    def op_range(self, op):
        device = devices.lookup_device(op["device"])
        profile = profiles.get_diode(op["diode"])
        point = diode.optimize_operating_point(profile, op["budget_mw"])
        emitted = diode.average_power(profile, point)
        path = optics.OpticalPath.default(1.0, profile.wavelength_nm)
        aperture = optics.Aperture(device.port_diameter_m)
        reach = optics.max_range(path, aperture, emitted, device.min_power_mw)
        return path, aperture, emitted, device.min_power_mw, reach

    def op_scenario(self, op):
        return injection.load_scenario(op["path"])

    def op_pin(self, op):
        kind, *params = op["policy"].split(":")
        if kind == "max-attempts":
            policy = authsim.LockPolicy.max_attempts(int(params[0]))
        elif kind == "delay-after":
            policy = authsim.LockPolicy.delay_after(int(params[0]),
                                                    float(params[1]))
        else:
            policy = authsim.LockPolicy.unlimited()
        et = authsim.expected_time(policy, op["digits"], op["per_attempt_s"])
        result = authsim.enumerate_pins(policy, op["digits"],
                                        op["per_attempt_s"], op["secret"],
                                        op["order"], op["seed"])
        return et, result

    # --- oracles (untimed) ---

    def check(self, op, result) -> str | None:
        """None when the op's output is right, else what is wrong."""
        return CHECKS[op["kind"].split("-")[0]](op, result)

    def outputs(self, op, result) -> bytes:
        """Bytes two runs of the op must agree on."""
        kind = op["kind"]
        if "argv" in op or kind == "inject":
            rc, text = result
            parts = [str(rc).encode(), text.encode()]
            for path in ([op["out"]] if "out" in op else []) + \
                    sorted(op.get("files", ())):
                with open(path, "rb") as fh:
                    parts.append(fh.read())
            return b"\0".join(parts)
        if kind == "plan":
            return repr(result[1].csv_rows()).encode()
        if kind == "range":
            return repr(result[4]).encode()
        return repr(result).encode()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_modulate(op, result):
    """Stdout and output files equal the bytes workloads.py built."""
    rc, text = result
    if rc != 0 or text != op["stdout"]:
        return f"exit {rc}, stdout {text!r}"
    for path, digest in op["files"].items():
        if file_digest(path) != digest:
            return f"{path} differs from the reference bytes"
    return None


def check_chirp(op, result):
    rc, text = result
    if rc != 0 or "chirp recovered" not in text:
        return f"exit {rc}, stdout {text!r}"
    with open(op["out"], "rb") as fh:
        blob = fh.read()
    lines = blob.count(b"\n")
    if not blob.startswith(b"time_s,freq_hz,magnitude\r\n") or \
            lines != op["csv_lines"]:
        return f"{op['out']}: bad header or {lines} lines"
    return None


def check_inject(op, result):
    """Waveform chain against the scalar link budget.

    Below saturation the output is the command scaled by the predicted
    gain (responsivity x budget x link factor) plus noise; above it the
    clip compresses the gain.
    """
    channels, rate = workloads.read_wav(op["out"])
    if channels.shape != (1, op["n"]) or rate != op["sample_rate"]:
        return f"output shape {channels.shape} at {rate} Hz"
    audio, _ = workloads.read_wav(op["in"])
    s = audio[0] - audio[0].mean()
    out = channels[0]
    gain = float(out @ s / (s @ s))
    if op["saturated"]:
        corr = float(out @ s / np.sqrt((out @ out) * (s @ s)))
        if not (gain < 0.99 * op["gain"] and corr > 0.5):
            return f"saturated: gain {gain:.4g} vs {op['gain']:.4g}, corr {corr:.3f}"
    elif abs(gain / op["gain"] - 1) > 0.03:
        return f"gain {gain:.4g}, predicted {op['gain']:.4g}"
    return None


def check_detect(op, result):
    rc, text = result
    lines = text.splitlines()
    status = lines[0].removeprefix("verdict: ") if lines else ""
    notes = next((ln[len("notes: "):] for ln in lines
                  if ln.startswith("notes: ")), "")
    rows = [ln.split() for ln in lines if ln[:1].isdigit()]
    implicated = [int(r[0]) for r in rows if r[-1] == "yes"]
    expected_rc = 0 if op["status"] == "clean" else 1
    if (rc, status, implicated) != (expected_rc, op["status"], op["implicated"]):
        return (f"exit {rc}, verdict {status}, implicated {implicated}; "
                f"label {op['label']}")
    if len(rows) != op["channels"]:
        return f"{len(rows)} channel rows"
    if (op["label"] == "wide_beam") != (notes == defense.BLIND_SPOT_NOTE) \
            and op["label"] != "acoustic":
        return f"notes {notes!r} for label {op['label']}"
    return None


def check_plan(op, result):
    scenario, report = result
    p = report.success_probability
    problems = [
        len(report.trial_outcomes) != op["trials"],
        not 0.0 <= p <= 1.0,
        report.feasible != (p >= 0.5),
        not 0.0 <= report.received_mw <= op["budget_mw"] * (1 + 1e-9),
        scenario.device.name != op["device"],
        scenario.device.requires_auth and not op["wake_word_matched"] and p != 0,
    ]
    return f"report {report}" if any(problems) else None


def check_range(op, result):
    path, aperture, emitted, required, reach = result

    def received(d):
        return optics.received_power(path.focused_at(d), aperture, d, emitted)

    if reach == 0.0:
        ok = received(optics.RANGE_FLOOR_M) < required
    elif reach >= optics.MAX_RANGE_CAP_M:
        ok = received(optics.MAX_RANGE_CAP_M) >= required
    else:
        ok = received(reach) >= required > received(reach + 0.01)
    return None if ok else f"max_range {reach} does not bracket {required} mW"


def check_scenario(op, result):
    scenario, trials = result
    got = (scenario.device.name, scenario.diode.name, scenario.budget_mw,
           scenario.distance_m, trials, scenario.rng_seed,
           scenario.aperture.offset_m)
    want = (op["device"], op["diode"], op["budget_mw"], op["distance_m"],
            op["trials"], op["seed"], op["offset_m"])
    return None if got == want else f"loaded {got}, wrote {want}"


def check_pin(op, result):
    et, res = result
    if (res.attempts_made, res.outcome) != (op["attempts"], op["outcome"]):
        return (f"{res.outcome} after {res.attempts_made}; expected "
                f"{op['outcome']} after {op['attempts']}")
    if not (0 < et.mean_s <= et.worst_s and 0 < et.success_prob <= 1
            and res.elapsed_s >= res.attempts_made * op["per_attempt_s"]):
        return f"expected_time {et}, elapsed {res.elapsed_s}"
    return None


CHECKS = {"chirp": check_chirp, "modulate": check_modulate,
          "inject": check_inject, "detect": check_detect, "plan": check_plan,
          "range": check_range, "scenario": check_scenario, "pin": check_pin}


# --- the loop ----------------------------------------------------------------

def attempt(runner, op):
    """(result, error text) of one execution."""
    try:
        return runner.execute(op), None
    except Exception as exc:  # a failing op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(runner, ops, refs, stats, op_id=0):
    """One timed pass; appends (kind, latency, ok, why) per op to stats."""
    tracer = runner.tracer
    check_s = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op_id + i, op["kind"])
        t0 = time.perf_counter()
        result, error = attempt(runner, op)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
            tracer.paused = True
        t1 = time.perf_counter()
        ok = error is None and refs[i][1] is None and \
            hashlib.sha256(runner.outputs(op, result)).hexdigest() == refs[i][0]
        check_s += time.perf_counter() - t1
        if tracer is not None:
            tracer.paused = False
        stats.append((op["kind"], latency, ok,
                      error or refs[i][1] or ("" if ok else "output drifted")))
    return check_s


def reference_pass(runner, ops):
    """Pass 0: run and check every op; (output digest, problem) per op."""
    refs, digest = [], hashlib.sha256()
    for op in ops:
        result, error = attempt(runner, op)
        if error is not None:
            refs.append((None, error))
            continue
        out = runner.outputs(op, result)
        problem = runner.check(op, result)
        refs.append((hashlib.sha256(out).hexdigest(), problem))
        digest.update(op["kind"].encode() + b"\0" + out)
    return refs, digest.hexdigest()


BLOCK_OPS = 100  # a block holds >= 100 ops, so >= 10 lie beyond its p90


def block_metrics(stats, pass_busy, ops_per_pass):
    """Throughput and latency percentiles per block of whole passes.

    Each metric is the median over blocks, so a burst of load from
    outside the process moves one block rather than the run's figure.
    """
    per_block = -(-BLOCK_OPS // ops_per_pass)
    n_blocks = max(1, len(pass_busy) // per_block)
    blocks = []
    for b in range(n_blocks):
        lo, hi = b * per_block, len(pass_busy) if b == n_blocks - 1 \
            else (b + 1) * per_block
        latencies = [s[1] for s in stats[lo * ops_per_pass:hi * ops_per_pass]]
        blocks.append((len(latencies) / sum(pass_busy[lo:hi]),
                       1e3 * statistics.median(latencies),
                       1e3 * float(np.percentile(latencies, 90))))
    return n_blocks, [statistics.median(col) for col in zip(*blocks)]


def run(ops, seconds, trace, spans_path=None, runner=None):
    """Reference pass, then timed passes; the result dict run.py reports."""
    runner = runner or Runner()
    refs, digest = reference_pass(runner, ops)
    if trace:
        base = []
        run_pass(runner, ops, refs, base)
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
    stats, pass_busy = [], []
    min_passes = -(-BLOCK_OPS // len(ops))
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            check_s = run_pass(runner, ops, refs, stats, len(stats))
            pass_busy.append(time.perf_counter() - t0 - check_s)
            if time.perf_counter() - start >= seconds and \
                    len(pass_busy) >= min_passes:
                break
    finally:
        if runner.tracer is not None:
            runner.tracer.uninstall()
    n = len(stats)
    n_blocks, (throughput, p50, p90) = block_metrics(stats, pass_busy, len(ops))
    by_kind = defaultdict(list)
    for kind, latency, _, _ in stats:
        by_kind[kind].append(latency)
    failures = [f"{kind}: {why}" for kind, _, ok, why in stats if not ok]
    result = {
        "attempted": n, "failed": len(failures), "failures": failures[:5],
        "digest": digest, "passes": len(pass_busy), "blocks": n_blocks,
        "throughput_ops_s": throughput,
        "audio_s_per_s": throughput * statistics.fmean(
            op.get("audio_s", 0.0) for op in ops),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "error_rate": len(failures) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kinds": {k: [len(v), 1e3 * min(v), 1e3 * statistics.median(v),
                      1e3 * max(v)] for k, v in sorted(by_kind.items())},
    }
    if trace:
        overhead = statistics.fmean(s[1] for s in stats) - statistics.fmean(
            s[1] for s in base)
        result["per_layer"] = runner.tracer.metrics(n, overhead)
        result["by_kind"] = runner.tracer.self_by_kind()
        if spans_path:
            runner.tracer.write_spans(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    with open(args.manifest) as fh:
        ops = json.load(fh)
    result = run(ops, args.seconds, args.trace, args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
