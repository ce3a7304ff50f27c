"""Self-test of the benchmark: python3 -m pytest perfbench

A short run of each workload must emit every metric BENCHMARK.json
declares, with its unit, and a corrupted op output must be counted as a
failed op.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
import workloads  # noqa: E402


def declared(group):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_emits_every_metric(workload, trace, group):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = declared(group)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    table = {ln.split()[0]: ln.split()[2] for ln in lines[:-1]
             if ln.split() and ln.split()[0] in want}
    assert table == want  # printed by name with unit (and sample count)
    if not trace:
        assert any(ln.startswith("error_rate ") for ln in lines)
        assert any(ln.startswith("audio_s_per_s ") for ln in lines) == \
            (workload != "sweep")


def test_missing_package_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


class Corrupting(worker.Runner):
    """Tampers with one op's output on the n-th execution of that op."""

    def __init__(self, kind, tamper, on_call):
        self.kind, self.tamper, self.on_call, self.calls = kind, tamper, on_call, 0

    def execute(self, op):
        result = super().execute(op)
        if op["kind"] == self.kind:
            self.calls += 1
            if self.calls == self.on_call:
                return self.tamper(op, result)
        return result


def flip_verdict(op, result):
    rc, text = result
    return rc, text.replace("injection_suspected", "clean")


def change_csv_byte(op, result):
    path = next(p for p in op["files"] if p.endswith(".csv"))
    with open(path, "r+b") as fh:
        fh.seek(40)
        byte = fh.read(1)
        fh.seek(40)
        fh.write(b"7" if byte != b"7" else b"8")
    return result


def expected_failures(result, on_call):
    """A wrong pass-0 output fails its oracle, so the op fails in every
    timed pass; a later wrong output drifts from pass 0 once."""
    return result["passes"] if on_call == 1 else 1


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return "."


@pytest.mark.parametrize("on_call", [1, 2], ids=["oracle", "drift"])
def test_flipped_verdict_is_a_failed_op(work, on_call):
    small = [op for op in workloads.gen_detect(np.random.default_rng(3), work)
             if op["channels"] == 2]
    ops = list({op["label"]: op for op in small}.values())  # one per label
    assert {op["label"] for op in ops} == set(workloads.LABELS)
    assert worker.run(ops, 0.0, 0)["failed"] == 0
    result = worker.run(ops, 0.0, 0, runner=Corrupting(
        "detect-injected", flip_verdict, on_call))
    assert result["failed"] == expected_failures(result, on_call) >= 1
    assert result["error_rate"] == result["failed"] / result["attempted"]


@pytest.mark.parametrize("on_call", [1, 2], ids=["oracle", "drift"])
def test_changed_csv_byte_is_a_failed_op(work, on_call):
    ops = [op for op in workloads.gen_chain(np.random.default_rng(3), work)
           if op["kind"] == "modulate-csv"][:1]
    assert worker.run(ops, 0.0, 0)["failed"] == 0
    result = worker.run(ops, 0.0, 0, runner=Corrupting(
        "modulate-csv", change_csv_byte, on_call))
    assert result["failed"] == expected_failures(result, on_call) >= 1
