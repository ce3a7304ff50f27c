"""Span tracing around the package's public functions, from outside it.

`Tracer.install()` replaces each hooked function, at the name its callers
look it up by, with a wrapper that records a span: key, layer, start, end,
parent span and op id. A hook opens a span when its caller is in another
layer, or when the hook asks for its own span (a named sub-step such as
`mic.bandpass_fft`); otherwise the call only counts, and its time stays
with the enclosing span of the same layer. Self time is a span's duration
minus the time its child spans cover. Spans stay in memory until
`write_spans`.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "wavio", "signals", "diode", "optics", "mic", "injection",
          "authsim", "profiles", "defense")

# key -> metric of its self time
TIMED_KEYS = {
    "wavio.read": "wavio.read_s", "wavio.write": "wavio.write_s",
    "signals.synth": "signals.synth_s",
    "signals.spectrogram": "signals.spectrogram_s",
    "signals.to_csv": "signals.to_csv_s",
    "signals.ridge_fit": "signals.ridge_fit_s",
    "diode.modulate": "diode.modulate_s",
    "diode.emitted_light": "diode.emitted_light_s",
    "diode.save_drive": "diode.save_drive_s",
    "optics.attenuate": "optics.attenuate_s",
    "optics.max_range": "optics.max_range_s",
    "mic.transduce": "mic.transduce_s", "mic.bandpass": "mic.bandpass_s",
    "injection.simulate": "injection.simulate_s",
    "injection.load_scenario": "injection.load_scenario_s",
    "authsim.enumerate": "authsim.enumerate_s",
    "authsim.expected_time": "authsim.expected_time_s",
    "profiles.lookup": "profiles.lookup_s",
    "defense.detect": "defense.detect_s", "defense.ncc": "defense.ncc_s",
}
# counters, per op
COUNTS = ("cli.stdout_bytes", "wavio.read_bytes", "wavio.write_bytes",
          "signals.csv_rows", "diode.samples", "diode.imax_limited_ops",
          "optics.received_power_calls", "mic.samples", "injection.trials",
          "authsim.candidates_walked", "profiles.lookups",
          "profiles.table_loads", "defense.ncc_pair_frames",
          "defense.ncc_lag_macs")
RATIOS = ("profiles.loads_per_lookup", "defense.ncc_macs_per_s")
OVERHEAD = "trace.overhead_s"


def metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.errors", f"{layer}.self_s"]
    return names + list(TIMED_KEYS.values()) + list(COUNTS) + list(RATIOS) \
        + [OVERHEAD]


def metric_unit(name: str) -> str:
    if name == "defense.ncc_macs_per_s":
        return "1/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if name == "profiles.loads_per_lookup":
        return "ratio"
    return "count"


# --- counters on arguments and results ---------------------------------------

def _wav_read(args, kwargs, result):
    channels, _ = result
    return {"wavio.read_bytes": 44 + 2 * channels.size}


def _wav_write(args, kwargs, result):
    samples = args[0].samples if hasattr(args[0], "samples") else args[0]
    return {"wavio.write_bytes": 44 + 2 * samples.size}


def _csv_rows(args, kwargs, result):
    return {"signals.csv_rows": args[0].magnitudes.size}


def _modulate(args, kwargs, result):
    return {"diode.samples": result.currents_ma.size}


def _imax_limited(args, kwargs, result):
    profile, budget = args[0], args[1]
    emitted = profile.slope_mw_per_ma * (result.bias_ma - profile.threshold_ma)
    return {"diode.imax_limited_ops": emitted < budget * (1 - 1e-9)}


def _transduce(args, kwargs, result):
    return {"mic.samples": result.samples.size}


def _trials(args, kwargs, result):
    return {"injection.trials": len(result.trial_outcomes)}


def _walked(args, kwargs, result):
    return {"authsim.candidates_walked": result.attempts_made}


def _ncc(args, kwargs, result):
    frames, max_lag = args[0], args[1]
    n_ch, n_frames, frame_len = frames.shape
    pair_frames = n_ch * (n_ch - 1) // 2 * n_frames
    return {"defense.ncc_pair_frames": pair_frames,
            "defense.ncc_lag_macs": pair_frames * (2 * max_lag + 1) * frame_len}


def _one(name):
    return lambda args, kwargs, result: {name: 1}


@dataclass(frozen=True)
class Hook:
    target: str          # "module:attr" or "module:Class.attr"
    key: str
    own_span: bool = False
    count: Callable | None = None

    @property
    def layer(self) -> str:
        return self.key.split(".")[0]


PKG = "photoninject."
HOOKS = (
    Hook("cli:main", "cli.self"),
    Hook("wavio:load_wav", "wavio.read"),
    Hook("wavio:load_wav_channels", "wavio.read", count=_wav_read),
    Hook("defense:load_wav_channels", "wavio.read", count=_wav_read),
    Hook("wavio:save_wav", "wavio.write", count=_wav_write),
    Hook("wavio:save_wav_channels", "wavio.write", count=_wav_write),
    Hook("signals:generate_chirp", "signals.synth"),
    Hook("signals:generate_tone", "signals.synth"),
    Hook("signals:spectrogram", "signals.spectrogram"),
    Hook("signals:Spectrogram.to_csv", "signals.to_csv", count=_csv_rows),
    Hook("signals:ridge_line_fit", "signals.ridge_fit"),
    Hook("diode:optimize_operating_point", "diode.optimize",
         count=_imax_limited),
    Hook("diode:modulate", "diode.modulate", count=_modulate),
    Hook("diode:emitted_light", "diode.emitted_light"),
    Hook("diode:save_drive_csv", "diode.save_drive"),
    Hook("diode:save_drive_wav", "diode.save_drive"),
    Hook("optics:attenuate", "optics.attenuate"),
    Hook("optics:max_range", "optics.max_range"),
    Hook("optics:received_power", "optics.link",
         count=_one("optics.received_power_calls")),
    Hook("optics:spot_diameter", "optics.link"),
    Hook("mic:transduce", "mic.transduce", count=_transduce),
    Hook("mic:bandpass_fft", "mic.bandpass", own_span=True),
    Hook("injection:simulate_attack", "injection.simulate", count=_trials),
    Hook("injection:load_scenario", "injection.load_scenario"),
    Hook("authsim:enumerate_pins", "authsim.enumerate", count=_walked),
    Hook("authsim:candidate_order", "authsim.enumerate"),
    Hook("authsim:expected_time", "authsim.expected_time"),
    Hook("devices:lookup_device", "profiles.lookup",
         count=_one("profiles.lookups")),
    Hook("injection:lookup_device", "profiles.lookup",
         count=_one("profiles.lookups")),
    Hook("profiles:get_diode", "profiles.lookup",
         count=_one("profiles.lookups")),
    Hook("profiles:get_mic", "profiles.lookup",
         count=_one("profiles.lookups")),
    Hook("profiles:load_diodes", "profiles.load",
         count=_one("profiles.table_loads")),
    Hook("profiles:load_mics", "profiles.load",
         count=_one("profiles.table_loads")),
    Hook("profiles:device_rows", "profiles.load",
         count=_one("profiles.table_loads")),
    Hook("defense:detect_injection", "defense.detect"),
    Hook("defense:channel_similarity", "defense.detect"),
    Hook("defense:pairwise_max_ncc", "defense.ncc", own_span=True, count=_ncc),
    Hook("defense:ChannelSet.from_wav", "defense.channels"),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []       # [key, start, end, parent index, op id]
        self.layer_of = []    # layer of each span
        self.stack = []       # indices of open spans
        self.counts = defaultdict(float)
        self.op = -1
        self.paused = False
        self._saved = []

    # --- recording ---

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self._open("op." + kind, "op")

    def end_op(self) -> None:
        self._close(self.stack[-1])

    def _open(self, key, layer) -> int:
        idx = len(self.spans)
        self.spans.append([key, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.op])
        self.layer_of.append(layer)
        self.stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, hook: Hook, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        layer = hook.layer
        self.counts[layer + ".calls"] += 1
        idx = -1
        if hook.own_span or not self.stack or \
                self.layer_of[self.stack[-1]] != layer:
            idx = self._open(hook.key, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[layer + ".errors"] += 1
            raise
        finally:
            if idx >= 0:
                self._close(idx)
        if hook.count is not None:
            for name, value in hook.count(args, kwargs, result).items():
                self.counts[name] += value
        return result

    # --- installing ---

    def install(self) -> None:
        for hook in HOOKS:
            module_name, attr = hook.target.split(":")
            owner = importlib.import_module(PKG + module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(hook, original.__func__))
            else:
                wrapped = self._wrap(hook, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, hook, fn):
        def traced(*args, **kwargs):
            return self.call(hook, fn, args, kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # --- reporting ---

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def metrics(self, n_ops: int, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric: counts and self times per op, plus ratios."""
        out = dict.fromkeys(metric_names(), 0.0)
        by_key = defaultdict(float)
        for (key, *_), self_s in zip(self.spans, self.self_times()):
            by_key[key] += self_s
        for key, total in by_key.items():
            layer = key.split(".")[0]
            if layer in LAYERS:
                out[layer + ".self_s"] += total
            if key in TIMED_KEYS:
                out[TIMED_KEYS[key]] += total
        for name, value in self.counts.items():
            out[name] += value
        ncc_s = out["defense.ncc_s"]
        lookups = out["profiles.lookups"]
        for name in out:
            out[name] /= n_ops
        out["profiles.loads_per_lookup"] = (
            self.counts["profiles.table_loads"] / lookups if lookups else 0.0)
        out["defense.ncc_macs_per_s"] = (
            self.counts["defense.ncc_lag_macs"] / ncc_s if ncc_s else 0.0)
        out[OVERHEAD] = overhead_s
        return out

    def self_by_kind(self) -> dict[str, dict[str, float]]:
        """Op kind -> span key -> self seconds per op of that kind."""
        kind_of, n_of = {}, defaultdict(int)
        for key, _, _, parent, op in self.spans:
            if parent < 0:
                kind_of[op] = key[3:]
                n_of[key[3:]] += 1
        table = defaultdict(lambda: defaultdict(float))
        for (key, _, _, _, op), self_s in zip(self.spans, self.self_times()):
            kind = kind_of[op]
            table[kind]["(bench)" if key.startswith("op.") else key] += \
                self_s / n_of[kind]
        return table

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,op,key,start_s,end_s\n")
            fh.writelines(f"{i},{parent},{op},{key},{start:.9f},{end:.9f}\n"
                          for i, (key, start, end, parent, op)
                          in enumerate(self.spans))
