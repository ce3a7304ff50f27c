"""Workload definitions and seeded input generation.

Each generator takes a numpy Generator and a work directory, writes the
input files the ops read, and returns one pass of ops: a list of
JSON-serialisable dicts. An op names its kind, its arguments, and the
reference values its oracle checks against. References are computed here,
before any timing starts, mostly by formulas written out in this file
rather than by calling the code under test.

Inputs are stratified: the seed picks values inside fixed strata (counts
per op kind, duration and rate grids, saturation sides), so every seed
gives the same mix of work and the same latency bands. This keeps the
percentiles from moving between seeds while the content still changes.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

import numpy as np

# Input properties each workload varies, and why. Printed with every run.
PROPERTIES = {
    "chain": {
        "op kind": "chirp-test (CLI, CSV-heavy), modulate to .csv and .wav "
                   "(CLI), inject (library chain); the only workload where "
                   "signals, diode, mic and WAV writes do the work",
        "duration": "0.5-3 s for modulate and inject, 11.5-12.8k samples "
                    "(~20k CSV rows) for chirp-test; serialisation and FFT "
                    "cost grow with it",
        "sample rate": "8-48 kHz, and for inject and chirp-test at or above "
                       "twice the "
                       "band edge of the mems (20 kHz) or electret (10 kHz) "
                       "mic; sets samples per second of audio",
        "sample-count smoothness": "a third of inject inputs have a prime "
                                   "length, a third a 5-smooth one, a third "
                                   "a round count + 1; FFT cost differs "
                                   "several-fold between them",
        "budget vs saturation": "half of inject ops drive the mic at "
                                "0.15-0.45 of saturation, half at 2-4x, so "
                                "both sides of the clip are exercised",
        "I_max limit": "some modulate budgets exceed the diode's swing "
                       "headroom, so the optimiser's I_max branch runs",
    },
    "detect": {
        "channels": "2, 4 or 8 ports; the pairwise NCC kernel and its "
                    "memory grow with the square of the channel count",
        "duration": "0.5, 1 or 2 s; frame count grows linearly with it",
        "sample rate": "16 or 48 kHz, giving a +/-16 or +/-48 sample lag "
                       "window and three times the frames at 48 kHz",
        "label": "injected, acoustic, wide_beam, quiet: every verdict "
                 "branch of the detector, including the blind-spot note",
    },
    "sweep": {
        "op kind": "plan (lookup_device + get_diode + simulate_attack), "
                   "max_range, load_scenario, pin (expected_time + "
                   "enumerate_pins); library calls, no argparse",
        "device and diode": "all 18 devices x 3 diodes, so every profile "
                            "row is looked up",
        "budget and distance": "log-uniform 1-100 mW and 0.5-60 m, both "
                               "sides of feasibility",
        "trials": "1-1000, log-uniform; sets the Bernoulli draw size",
        "digits": "4, 5 or 6; the candidate list has 10^digits entries",
        "policy": "unlimited, max_attempts (lockout) and delay_after",
        "order": "ascending and seeded_shuffle; shuffling builds a "
                 "permutation of the whole space",
    },
}

# --- files -------------------------------------------------------------------

def wav_bytes(frames_i16: np.ndarray, sample_rate: int) -> bytes:
    """16-bit PCM RIFF file with a fmt chunk then a data chunk.

    frames_i16 is (n_frames, n_channels). This is the layout the package
    writes, so expected output files can be built here byte for byte.
    """
    n_channels = frames_i16.shape[1]
    payload = frames_i16.astype("<i2").tobytes()
    block_align = 2 * n_channels
    fmt = struct.pack("<HHIIHH", 1, n_channels, sample_rate,
                      sample_rate * block_align, block_align, 16)
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload))
            + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)


def read_wav(path) -> tuple[np.ndarray, int]:
    """(channels[n_ch, n] as float in [-1, 1], sample_rate) of a file above."""
    with open(path, "rb") as fh:
        blob = fh.read()
    n_channels, rate = struct.unpack_from("<HI", blob, 22)
    (size,) = struct.unpack_from("<I", blob, 40)
    raw = np.frombuffer(blob, dtype="<i2", count=size // 2, offset=44)
    return raw.reshape(-1, n_channels).T / 32768.0, rate


def quantize(x: np.ndarray) -> np.ndarray:
    """Float [-1, 1] to int16, round half away from zero, clamped."""
    q = np.copysign(np.floor(np.abs(x * 32768.0) + 0.5), x * 32768.0)
    return np.clip(q, -32768, 32767).astype(np.int16)


def write(path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- signals -----------------------------------------------------------------

def command(rng, n: int, sample_rate: int, amplitude: float) -> np.ndarray:
    """Speech-like burst: five Hann-enveloped harmonics of a random f0."""
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(120, 300)
    x = np.zeros(n)
    for k in range(1, 6):
        x += rng.uniform(0.3, 1.0) * np.sin(
            2 * np.pi * f0 * k * t + rng.uniform(0, 2 * np.pi))
    x *= 0.5 - 0.5 * np.cos(2 * np.pi * t / t[-1])
    return amplitude * x / np.max(np.abs(x))


def is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def awkward_length(target: int, kind: str) -> int:
    """A sample count at or near `target`: prime, 5-smooth, or target + 1."""
    if kind == "prime":
        n = target | 1
        while not is_prime(n):
            n += 2
        return n
    if kind == "smooth":
        smooth = [2 ** a * 3 ** b * 5 ** c
                  for a in range(19) for b in range(12) for c in range(8)]
        return min(smooth, key=lambda s: abs(s - target))
    return target + 1


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# --- chain -------------------------------------------------------------------

DIODES = {  # name: (I_th mA, slope mW/mA, I_max mA, nm), as in data/diodes.csv
    "blue-450": (20.0, 0.8065, 300.0, 450.0),
    "red-638": (75.0, 1.0, 200.0, 638.0),
    "infrared-980": (50.0, 0.85, 250.0, 980.0),
}
MICS = {  # name: (responsivity /mW, band high Hz, saturation mW, rates)
    "mems-default": (4.0, 20000.0, 0.1, (44100, 48000)),
    "electret-default": (4.0, 10000.0, 0.5, (22050, 24000, 32000, 44100, 48000)),
}


def operating_point(diode: str, budget_mw: float) -> tuple[float, float]:
    """(I_DC, amplitude I_pp/2) of the budget-optimal operating point."""
    th, slope, imax, _ = DIODES[diode]
    amplitude = min(budget_mw / slope, (imax - th) / 2)
    return th + amplitude, amplitude


def pick_rate(rng, n: int, rates) -> int:
    """A rate from `rates` that makes n samples last 0.5-3 s."""
    return int(rng.choice([r for r in rates if 0.5 <= n / r <= 3.0]))


# Sample counts are fixed grids and the seed picks rates and content, so
# each seed costs the same; only inject lengths are deliberately awkward.
CHIRPS = (  # (mic, rate, samples): ~20 frames, ~20k CSV rows each
    ("mems-default", 48000, 11520), ("electret-default", 22050, 11520),
    ("mems-default", 44100, 12000), ("electret-default", 24000, 12000),
    ("mems-default", 48000, 12288), ("electret-default", 32000, 12288),
    ("mems-default", 44100, 12800), ("electret-default", 48000, 12800))
# CSV rows start at 10k so modulate-csv ops sit above the inject ops
# that hold p50
CSV_LENGTHS = tuple(range(10000, 20001, 10000 // 7))  # 8 ops, 10k-20k rows
WAV_LENGTHS = tuple(range(16000, 96001, 80000 // 11))  # 12 ops
INJECT_TARGETS = (24000, 36000, 48000, 60000, 72000)
LENGTH_KINDS = ("prime", "smooth", "odd")


def gen_chain(rng, work: str) -> list[dict]:
    import photoninject.optics as optics

    ops = []
    # CSV formatting cost depends on the magnitudes, so the sweep band and
    # rate are held nearly fixed per chirp; the seed moves them slightly
    for i, (mic, sr, n) in enumerate(CHIRPS):
        band_high = MICS[mic][1]
        out = os.path.join(work, f"chirp{i}.csv")
        ops.append({
            "kind": "chirp-test", "audio_s": n / sr,
            "argv": ["chirp-test", "--out", out, "--duration", repr(n / sr),
                     "--sample-rate", str(sr), "--mic", mic,
                     "--f-start", f"{rng.uniform(100, 150):.1f}",
                     "--f-end", f"{rng.uniform(0.55, 0.6) * band_high:.1f}",
                     "--budget-mw", f"{rng.uniform(0.05, 0.06):.4f}",
                     "--seed", str(int(rng.integers(0, 2 ** 31)))],
            "out": out, "csv_lines": ((n - 2048) // 512 + 1) * 1025 + 1,
        })

    def command_wav(name, n, sr):
        s = command(rng, n, sr, rng.uniform(0.3, 0.9))
        q = quantize(s)
        path = os.path.join(work, name)
        write(path, wav_bytes(q[:, None], sr))
        return path, q.astype(np.float64) / 32768.0

    for i, n in enumerate(CSV_LENGTHS + WAV_LENGTHS):
        to_csv = i < len(CSV_LENGTHS)
        diode = list(DIODES)[i % 3]
        th, slope, imax, _ = DIODES[diode]
        sr = pick_rate(rng, n, (8000, 11025) if to_csv
                       else (16000, 22050, 32000, 44100, 48000))
        inp, s = command_wav(f"mod{i}.wav", n, sr)
        headroom_mw = slope * (imax - th) / 2
        if i % 4 == 3:  # past the swing headroom: I_max limits the swing
            budget = round(rng.uniform(1.05, 1.9) * headroom_mw, 3)
        else:
            budget = round(log_uniform(rng, 1.0, 0.9 * headroom_mw), 3)
        bias, amp = operating_point(diode, budget)
        currents = bias + (2 * amp / 2) * s
        op_line = (f"operating point: I_DC = {bias:.3f} mA, "
                   f"I_pp = {2 * amp:.3f} mA\n")
        if to_csv:
            out = os.path.join(work, f"mod{i}.csv")
            body = "".join(f"{k / sr:.9f},{c:.6f}\r\n"
                           for k, c in enumerate(currents.tolist()))
            files = {out: sha256(("time_s,current_ma\r\n" + body).encode())}
            stdout = f"wrote {out}\n" + op_line
        else:
            out = os.path.join(work, f"drive{i}.wav")
            sidecar = out[:-4] + ".params.csv"
            normalized = (currents - bias) / amp
            files = {
                out: sha256(wav_bytes(quantize(normalized)[:, None], sr)),
                sidecar: sha256((f"param,value\r\ni_dc_ma,{bias:.6f}\r\n"
                                 f"i_pp_ma,{2 * amp:.6f}\r\n"
                                 f"sample_rate_hz,{sr}\r\n").encode()),
            }
            stdout = f"wrote {out} and {sidecar}\n" + op_line
        ops.append({
            "kind": "modulate-csv" if to_csv else "modulate-wav",
            "audio_s": n / sr,
            "argv": ["modulate", "--in", inp, "--budget-mw", str(budget),
                     "--diode", diode, "--out", out],
            "stdout": stdout, "files": files,
        })

    combos = [(mic, kind, target) for mic in MICS for kind in LENGTH_KINDS
              for target in INJECT_TARGETS]
    for i, (mic, kind, target) in enumerate(combos):
        resp, _, sat, rates = MICS[mic]
        n = awkward_length(target, kind)
        sr = pick_rate(rng, n, rates)
        inp, s = command_wav(f"cmd{i}.wav", n, sr)
        diode = list(DIODES)[int(rng.integers(0, 3))]
        distance = round(log_uniform(rng, 0.5, 30.0), 3)
        port = round(rng.uniform(0.0008, 0.0012), 6)
        path = optics.OpticalPath.default(distance, DIODES[diode][3])
        factor = optics.received_power(path, optics.Aperture(port), distance, 1.0)
        swing = float(np.max(np.abs(s - s.mean())))
        saturated = i % 2 == 1
        ratio = rng.uniform(2.0, 4.0) if saturated else rng.uniform(0.15, 0.45)
        budget = ratio * sat / (factor * swing)  # = slope * amplitude
        ops.append({
            "kind": "inject", "audio_s": n / sr,
            "in": inp, "out": os.path.join(work, f"heard{i}.wav"),
            "diode": diode, "mic": mic, "budget_mw": budget,
            "distance_m": distance, "port_m": port,
            "seed": int(rng.integers(0, 2 ** 31)),
            "n": n, "sample_rate": sr, "saturated": saturated,
            "gain": resp * budget * factor,
        })
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


# --- detect ------------------------------------------------------------------

LABELS = ("injected", "acoustic", "wide_beam", "quiet")
NOISE_RMS = 0.005
CHANNELS = (2, 4, 8)
RATES = (16000, 48000)
PER_CELL = 12  # recordings per (channels, rate) cell


def gen_detect(rng, work: str) -> list[dict]:
    import photoninject.diode as diode
    import photoninject.mic as mic
    import photoninject.optics as optics
    import photoninject.profiles as profiles
    from photoninject.signals import AudioSignal

    blue = profiles.get_diode("blue-450")
    mems = profiles.get_mic("mems-default")
    # 16 kHz cannot carry either shipped mic band; a 7 kHz port stands in
    narrow = mic.MicProfile("narrowband", mems.responsivity_per_mw, 20.0,
                            7000.0, mems.saturation_mw, mems.noise_rms)

    def through_laser(s, sr, seed):
        profile = mems if sr >= 2 * mems.band_high_hz else narrow
        # budget puts the port's AC swing at half of saturation
        op = diode.optimize_operating_point(blue, 0.05 / np.max(np.abs(s)))
        light = diode.emitted_light(blue, diode.modulate(blue, op,
                                                         AudioSignal(s, sr)))
        path = optics.OpticalPath.ideal(0.5, blue.wavelength_nm)
        at_port = optics.attenuate(light, path, optics.Aperture(0.001), 0.5)
        return mic.transduce(profile, at_port, rng_seed=seed).samples

    # Per channel count and rate, durations evenly spaced over 0.5-2 s and
    # labels taken in turn: op costs cover a dense range rather than a few
    # levels, so the percentiles do not sit in a gap between levels.
    ops = []
    for n_ch in CHANNELS:
        for sr in RATES:
            for k, duration in enumerate(np.linspace(0.5, 2.0, PER_CELL)):
                label = LABELS[k % len(LABELS)]
                n = round(duration * sr) + int(rng.integers(0, 256))
                x = rng.normal(0.0, NOISE_RMS, (n_ch, n))
                implicated = []
                s = command(rng, n, sr, rng.uniform(0.2, 0.4))
                if label == "injected":
                    port = int(rng.integers(0, n_ch))
                    x[port] = through_laser(s, sr, int(rng.integers(2 ** 31)))
                    implicated = [port]
                elif label == "wide_beam":
                    for ch in range(n_ch):
                        x[ch] = through_laser(s, sr, int(rng.integers(2 ** 31)))
                elif label == "acoustic":
                    max_lag = round(sr * 0.001)
                    for ch in range(n_ch):
                        lag = int(rng.integers(0, max(1, int(0.8 * max_lag))))
                        x[ch] += rng.uniform(0.5, 1.0) * np.roll(s, lag)
                path = os.path.join(work, f"rec{len(ops)}.wav")
                write(path, wav_bytes(quantize(x).T, sr))
                ops.append({
                    "kind": f"detect-{label}", "label": label,
                    "audio_s": n_ch * n / sr, "channels": n_ch,
                    "argv": ["detect", "--in", path],
                    "status": ("injection_suspected" if implicated
                               else "clean"),
                    "implicated": implicated,
                })
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


# --- sweep -------------------------------------------------------------------

def device_names() -> list[str]:
    import photoninject.profiles as profiles
    return [row["name"].strip() for row in profiles.device_rows()]


# Sized so that planner ops (profile lookups) are 80% of ops and hold
# p50, pin ops (the PIN walk) are 20% and, being mostly slower than any
# planner op, hold p90; profiles and authsim each take 40-45% of the
# traced time. The slow pin kinds (5-digit shuffle, 6-digit ascending)
# are weighted up so that few pins fall inside the planner band.
PLANS_PER_PAIR = 2
PIN_MIX = (  # (digits, order, ops per policy)
    (4, "ascending", 3), (4, "seeded_shuffle", 2),
    (5, "ascending", 3), (5, "seeded_shuffle", 5),
    (6, "ascending", 5))
PIN_INDEX_SPAN = 5000   # secrets sit in the first 5000 candidates walked
LOCKOUT_LIMITS = (3, 30, 300, 3000)


def stratified(rng, count: int) -> np.ndarray:
    """`count` draws in [0, 1), one per equal stratum, in seeded order."""
    return rng.permutation((np.arange(count) + rng.uniform(size=count)) / count)


def gen_sweep(rng, work: str) -> list[dict]:
    import photoninject.authsim as authsim

    ops = []
    pairs = [(d, k) for d in device_names() for k in DIODES]
    trial_draws = iter(stratified(rng, len(pairs) * PLANS_PER_PAIR))
    for device, diode in pairs:
        th, slope, imax, _ = DIODES[diode]
        cap = 0.95 * slope * (imax - th)
        for _ in range(PLANS_PER_PAIR):
            ops.append({
                "kind": "plan", "device": device, "diode": diode,
                "budget_mw": round(min(log_uniform(rng, 1.0, 100.0), cap), 4),
                "distance_m": round(log_uniform(rng, 0.5, 60.0), 3),
                "trials": int(round(1000.0 ** next(trial_draws))),
                "wake_word_matched": bool(rng.integers(0, 2)),
                "seed": int(rng.integers(0, 2 ** 31)),
            })
        ops.append({
            "kind": "range", "device": device, "diode": diode,
            "budget_mw": round(min(log_uniform(rng, 1.0, 100.0), cap), 4),
        })
        budget = round(min(log_uniform(rng, 1.0, 100.0), cap), 4)
        distance = round(log_uniform(rng, 0.5, 60.0), 3)
        trials = int(rng.integers(1, 200))
        seed = int(rng.integers(0, 2 ** 31))
        offset = round(rng.uniform(0.0, 0.0004), 6)
        path = os.path.join(work, f"scenario{len(ops)}.txt")
        with open(path, "w") as fh:
            fh.write(f"# generated scenario\ndevice.name = {device}\n"
                     f"diode.name = {diode}\nbudget_mw = {budget}\n"
                     f"distance_m = {distance}\ntrials = {trials}\n"
                     f"seed = {seed}\naperture.offset_m = {offset}\n"
                     f"path.pointing_jitter_m = {offset / 2}\n")
        ops.append({
            "kind": "scenario", "path": path, "device": device,
            "diode": diode, "budget_mw": budget, "distance_m": distance,
            "trials": trials, "seed": seed, "offset_m": offset,
        })

    policies = ["unlimited", "max-attempts", "delay-after"]
    specs = [(d, o, p) for d, o, per in PIN_MIX for p in policies
             for _ in range(per)]
    index_draws = stratified(rng, len(specs))
    lockouts = 0
    for (digits, order, policy), draw in zip(specs, index_draws):
        seed = int(rng.integers(0, 2 ** 31))
        index = int(draw * PIN_INDEX_SPAN)
        secret = int(authsim.candidate_order(digits, order, seed)[index])
        if policy == "max-attempts":
            limit = LOCKOUT_LIMITS[lockouts % len(LOCKOUT_LIMITS)]
            lockouts += 1
            spec = f"max-attempts:{limit}"
            attempts = min(index + 1, limit)
            outcome = "unlocked" if index < limit else "locked_out"
        else:
            limit = int(rng.choice((5, 10, 100)))
            spec = (f"delay-after:{limit}:{rng.uniform(1, 60):.1f}"
                    if policy == "delay-after" else "unlimited")
            attempts, outcome = index + 1, "unlocked"
        ops.append({
            "kind": "pin", "policy": spec, "digits": digits, "order": order,
            "seed": seed, "secret": str(secret).zfill(digits),
            "per_attempt_s": round(rng.uniform(5.0, 20.0), 2),
            "attempts": attempts, "outcome": outcome,
        })
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


GENERATORS = {"chain": gen_chain, "detect": gen_detect, "sweep": gen_sweep}
