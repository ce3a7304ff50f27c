"""Acceptance suite: one test per shipping criterion.

Each test prints a single `[ACCEPTANCE] n. <name>: PASS|FAIL` line
(visible with `pytest -s tests/test_acceptance.py`).
"""

import csv
import dataclasses
import functools
import io

import numpy as np
import pytest

from conftest import synth_command, thd_ratio
from photoninject import cli, defense, optics, signals
from photoninject.authsim import LockPolicy, enumerate_pins, expected_time
from photoninject.devices import load_devices, lookup_device
from photoninject.diode import (DiodeProfile, OperatingPoint, average_power,
                                emitted_light, modulate,
                                optimize_operating_point)
from photoninject.injection import (AttackScenario, calibrate_edge,
                                    simulate_attack, success_probability)
from photoninject.mic import transduce
from photoninject.optics import (Aperture, OpticalPath, capture_fraction,
                                 max_range, spot_diameter)
from photoninject.profiles import get_diode, get_mic
from photoninject.signals import generate_chirp, generate_tone


def _checked(n, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"\n[ACCEPTANCE] {n:>2}. {name}: FAIL")
                raise
            print(f"\n[ACCEPTANCE] {n:>2}. {name}: PASS")
        return wrapper
    return deco


# 1 -------------------------------------------------------------------------

EXPECTED_TABLE = [
    ("Google Home", "Google Assistant", "Speaker", "no", 0.5),
    ("Google Home Mini", "Google Assistant", "Speaker", "no", 16),
    ("Google Nest Cam IQ", "Google Assistant", "Camera", "no", 9),
    ("Echo Plus 1st Generation", "Alexa", "Speaker", "no", 2.4),
    ("Echo Plus 2nd Generation", "Alexa", "Speaker", "no", 2.9),
    ("Echo", "Alexa", "Speaker", "no", 25),
    ("Echo Dot 2nd Generation", "Alexa", "Speaker", "no", 7),
    ("Echo Dot 3rd Generation", "Alexa", "Speaker", "no", 9),
    ("Echo Show 5", "Alexa", "Speaker", "no", 17),
    ("Echo Spot", "Alexa", "Speaker", "no", 29),
    ("Facebook Portal Mini (Front Mic)", "Alexa", "Speaker", "no", 1),
    ("Facebook Portal Mini (Front Mic; Portal)", "Portal", "Speaker", "no", 6),
    ("Fire Cube TV", "Alexa", "Streamer", "no", 13),
    ("EcoBee 4", "Alexa", "Thermostat", "no", 1.7),
    ("iPhone XR (Front Mic)", "Siri", "Phone", "yes", 21),
    ("iPad 6th Gen", "Siri", "Tablet", "yes", 27),
    ("Samsung Galaxy S9 (Bottom Mic)", "Google Assistant", "Phone", "yes", 60),
    ("Google Pixel 2 (Bottom Mic)", "Google Assistant", "Phone", "yes", 46),
]


@_checked(1, "device dataset golden table")
def test_criterion_1_device_table(capsys):
    assert cli.main(["profiles", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "backend", "category", "requires_auth",
                       "min_power_mw"]
    listed = [(r[0], r[1], r[2], r[3], float(r[4])) for r in rows[1:]]
    assert len(listed) == 18
    for got, want in zip(listed, EXPECTED_TABLE):
        assert got == want, f"{got} != {want}"


# 2 -------------------------------------------------------------------------

@_checked(2, "brute-force timing arithmetic")
def test_criterion_2_bruteforce_arithmetic():
    et4 = expected_time(LockPolicy.unlimited(), 4, 13.0)
    assert et4.worst_s == 130_000.0
    assert round(et4.worst_s / 3600, 1) == 36.1
    et3 = expected_time(LockPolicy.unlimited(), 3, 13.0)
    assert et3.worst_s == 13_000.0
    assert round(et3.worst_s / 3600, 1) == 3.6
    # enumeration agrees exactly with the closed form at the worst case
    r = enumerate_pins(LockPolicy.unlimited(), 4, 13.0, "9999")
    assert r.attempts_made == 10_000
    assert r.elapsed_s == et4.worst_s


# 3 -------------------------------------------------------------------------

def _grid_best_ipp(profile, budget, step=0.1):
    i_dc = np.arange(profile.threshold_ma, profile.max_current_ma + step / 2,
                     step)[:, None]
    i_pp = np.arange(0.0, 2 * (profile.max_current_ma - profile.threshold_ma)
                     + step / 2, step)[None, :]
    ok = ((i_dc - i_pp / 2 >= profile.threshold_ma - 1e-9)
          & (i_dc + i_pp / 2 <= profile.max_current_ma + 1e-9)
          & (profile.slope_mw_per_ma * (i_dc - profile.threshold_ma)
             <= budget + 1e-9))
    return float(np.where(ok, np.broadcast_to(i_pp, ok.shape), -1.0).max())


@_checked(3, "operating-point optimizer vs grid oracle")
def test_criterion_3_optimizer():
    rng = np.random.default_rng(314)
    tone = generate_tone(1000, 0.1, 48000, 1.0)
    for _ in range(100):
        i_th = rng.uniform(5, 30)
        i_max = i_th + rng.uniform(10, 60)
        slope = rng.uniform(0.3, 2.0)
        profile = DiodeProfile("rand", i_th, slope, i_max, 450)
        headroom_mw = slope * (i_max - i_th) / 2
        budget = rng.uniform(0.05, 0.95) * headroom_mw
        op = optimize_operating_point(profile, budget)
        op.validate_for(profile)
        assert average_power(profile, op) <= budget + 1e-9
        assert op.peak_to_peak_ma >= _grid_best_ipp(profile, budget) - 0.15
        light = emitted_light(profile, modulate(profile, op, tone))
        assert light.mean_mw == pytest.approx(budget, rel=1e-3)
    # swing-limited regime: peak pinned at I_max, still grid-optimal
    for _ in range(20):
        i_th = rng.uniform(5, 30)
        i_max = i_th + rng.uniform(10, 60)
        slope = rng.uniform(0.3, 2.0)
        profile = DiodeProfile("rand", i_th, slope, i_max, 450)
        budget = slope * (i_max - i_th) * rng.uniform(0.55, 0.95)
        op = optimize_operating_point(profile, budget)
        op.validate_for(profile)
        assert op.max_current_ma == pytest.approx(i_max, abs=1e-9)
        assert op.peak_to_peak_ma >= _grid_best_ipp(profile, budget) - 0.15


# 4 -------------------------------------------------------------------------

@_checked(4, "reference amplitude-modulation waveform")
def test_criterion_4_reference_waveform():
    blue = get_diode("blue-450")
    tone = generate_tone(1000, 1.0, 48000, 1.0)
    drive = modulate(blue, OperatingPoint(26.2, 7.0), tone)
    t = np.arange(48000) / 48000
    analytic = 26.2 + (7.0 / 2) * np.sin(2 * np.pi * 1000 * t)
    assert np.max(np.abs(drive.currents_ma - analytic)) <= 1e-12


# 5 -------------------------------------------------------------------------

def _through_chain(audio, budget_mw=0.08, distance_m=0.3, seed=0):
    blue = get_diode("blue-450")
    op = optimize_operating_point(blue, budget_mw)
    light = emitted_light(blue, modulate(blue, op, audio))
    path = OpticalPath.ideal(distance_m)
    at_port = optics.attenuate(light, path, Aperture(0.001), distance_m)
    silent = dataclasses.replace(get_mic("mems-default"), noise_rms=0.0)
    return transduce(silent, at_port, rng_seed=seed)


@_checked(5, "round-trip spectral fidelity")
def test_criterion_5_round_trip():
    out = _through_chain(generate_tone(1000, 1.0, 48000, 1.0))
    spectrum = np.abs(np.fft.rfft(out.samples))
    bin_hz = 48000 / len(out)
    assert abs(float(np.argmax(spectrum)) * bin_hz - 1000.0) <= bin_hz
    assert thd_ratio(out.samples, 48000, 1000.0) <= 0.01

    heard = _through_chain(generate_chirp(0, 10000, 5.0, 48000))
    spec = signals.spectrogram(heard, 2048, 512)
    slope, _, r2 = signals.ridge_line_fit(spec)
    assert r2 >= 0.99
    assert slope == pytest.approx(2000.0, rel=0.02)


# 6 -------------------------------------------------------------------------

@_checked(6, "distance-accuracy calibration consistency")
def test_criterion_6_calibration():
    mini = lookup_device("Google Home Mini")
    template = AttackScenario(
        device=mini, diode=get_diode("blue-450"),
        path=OpticalPath.default(20.0), aperture=Aperture(mini.port_diameter_m),
        budget_mw=60.0, distance_m=20.0)
    observations = [(20.0, 0.975), (25.0, 0.675), (27.0, 0.0)]
    edge = calibrate_edge(observations, template)
    predictions = {}
    for d, _ in observations:
        received = optics.received_power(template.path.focused_at(d),
                                         template.aperture, d, 60.0)
        predictions[d] = success_probability(mini, received, edge)
    assert abs(predictions[20.0] - 0.975) <= 0.10
    assert abs(predictions[25.0] - 0.675) <= 0.15
    assert predictions[27.0] <= 0.01


# 7 -------------------------------------------------------------------------

@_checked(7, "attack range consistency")
def test_criterion_7_ranges():
    blue = get_diode("blue-450")

    home = lookup_device("Google Home")
    op = optimize_operating_point(blue, 5.0)
    reach = max_range(OpticalPath.default(1.0), Aperture(home.port_diameter_m),
                      average_power(blue, op), home.min_power_mw)
    assert reach >= 110.0

    s9 = lookup_device("Samsung Galaxy S9 (Bottom Mic)")
    op = optimize_operating_point(blue, 60.0)
    reach = max_range(OpticalPath.default(1.0), Aperture(s9.port_diameter_m),
                      average_power(blue, op), s9.min_power_mw)
    assert reach <= 10.0


# 8 -------------------------------------------------------------------------

@_checked(8, "disk-overlap capture fraction vs Monte Carlo")
def test_criterion_8_overlap_oracle():
    rng = np.random.default_rng(2718)
    n_points = 1_000_000
    for _ in range(20):
        r_spot = rng.uniform(0.5, 2.0)
        r_port = rng.uniform(0.5 * r_spot, 2.0 * r_spot)
        d = rng.uniform(0.0, 0.7 * (r_spot + r_port))
        analytic = capture_fraction(2 * r_spot, Aperture(2 * r_port, d))
        radii = r_spot * np.sqrt(rng.random(n_points))
        theta = 2 * np.pi * rng.random(n_points)
        inside = ((radii * np.cos(theta) - d) ** 2
                  + (radii * np.sin(theta)) ** 2 <= r_port ** 2)
        estimate = float(inside.mean())
        assert analytic == pytest.approx(estimate, rel=0.005), \
            (r_spot, r_port, d, analytic, estimate)


# 9 -------------------------------------------------------------------------

@_checked(9, "multi-microphone defense suite")
def test_criterion_9_defense():
    sr = 48000
    n = sr // 2
    noise_rms = get_mic("mems-default").noise_rms

    for seed in range(100):
        rng = np.random.default_rng(seed)
        command = synth_command(rng, n, sr)        # >= 20 dB over the floor
        target = int(rng.integers(0, 4))
        channels = rng.normal(0, noise_rms, (4, n))
        channels[target] += command
        verdict = defense.detect_injection(defense.ChannelSet(channels, sr))
        assert verdict.status == defense.INJECTION_SUSPECTED, seed
        assert verdict.implicated == (target,), seed

    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        command = synth_command(rng, n, sr)
        gains = rng.uniform(0.5, 1.0, 4)
        channels = gains[:, None] * command[None, :] + rng.normal(
            0, noise_rms, (4, n))
        verdict = defense.detect_injection(defense.ChannelSet(channels, sr))
        assert verdict.status == defense.CLEAN, seed

    rng = np.random.default_rng(424242)
    command = synth_command(rng, n, sr)
    channels = np.tile(command, (4, 1)) + rng.normal(0, noise_rms, (4, n))
    verdict = defense.detect_injection(defense.ChannelSet(channels, sr))
    assert verdict.status == defense.CLEAN
    assert verdict.notes == defense.BLIND_SPOT_NOTE


# 10 ------------------------------------------------------------------------

@_checked(10, "bit-exact determinism of seeded operations")
def test_criterion_10_determinism():
    a = generate_tone(997.0, 0.5, 48000, 0.9)
    b = generate_tone(997.0, 0.5, 48000, 0.9)
    assert np.array_equal(a.samples, b.samples)

    a = generate_chirp(0, 10000, 1.0, 48000)
    b = generate_chirp(0, 10000, 1.0, 48000)
    assert np.array_equal(a.samples, b.samples)

    from photoninject.diode import LightWaveform
    light = LightWaveform(5.0 + 0.05 * a.samples[:24000] + 0.05, 48000)
    mems = get_mic("mems-default")
    x = transduce(mems, light, rng_seed=99)
    y = transduce(mems, light, rng_seed=99)
    assert np.array_equal(x.samples, y.samples)

    home = lookup_device("Google Home Mini")
    scenario = AttackScenario(
        device=home, diode=get_diode("blue-450"),
        path=OpticalPath.default(25.0), aperture=Aperture(home.port_diameter_m),
        budget_mw=60.0, distance_m=25.0, rng_seed=1234)
    assert simulate_attack(scenario, 40) == simulate_attack(scenario, 40)

    r1 = enumerate_pins(LockPolicy.unlimited(), 3, 13.0, "421",
                        "seeded_shuffle", seed=5)
    r2 = enumerate_pins(LockPolicy.unlimited(), 3, 13.0, "421",
                        "seeded_shuffle", seed=5)
    assert r1 == r2

    rng = np.random.default_rng(7)
    channels = rng.normal(0, 0.005, (4, 24000))
    channels[1] += synth_command(np.random.default_rng(8), 24000, 48000)
    cs = defense.ChannelSet(channels, 48000)
    v1 = defense.detect_injection(cs)
    v2 = defense.detect_injection(cs)
    assert v1.status == v2.status and v1.implicated == v2.implicated
    assert np.array_equal(v1.scores, v2.scores)

    mini = lookup_device("Google Home Mini")
    template = AttackScenario(
        device=mini, diode=get_diode("blue-450"),
        path=OpticalPath.default(20.0), aperture=Aperture(mini.port_diameter_m),
        budget_mw=60.0, distance_m=20.0)
    obs = [(20.0, 0.975), (25.0, 0.675), (27.0, 0.0)]
    assert calibrate_edge(obs, template) == calibrate_edge(obs, template)
