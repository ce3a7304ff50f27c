"""Every public entry point checks its arguments the same way.

A NaN, an infinity or an out-of-domain scalar raises ValueError whose
message starts with the argument's name and ends with the value it
rejected; `build_scenario` maps a constructor's error to its scenario key
by that first word. A sample array of the wrong rank, with no samples,
with a non-finite value or, for a current, power or magnitude, a negative
one raises ValueError whose message starts with the argument's name.
"""

import math
import os
import re

import numpy as np
import pytest

from photoninject import (authsim, defense, devices, diode, injection, mic,
                          optics, signals, wavio)
from photoninject.errors import (_check_integer, _check_nonnegative,
                                 _check_positive)
from photoninject.profiles import get_diode, get_mic

BLUE = get_diode("blue-450")
MEMS = get_mic("mems-default")
HOME = devices.lookup_device("Google Home")
PATH = optics.OpticalPath.default(10.0)
PORT = optics.Aperture(0.001)
LIGHT = diode.LightWaveform(np.full(64, 1.0), 48000)
CHANNELS = defense.ChannelSet(
    np.random.default_rng(3).normal(0.0, 0.1, (2, 2048)), 16000)
DEVICE_FIELDS = dict(name="Lab Speaker", backend="Alexa", category="Speaker",
                     requires_auth=False, min_power_mw=0.5,
                     port_diameter_m=0.001, port_count=1, wake_word="Alexa")
MIC_FIELDS = dict(name="m", responsivity_per_mw=4.0, band_low_hz=20.0,
                  band_high_hz=20000.0, saturation_mw=0.1, noise_rms=0.005)
SCENARIO_FIELDS = dict(device=HOME, diode=BLUE, path=PATH, aperture=PORT,
                       budget_mw=5.0, distance_m=10.0)
# a template calibrate_edge fits to a width inside its bracket
MINI = devices.lookup_device("Google Home Mini")
EDGE_TEMPLATE = injection.AttackScenario(
    device=MINI, diode=BLUE, path=optics.OpticalPath.default(20.0),
    aperture=optics.Aperture(MINI.port_diameter_m), budget_mw=60.0,
    distance_m=20.0)


def scenario_values(**values):
    return {"device.name": "Google Home", "budget_mw": 5.0,
            "distance_m": 10.0, **values}


# (entry point, name in the message, the call with one argument replaced,
# an out-of-domain value)
POSITIVE = [
    ("OpticalPath", "lens_diameter_m",
     lambda v: optics.OpticalPath(v, 10.0, 450.0), 0.0),
    ("OpticalPath", "focus_distance_m",
     lambda v: optics.OpticalPath(0.086, v, 450.0), -1.0),
    ("OpticalPath", "wavelength_nm",
     lambda v: optics.OpticalPath(0.086, 10.0, v), 0.0),
    ("Aperture", "port_diameter_m", lambda v: optics.Aperture(v), 0.0),
    ("spot_diameter", "distance_m",
     lambda v: optics.spot_diameter(PATH, v), 0.0),
    ("received_power", "distance_m",
     lambda v: optics.received_power(PATH, PORT, v, 1.0), -2.0),
    ("max_range", "emitted_avg_mw",
     lambda v: optics.max_range(PATH, PORT, v, 1.0), 0.0),
    ("max_range", "required_mw",
     lambda v: optics.max_range(PATH, PORT, 1.0, v), 0.0),
    ("DeviceProfile", "min_power_mw",
     lambda v: devices.DeviceProfile(**{**DEVICE_FIELDS, "min_power_mw": v}),
     0.0),
    ("DeviceProfile", "port_diameter_m",
     lambda v: devices.DeviceProfile(**{**DEVICE_FIELDS,
                                        "port_diameter_m": v}), -0.001),
    ("DiodeProfile", "slope_mw_per_ma",
     lambda v: diode.DiodeProfile("d", 30.0, v, 300.0, 450.0), 0.0),
    ("DiodeProfile", "wavelength_nm",
     lambda v: diode.DiodeProfile("d", 30.0, 1.0, 300.0, v), 0.0),
    ("optimize_operating_point", "budget_mw",
     lambda v: diode.optimize_operating_point(BLUE, v), 0.0),
    ("MicProfile", "responsivity_per_mw",
     lambda v: mic.MicProfile(**{**MIC_FIELDS, "responsivity_per_mw": v}),
     0.0),
    ("MicProfile", "saturation_mw",
     lambda v: mic.MicProfile(**{**MIC_FIELDS, "saturation_mw": v}), -0.1),
    ("MicProfile", "band_low_hz",
     lambda v: mic.MicProfile(**{**MIC_FIELDS, "band_low_hz": v}), 0.0),
    ("bandpass_fft", "low_hz",
     lambda v: mic.bandpass_fft(np.zeros(64), 48000, v, 20000.0), 0.0),
    ("RecognitionEdge", "width", lambda v: injection.RecognitionEdge(v), 0.0),
    ("AttackScenario", "budget_mw",
     lambda v: injection.AttackScenario(**{**SCENARIO_FIELDS,
                                           "budget_mw": v}), 0.0),
    ("AttackScenario", "distance_m",
     lambda v: injection.AttackScenario(**{**SCENARIO_FIELDS,
                                           "distance_m": v}), 0.0),
    ("build_scenario", "distance_m",
     lambda v: injection.build_scenario(scenario_values(distance_m=v),
                                        None, {}), 0.0),
    ("expected_time", "per_attempt_s",
     lambda v: authsim.expected_time(authsim.LockPolicy.unlimited(), 4, v),
     0.0),
    ("enumerate_pins", "per_attempt_s",
     lambda v: authsim.enumerate_pins(authsim.LockPolicy.unlimited(), 4, v,
                                      "1234"), -13.0),
    ("calibrate_edge", "distance_m",
     lambda v: injection.calibrate_edge([(v, 0.975), (25.0, 0.675)],
                                        EDGE_TEMPLATE), 0.0),
]

NONNEGATIVE = [
    ("OpticalPath", "pointing_jitter_m",
     lambda v: optics.OpticalPath(0.086, 10.0, 450.0, pointing_jitter_m=v),
     -0.001),
    ("Aperture", "offset_m", lambda v: optics.Aperture(0.001, v), -0.001),
    ("capture_fraction", "spot_diameter_m",
     lambda v: optics.capture_fraction(v, PORT), -1.0),
    ("received_power", "emitted_avg_mw",
     lambda v: optics.received_power(PATH, PORT, 10.0, v), -1.0),
    ("DiodeProfile", "threshold_ma",
     lambda v: diode.DiodeProfile("d", v, 1.0, 300.0, 450.0), -1.0),
    ("OperatingPoint", "peak_to_peak_ma",
     lambda v: diode.OperatingPoint(50.0, v), -1.0),
    ("MicProfile", "noise_rms",
     lambda v: mic.MicProfile(**{**MIC_FIELDS, "noise_rms": v}), -0.005),
    ("output_vpp", "ipp_effective_mw",
     lambda v: mic.output_vpp(MEMS, v), -1.0),
    ("success_probability", "received_mw",
     lambda v: injection.success_probability(HOME, v), -1.0),
    ("LockPolicy", "delay_s",
     lambda v: authsim.LockPolicy.delay_after(3, v), -1.0),
    ("detect_injection", "energy_floor",
     lambda v: defense.detect_injection(CHANNELS, energy_floor=v), -1e-9),
]

INTEGER = [
    ("DeviceProfile", "port_count",
     lambda v: devices.DeviceProfile(**{**DEVICE_FIELDS, "port_count": v}), 0),
    ("transduce", "seed",
     lambda v: mic.transduce(MEMS, LIGHT, rng_seed=v), -1),
    ("AttackScenario", "seed",
     lambda v: injection.AttackScenario(**{**SCENARIO_FIELDS,
                                           "rng_seed": v}), -1),
    ("simulate_attack", "trials",
     lambda v: injection.simulate_attack(
         injection.AttackScenario(**SCENARIO_FIELDS), v), 0),
    ("build_scenario", "trials",
     lambda v: injection.build_scenario(scenario_values(trials=v), None, {}),
     0),
    ("consecutive_success_criterion", "k",
     lambda v: injection.consecutive_success_criterion([True], v), 0),
    ("candidate_order", "seed",
     lambda v: authsim.candidate_order(2, "seeded_shuffle", v), -1),
    ("enumerate_pins", "seed",
     lambda v: authsim.enumerate_pins(authsim.LockPolicy.unlimited(), 2,
                                      13.0, "42", "seeded_shuffle", v), -1),
    ("pairwise_max_ncc", "max_lag",
     lambda v: defense.pairwise_max_ncc(np.zeros((2, 1, 8)), v), -1),
    ("channel_similarity", "frame",
     lambda v: defense.channel_similarity(CHANNELS, v), 255),
    ("detect_injection", "frame",
     lambda v: defense.detect_injection(CHANNELS, frame=v), 128),
]

# checks that relate two fields or test a bounded interval
RELATION = [
    ("DiodeProfile", "max_current_ma",
     lambda v: diode.DiodeProfile("d", 30.0, 1.0, v, 450.0), 20.0),
    ("MicProfile", "band_high_hz",
     lambda v: mic.MicProfile(**{**MIC_FIELDS, "band_high_hz": v}), 10.0),
    ("OpticalPath", "incidence_angle_deg",
     lambda v: optics.OpticalPath(0.086, 10.0, 450.0, incidence_angle_deg=v),
     90.0),
    ("calibrate_edge", "success_rate",
     lambda v: injection.calibrate_edge([(20.0, 0.975), (25.0, v)],
                                        EDGE_TEMPLATE), 1.5),
    ("expected_time", "digits",
     lambda v: authsim.expected_time(authsim.LockPolicy.unlimited(), v), 7),
    ("enumerate_pins", "digits",
     lambda v: authsim.enumerate_pins(authsim.LockPolicy.unlimited(), v, 13.0,
                                      "1234"), 7),
]

TABLES = (POSITIVE, NONNEGATIVE, INTEGER, RELATION)
CASES = [pytest.param(call, name, value, id=f"{entry}-{name}-{label}")
         for table in TABLES
         for entry, name, call, bad in table
         for label, value in (("nan", math.nan), ("inf", math.inf),
                              ("domain", bad))]


@pytest.mark.parametrize("call, name, value", CASES)
def test_bad_argument_is_named_with_its_value(call, name, value):
    message = rf"^{name} must be .*, got {re.escape(str(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


def tone(n, rate=16000):
    return signals.AudioSignal(np.zeros(n), rate)


# a count, a list or a choice that is not one of its names: the message
# starts with the argument and ends with what it got
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: defense.ChannelSet.from_signals([tone(64)]),
                 "signals must hold at least 2 channels, got 1", id="count"),
    pytest.param(lambda: defense.ChannelSet.from_signals(
        [tone(64), tone(64, 8000)]),
        "signals must share one sample rate, got [16000, 8000]", id="rates"),
    pytest.param(lambda: defense.ChannelSet.from_signals(
        [tone(64), tone(64), tone(32)]),
        "signals must have equal lengths, got [64, 64, 32]", id="lengths"),
    pytest.param(lambda: authsim.LockPolicy("sometimes"),
                 "kind must be 'unlimited', 'max_attempts' or 'delay_after', "
                 "got 'sometimes'", id="policy-kind"),
    pytest.param(lambda: authsim.candidate_order(2, "random"),
                 "order must be 'ascending' or 'seeded_shuffle', got 'random'",
                 id="order"),
    pytest.param(lambda: authsim.candidate_order(3, "seeded_shuffle"),
                 "seed must be given for order 'seeded_shuffle', got None",
                 id="shuffle-seed"),
])
def test_bad_choice_or_list_is_named_with_its_value(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_every_entry_point_accepts_its_good_values():
    # each call in the tables succeeds once its argument is in domain, so
    # the argument under test is the only one each failure can be about
    good = {"lens_diameter_m": 0.086, "focus_distance_m": 10.0,
            "wavelength_nm": 450.0, "port_diameter_m": 0.001,
            "distance_m": 10.0, "emitted_avg_mw": 1.0, "required_mw": 1.0,
            "min_power_mw": 0.5, "slope_mw_per_ma": 1.0,
            "budget_mw": 5.0, "responsivity_per_mw": 4.0,
            "saturation_mw": 0.1, "low_hz": 20.0, "width": 0.02,
            "per_attempt_s": 13.0, "pointing_jitter_m": 0.0,
            "offset_m": 0.0, "spot_diameter_m": 0.0, "threshold_ma": 30.0,
            "peak_to_peak_ma": 10.0, "noise_rms": 0.0,
            "ipp_effective_mw": 0.0, "received_mw": 0.0, "delay_s": 0.0,
            "energy_floor": 0.0, "port_count": 1, "seed": 0, "trials": 1,
            "k": 1, "max_lag": 0, "frame": 256, "band_low_hz": 20.0,
            "digits": 4, "max_current_ma": 300.0,
            "band_high_hz": 20000.0, "incidence_angle_deg": 0.0,
            "success_rate": 0.675}
    for table in TABLES:
        for _, name, call, _ in table:
            call(good[name])


# (entry point, name in the message, the call with the array replaced, a
# good shape, whether negative values are refused)
ARRAYS = [
    ("AudioSignal", "samples",
     lambda v: signals.AudioSignal(v, 48000), (64,), False),
    ("DriveWaveform", "currents_ma",
     lambda v: diode.DriveWaveform(v, 48000), (64,), True),
    ("LightWaveform", "powers_mw",
     lambda v: diode.LightWaveform(v, 48000), (64,), True),
    ("Spectrogram", "magnitudes",
     lambda v: signals.Spectrogram(v, 16, 8, 48000), (3, 9), True),
    ("ChannelSet", "channels",
     lambda v: defense.ChannelSet(v, 48000), (2, 64), False),
    ("bandpass_fft", "samples",
     lambda v: mic.bandpass_fft(v, 48000, 100.0, 8000.0), (64,), False),
    # a refused array writes nothing, and a good one goes to the null device
    ("save_wav_channels", "channels",
     lambda v: wavio.save_wav_channels(v, 48000, os.devnull), (2, 8), False),
    ("pairwise_max_ncc", "frames",
     lambda v: defense.pairwise_max_ncc(v, 0), (2, 1, 8), False),
]


def bad_arrays(shape, nonnegative):
    """(label, array, expected message without the name) for one entry."""
    ndim = len(shape)
    for wrong in dict.fromkeys([(), shape[:-1], shape + (1,)]):
        yield (f"shape{wrong}", np.ones(wrong),
               rf"must be {ndim}-D, got shape {re.escape(str(wrong))}")
    empty = shape[:-1] + (0,)
    yield ("empty", np.ones(empty),
           rf"must hold at least one sample, got shape {re.escape(str(empty))}")
    refused = [math.nan, math.inf, -math.inf] + [-1.0] * nonnegative
    for value in refused:
        arr = np.ones(shape)
        arr.flat[-1] = value  # the last sample, so no prefix check passes
        yield (str(value), arr,
               "must all be >= 0" if value == -1.0 else "must all be finite")


ARRAY_CASES = [pytest.param(call, name, arr, message,
                            id=f"{entry}-{name}-{label}")
               for entry, name, call, shape, nonnegative in ARRAYS
               for label, arr, message in bad_arrays(shape, nonnegative)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, name, arr, message", ARRAY_CASES)
def test_bad_sample_array_is_named(call, name, arr, message):
    with pytest.raises(ValueError, match=rf"^{name} {message}$"):
        call(arr)


def test_every_array_entry_point_accepts_good_arrays():
    for _, _, call, shape, _ in ARRAYS:
        call(np.ones(shape))
        call(np.ones(shape).tolist())


@pytest.mark.parametrize("make, field", [
    (signals.AudioSignal, "samples"),
    (diode.DriveWaveform, "currents_ma"),
    (diode.LightWaveform, "powers_mw"),
])
def test_waveforms_hold_a_read_only_copy(make, field):
    source = np.linspace(0.0, 1.0, 64)
    wave = make(source, 48000.0)
    held = getattr(wave, field)
    with pytest.raises(ValueError, match="read-only"):
        held[0] = 5.0
    source[:] = 7.0
    assert np.array_equal(held, np.linspace(0.0, 1.0, 64))
    assert held.dtype == np.float64 and held.flags.c_contiguous


@pytest.mark.parametrize("make", [
    lambda rate: signals.AudioSignal(np.zeros(8), rate),
    lambda rate: diode.DriveWaveform(np.zeros(8), rate),
    lambda rate: diode.LightWaveform(np.zeros(8), rate),
    lambda rate: defense.ChannelSet(np.zeros((2, 8)), rate),
    lambda rate: signals.Spectrogram(np.zeros((2, 9)), 16, 8, rate),
], ids=["AudioSignal", "DriveWaveform", "LightWaveform", "ChannelSet",
        "Spectrogram"])
def test_integral_float_rate_stored_as_int(make):
    rate = make(48000.0).sample_rate
    assert rate == 48000 and type(rate) is int


def test_channels_are_not_copied():
    # detect's recordings run to megabytes: C-contiguous float64 is used
    # as it is
    channels = np.ones((2, 64))
    assert defense.ChannelSet(channels, 48000).channels is channels
    mags = np.ones((3, 9))
    assert signals.Spectrogram(mags, 16, 8, 48000).magnitudes is mags


class TestHelpers:
    def test_bounds(self):
        for value in (1e-300, 1, np.float64(7.0)):
            _check_positive("x", value)
        for value in (0.0, -0.0, 0, 3.5):
            _check_nonnegative("x", value)
        with pytest.raises(ValueError, match="^x must be positive"):
            _check_positive("x", -0.0)
        with pytest.raises(ValueError, match="^x must be >= 0"):
            _check_nonnegative("x", -math.inf)

    @pytest.mark.parametrize("value", [0, np.int64(5), 2 ** 80])
    def test_integer_accepts(self, value):
        _check_integer("n", value, minimum=0)

    @pytest.mark.parametrize("value", [True, 1.0, "3", None])
    def test_integer_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"n must be an integer, got {value!r}")):
            _check_integer("n", value)

    def test_integer_minimum(self):
        _check_integer("n", -5)
        _check_integer("n", 3, minimum=3)
        with pytest.raises(ValueError, match=r"^n must be >= 3, got 2$"):
            _check_integer("n", 2, minimum=3)


class TestDefects:
    """Values that entry points used to accept, or reject with the wrong
    error type."""

    @pytest.mark.parametrize("count", [1.5, True])
    def test_port_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match=re.escape(
                f"port_count must be an integer, got {count!r}")):
            devices.DeviceProfile(**{**DEVICE_FIELDS, "port_count": count})

    @pytest.mark.parametrize("k", [2.5, True])
    def test_run_length_must_be_an_integer(self, k):
        with pytest.raises(ValueError,
                           match=rf"^k must be an integer, got {k!r}$"):
            injection.consecutive_success_criterion([True, True, True], k)

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_shuffle_seed_must_be_an_integer(self, seed):
        message = rf"^seed must be an integer, got {seed!r}$"
        with pytest.raises(ValueError, match=message):
            authsim.candidate_order(2, "seeded_shuffle", seed)
        with pytest.raises(ValueError, match=message):
            authsim.enumerate_pins(authsim.LockPolicy.unlimited(), 2, 13.0,
                                   "42", "seeded_shuffle", seed)

    @pytest.mark.parametrize("kind", [authsim.UNLIMITED, authsim.MAX_ATTEMPTS])
    def test_delay_checked_for_every_policy_kind(self, kind):
        with pytest.raises(ValueError,
                           match=r"^delay_s must be >= 0 and finite, got nan$"):
            authsim.LockPolicy(kind, attempt_limit=3, delay_s=math.nan)
