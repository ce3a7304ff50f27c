"""End-to-end attack simulation and planning.

The per-attempt success model is a logistic in the log ratio of received
power to the device's activation threshold:

    p = logistic(ln(received / min_power) / sigma_e)

clamped to 0 below 1% and to 1 above 99%. One global edge width sigma_e
applies to all devices; it is fitted to measured success rates versus
distance and the fitted value ships as the default below. Authentication
gating is hard: devices that verify the speaker only act when the wake
word matched.

`inject` runs audio through the waveform chain: drive, light, link and
microphone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import diode as diode_mod
from . import optics
from .devices import DeviceProfile, lookup_device
from .diode import DiodeProfile, OperatingPoint
from .errors import (FitError, FormatError, ProfileNotFoundError,
                     _check_integer, _check_nonnegative, _check_positive)
from .optics import Aperture, OpticalPath
from .profiles import DEFAULT_DIODE, _parse_value, _read_utf8, get_diode

P_CLAMP_LOW = 0.01
P_CLAMP_HIGH = 0.99


@dataclass(frozen=True)
class RecognitionEdge:
    """Width of the recognition edge on the log power ratio scale."""

    width: float

    def __post_init__(self):
        _check_positive("width", self.width)


# Fitted on the Google Home Mini distance-accuracy data (success rates
# 0.975 / 0.675 / 0.0 at 20 / 25 / 27 m, 60 mW budget, default optics);
# see calibrate_edge. Frozen here as the shipping default.
DEFAULT_EDGE = RecognitionEdge(0.019724)


@dataclass(frozen=True)
class AttackScenario:
    """Everything needed to simulate one injection attempt series."""

    device: DeviceProfile
    diode: DiodeProfile
    path: OpticalPath
    aperture: Aperture
    budget_mw: float
    distance_m: float
    command_text: str = ""
    wake_word_matched: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        _check_positive("budget_mw", self.budget_mw)
        _check_positive("distance_m", self.distance_m)
        _check_integer("seed", self.rng_seed, minimum=0)


@dataclass(frozen=True)
class AttackReport:
    """Outcome of simulate_attack."""

    received_mw: float
    spot_m: float
    operating_point: OperatingPoint
    emitted_mw: float
    capture_fraction: float
    feasible: bool
    success_probability: float
    trial_outcomes: tuple[bool, ...]
    notes: str = ""

    def csv_rows(self) -> list[tuple[str, str]]:
        rows = [
            ("received_mw", f"{self.received_mw:.9g}"),
            ("spot_m", f"{self.spot_m:.9g}"),
            ("i_dc_ma", f"{self.operating_point.bias_ma:.6f}"),
            ("i_pp_ma", f"{self.operating_point.peak_to_peak_ma:.6f}"),
            ("feasible", "true" if self.feasible else "false"),
            ("success_probability", f"{self.success_probability:.6f}"),
            ("trials", str(len(self.trial_outcomes))),
            ("successes", str(sum(self.trial_outcomes))),
            ("outcomes", "".join("T" if o else "F" for o in self.trial_outcomes)),
        ]
        if self.notes:
            rows.append(("notes", self.notes))
        return rows


def success_probability(device: DeviceProfile, received_mw: float,
                        edge: RecognitionEdge = DEFAULT_EDGE) -> float:
    """Per-attempt recognition probability for the received power."""
    _check_nonnegative("received_mw", received_mw)
    p = _raw_probability(device.min_power_mw, received_mw, edge.width)
    if p < P_CLAMP_LOW:
        return 0.0
    if p > P_CLAMP_HIGH:
        return 1.0
    return p


def _raw_probability(min_power_mw: float, received_mw: float,
                     width: float) -> float:
    ratio = received_mw / min_power_mw
    # a received power too small for the ratio to be a float is no power
    if ratio == 0:
        return 0.0
    z = math.log(ratio) / width
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def calibrate_edge(observations, scenario_template: AttackScenario,
                   lo: float = 0.01, hi: float = 10.0) -> RecognitionEdge:
    """Fit the edge width to (distance_m, success_rate) observations.

    Received power per observation comes from the template's diode,
    budget and optics with focus tracking the observation distance. The
    width minimizing the sum of squared rate errors is found by
    golden-section search on [lo, hi]; on a flat objective the search
    collapses deterministically onto the lower end of the bracket. When it
    ends on an end where the objective still falls, FitError names the end.
    """
    obs = [(float(d), float(r)) for d, r in observations]
    for d, r in obs:
        _check_positive("distance_m", d)
        if not 0 <= r <= 1:
            raise ValueError(f"success_rate must be in [0, 1], got {r}")
    if len(obs) < 2 or len({d for d, _ in obs}) < 2:
        raise FitError("need at least two observations at distinct distances")
    op = diode_mod.optimize_operating_point(scenario_template.diode,
                                            scenario_template.budget_mw)
    emitted = diode_mod.average_power(scenario_template.diode, op)
    received = [optics.received_power(scenario_template.path.focused_at(d),
                                      scenario_template.aperture, d, emitted)
                for d, _ in obs]
    min_power = scenario_template.device.min_power_mw

    def sse(width: float) -> float:
        total = 0.0
        for (_, rate), r in zip(obs, received):
            total += (_raw_probability(min_power, r, width) - rate) ** 2
        return total

    a, b = optics._golden_min(sse, lo, hi)
    width = (a + b) / 2
    # a (b) stays at lo (hi) only when the search never left that end
    for name, end, kept in (("lo", lo, a), ("hi", hi, b)):
        if kept == end and sse(end) < sse(width):
            raise FitError(f"best width lies beyond {name}={end}")
    return RecognitionEdge(width)


def simulate_attack(scenario: AttackScenario, trials: int) -> AttackReport:
    """Simulate `trials` independent injection attempts.

    Computes the budget-optimal operating point, pushes the average power
    through the link at the scenario distance (one spot, one capture
    fraction, both reported with the emitted power) and evaluates the success
    probability at DEFAULT_EDGE. Devices with speaker authentication
    refuse everything unless the wake word matched. Outcome k is `u_k < p` for the k-th
    uniform u_k of `numpy.random.default_rng(scenario.rng_seed)`. When p
    is exactly 0 or 1 no uniform can change an outcome, so none is drawn
    and numpy is not imported; only 0 < p < 1 draws the trials.
    """
    _check_integer("trials", trials, minimum=1)
    op = diode_mod.optimize_operating_point(scenario.diode, scenario.budget_mw)
    emitted = diode_mod.average_power(scenario.diode, op)
    path = scenario.path
    spot = optics.spot_diameter(path, scenario.distance_m)
    frac = optics.capture_fraction(spot, scenario.aperture)
    received = optics._transmit(path, frac, emitted)
    notes = []
    if emitted < scenario.budget_mw * (1 - 1e-9):
        notes.append(f"swing limited by I_max: average emitted power "
                     f"{emitted:.3g} mW below the {scenario.budget_mw:.3g} mW budget")
    if scenario.device.requires_auth and not scenario.wake_word_matched:
        p = 0.0
        notes.append("device verifies the speaker's wake word and no matching "
                     "wake-word recording is available; forcing p = 0")
    else:
        p = success_probability(scenario.device, received)
    if p == 0.0 or p == 1.0:
        # Generator.random() lies in [0, 1): every draw fails `< 0.0` and
        # passes `< 1.0`, so the outcomes are known without drawing
        outcomes = (p == 1.0,) * trials
    else:
        import numpy as np

        rng = np.random.default_rng(scenario.rng_seed)
        outcomes = tuple((rng.random(trials) < p).tolist())
    if scenario.device.note:
        notes.append(scenario.device.note)
    return AttackReport(
        received_mw=received,
        spot_m=spot,
        operating_point=op,
        emitted_mw=emitted,
        capture_fraction=frac,
        feasible=p >= 0.5,
        success_probability=p,
        trial_outcomes=outcomes,
        notes="; ".join(notes),
    )


def inject(audio: AudioSignal, diode: DiodeProfile, budget_mw: float,
           path: OpticalPath, aperture: Aperture, distance_m: float,
           mic: MicProfile, rng_seed: int = 0) -> AudioSignal:
    """What microphone `mic` hears when `audio` drives the diode at the
    budget's operating point and its light crosses `path` to `aperture` at
    `distance_m`: optimize_operating_point, modulate, emitted_light,
    optics.attenuate and mic.transduce, in that order."""
    # imported here, so that the planners, which import this module, still
    # start without numpy
    from . import mic as mic_mod

    op = diode_mod.optimize_operating_point(diode, budget_mw)
    drive = diode_mod.modulate(diode, op, audio)
    light = diode_mod.emitted_light(diode, drive)
    at_port = optics.attenuate(light, path, aperture, distance_m)
    return mic_mod.transduce(mic, at_port, rng_seed=rng_seed)


def consecutive_success_criterion(outcomes, k: int) -> bool:
    """True when the outcome sequence contains k consecutive successes."""
    _check_integer("k", k, minimum=1)
    run = 0
    for outcome in outcomes:
        run = run + 1 if outcome else 0
        if run >= k:
            return True
    return False


# --- scenario files ---------------------------------------------------------

# scenario-file key -> the kind its text is parsed as
_SCENARIO_KINDS = {
    "device.name": str, "diode.name": str, "command_text": str,
    "distance_m": float, "seed": int, "trials": int, "wake_word_matched": bool,
    "path.lens_diameter_m": float, "path.focus_distance_m": float,
    "path.wavelength_nm": float, "path.pointing_jitter_m": float,
    "path.window_transmission": float, "path.mesh_transmission": float,
    "path.incidence_angle_deg": float,
    "aperture.port_diameter_m": float, "aperture.offset_m": float,
    "budget_mw": float,
}

# constructor field -> scenario key
_FIELD_KEYS = {key.rpartition(".")[2]: key for key in _SCENARIO_KINDS
               if not key.endswith(".name")}


def read_scenario_file(path) -> tuple[dict[str, str], dict[str, int]]:
    """(key -> value text, key -> line number) of a flat key=value file.

    A key given twice keeps its last value and line.
    """
    source = str(path)
    values, lines = {}, {}
    for lineno, raw in enumerate(_read_utf8(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise FormatError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _SCENARIO_KINDS:
            raise FormatError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
        lines[key] = lineno
    return values, lines


def load_scenario(path) -> tuple[AttackScenario, int]:
    """Parse a flat key=value scenario file; returns (scenario, trials)."""
    values, lines = read_scenario_file(path)
    return build_scenario(values, str(path), lines)


def build_scenario(values, source, lines) -> tuple[AttackScenario, int]:
    """(scenario, trials) from a mapping of scenario-file keys to values.

    A value is either text, which is parsed as `_SCENARIO_KINDS` says, or
    already typed (a float, an int, a bool), which is used as is. Keys left
    unset take their defaults after every value is in, so the derived ones
    follow what was set: the focus follows `distance_m` unless
    `path.focus_distance_m` is set, the wavelength follows the diode unless
    `path.wavelength_nm` is, and the port diameter follows the device
    unless `aperture.port_diameter_m` is.

    After the required keys and the device and diode names, every value is
    parsed before any is checked: the first text that does not parse, in
    the order of `values` (for a file, the order it first sets its keys),
    is raised; only when all parse is an out-of-range value reported.

    `source` names the file the values were read from, or is None when
    there is none. A bad value at a key that `lines` places in that file
    raises FormatError naming `source:line`; a bad value at any other key
    raises ValueError, as does a key that is not a scenario-file key. A
    device or diode name that is not in its table raises
    ProfileNotFoundError, or FormatError naming `source:line` when the
    file holds the name.
    """
    for required in ("device.name", "budget_mw", "distance_m"):
        if required not in values:
            message = f"missing required key {required!r}"
            if source is None:
                raise ValueError(message)
            raise FormatError(f"{source}: {message}")

    try:
        device = lookup_device(values["device.name"])
        diode = get_diode(values.get("diode.name", DEFAULT_DIODE))
    except ProfileNotFoundError as exc:
        key = exc.kind + ".name"
        if key not in lines:
            raise
        raise _scenario_error(source, lines, key, str(exc)) from None

    # every value is parsed before any is checked, in the order of `values`
    typed = {}
    for key, value in values.items():
        kind = _SCENARIO_KINDS.get(key)
        if kind is None:
            raise ValueError(f"unknown key {key!r}")
        if kind is str or not isinstance(value, str):
            typed[key] = value
        else:
            try:
                typed[key] = _parse_value(value, kind, key)
            except ValueError as exc:
                raise _scenario_error(source, lines, key, str(exc)) from None

    get = typed.get
    distance = typed["distance_m"]
    trials = get("trials", 10)
    try:
        _check_integer("trials", trials, minimum=1)
        # checked before the focus follows it
        _check_positive("distance_m", distance)
        path = OpticalPath(
            lens_diameter_m=get("path.lens_diameter_m",
                                optics.DEFAULT_LENS_DIAMETER_M),
            focus_distance_m=get("path.focus_distance_m", distance),
            wavelength_nm=get("path.wavelength_nm", diode.wavelength_nm),
            pointing_jitter_m=get("path.pointing_jitter_m", 0.0),
            window_transmission=get("path.window_transmission", 1.0),
            mesh_transmission=get("path.mesh_transmission",
                                  optics.DEFAULT_MESH_TRANSMISSION),
            incidence_angle_deg=get("path.incidence_angle_deg", 0.0),
        )
        aperture = Aperture(
            port_diameter_m=get("aperture.port_diameter_m",
                                device.port_diameter_m),
            offset_m=get("aperture.offset_m", 0.0),
        )
        scenario = AttackScenario(
            device=device,
            diode=diode,
            path=path,
            aperture=aperture,
            budget_mw=typed["budget_mw"],
            distance_m=distance,
            command_text=get("command_text", ""),
            wake_word_matched=get("wake_word_matched", False),
            rng_seed=get("seed", 0),
        )
    except ValueError as exc:
        # the constructors' messages start with the field they reject
        raise _scenario_error(source, lines,
                              _FIELD_KEYS.get(str(exc).partition(" ")[0]),
                              str(exc)) from None
    return scenario, trials


def _scenario_error(source, lines, key, message):
    """FormatError at `source:line` when `lines` places `key` in the file,
    else ValueError."""
    if key in lines:
        return FormatError(f"{source}:{lines[key]}: {message}")
    return ValueError(message)
