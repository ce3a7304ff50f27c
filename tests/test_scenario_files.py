"""Scenario files against the reader they replaced.

`reference_read_scenario_file` and `reference_build_scenario` are the
text-mode reader and the value-by-value builder as first written, with one
change to the builder: it parses every value, in the order of `values`,
before it checks any, so that the first text that does not parse is the
error. The property draws scenario files (any line ending, comments,
blanks, repeated keys, any subset of the keys, up to two bad values, an
unknown key or a malformed line) and flag overrides, and requires
`load_scenario` and `build_scenario` to give a `repr`-equal result or
raise the same type with the same message.
"""

import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoninject import cli, devices, optics, profiles
from photoninject.devices import lookup_device
from photoninject.errors import (FormatError, ProfileNotFoundError,
                                 _check_integer, _check_positive)
from photoninject.injection import (AttackScenario, build_scenario,
                                    load_scenario, read_scenario_file)
from photoninject.optics import Aperture, OpticalPath

# --- the reader as first written ---------------------------------------------

REFERENCE_KEYS = {
    "device.name", "diode.name", "budget_mw", "distance_m", "command_text",
    "wake_word_matched", "trials", "seed",
    "path.lens_diameter_m", "path.focus_distance_m", "path.wavelength_nm",
    "path.pointing_jitter_m", "path.window_transmission",
    "path.mesh_transmission", "path.incidence_angle_deg",
    "aperture.port_diameter_m", "aperture.offset_m",
}
REFERENCE_FIELD_KEYS = {key.rpartition(".")[2]: key for key in REFERENCE_KEYS
                        if not key.endswith(".name")}


def reference_read_scenario_file(path):
    source = str(path)
    # text mode, as first written, with the encoding fixed so that the
    # oracle does not depend on the locale
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in REFERENCE_KEYS:
            raise FormatError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
        lines[key] = lineno
    return values, lines


def reference_build_scenario(values, source, lines):
    def error(key, message):
        if key in lines:
            return FormatError(f"{source}:{lines[key]}: {message}")
        return ValueError(message)

    for required in ("device.name", "budget_mw", "distance_m"):
        if required not in values:
            message = f"missing required key {required!r}"
            if source is None:
                raise ValueError(message)
            raise FormatError(f"{source}: {message}")

    def get(key, default=None, kind=float):
        value = values.get(key, default)
        if not isinstance(value, str):
            return value
        try:
            return profiles._parse_value(value, kind, key)
        except ValueError as exc:
            raise error(key, str(exc)) from None

    try:
        device = lookup_device(values["device.name"])
        diode = profiles.get_diode(values.get("diode.name", "blue-450"))
    except ProfileNotFoundError as exc:
        key = exc.kind + ".name"
        if key not in lines:
            raise
        raise error(key, str(exc)) from None
    # the one change: the first text that does not parse is raised before
    # any value is checked
    kinds = {"seed": int, "trials": int, "wake_word_matched": bool}
    for key in values:
        if key not in ("device.name", "diode.name", "command_text"):
            get(key, kind=kinds.get(key, float))
    distance = get("distance_m")
    seed = get("seed", 0, int)
    trials = get("trials", 10, int)
    wake = get("wake_word_matched", False, bool)
    try:
        _check_integer("trials", trials, minimum=1)
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
            budget_mw=get("budget_mw"),
            distance_m=distance,
            command_text=values.get("command_text", ""),
            wake_word_matched=wake,
            rng_seed=seed,
        )
    except ValueError as exc:
        raise error(REFERENCE_FIELD_KEYS.get(str(exc).partition(" ")[0]),
                    str(exc)) from None
    return scenario, trials


def reference_load_scenario(path):
    values, lines = reference_read_scenario_file(path)
    return reference_build_scenario(values, str(path), lines)


# --- drawn scenario files ----------------------------------------------------

DEVICES = [d.name for d in devices.load_devices()]
DIODES = sorted(p.name for p in profiles.load_diodes().values())


def number_text(lo, hi):
    """A float in [lo, hi] as a file would spell it."""
    return st.floats(lo, hi).flatmap(lambda x: st.sampled_from(
        [repr(x), f"{x:g}", f"{x:.3e}", f"{x:.6f}"]))


def integer_text(lo, hi):
    return st.integers(lo, hi).flatmap(lambda n: st.sampled_from(
        [str(n), f"+{n}", f"0{n}" if n else "0", f"{n:_}"]))


# key -> its valid values as text
GOOD = {
    "device.name": st.sampled_from(DEVICES).flatmap(lambda n: st.sampled_from(
        [n, n.upper(), n.lower()])),
    "diode.name": st.sampled_from(DIODES),
    "budget_mw": number_text(0.05, 200.0),
    "distance_m": number_text(0.05, 500.0),
    "command_text": st.text(string.ascii_letters + " ,.'é", max_size=20),
    "wake_word_matched": st.sampled_from(
        ["yes", "no", "true", "false", "1", "0", "TRUE", "No"]),
    "trials": integer_text(1, 500),
    "seed": integer_text(0, 2 ** 40),
    "path.lens_diameter_m": number_text(0.001, 0.3),
    "path.focus_distance_m": number_text(0.05, 500.0),
    "path.wavelength_nm": number_text(300.0, 1100.0),
    "path.pointing_jitter_m": number_text(0.0, 0.01),
    "path.window_transmission": number_text(0.0, 1.0),
    "path.mesh_transmission": number_text(0.0, 1.0),
    "path.incidence_angle_deg": number_text(0.0, 89.0),
    "aperture.port_diameter_m": number_text(1e-5, 0.01),
    "aperture.offset_m": number_text(0.0, 0.002),
}
REQUIRED = ("device.name", "budget_mw", "distance_m")

# text no key accepts, or that a key rejects: unparsable, non-finite,
# fractional where an integer is due, out of range, an unknown name
BAD = st.sampled_from(["five", "", "nan", "inf", "-inf", "1e999", "2.5",
                       "-1", "0", "2", "90", "maybe", "Nosuch", "1,5"])

# a character that ends a line for str.splitlines, inside a value
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", " "]


@st.composite
def scenario_files(draw):
    """(file text, {key: typed flag value})."""
    keys = draw(st.lists(st.sampled_from(sorted(GOOD)), unique=True))
    # the required keys are usually all there, so that most files get as
    # far as the value checks
    if draw(st.integers(0, 9)):
        keys = list(dict.fromkeys([*REQUIRED, *keys]))
    entries = [(key, draw(GOOD[key])) for key in keys]
    # a key given twice: the last one counts
    for _ in range(draw(st.integers(0, 2))):
        if entries:
            key = draw(st.sampled_from(entries))[0]
            entries.insert(draw(st.integers(0, len(entries))),
                           (key, draw(GOOD[key])))
    lines = [f"{key}{draw(st.sampled_from(['=', ' = ', '  =', '= ']))}{value}"
             for key, value in entries]
    fault = draw(st.sampled_from(
        [None, None, "value", "value", "key", "line", "break"]))
    if fault == "value" and lines:
        for i in draw(st.lists(st.integers(0, len(lines) - 1), min_size=1,
                               max_size=2, unique=True)):
            lines[i] = f"{entries[i][0]} = {draw(BAD)}"
    elif fault == "key":
        lines.insert(draw(st.integers(0, len(lines))), "path.bogus = 3")
    elif fault == "line":
        lines.insert(draw(st.integers(0, len(lines))), "just some words")
    elif fault == "break" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += draw(st.sampled_from(LINE_BREAKS)) + "tail"
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["", "   ", "# a comment", "  # indented = comment", "\t"])))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = ""
    for line in lines:
        end = draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" \
            else ends
        text += line + end
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")   # no line end after the last line
    flags = draw(st.fixed_dictionaries({}, optional={
        "device": st.sampled_from(DEVICES + ["Nosuch"]),
        "diode": st.sampled_from(DIODES),
        "budget_mw": st.floats(-1.0, 200.0),
        "distance_m": st.floats(-1.0, 500.0),
        "wake_word_matched": st.just(True),
        "trials": st.integers(-1, 500),
        "seed": st.integers(-1, 2 ** 40),
    }))
    return text, flags


def outcome(call):
    try:
        return "returned", repr(call())
    except Exception as exc:
        return type(exc), str(exc)


def with_flags(values, lines, flags):
    # as the CLI sets them: a flag replaces the file's key and its line
    values, lines = dict(values), dict(lines)
    for dest, value in flags.items():
        key = cli._SCENARIO_FLAGS[dest]
        values[key] = value
        lines.pop(key, None)
    return values, lines


@settings(deadline=None)
@given(scenario_files())
def test_load_scenario_matches_text_mode_reader(tmp_path_factory, drawn):
    text, flags = drawn
    path = tmp_path_factory.getbasetemp() / "drawn_scenario.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(lambda: load_scenario(path)) == \
        outcome(lambda: reference_load_scenario(path))
    # the same file with flag values over it, as `plan --scenario` builds
    try:
        reference = reference_read_scenario_file(path)
    except FormatError:
        return
    assert read_scenario_file(path) == reference
    values, lines = with_flags(*reference, flags)
    assert outcome(lambda: build_scenario(values, str(path), lines)) == \
        outcome(lambda: reference_build_scenario(values, str(path), lines))


@pytest.mark.parametrize("text, message", [
    # a text that does not parse wins over a value out of its range
    ("device.name = Google Home\nbudget_mw = five\ndistance_m = 3\n"
     "path.window_transmission = 2\n", "2: bad number for budget_mw: 'five'"),
    ("device.name = Google Home\nbudget_mw = 5\ndistance_m = 3\n"
     "aperture.offset_m = x\ntrials = 0\n",
     "4: bad number for aperture.offset_m: 'x'"),
    ("device.name = Google Home\nbudget_mw = 5\ndistance_m = -3\n"
     "path.lens_diameter_m = x\n",
     "4: bad number for path.lens_diameter_m: 'x'"),
    ("device.name = Google Home\nbudget_mw = 5\ndistance_m = 3\n"
     "path.mesh_transmission = 2\naperture.offset_m = x\n",
     "5: bad number for aperture.offset_m: 'x'"),
    ("device.name = Google Home\nbudget_mw = x\ndistance_m = 3\n"
     "aperture.offset_m = -1\nseed = -2\n", "2: bad number for budget_mw: 'x'"),
    # the device is looked up before any value is parsed
    ("device.name = Nosuch\nbudget_mw = x\ndistance_m = 3\n",
     "1: unknown device 'Nosuch'; closest matches: Echo"),
    # of two texts that do not parse, the earlier line wins
    ("device.name = Google Home\nbudget_mw = 5\n"
     "path.incidence_angle_deg = y\ndistance_m = 3\nseed = x\n",
     "3: bad number for path.incidence_angle_deg: 'y'"),
])
def test_first_of_two_errors_is_the_reference_one(tmp_path, text, message):
    path = tmp_path / "two.txt"
    path.write_text(text)
    assert outcome(lambda: load_scenario(path)) == \
        outcome(lambda: reference_load_scenario(path)) == \
        (FormatError, f"{path}:{message}")


def test_byte_order_mark_is_skipped(tmp_path):
    text = ("device.name = Google Home\r\nbudget_mw = 5\r\n"
            "distance_m = 3\r\nseed = 4\r\n")
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert repr(load_scenario(marked)) == repr(load_scenario(plain))


def test_non_utf8_file_names_path_and_line(tmp_path):
    path = tmp_path / "latin1.txt"
    # the offset counts from the file's first byte, a byte-order mark too
    for bom in (b"", b"\xef\xbb\xbf"):
        data = (bom + b"device.name = Google Home\r\nbudget_mw = 5\r\n"
                b"command_text = caf\xe9\r\ndistance_m = 3\r\n")
        path.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:3: not UTF-8 text, byte 0xe9 at offset "
                f"{data.index(0xe9)}: invalid continuation byte")):
            load_scenario(path)


def test_unknown_key_outside_a_file():
    with pytest.raises(ValueError, match="^unknown key 'path.bogus'$"):
        build_scenario({"device.name": "Google Home", "budget_mw": 5.0,
                        "distance_m": 3.0, "path.bogus": 1.0}, None, {})
