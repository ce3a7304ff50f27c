import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoninject import injection, optics
from photoninject.devices import load_devices, lookup_device
from photoninject.errors import (DeviceNotFoundError, FitError, FormatError,
                                 ProfileNotFoundError)
from photoninject.injection import (DEFAULT_EDGE, AttackScenario,
                                    RecognitionEdge, build_scenario,
                                    calibrate_edge,
                                    consecutive_success_criterion,
                                    load_scenario, simulate_attack,
                                    success_probability)
from photoninject.optics import Aperture, OpticalPath
from photoninject.profiles import get_diode

# name -> (backend, category, requires_auth, min activation power in mW)
EXPECTED_DEVICES = {
    "Google Home": ("Google Assistant", "Speaker", False, 0.5),
    "Google Home Mini": ("Google Assistant", "Speaker", False, 16),
    "Google Nest Cam IQ": ("Google Assistant", "Camera", False, 9),
    "Echo Plus 1st Generation": ("Alexa", "Speaker", False, 2.4),
    "Echo Plus 2nd Generation": ("Alexa", "Speaker", False, 2.9),
    "Echo": ("Alexa", "Speaker", False, 25),
    "Echo Dot 2nd Generation": ("Alexa", "Speaker", False, 7),
    "Echo Dot 3rd Generation": ("Alexa", "Speaker", False, 9),
    "Echo Show 5": ("Alexa", "Speaker", False, 17),
    "Echo Spot": ("Alexa", "Speaker", False, 29),
    "Facebook Portal Mini (Front Mic)": ("Alexa", "Speaker", False, 1),
    "Facebook Portal Mini (Front Mic; Portal)": ("Portal", "Speaker", False, 6),
    "Fire Cube TV": ("Alexa", "Streamer", False, 13),
    "EcoBee 4": ("Alexa", "Thermostat", False, 1.7),
    "iPhone XR (Front Mic)": ("Siri", "Phone", True, 21),
    "iPad 6th Gen": ("Siri", "Tablet", True, 27),
    "Samsung Galaxy S9 (Bottom Mic)": ("Google Assistant", "Phone", True, 60),
    "Google Pixel 2 (Bottom Mic)": ("Google Assistant", "Phone", True, 46),
}


def scenario_for(device_name, budget, distance, *, ideal=False,
                 wake_word_matched=False, seed=0):
    device = lookup_device(device_name)
    maker = OpticalPath.ideal if ideal else OpticalPath.default
    return AttackScenario(
        device=device,
        diode=get_diode("blue-450"),
        path=maker(distance),
        aperture=Aperture(device.port_diameter_m),
        budget_mw=budget,
        distance_m=distance,
        wake_word_matched=wake_word_matched,
        rng_seed=seed,
    )


class TestDeviceDataset:
    def test_exactly_18_rows(self):
        assert len(load_devices()) == 18

    def test_golden_rows(self):
        devices = {d.name: d for d in load_devices()}
        assert set(devices) == set(EXPECTED_DEVICES)
        for name, (backend, category, auth, min_power) in EXPECTED_DEVICES.items():
            d = devices[name]
            assert d.backend == backend, name
            assert d.category == category, name
            assert d.requires_auth == auth, name
            assert d.min_power_mw == pytest.approx(min_power), name

    def test_portal_mini_has_both_backends(self):
        portal_rows = [d for d in load_devices()
                       if d.name.startswith("Facebook Portal Mini")]
        assert sorted(r.backend for r in portal_rows) == ["Alexa", "Portal"]
        note = next(r for r in portal_rows if r.backend == "Portal").note
        assert "first 3" in note

    def test_lookup_case_insensitive(self):
        assert lookup_device("google home").min_power_mw == 0.5
        assert lookup_device("ECHO SPOT").min_power_mw == 29

    def test_lookup_unknown_suggests(self):
        with pytest.raises(DeviceNotFoundError) as err:
            lookup_device("Galaxy Note")
        assert err.value.suggestions

    def test_wake_words_present(self):
        for d in load_devices():
            assert d.wake_word
            assert d.port_count >= 1

    @pytest.mark.parametrize("field", ["min_power_mw", "port_diameter_m"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_rejected(self, field, bad):
        good = lookup_device("Google Home")
        with pytest.raises(ValueError,
                           match=f"{field} must be positive and finite"):
            replace(good, **{field: bad})


class TestSuccessProbability:
    def test_midpoint_at_threshold(self):
        home = lookup_device("Google Home")
        assert success_probability(home, home.min_power_mw) == 0.5

    def test_clamps(self):
        home = lookup_device("Google Home")
        assert success_probability(home, 100 * home.min_power_mw) == 1.0
        assert success_probability(home, home.min_power_mw / 100) == 0.0
        assert success_probability(home, 0.0) == 0.0

    def test_monotone_in_received(self):
        home = lookup_device("Google Home")
        grid = np.linspace(0, 2, 200)
        ps = [success_probability(home, r) for r in grid]
        assert np.all(np.diff(ps) >= 0)

    def test_decreasing_in_threshold(self):
        weak = lookup_device("Google Home")          # 0.5 mW
        tough = lookup_device("Echo Spot")           # 29 mW
        for received in (0.5, 2.0, 10.0, 29.0):
            assert (success_probability(weak, received)
                    >= success_probability(tough, received))

    def test_negative_received_rejected(self):
        with pytest.raises(ValueError):
            success_probability(lookup_device("Google Home"), -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_received_rejected(self, bad):
        with pytest.raises(ValueError,
                           match="received_mw must be >= 0 and finite"):
            success_probability(lookup_device("Google Home"), bad)


class TestCalibrateEdge:
    OBS = [(20.0, 0.975), (25.0, 0.675), (27.0, 0.0)]

    def template(self):
        return scenario_for("Google Home Mini", 60.0, 20.0)

    def test_fit_matches_frozen_default(self):
        edge = calibrate_edge(self.OBS, self.template())
        assert edge.width == pytest.approx(DEFAULT_EDGE.width, abs=1e-4)

    def test_fit_reproduces_observed_rates(self):
        template = self.template()
        edge = calibrate_edge(self.OBS, template)
        mini = template.device
        preds = {}
        for d, _ in self.OBS:
            r = optics.received_power(template.path.focused_at(d),
                                      template.aperture, d, 60.0)
            preds[d] = success_probability(mini, r, edge)
        assert abs(preds[20.0] - 0.975) <= 0.10
        assert abs(preds[25.0] - 0.675) <= 0.15
        assert preds[27.0] <= 0.01

    def test_two_point_fit(self):
        edge = calibrate_edge([(20.0, 0.975), (27.0, 0.0)], self.template())
        assert edge.width > 0
        template = self.template()
        r20 = optics.received_power(template.path.focused_at(20), template.aperture,
                                    20, 60.0)
        r27 = optics.received_power(template.path.focused_at(27), template.aperture,
                                    27, 60.0)
        assert (success_probability(template.device, r20, edge)
                > success_probability(template.device, r27, edge))

    def test_flat_objective_is_deterministic(self):
        # a unit-slope diode at close range puts exactly min_power on the
        # port at every distance, so 0.5 observations fit exactly for any
        # width and the search collapses onto the lower end of its bracket
        from photoninject.diode import DiodeProfile
        device = lookup_device("Google Home")
        template = AttackScenario(
            device=device,
            diode=DiodeProfile("unit", 10.0, 1.0, 400.0, 450.0),
            path=OpticalPath.ideal(0.1),
            aperture=Aperture(device.port_diameter_m),
            budget_mw=0.5,
            distance_m=0.1,
        )
        obs = [(0.1, 0.5), (0.2, 0.5)]
        e1 = calibrate_edge(obs, template)
        e2 = calibrate_edge(obs, template)
        assert e1.width == e2.width
        assert e1.width == pytest.approx(0.01, abs=1e-3)

    def test_degenerate_observations_rejected(self):
        with pytest.raises(FitError, match="distinct"):
            calibrate_edge([(20.0, 0.9), (20.0, 0.8)], self.template())
        with pytest.raises(FitError, match="two observations"):
            calibrate_edge([(20.0, 0.9)], self.template())


class TestSimulateAttack:
    def test_corridor_scale_attack_feasible(self):
        report = simulate_attack(scenario_for("Google Home", 5.0, 110.0), 10)
        assert report.feasible
        assert report.success_probability == 1.0
        assert report.received_mw >= 0.5

    def test_phone_at_contact_range_threshold(self):
        report = simulate_attack(
            scenario_for("Samsung Galaxy S9 (Bottom Mic)", 60.0, 0.3,
                         ideal=True, wake_word_matched=True), 10)
        assert report.received_mw == pytest.approx(60.0, rel=1e-9)
        assert report.success_probability == pytest.approx(0.5)
        assert report.feasible

    def test_auth_gate_forces_failure(self):
        report = simulate_attack(
            scenario_for("iPhone XR (Front Mic)", 60.0, 0.3, ideal=True,
                         wake_word_matched=False), 10)
        assert report.success_probability == 0.0
        assert not report.feasible
        assert not any(report.trial_outcomes)
        assert "wake" in report.notes

    def test_auth_gate_opens_with_wake_word(self):
        report = simulate_attack(
            scenario_for("iPhone XR (Front Mic)", 60.0, 0.3, ideal=True,
                         wake_word_matched=True), 10)
        assert report.feasible

    def test_threshold_power_sits_on_the_edge_for_all_devices(self):
        for device in load_devices():
            scenario = scenario_for(device.name, device.min_power_mw, 0.3,
                                    ideal=True, wake_word_matched=True)
            report = simulate_attack(scenario, 1)
            assert 0.45 <= report.success_probability <= 0.55, device.name

    def test_probability_never_increases_with_distance(self):
        device = lookup_device("Google Home Mini")
        ps = []
        for d in (5.0, 10.0, 20.0, 24.0, 26.0, 30.0, 60.0):
            report = simulate_attack(scenario_for(device.name, 60.0, d), 1)
            ps.append(report.success_probability)
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_seeded_reproducibility(self):
        a = simulate_attack(scenario_for("Google Home Mini", 60.0, 25.0, seed=5), 40)
        b = simulate_attack(scenario_for("Google Home Mini", 60.0, 25.0, seed=5), 40)
        assert a == b
        c = simulate_attack(scenario_for("Google Home Mini", 60.0, 25.0, seed=6), 40)
        assert a.trial_outcomes != c.trial_outcomes

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            simulate_attack(scenario_for("Google Home", 5.0, 1.0), 0)

    @pytest.mark.parametrize("bad", [2.0, True, "3", None])
    @pytest.mark.parametrize("budget", [5.0, 0.5])  # p = 1, 0 < p < 1
    def test_non_integer_trials_rejected(self, bad, budget):
        scenario = scenario_for("Google Home", budget, 0.3, ideal=True)
        with pytest.raises(ValueError, match="trials must be an integer"):
            simulate_attack(scenario, bad)

    def test_numpy_integer_trials_and_seed_accepted(self):
        scenario = scenario_for("Google Home", 0.5, 0.3, ideal=True, seed=7)
        report = simulate_attack(scenario, 40)
        assert 0 < report.success_probability < 1
        assert simulate_attack(replace(scenario, rng_seed=np.int64(7)),
                               np.int64(40)) == report

    @pytest.mark.parametrize("scenario", [
        scenario_for("Google Home", 5.0, 110.0),             # p = 1
        scenario_for("Echo Spot", 1.0, 50.0),                # p = 0
        scenario_for("iPhone XR (Front Mic)", 60.0, 0.3),    # gated: p = 0
    ], ids=["success", "out-of-reach", "wake-word-gate"])
    def test_certain_outcome_draws_nothing(self, scenario, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew trials whose outcome is certain")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        report = simulate_attack(scenario, 25)
        p = report.success_probability
        assert p in (0.0, 1.0)
        assert report.trial_outcomes == (p == 1.0,) * 25

    def test_report_csv_rows(self):
        report = simulate_attack(scenario_for("Google Home", 5.0, 110.0), 3)
        fields = dict(report.csv_rows())
        assert fields["feasible"] == "true"
        assert fields["trials"] == "3"
        assert set(fields) >= {"received_mw", "spot_m", "i_dc_ma", "i_pp_ma",
                               "success_probability", "outcomes"}


def reference_outcomes(seed, trials, p):
    """Every trial drawn: the outcomes as they were before certain ones
    stopped drawing. Kept as the oracle for simulate_attack."""
    return tuple((np.random.default_rng(seed).random(trials) < p).tolist())


@st.composite
def attack_scenarios(draw):
    """(scenario, expected class of p) over the three kinds of outcome."""
    seed = draw(st.integers(0, 2**63))
    kind = draw(st.sampled_from(["p0-gate", "p0-reach", "p1", "uncertain"]))
    if kind == "p0-gate":
        name = draw(st.sampled_from([d.name for d in load_devices()
                                     if d.requires_auth]))
        scenario = scenario_for(name, draw(st.floats(1.0, 60.0)),
                                draw(st.floats(0.3, 5.0)), seed=seed)
    elif kind == "p0-reach":
        scenario = scenario_for("Echo Spot", draw(st.floats(0.5, 1.0)),
                                draw(st.floats(50.0, 110.0)), seed=seed)
    elif kind == "p1":
        scenario = scenario_for("Google Home", draw(st.floats(5.0, 60.0)),
                                draw(st.floats(0.5, 110.0)), seed=seed)
    else:
        # ideal optics at contact range deliver nearly the whole budget,
        # so a budget within 3% of the threshold lands on the edge
        device = draw(st.sampled_from(load_devices()))
        scenario = scenario_for(
            device.name, device.min_power_mw * draw(st.floats(0.97, 1.03)),
            0.3, ideal=True, wake_word_matched=True, seed=seed)
    return scenario, kind


@settings(deadline=None, max_examples=200)
@given(attack_scenarios(), st.integers(1, 2000))
def test_outcomes_match_every_trial_drawn(drawn, trials):
    scenario, kind = drawn
    report = simulate_attack(scenario, trials)
    p = report.success_probability
    assert {"p0-gate": p == 0.0, "p0-reach": p == 0.0, "p1": p == 1.0,
            "uncertain": 0.0 < p < 1.0}[kind], (kind, p)
    assert report.trial_outcomes == reference_outcomes(scenario.rng_seed,
                                                       trials, p)


class TestConsecutiveCriterion:
    def test_examples(self):
        assert consecutive_success_criterion([True, True, True], 3)
        assert not consecutive_success_criterion([True, False, True, True], 3)
        assert consecutive_success_criterion([False, True, True, True, False], 3)

    def test_singleton(self):
        assert consecutive_success_criterion([True], 1)
        assert not consecutive_success_criterion([], 1)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            consecutive_success_criterion([True], 0)

    def test_matches_string_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            outcomes = list(rng.random(rng.integers(0, 12)) < 0.5)
            k = int(rng.integers(1, 5))
            oracle = "T" * k in "".join("T" if o else "F" for o in outcomes)
            assert consecutive_success_criterion(outcomes, k) == oracle


class TestScenarioFiles:
    GOOD = """
# corridor attack
device.name = Google Home
diode.name = blue-450
budget_mw = 5
distance_m = 110
command_text = what time is it
wake_word_matched = false
trials = 10
seed = 7
"""
    # line number of a line appended to GOOD
    APPENDED = len(GOOD.splitlines()) + 1

    def test_parse_full_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(self.GOOD)
        scenario, trials = load_scenario(path)
        assert scenario.device.name == "Google Home"
        assert scenario.budget_mw == 5.0
        assert scenario.distance_m == 110.0
        assert scenario.path.focus_distance_m == 110.0  # defaults to distance
        assert scenario.path.wavelength_nm == 450.0     # follows the diode
        assert scenario.aperture.port_diameter_m == scenario.device.port_diameter_m
        assert scenario.rng_seed == 7
        assert trials == 10

    def test_path_overrides(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(self.GOOD + "path.mesh_transmission = 1.0\n"
                                    "path.incidence_angle_deg = 21.8\n"
                                    "aperture.offset_m = 0.0005\n")
        scenario, _ = load_scenario(path)
        assert scenario.path.mesh_transmission == 1.0
        assert scenario.path.incidence_angle_deg == 21.8
        assert scenario.aperture.offset_m == 0.0005

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(self.GOOD + "path.bogus = 3\n")
        with pytest.raises(FormatError, match="unknown key"):
            load_scenario(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("device.name = Google Home\nbudget_mw = 5\n")
        with pytest.raises(FormatError, match="distance_m"):
            load_scenario(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("device.name = Google Home\nbudget_mw = five\n"
                        "distance_m = 1\n")
        with pytest.raises(FormatError, match="bad number"):
            load_scenario(path)

    @pytest.mark.parametrize("line, message", [
        ("budget_mw = nan", "bad number for budget_mw: 'nan'"),
        ("budget_mw = inf", "bad number for budget_mw: 'inf'"),
        ("distance_m = inf", "bad number for distance_m: 'inf'"),
        ("path.pointing_jitter_m = -inf", "bad number for path.pointing"),
        ("trials = 2.7", "bad integer for trials: '2.7'"),
        ("seed = 3.9", "bad integer for seed: '3.9'"),
        ("seed = 1e3", "bad integer for seed: '1e3'"),
    ])
    def test_non_finite_and_fractional_values_rejected(self, tmp_path, line,
                                                        message):
        path = tmp_path / "s.txt"
        path.write_text(self.GOOD + line + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:"
                                              f"{self.APPENDED}: {message}"):
            load_scenario(path)

    @pytest.mark.parametrize("line, message", [
        ("path.window_transmission = 2", "window_transmission must be in"),
        ("path.lens_diameter_m = 0", "lens_diameter_m must be positive"),
        ("aperture.offset_m = -1", "offset_m must be >= 0"),
        ("budget_mw = -1", "budget_mw must be positive"),
        ("seed = -1", "seed must be >= 0, got -1"),
    ])
    def test_out_of_range_values_name_the_file(self, tmp_path, line, message):
        path = tmp_path / "s.txt"
        path.write_text(self.GOOD + line + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:"
                                              f"{self.APPENDED}: .*{message}"):
            load_scenario(path)

    def test_bad_distance_names_distance_m(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("device.name = Google Home\nbudget_mw = 5\n"
                        "distance_m = -3\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:3: distance_m must be positive and finite, got -3.0")):
            load_scenario(path)

    def test_bad_boolean_names_its_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(self.GOOD + "wake_word_matched = maybe\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:{self.APPENDED}: bad boolean 'maybe'")):
            load_scenario(path)

    def test_readme_block_names_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Scenario files", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.txt"
        path.write_text(block)
        scenario, trials = load_scenario(path)
        assert set(injection.read_scenario_file(path)[0]) == \
            injection._SCENARIO_KEYS
        assert (scenario.device.name, trials) == ("Google Home", 10)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("just some words\n")
        with pytest.raises(FormatError, match="key = value"):
            load_scenario(path)


class TestBuildScenario:
    def test_typed_values_match_the_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("device.name = Google Home Mini\nbudget_mw = 60\n"
                        "distance_m = 20\nwake_word_matched = true\n"
                        "seed = 4\n")
        typed = build_scenario({"device.name": "Google Home Mini",
                                "budget_mw": 60.0, "distance_m": 20.0,
                                "wake_word_matched": True, "seed": 4},
                               None, {})
        assert repr(typed) == repr(load_scenario(path))

    def test_derived_values_follow_their_keys(self):
        scenario, _ = build_scenario({"device.name": "Google Home",
                                      "diode.name": "red-638",
                                      "budget_mw": 5.0, "distance_m": 30.0},
                                     None, {})
        assert scenario.path.focus_distance_m == 30.0
        assert scenario.path.wavelength_nm == get_diode("red-638").wavelength_nm
        assert scenario.aperture.port_diameter_m == \
            lookup_device("Google Home").port_diameter_m

    def test_value_outside_the_file_raises_value_error(self):
        # a value no file line holds has no line to name
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            build_scenario({"device.name": "Google Home", "budget_mw": 5.0,
                            "distance_m": 3.0, "seed": -1}, "s.txt",
                           {"device.name": 1})

    def test_text_outside_the_file_raises_value_error(self):
        with pytest.raises(ValueError, match="^bad number for budget_mw: "
                                             "'five'$"):
            build_scenario({"device.name": "Google Home", "budget_mw": "five",
                            "distance_m": 3.0}, None, {})

    @pytest.mark.parametrize("key, kind", [("device.name", "device"),
                                           ("diode.name", "diode")])
    def test_unknown_name(self, key, kind):
        values = {"device.name": "Google Home", "budget_mw": 5.0,
                  "distance_m": 3.0, key: "Nosuch"}
        with pytest.raises(ProfileNotFoundError) as err:
            build_scenario(values, None, {})
        assert err.value.kind == kind
        with pytest.raises(FormatError,
                           match=f"^s.txt:2: unknown {kind} 'Nosuch'"):
            build_scenario(values, "s.txt", {key: 2})

    def test_missing_key_without_a_file(self):
        with pytest.raises(ValueError, match="missing required key 'budget_mw'"):
            build_scenario({"device.name": "Google Home", "distance_m": 3.0},
                           None, {})


class TestScenarioValidation:
    @pytest.mark.parametrize("field", ["budget_mw", "distance_m"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_rejected(self, field, bad):
        good = scenario_for("Google Home", 5.0, 10.0)
        with pytest.raises(ValueError, match=field):
            replace(good, **{field: bad})

    def test_negative_seed_rejected(self):
        good = scenario_for("Google Home", 5.0, 10.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            replace(good, rng_seed=-1)
        assert replace(good, rng_seed=0).rng_seed == 0

    @pytest.mark.parametrize("bad", [2.5, 3.0, None, "3", True])
    def test_non_integer_seed_rejected(self, bad):
        good = scenario_for("Google Home", 5.0, 10.0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            replace(good, rng_seed=bad)
        assert replace(good, rng_seed=np.int64(3)).rng_seed == 3


class TestRecognitionEdge:
    def test_width_positive(self):
        with pytest.raises(ValueError):
            RecognitionEdge(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_width_finite(self, bad):
        with pytest.raises(ValueError,
                           match="edge width must be positive and finite"):
            RecognitionEdge(bad)

    def test_default_is_frozen_fit(self):
        assert DEFAULT_EDGE.width == pytest.approx(0.0197, abs=5e-4)
