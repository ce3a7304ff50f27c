import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import synth_command
from photoninject import authsim, cli, devices, profiles, wavio
from photoninject.signals import generate_tone

SR = 48000
DATA_DIR = Path(profiles.__file__).parent / "data"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "device.name = Google Home\n"
        "budget_mw = 5\n"
        "distance_m = 110\n"
        "trials = 10\n"
        "seed = 7\n")
    return str(path)


class TestProfiles:
    def test_lists_all_devices_csv(self, capsys):
        code, out, _ = run(["profiles", "--format", "csv"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["name", "backend", "category", "requires_auth",
                           "min_power_mw"]
        assert len(rows) == 19
        assert rows[1] == ["Google Home", "Google Assistant", "Speaker", "no", "0.5"]

    def test_text_mode(self, capsys):
        code, out, _ = run(["profiles"], capsys)
        assert code == 0
        assert "Echo Spot" in out


class TestPlan:
    def test_feasible_plan(self, capsys):
        code, out, _ = run(["plan", "--device", "Google Home", "--budget-mw", "5",
                            "--distance-m", "110", "--format", "csv"], capsys)
        assert code == 0
        fields = dict(csv_rows(out)[1:])
        assert fields["feasible"] == "true"
        assert float(fields["received_mw"]) >= 0.5
        assert fields["beam_visible"] == "yes"

    def test_infeasible_plan_exits_1(self, capsys):
        code, out, _ = run(["plan", "--device", "Echo Spot", "--budget-mw", "5",
                            "--distance-m", "50"], capsys)
        assert code == 1

    def test_unknown_device_exits_2(self, capsys):
        code, _, err = run(["plan", "--device", "Galaxy Note",
                            "--budget-mw", "5", "--distance-m", "1"], capsys)
        assert code == 2
        assert "unknown device" in err

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run(["plan", "--device", "Google Home"], capsys)
        assert code == 2

    def test_trials_and_seed_are_usage_errors(self, scenario_file, capsys):
        # plan runs one trial and prints no outcome: it takes neither flag
        for extra in (["--device", "Google Home", "--budget-mw", "5",
                       "--distance-m", "10"], ["--scenario", scenario_file]):
            for flag in (["--seed", "1"], ["--trials", "0"]):
                code, out, err = run(["plan", *extra, *flag], capsys)
                assert (code, out) == (2, "")
                assert err.endswith(
                    f"error: unrecognized arguments: {' '.join(flag)}\n")

    def test_bad_distance_names_distance_m(self, capsys):
        code, out, err = run(["plan", "--device", "Google Home",
                              "--budget-mw", "5", "--distance-m", "-3"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: distance_m must be positive and finite, got -3.0\n"

    def test_bad_distance_in_file_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("device.name = Google Home\nbudget_mw = 5\n"
                        "distance_m = -3\n")
        code, out, err = run(["plan", "--scenario", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == (f"error: {path}:3: distance_m must be positive and "
                       f"finite, got -3.0\n")


def plan_output(argv, capsys):
    return run(["plan", *argv, "--format", "csv"], capsys)


def write_scenario(path, device, budget, distance, *, diode=None,
                   wake=None, extra=""):
    lines = [f"device.name = {device}", f"budget_mw = {budget!r}",
             f"distance_m = {distance!r}"]
    if diode is not None:
        lines.append(f"diode.name = {diode}")
    if wake is not None:
        lines.append(f"wake_word_matched = {'true' if wake else 'false'}")
    path.write_text("\n".join(lines) + "\n" + extra)
    return str(path)


class TestPlanScenarioOverrides:
    """A flag given with --scenario sets the file key it maps to, and the
    values derived from that key follow it as they do for the flags alone."""

    MINI = ["--device", "Google Home Mini", "--budget-mw", "60"]

    @pytest.fixture
    def mini_file(self, tmp_path):
        return write_scenario(tmp_path / "f.txt", "Google Home Mini", 60.0, 20.0)

    def test_distance_refocuses(self, mini_file, capsys):
        got = plan_output(["--scenario", mini_file, "--distance-m", "25"], capsys)
        want = plan_output([*self.MINI, "--distance-m", "25"], capsys)
        assert got == want
        fields = dict(csv_rows(got[1])[1:])
        assert fields["received_mw"] == "16.2323748"
        assert fields["success_probability"] == "0.675033"

    def test_device_rederives_the_aperture(self, mini_file, capsys):
        got = plan_output(["--scenario", mini_file, "--device", "Google Home"],
                          capsys)
        want = plan_output(["--device", "Google Home", "--budget-mw", "60",
                            "--distance-m", "20"], capsys)
        assert got == want
        assert dict(csv_rows(got[1])[1:])["capture_fraction"] == "1"

    def test_diode_sets_the_wavelength(self, mini_file, capsys):
        got = plan_output(["--scenario", mini_file, "--diode", "red-638"], capsys)
        want = plan_output([*self.MINI, "--distance-m", "20",
                            "--diode", "red-638"], capsys)
        assert got == want
        assert dict(csv_rows(got[1])[1:])["diode"] == "red-638"

    def test_wake_word_flag_opens_the_gate(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "a.txt", "iPhone XR (Front Mic)",
                              60.0, 5.0)
        got = plan_output(["--scenario", path, "--wake-word-matched"], capsys)
        want = plan_output(["--device", "iPhone XR (Front Mic)", "--budget-mw",
                            "60", "--distance-m", "5", "--wake-word-matched"],
                           capsys)
        assert got == want
        assert dict(csv_rows(got[1])[1:])["success_probability"] == "1.000000"

    def test_set_focus_is_kept(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "f.txt", "Google Home Mini", 60.0,
                              20.0, extra="path.focus_distance_m = 20\n")
        got = plan_output(["--scenario", path, "--distance-m", "25"], capsys)
        assert dict(csv_rows(got[1])[1:])["received_mw"] == "0.00357760952"


DEVICES = [d.name for d in devices.load_devices()]
DIODES = sorted(p.name for p in profiles.load_diodes().values())

plan_values = st.fixed_dictionaries({
    "device": st.sampled_from(DEVICES),
    "diode": st.sampled_from(DIODES),
    "budget": st.floats(0.05, 200.0),
    "distance": st.floats(0.05, 500.0),
    "wake": st.booleans(),
})


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan_values, plan_values)
def test_plan_flags_match_scenario_files(tmp_path, capsys, want, other):
    flags = ["--device", want["device"], "--diode", want["diode"],
             "--budget-mw", repr(want["budget"]),
             "--distance-m", repr(want["distance"])]
    if want["wake"]:
        flags.append("--wake-word-matched")
    expected = plan_output(flags, capsys)
    same = write_scenario(tmp_path / "same.txt", want["device"],
                          want["budget"], want["distance"],
                          diode=want["diode"], wake=want["wake"])
    assert plan_output(["--scenario", same], capsys) == expected
    # a file holding other values, each overridden by a flag; the flag
    # can only set the wake word, so the file leaves it unmatched
    overridden = write_scenario(tmp_path / "other.txt", other["device"],
                                other["budget"], other["distance"],
                                diode=other["diode"], wake=False,
                                extra="trials = 3\nseed = 9\n")
    assert plan_output(["--scenario", overridden, *flags], capsys) == expected


class TestSimulate:
    def test_simulate_scenario(self, scenario_file, capsys):
        code, out, _ = run(["simulate", "--scenario", scenario_file,
                            "--format", "csv"], capsys)
        assert code == 0
        fields = dict(csv_rows(out)[1:])
        assert fields["feasible"] == "true"
        assert fields["three_consecutive_success"] == "true"
        assert fields["outcomes"] == "TTTTTTTTTT"

    def test_deterministic_output(self, scenario_file, capsys):
        _, out1, _ = run(["simulate", "--scenario", scenario_file], capsys)
        _, out2, _ = run(["simulate", "--scenario", scenario_file], capsys)
        assert out1 == out2

    def test_negative_seed_exits_2(self, scenario_file, capsys):
        code, out, err = run(["simulate", "--scenario", scenario_file,
                              "--seed", "-1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: seed must be >= 0, got -1\n"

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(["simulate", "--scenario", "/nonexistent/s.txt"], capsys)
        assert code == 3

    def test_bad_scenario_key_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("device.name = Google Home\nbudget_mw = 5\n"
                        "distance_m = 1\nbogus = 1\n")
        code, _, err = run(["simulate", "--scenario", str(path)], capsys)
        assert code == 3
        assert "unknown key" in err

    @pytest.mark.parametrize("line", ["path.window_transmission = 2",
                                      "budget_mw = -1", "seed = -1"])
    def test_out_of_range_scenario_value_exits_3(self, scenario_file, line,
                                                 capsys):
        with open(scenario_file, "a") as fh:
            fh.write(line + "\n")
        code, out, err = run(["simulate", "--scenario", scenario_file], capsys)
        assert code == 3
        assert out == ""
        # the appended line is the file's sixth
        assert err.startswith(f"error: {scenario_file}:6: ")


class TestProfileColumns:
    def test_missing_device_column_exits_3(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "devices.csv").write_text(
            "name,backend,category,requires_auth,min_power_mw,"
            "port_diameter_m,wake_word\n"
            "Lab Speaker,Alexa,speaker,no,0.5,0.001,alexa\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        for argv in (["profiles"], ["range", "--device", "Lab Speaker",
                                    "--budget-mw", "5"]):
            code, _, err = run(argv, capsys)
            assert code == 3
            assert "devices.csv: missing column 'port_count'" in err

    def test_bad_device_number_exits_3(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "devices.csv").write_text(
            "# lab devices\n"
            "name,backend,category,requires_auth,min_power_mw,"
            "port_diameter_m,port_count,wake_word\n"
            "Lab Speaker,Alexa,speaker,no,0.5,0.001,three,alexa\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        code, _, err = run(["profiles"], capsys)
        assert code == 3
        assert ("devices.csv:3: bad integer for column 'port_count': 'three'"
                in err)

    def test_duplicate_device_name_exits_3(self, tmp_path, monkeypatch,
                                           capsys):
        row = "Lab Speaker,Alexa,speaker,no,0.5,0.001,2,alexa\n"
        (tmp_path / "devices.csv").write_text(
            "name,backend,category,requires_auth,min_power_mw,"
            "port_diameter_m,port_count,wake_word\n" + row + row.lower())
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        code, out, err = run(["profiles"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: devices.csv:3: duplicate name 'lab speaker'\n"

    def test_csv_fields_are_quoted(self, tmp_path, monkeypatch, capsys):
        # a comma inside a name or note stays inside its field
        for name in ("diodes.csv", "mics.csv"):
            (tmp_path / name).write_bytes((DATA_DIR / name).read_bytes())
        (tmp_path / "devices.csv").write_text(
            "name,backend,category,requires_auth,min_power_mw,"
            "port_diameter_m,port_count,wake_word,note\n"
            '"Lab Speaker, Kitchen",Alexa,Speaker,no,0.5,0.001,2,Alexa,'
            '"fitted, ""not"" measured"\n')
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        code, out, _ = run(["profiles", "--format", "csv"], capsys)
        assert code == 0
        assert csv_rows(out)[1] == ["Lab Speaker, Kitchen", "Alexa",
                                    "Speaker", "no", "0.5"]
        code, out, _ = plan_output(["--device", "lab speaker, kitchen",
                                    "--budget-mw", "5", "--distance-m", "10"],
                                   capsys)
        assert code == 0
        rows = csv_rows(out)
        assert {len(row) for row in rows} == {2}
        assert rows[1] == ["device", "Lab Speaker, Kitchen"]
        assert rows[-1] == ["notes", 'fitted, "not" measured']


class TestUnknownNames:
    """A name that is in no table exits 2 from a flag, and 3 naming the
    file and line from a scenario file."""

    @pytest.fixture
    def wav(self, tmp_path):
        path = tmp_path / "cmd.wav"
        wavio.save_wav(generate_tone(1000, 0.01, SR, 0.8), path)
        return str(path)

    @pytest.mark.parametrize("argv, message", [
        (["plan", "--device", "Nosuch", "--budget-mw", "5",
          "--distance-m", "1"], "unknown device 'Nosuch'"),
        (["plan", "--device", "Google Home", "--budget-mw", "5",
          "--distance-m", "1", "--diode", "green"], "unknown diode 'green'"),
        (["range", "--device", "Nosuch", "--budget-mw", "5"],
         "unknown device 'Nosuch'"),
        (["range", "--device", "Google Home", "--budget-mw", "5",
          "--diode", "green"], "unknown diode 'green'"),
        (["modulate", "--in", "WAV", "--budget-mw", "5", "--diode", "green"],
         "unknown diode 'green'"),
        (["chirp-test", "--duration", "0.2", "--diode", "green"],
         "unknown diode 'green'"),
        (["chirp-test", "--duration", "0.2", "--mic", "nosuch"],
         "unknown microphone 'nosuch'"),
    ])
    def test_unknown_flag_name_exits_2(self, tmp_path, wav, argv, message,
                                       capsys):
        out = tmp_path / "out.csv"
        argv = [wav if a == "WAV" else a for a in argv]
        if argv[0] in ("modulate", "chirp-test"):
            argv += ["--out", str(out)]
        code, text, err = run(argv, capsys)
        assert (code, text) == (2, "")
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    def test_blanks_around_a_diode_name(self, capsys):
        argv = ["range", "--device", "Google Home", "--budget-mw", "5"]
        assert run([*argv, "--diode", " blue-450"], capsys) == \
            run([*argv, "--diode", "blue-450"], capsys)

    @pytest.mark.parametrize("line, message", [
        ("device.name = Nosuch", "unknown device 'Nosuch'"),
        ("diode.name = green", "unknown diode 'green'"),
    ])
    def test_unknown_file_name_exits_3(self, tmp_path, line, message, capsys):
        path = tmp_path / "s.txt"
        path.write_text("device.name = Google Home\nbudget_mw = 5\n"
                        f"distance_m = 10\n{line}\n")
        for command in ("plan", "simulate"):
            code, out, err = run([command, "--scenario", str(path)], capsys)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: {path}:4: {message}")

    def test_unknown_flag_name_over_a_file_exits_2(self, scenario_file,
                                                   capsys):
        code, out, err = run(["plan", "--scenario", scenario_file,
                              "--diode", "green"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown diode 'green'")


class TestRange:
    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_exits_2(self, budget, capsys):
        code, out, err = run(["range", "--device", "Google Home",
                              "--budget-mw", budget], capsys)
        assert (code, out) == (2, "")
        assert f"budget must be positive and finite, got {budget}" in err

    def test_corridor_scale(self, capsys):
        code, out, _ = run(["range", "--device", "Google Home",
                            "--budget-mw", "5", "--format", "csv"], capsys)
        assert code == 0
        fields = dict(csv_rows(out)[1:])
        assert float(fields["max_range_m"]) >= 110.0

    def test_phone_is_contact_range_only(self, capsys):
        code, out, _ = run(["range", "--device", "Samsung Galaxy S9 (Bottom Mic)",
                            "--budget-mw", "60", "--format", "csv"], capsys)
        assert code == 1
        fields = dict(csv_rows(out)[1:])
        assert float(fields["max_range_m"]) <= 10.0


class TestBruteforce:
    def test_summary_table(self, capsys):
        code, out, _ = run(["bruteforce", "--digits", "4", "--policy", "unlimited",
                            "--per-attempt-s", "13", "--format", "csv"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["policy", "digits", "per_attempt_s", "worst_s",
                           "mean_s", "success_prob"]
        assert float(rows[1][3]) == 130000.0

    def test_worst_case_hours_text(self, capsys):
        code, out, _ = run(["bruteforce", "--digits", "4", "--policy", "unlimited",
                            "--per-attempt-s", "13"], capsys)
        assert code == 0
        assert "36.1 h" in out

    def test_secret_unlocks(self, capsys):
        code, out, _ = run(["bruteforce", "--digits", "4", "--policy", "unlimited",
                            "--per-attempt-s", "13", "--secret", "0042"], capsys)
        assert code == 0
        assert "unlocked after 43 attempts" in out

    def test_lockout_exits_1(self, capsys):
        code, out, _ = run(["bruteforce", "--digits", "4",
                            "--policy", "max-attempts:3",
                            "--per-attempt-s", "13", "--secret", "0042"], capsys)
        assert code == 1
        assert "locked_out" in out

    def test_seeded_shuffle_defaults_to_seed_0(self, capsys):
        argv = ["bruteforce", "--digits", "4", "--policy", "unlimited",
                "--secret", "1234", "--order", "seeded_shuffle"]
        code, first, _ = run(argv, capsys)
        assert code == 0
        assert run(argv, capsys)[1] == first
        assert run(argv + ["--seed", "0"], capsys)[1] == first
        position = int(np.flatnonzero(
            authsim.candidate_order(4, "seeded_shuffle", 0) == 1234)[0]) + 1
        assert f"unlocked after {position} attempts" in first

    def test_bad_policy_exits_2(self, capsys):
        code, _, err = run(["bruteforce", "--digits", "4",
                            "--policy", "sometimes"], capsys)
        assert code == 2

    @pytest.mark.parametrize("spec", ["max-attempts:abc", "max-attempts:2.5",
                                      "delay-after:3:x", "delay-after:x:60"])
    def test_policy_value_error_names_the_policy(self, spec, capsys):
        code, out, err = run(["bruteforce", "--digits", "4",
                              "--policy", spec], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: bad policy {spec!r}; use unlimited, "
                       f"max-attempts:N or delay-after:N:SECONDS\n")

    @pytest.mark.parametrize("flags, message", [
        (["--per-attempt-s", "nan"], "per_attempt_s must be positive and "
                                     "finite, got nan"),
        (["--per-attempt-s", "inf"], "per_attempt_s must be positive and "
                                     "finite, got inf"),
        (["--policy", "delay-after:3:nan"], "delay_s must be >= 0 and finite"),
        (["--secret", "1234", "--order", "seeded_shuffle", "--seed", "-1"],
         "seed must be >= 0, got -1"),
    ])
    def test_bad_number_exits_2(self, flags, message, capsys):
        argv = ["bruteforce", "--digits", "4", "--policy", "unlimited"]
        code, out, err = run(argv + flags, capsys)
        assert (code, out) == (2, "")
        assert message in err


class TestDetect:
    def test_injection_flagged(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        chans = rng.normal(0, 0.005, (4, SR // 2))
        chans[1] += synth_command(rng, SR // 2, SR)
        path = tmp_path / "inj.wav"
        wavio.save_wav_channels(chans, SR, path)
        code, out, _ = run(["detect", "--in", str(path)], capsys)
        assert code == 1
        assert "injection_suspected" in out

    def test_clean_recording(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        x = synth_command(rng, SR // 2, SR)
        chans = np.tile(x, (4, 1)) + rng.normal(0, 0.005, (4, SR // 2))
        path = tmp_path / "ok.wav"
        wavio.save_wav_channels(chans, SR, path)
        code, out, _ = run(["detect", "--in", str(path), "--format", "csv"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["channel", "energy", "median_similarity", "implicated"]
        assert [r[3] for r in rows[1:]] == ["no"] * 4

    def test_missing_input_exits_3(self, capsys):
        code, _, _ = run(["detect", "--in", "/nonexistent.wav"], capsys)
        assert code == 3

    @pytest.mark.parametrize("floor", ["nan", "inf", "-inf", "-0.001"])
    def test_bad_energy_floor_exits_2(self, tmp_path, capsys, floor):
        # a NaN or infinite floor used to gate every channel out and
        # report a flagged recording as clean
        rng = np.random.default_rng(3)
        chans = rng.normal(0, 0.005, (3, SR // 2))
        chans[1] += synth_command(rng, SR // 2, SR)
        path = tmp_path / "inj.wav"
        wavio.save_wav_channels(chans, SR, path)
        assert run(["detect", "--in", str(path)], capsys)[0] == 1
        code, out, err = run(["detect", "--in", str(path),
                              f"--energy-floor={floor}"], capsys)
        assert code == 2
        assert out == ""
        assert f"energy_floor must be >= 0 and finite, got {float(floor)}" in err


class TestModulate:
    def test_writes_csv(self, tmp_path, capsys):
        src = tmp_path / "cmd.wav"
        wavio.save_wav(generate_tone(1000, 0.05, SR, 0.8), src)
        out = tmp_path / "drive.csv"
        code, text, _ = run(["modulate", "--in", str(src), "--budget-mw", "5",
                             "--out", str(out)], capsys)
        assert code == 0
        rows = csv_rows(out.read_text())
        assert rows[0] == ["time_s", "current_ma"]
        assert len(rows) == 1 + round(0.05 * SR)

    def test_writes_wav_with_sidecar(self, tmp_path, capsys):
        src = tmp_path / "cmd.wav"
        wavio.save_wav(generate_tone(1000, 0.05, SR, 0.8), src)
        out = tmp_path / "drive.wav"
        code, _, _ = run(["modulate", "--in", str(src), "--budget-mw", "5",
                          "--out", str(out)], capsys)
        assert code == 0
        assert out.exists()
        sidecar = csv_rows((tmp_path / "drive.params.csv").read_text())
        assert sidecar[0] == ["param", "value"]
        assert float(dict(sidecar[1:])["i_dc_ma"]) > 20.0

    def test_bad_extension_exits_2(self, tmp_path, capsys):
        # checked before the input is read, so a missing input is not exit 3
        code, _, err = run(["modulate", "--in", str(tmp_path / "missing.wav"),
                            "--budget-mw", "5",
                            "--out", str(tmp_path / "drive.txt")], capsys)
        assert code == 2
        assert "--out must end in .csv or .wav" in err

    def test_sidecar_with_csv_out_exits_2(self, tmp_path, capsys):
        src = tmp_path / "cmd.wav"
        wavio.save_wav(generate_tone(1000, 0.01, SR, 0.8), src)
        out, sidecar = tmp_path / "drive.csv", tmp_path / "side.csv"
        code, text, err = run(["modulate", "--in", str(src), "--budget-mw", "5",
                               "--out", str(out), "--sidecar", str(sidecar)],
                              capsys)
        assert code == 2
        assert text == ""
        assert "--sidecar" in err and "--out" in err and str(out) in err
        assert not out.exists() and not sidecar.exists()

    def test_excess_budget_exits_1(self, tmp_path, capsys):
        src = tmp_path / "cmd.wav"
        wavio.save_wav(generate_tone(1000, 0.01, SR, 0.8), src)
        code, _, err = run(["modulate", "--in", str(src), "--budget-mw", "10000",
                            "--out", str(tmp_path / "d.csv")], capsys)
        assert code == 1
        assert "budget" in err


class TestChirpTest:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "sg.csv"
        code, text, _ = run(["chirp-test", "--duration", "1", "--out", str(out)],
                            capsys)
        assert code == 0
        assert "chirp recovered" in text
        rows = csv_rows(out.read_text())
        assert rows[0] == ["time_s", "freq_hz", "magnitude"]

    @pytest.mark.parametrize("duration", ["inf", "nan", "1e-9"])
    def test_duration_without_a_sample_exits_2(self, tmp_path, capsys,
                                               duration):
        out = tmp_path / "sg.csv"
        code, text, err = run(["chirp-test", "--duration", duration,
                               "--out", str(out)], capsys)
        assert code == 2
        assert text == ""
        assert f"got {float(duration)} s at 48000 Hz" in err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sg.csv"
        code, text, err = run(["chirp-test", "--duration", "0.2", "--seed", "-1",
                               "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(["profiles", "--wat"], capsys)[0] == 2

    def test_no_arguments(self, capsys):
        assert run([], capsys)[0] == 2


def full_parser_output(argv, capsys):
    """Exit code, stdout and stderr of the every-subcommand parser."""
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
    else:
        code = None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserPerCommand:
    ARGVS = ([[], ["--help"], ["bogus"], ["detect"],
              ["detect", "--in", "x", "--bogus"]]
             + [[name, "--help"] for name in cli.SUBCOMMANDS])

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_output_matches_full_parser(self, argv, capsys):
        assert run(argv, capsys) == full_parser_output(argv, capsys)

    def test_invalid_choice_names_the_command_argument(self, capsys):
        # a metavar pinned on the full parser would rename the argument here
        code, out, err = run(["bogus"], capsys)
        assert code == 2
        assert out == ""
        assert "photoninject: error: argument command: invalid choice: " \
               "'bogus'" in err

    @pytest.mark.parametrize("argv, built", [
        (["profiles"], ["profiles"]),
        (["detect", "--in", "/nonexistent.wav"], ["detect"]),
        (["--help"], list(cli.SUBCOMMANDS)),
        (["bogus"], list(cli.SUBCOMMANDS)),
        ([], list(cli.SUBCOMMANDS)),
    ])
    def test_builds_only_the_named_subcommand(self, argv, built, monkeypatch,
                                              capsys):
        seen = []

        def recording(name, add):
            def wrapped(sub):
                seen.append(name)
                add(sub)
            return wrapped

        monkeypatch.setattr(cli, "SUBCOMMANDS", {
            name: recording(name, add) for name, add in cli.SUBCOMMANDS.items()})
        cli.main(argv)
        capsys.readouterr()
        assert seen == built
