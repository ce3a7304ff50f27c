import csv
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import synth_command
from photoninject import (authsim, cli, defense, devices, injection, optics,
                          profiles, wavio)
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


@pytest.fixture
def injected_wav(tmp_path):
    """A 4-channel recording with a command on channel 1 alone."""
    rng = np.random.default_rng(1)
    chans = rng.normal(0, 0.005, (4, SR // 2))
    chans[1] += synth_command(rng, SR // 2, SR)
    path = tmp_path / "inj.wav"
    wavio.save_wav_channels(chans, SR, path)
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


@settings(deadline=None,
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

    def test_directory_exits_3_naming_it(self, tmp_path, capsys):
        code, out, err = run(["simulate", "--scenario", str(tmp_path)], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

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


class TestNotUtf8:
    """A scenario file or profile table holding a byte that is not UTF-8
    exits 3 naming the file's path and the line."""

    def test_scenario_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        data = (b"device.name = Google Home\nbudget_mw = 5\ndistance_m = 10\n"
                b"command_text = \xff\n")
        path.write_bytes(data)
        for command in ("plan", "simulate"):
            code, out, err = run([command, "--scenario", str(path)], capsys)
            assert (code, out) == (3, "")
            assert err == (f"error: {path}:4: not UTF-8 text, byte 0xff at "
                           f"offset {data.index(0xff)}: invalid start byte\n")

    def test_profile_table_exits_3(self, tmp_path, monkeypatch, capsys):
        data = (b"name,backend,category,requires_auth,min_power_mw,"
                b"port_diameter_m,port_count,wake_word\r\n"
                b"Lab Speaker,Alexa,speaker,no,0.5,0.001,2,alexa\r\n"
                b"Caf\xe9 Speaker,Alexa,speaker,no,0.5,0.001,2,alexa\r\n")
        path = tmp_path / "devices.csv"
        path.write_bytes(data)
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        code, out, err = run(["profiles"], capsys)
        assert (code, out) == (3, "")
        assert err == (f"error: {path}:3: not UTF-8 text, byte 0xe9 at "
                       f"offset {data.index(0xe9)}: invalid continuation "
                       f"byte\n")


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
            assert "devices.csv:2: missing column 'port_count'" in err

    def test_short_device_row_exits_3(self, tmp_path, monkeypatch, capsys):
        # every column is in the header; line 4 stops before the port
        (tmp_path / "devices.csv").write_text(
            "name,backend,category,requires_auth,min_power_mw,"
            "port_diameter_m,port_count,wake_word\n"
            "Lab Speaker,Alexa,speaker,no,0.5,0.001,2,alexa\n"
            "Lab Phone,Siri,phone,yes,1.0,0.0008,3,hey siri\n"
            "Google Nest Cam IQ,Google Assistant,Camera,no,9\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        code, out, err = run(["profiles"], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: devices.csv:4: missing column "
                       "'port_diameter_m'\n")

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
        assert f"budget_mw must be positive and finite, got {budget}" in err

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

    @pytest.mark.parametrize("diode", DIODES)
    def test_builder_gives_the_hand_built_link(self, diode):
        # range's link as it was built by hand before build_scenario built it
        wavelength = profiles.get_diode(diode).wavelength_nm
        for device in devices.load_devices():
            scenario, _ = injection.build_scenario(
                {"device.name": device.name, "budget_mw": 5.0,
                 "distance_m": 1.0, "diode.name": diode}, None, {})
            assert scenario.path == optics.OpticalPath.default(1.0, wavelength)
            assert scenario.aperture == optics.Aperture(device.port_diameter_m)


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

    @pytest.mark.parametrize("policy, secret, code, result", [
        ("max-attempts:5", "1234", 1, ["5", "65.0", "locked_out"]),
        ("unlimited", "0042", 0, ["43", "559.0", "unlocked"]),
    ])
    def test_secret_in_csv_adds_columns(self, policy, secret, code, result,
                                        capsys):
        argv = ["bruteforce", "--digits", "4", "--policy", policy,
                "--format", "csv"]
        plain = run(argv, capsys)
        got = run(argv + ["--secret", secret], capsys)
        assert got[0] == code
        rows = csv_rows(got[1])
        assert rows == [csv_rows(plain[1])[0]
                        + ["attempts", "elapsed_s", "outcome"],
                        csv_rows(plain[1])[1] + result]
        # the omitted --per-attempt-s is the library's default
        assert float(rows[1][2]) == authsim.DEFAULT_PER_ATTEMPT_S

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
        (["--digits", "7"], "digits must be in [1, 6], got 7"),
        (["--digits", "0"], "digits must be in [1, 6], got 0"),
    ])
    def test_bad_number_exits_2(self, flags, message, capsys):
        argv = ["bruteforce", "--digits", "4", "--policy", "unlimited"]
        code, out, err = run(argv + flags, capsys)
        assert (code, out) == (2, "")
        assert message in err


class TestDetect:
    def test_injection_flagged(self, injected_wav, capsys):
        code, out, _ = run(["detect", "--in", injected_wav], capsys)
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

    def test_format_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "notes.wav"
        path.write_text("not a recording\n")
        code, out, err = run(["detect", "--in", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {path}: RIFF header: missing 'RIFF' tag\n"

    def test_file_shorter_than_a_frame_is_a_usage_error(self, tmp_path,
                                                        capsys):
        # --frame decides whether the file is long enough, so it is the
        # flag, not the file, that is at fault
        path = tmp_path / "short.wav"
        wavio.save_wav_channels(np.zeros((2, 300)), SR, path)
        code, out, err = run(["detect", "--in", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: channels of 300 samples are shorter than one "
                       "1024-sample frame\n")
        assert run(["detect", "--in", str(path), "--frame", "256"],
                   capsys)[0] == 0

    def test_only_given_flags_reach_the_detector(self, injected_wav,
                                                 monkeypatch, capsys):
        seen = []
        detect = defense.detect_injection

        def recording(channel_set, **options):
            seen.append(options)
            return detect(channel_set, **options)

        monkeypatch.setattr(defense, "detect_injection", recording)
        run(["detect", "--in", injected_wav], capsys)
        run(["detect", "--in", injected_wav, "--threshold", "0.7",
             "--energy-floor", "0", "--frame", "512"], capsys)
        assert seen == [{}, {"threshold": 0.7, "energy_floor": 0.0,
                             "frame": 512}]

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


@pytest.mark.parametrize("command, channels, rate, message", [
    ("detect", 1, SR, "channels must hold at least 2 channels, "
                      "got shape (1, 1000)"),
    ("detect", 2, 0, "fmt chunk: sample rate 0 Hz, need a positive rate"),
    ("modulate", 1, 0, "fmt chunk: sample rate 0 Hz, need a positive rate"),
])
def test_unusable_wav_exits_3_naming_the_file(tmp_path, capsys, command,
                                              channels, rate, message):
    path = tmp_path / "in.wav"
    # the raw writer, which puts any rate in the header
    wavio._write(path, np.zeros((1000, channels), dtype=np.int16), rate)
    argv = [command, "--in", str(path)]
    if command == "modulate":
        argv += ["--budget-mw", "60", "--out", str(tmp_path / "d.csv")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == f"error: {path}: {message}\n"


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

    @pytest.mark.parametrize("duration", ["0.042667", "0.0533", "0.0534"])
    def test_one_time_bin_exits_2(self, tmp_path, capsys, duration):
        # 2048 and 2558 samples make one 2048-sample frame and 2563 make
        # two; a line fits either exactly, so there is nothing to judge
        bins = 2 if duration == "0.0534" else 1
        out = tmp_path / "sg.csv"
        code, text, err = run(["chirp-test", "--duration", duration,
                               "--out", str(out)], capsys)
        assert code == 2
        assert text == ""
        assert err == (f"error: spec must hold at least 3 time bins, "
                       f"got {bins}\n")
        assert not out.exists()

    def test_zero_sample_rate_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sg.csv"
        code, text, err = run(["chirp-test", "--sample-rate", "0",
                               "--out", str(out)], capsys)
        assert code == 2
        assert text == ""
        assert err == "error: sample_rate must be a positive integer, got 0\n"
        assert not out.exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(["profiles", "--wat"], capsys)[0] == 2

    def test_no_arguments(self, capsys):
        assert run([], capsys)[0] == 2


# SHA-256 of repr((exit code, stdout, stderr)) of `cli.main(argv.split())`
# with COLUMNS=80: a change to any usage, help or error byte changes it
PARSER_OUTPUT_SHA256 = {
    "":
        "fb9190c967d3f263a61302249e4002fc883dcd110014f9e7a256f53359ebc465",
    "--help":
        "49baaf4e4041e4de8128581604fbdbfd21a81717aa065ff4cb297fafa175865a",
    "bogus":
        "2f914249bf4aac7519bcec1be69f4b608c9a408a38933f4531edea9ed33cd08a",
    "detect":
        "0a11067e128c28a172698f3268bd9be6c74adab087b1347ffcb144b5f1252d7a",
    "detect --in x --bogus":
        "bbf0852c8a4377bc065b0a8b5bef5a0c4b2b48f4ae7b0c131d473485c7d35604",
    "profiles --help":
        "c84d179ae102c73ae4577094615d8707ecf63017ee308dcac128083ec28b58f2",
    "plan --help":
        "4024fc8cd7c63f75c4f1ddd6ff0594d90c119b0c75abf2192b34543da5e22789",
    "modulate --help":
        "d08dba0e71842ba2dc7cf44d6d10a71399d3df94fec0f4384689a829bea85cb8",
    "simulate --help":
        "f7cf79cb3f432bebc4062fb7836b8e4e11e8c37e6dc500c419b0f978f4b061af",
    "range --help":
        "6492e21abadb747b70a1b1cffde09cab049b3efb75bca22729401c10a0cb1f6b",
    "bruteforce --help":
        "aeb2736e7bfc889f092c3a6fa80385fcf619c7244ff56a4dd38487d20be3674f",
    "detect --help":
        "1b94a8916f5f74e0ba6a1851b911579eccd798665278fb32f59d1f89c985ca4e",
    "chirp-test --help":
        "e0b4d2b303b90af14a29b06cc6eac8faea26e6caeb02337750a78018425e56fe",
}


class TestLibraryDefaults:
    """A flag whose default is a library default is absent from args when
    left out, so the library holds the one copy of that default."""

    @pytest.mark.parametrize("argv, flags", [
        (["modulate", "--in", "a.wav", "--budget-mw", "5", "--out", "d.csv"],
         {"diode": "red-638"}),
        (["range", "--device", "Google Home", "--budget-mw", "5"],
         {"diode": "red-638"}),
        (["bruteforce", "--digits", "4", "--policy", "unlimited"],
         {"order": "seeded_shuffle"}),
        (["chirp-test"], {"diode": "red-638", "seed": "3"}),
    ], ids=["modulate", "range", "bruteforce", "chirp-test"])
    def test_left_out_flags_are_absent_from_args(self, argv, flags):
        parse = cli.build_parser().parse_args
        args = parse(argv)
        assert not [name for name in flags if name in args]
        given = [f"--{name.replace('_', '-')}={value}"
                 for name, value in flags.items()]
        assert all(name in parse(argv + given) for name in flags)

    def test_left_out_flags_print_what_the_defaults_print(self, tmp_path,
                                                          capsys):
        wav = tmp_path / "in.wav"
        wavio.save_wav(generate_tone(440.0, 0.05, 8000, 0.5), wav)
        out = tmp_path / "out.csv"
        secret = ["bruteforce", "--digits", "3", "--policy", "unlimited",
                  "--secret", "123"]

        def outputs(argv):
            got = [run(argv, capsys)]
            if out.exists():
                got.append(out.read_bytes())
                out.unlink()
            return got

        for argv, flag in [
            (["range", "--device", "Google Home", "--budget-mw", "5"],
             ["--diode", "blue-450"]),
            (["modulate", "--in", str(wav), "--budget-mw", "5",
              "--out", str(out)], ["--diode", "blue-450"]),
            (["chirp-test", "--duration", "0.2", "--out", str(out)],
             ["--diode", "blue-450"]),
            (["chirp-test", "--duration", "0.2", "--out", str(out)],
             ["--seed", "0"]),
            (secret, ["--order", "ascending"]),
        ]:
            left_out = outputs(argv)
            assert left_out[0][0] == 0, argv
            assert left_out == outputs(argv + flag), argv


class TestParserPerCommand:
    @pytest.mark.parametrize("argv", list(PARSER_OUTPUT_SHA256),
                             ids=lambda argv: argv)
    def test_output_matches_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        output = repr(run(argv.split(), capsys)).encode()
        assert hashlib.sha256(output).hexdigest() == PARSER_OUTPUT_SHA256[argv]

    def test_invalid_choice_names_the_command_argument(self, capsys):
        code, out, err = run(["bogus"], capsys)
        assert code == 2
        assert out == ""
        assert "photoninject: error: argument command: invalid choice: " \
               "'bogus'" in err


class TestSharedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_a_fresh_parser(self, injected_wav,
                                                       capsys):
        # each flag-bearing call is followed by the same command without
        # the flag, so a value left behind on the shared parser would show
        brute = ["bruteforce", "--digits", "3", "--policy", "max-attempts:5"]
        detect = ["detect", "--in", injected_wav]
        argvs = [
            ["plan", "--device", "Google Home", "--budget-mw", "5",
             "--distance-m", "110", "--format", "csv"],
            ["plan", "--device", "Google Home", "--budget-mw", "5",
             "--distance-m", "110"],
            ["range", "--device", "Google Home", "--budget-mw", "5"],
            brute + ["--per-attempt-s", "2", "--secret", "004",
                     "--format", "csv"],
            brute + ["--secret", "123"],
            brute,
            detect + ["--threshold", "0.5"],
            detect + ["--threshold", "0.01", "--frame", "512",
                      "--format", "csv"],
            detect,
            detect + ["--energy-floor", "1"],
            detect,
            ["detect"], ["bogus"], [], ["range", "--device", "X"],
            ["--help"], ["detect", "--help"],
        ]
        shared = [run(argv, capsys) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(argv, capsys))
        assert shared == fresh
        # the flags changed the verdict, so the comparison above saw them
        assert [code for code, _, _ in shared[6:11]] == [1, 0, 1, 0, 1]
