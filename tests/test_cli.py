import csv
import io

import numpy as np
import pytest

from conftest import synth_command
from photoninject import authsim, cli, profiles, wavio
from photoninject.signals import generate_tone

SR = 48000


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

    def test_negative_seed_exits_2(self, scenario_file, capsys):
        for extra in (["--device", "Google Home", "--budget-mw", "5",
                       "--distance-m", "10"], ["--scenario", scenario_file]):
            code, out, err = run(["plan", *extra, "--seed", "-1"], capsys)
            assert (code, out) == (2, "")
            assert err == "error: seed must be >= 0, got -1\n"


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
        assert err.startswith(f"error: {scenario_file}: ")


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
        assert ("devices.csv:3: bad number for column 'port_count': 'three'"
                in err)


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
        src = tmp_path / "cmd.wav"
        wavio.save_wav(generate_tone(1000, 0.01, SR, 0.8), src)
        code, _, _ = run(["modulate", "--in", str(src), "--budget-mw", "5",
                          "--out", str(tmp_path / "drive.txt")], capsys)
        assert code == 2

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
