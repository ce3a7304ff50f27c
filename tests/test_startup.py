"""Cold start: the table and planner commands run without numpy.

Each command runs in a fresh interpreter, so that nothing imported by
the test session hides an import the command makes. The expected output
digests were taken from the commands before their imports were made
lazy; a change in any byte of the output changes the digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import photoninject

SRC = str(Path(photoninject.__file__).resolve().parents[1])

# runs the CLI as `python -m photoninject.cli ARGS` does, then reports on
# stderr whether numpy was imported on the way
RUN_CLI = """
import runpy, sys
try:
    runpy.run_module("photoninject.cli", run_name="__main__", alter_sys=True)
finally:
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
"""

PROFILES_SHA256 = \
    "30fd6c0e65160188f1864fc1773f0b23be7b65c8c8e1a2e92e7d504e790da8a7"
CASES = {
    "profiles": (["profiles"], PROFILES_SHA256),
    "profiles-csv": (
        ["profiles", "--format", "csv"],
        "8fd6e0aa8eb9c45bce6bc3b8a4d58a84243dee509c8c9988f51d051ea65db9f8"),
    "range": (
        ["range", "--device", "Google Home", "--budget-mw", "5"],
        "39610d4f74c0ef7078e4d8d1de561acf5966396b94401ad271748ebcf508515f"),
    # p = 1 here, so simulate_attack draws no trial and imports no numpy
    "plan": (
        ["plan", "--device", "Google Home", "--budget-mw", "5",
         "--distance-m", "110"],
        "55c1e8b8b93dd3c0debf352f7c375183b13518a502b69701d1b57f66bed67ef8"),
    "bruteforce": (
        ["bruteforce", "--digits", "4", "--policy", "unlimited",
         "--secret", "1234"],
        "f017da86c04b87205e116327cfb85992cec9ac6e8dc7679ca1a4f96f6a3ea7d9"),
}


def python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PHOTONINJECT_PROFILE_DIR", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=60)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_runs_without_numpy(case):
    argv, expected = CASES[case]
    proc = python("-c", RUN_CLI, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode().splitlines()[-1] == "numpy loaded: False"
    assert digest(proc.stdout) == expected, proc.stdout.decode()


def test_chirp_test_rejects_an_unknown_diode_without_numpy():
    # the diode is looked up before the chirp is built; an unknown --mic
    # still loads numpy, with the microphone model that MicProfile lives in
    proc = python("-c", RUN_CLI, "chirp-test", "--diode", "nosuch")
    assert proc.returncode == 2, proc.stderr.decode()
    err = proc.stderr.decode().splitlines()
    assert err[0].startswith("error: unknown diode 'nosuch'")
    assert err[-1] == "numpy loaded: False"
    assert proc.stdout == b""


def test_parser_build_imports_no_submodule():
    # argparse defaults that copy a library default would import the
    # library (and with it numpy) before any command runs
    proc = python("-c", "import sys, photoninject.cli as cli; "
                  "cli.build_parser(); print(sorted("
                  "m for m in sys.modules if m.startswith('photoninject')"
                  " or m == 'numpy'))")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == \
        "['photoninject', 'photoninject.cli', 'photoninject.errors']"


@pytest.mark.parametrize("argv", [["--help"], ["detect", "--help"]])
def test_help_runs_without_numpy(argv):
    proc = python("-c", RUN_CLI, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().startswith("usage: photoninject ")
    assert proc.stderr.decode().splitlines() == ["numpy loaded: False"]


def test_module_entry_point_imports_no_numpy():
    # the exact command the benchmark's setup_s times
    proc = python("-X", "importtime", "-m", "photoninject.cli", "profiles")
    assert proc.returncode == 0, proc.stderr.decode()
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.decode().splitlines()
                if line.startswith("import time:")}
    assert "photoninject.devices" in imported
    assert not {m for m in imported if m.split(".")[0] == "numpy"}
    assert digest(proc.stdout) == PROFILES_SHA256, proc.stdout.decode()


def test_profiles_load_without_importlib_resources():
    # -S: no site module, which in some environments imports
    # importlib.resources itself and would hide the import
    proc = python("-S", "-c",
                  "import sys, photoninject.profiles as p; "
                  "print(len(p.load_diodes()), "
                  "'importlib.resources' in sys.modules)")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["3", "False"]


# --- the lazy package namespace ----------------------------------------------

# every name the package re-exported when its __init__ imported eagerly
PUBLIC = {
    "authsim": ["BruteForceResult", "ExpectedTime", "LockPolicy",
                "enumerate_pins", "expected_time"],
    "defense": ["ChannelSet", "Verdict", "channel_similarity",
                "detect_injection"],
    "devices": ["DeviceProfile", "load_devices", "lookup_device"],
    "diode": ["DiodeProfile", "DriveWaveform", "LightWaveform",
              "OperatingPoint", "emitted_light", "modulate", "optical_power",
              "optimize_operating_point"],
    "errors": ["BudgetError", "FitError", "FormatError", "PhotonInjectError"],
    "injection": ["AttackReport", "AttackScenario", "RecognitionEdge",
                  "calibrate_edge", "consecutive_success_criterion",
                  "load_scenario", "simulate_attack", "success_probability"],
    "mic": ["MicProfile", "output_vpp", "transduce"],
    "optics": ["Aperture", "OpticalPath", "capture_fraction", "max_range",
               "received_power", "spot_diameter"],
    "signals": ["AudioSignal", "Spectrogram", "generate_chirp",
                "generate_tone", "spectrogram"],
    "wavio": ["load_wav", "load_wav_channels", "save_wav",
              "save_wav_channels"],
}


class TestLazyNamespace:
    def test_names_resolve_to_the_submodule_objects(self):
        import importlib
        for module, names in PUBLIC.items():
            sub = importlib.import_module(f"photoninject.{module}")
            for name in names:
                assert getattr(photoninject, name) is getattr(sub, name), name

    def test_listed_exactly(self):
        names = {n for names in PUBLIC.values() for n in names}
        assert set(photoninject.__all__) == names | {"KERNEL_BACKEND"}
        assert names <= set(dir(photoninject))

    def test_constants_stay_eager(self):
        assert photoninject.__dict__["__version__"] == "0.1.0"
        assert photoninject.__dict__["KERNEL_BACKEND"] == "numpy"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            photoninject.no_such_name  # noqa: B018
        assert not hasattr(photoninject, "np")

    def test_star_import(self):
        namespace = {}
        exec("from photoninject import *", namespace)
        assert namespace["LockPolicy"] is photoninject.LockPolicy
        assert namespace["KERNEL_BACKEND"] == "numpy"

    def test_package_import_alone_loads_no_submodule(self):
        proc = python("-c", "import sys, photoninject; print(sorted("
                      "m for m in sys.modules if m.startswith('photoninject')"
                      " or m == 'numpy'))")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().strip() == "['photoninject']"
