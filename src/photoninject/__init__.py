"""photoninject: laser audio injection simulation, planning and defense.

Models the full chain of a light-based command injection attack on
voice-controllable devices — audio to diode drive current, free-space
optics, microphone transduction — plus PIN brute-force policy analysis
and a multi-microphone injection detector.

The names below are re-exported lazily (PEP 562): a submodule is
imported the first time one of its names is read, so importing the
package alone loads neither numpy nor the waveform code.
"""

from importlib import import_module

# submodule -> the public names it contributes to the package namespace
_EXPORTS = {
    "authsim": ("BruteForceResult", "ExpectedTime", "LockPolicy",
                "enumerate_pins", "expected_time"),
    "defense": ("ChannelSet", "Verdict", "channel_similarity",
                "detect_injection"),
    "devices": ("DeviceProfile", "load_devices", "lookup_device"),
    "diode": ("DiodeProfile", "DriveWaveform", "LightWaveform",
              "OperatingPoint", "emitted_light", "modulate", "optical_power",
              "optimize_operating_point"),
    "errors": ("BudgetError", "FitError", "FormatError", "PhotonInjectError"),
    "injection": ("AttackReport", "AttackScenario", "RecognitionEdge",
                  "calibrate_edge", "consecutive_success_criterion",
                  "load_scenario", "simulate_attack", "success_probability"),
    "mic": ("MicProfile", "output_vpp", "transduce"),
    "optics": ("Aperture", "OpticalPath", "capture_fraction", "max_range",
               "received_power", "spot_diameter"),
    "signals": ("AudioSignal", "Spectrogram", "generate_chirp", "generate_tone",
                "spectrogram"),
    "wavio": ("load_wav", "load_wav_channels", "save_wav", "save_wav_channels"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__version__ = "0.1.0"

# Kept for callers that report the NCC kernel in use; there is only one.
KERNEL_BACKEND = "numpy"

__all__ = [*_SOURCE, "KERNEL_BACKEND"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
