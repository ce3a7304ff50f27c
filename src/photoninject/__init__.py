"""photoninject: laser audio injection simulation, planning and defense.

Models the full chain of a light-based command injection attack on
voice-controllable devices — audio to diode drive current, free-space
optics, microphone transduction — plus PIN brute-force policy analysis
and a multi-microphone injection detector.
"""

from .authsim import BruteForceResult, ExpectedTime, LockPolicy, enumerate_pins, expected_time
from .defense import ChannelSet, Verdict, channel_similarity, detect_injection
from .devices import DeviceProfile, load_devices, lookup_device
from .diode import (DiodeProfile, DriveWaveform, LightWaveform, OperatingPoint,
                    emitted_light, modulate, optical_power, optimize_operating_point)
from .errors import (BudgetError, DeviceNotFoundError, FitError, FormatError,
                     PhotonInjectError)
from .injection import (AttackReport, AttackScenario, RecognitionEdge,
                        calibrate_edge, consecutive_success_criterion,
                        load_scenario, simulate_attack, success_probability)
from .mic import MicProfile, output_vpp, transduce
from .optics import (Aperture, OpticalPath, capture_fraction, max_range,
                     received_power, spot_diameter)
from .signals import (AudioSignal, Spectrogram, generate_chirp, generate_tone,
                      spectrogram)
from .wavio import load_wav, load_wav_channels, save_wav, save_wav_channels

__version__ = "0.1.0"

# Kept for callers that report the NCC kernel in use; there is only one.
KERNEL_BACKEND = "numpy"
