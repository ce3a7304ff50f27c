"""Laser diode electro-optical model.

The current-to-light transfer is ideal piecewise linear: zero emission at
or below the lasing threshold I_th, then `slope_mw_per_ma` milliwatts per
milliamp above it. Audio rides on the drive current as plain amplitude
modulation around a bias point:

    I[i] = I_DC + (I_pp / 2) * s[i],   |s| <= 1

so staying inside [I_th, I_max] keeps the light a scaled copy of the
audio. Clipping is an error here, never silent saturation, because a
clipped drive would corrupt every fidelity metric downstream.

The profile, the operating point and the scalar planners are plain
Python; numpy and `signals` are imported only by the functions that
handle sample arrays, so planning a link does not load them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError, _check_sample_rate

# absorbs float dust when validating operating points against profiles (mA)
CURRENT_ATOL_MA = 1e-9

# rows of drive CSV turned into text at once: about 0.25 MiB of
# temporaries in `_decimal`, so peak memory stays put
_DRIVE_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class DiodeProfile:
    """Electro-optical transfer parameters of one laser diode."""

    name: str
    threshold_ma: float       # lasing threshold I_th
    slope_mw_per_ma: float    # slope efficiency above threshold
    max_current_ma: float     # damage limit, drive must stay below
    wavelength_nm: float

    def __post_init__(self):
        # chained comparisons with inf: NaN fails every one of them
        if not 0 <= self.threshold_ma < math.inf:
            raise ValueError(
                f"threshold_ma must be >= 0 and finite, got {self.threshold_ma}")
        if not 0 < self.slope_mw_per_ma < math.inf:
            raise ValueError(
                f"slope_mw_per_ma must be > 0 and finite, got {self.slope_mw_per_ma}")
        if not self.threshold_ma < self.max_current_ma < math.inf:
            raise ValueError("max_current_ma must be finite and exceed threshold_ma")
        if not 0 < self.wavelength_nm < math.inf:
            raise ValueError("wavelength_nm must be positive and finite")


@dataclass(frozen=True)
class OperatingPoint:
    """DC bias and peak-to-peak modulation amplitude, both in mA."""

    bias_ma: float           # I_DC
    peak_to_peak_ma: float   # I_pp

    def __post_init__(self):
        if not -math.inf < self.bias_ma < math.inf:
            raise ValueError(f"bias_ma must be finite, got {self.bias_ma}")
        if not 0 <= self.peak_to_peak_ma < math.inf:
            raise ValueError(f"peak_to_peak_ma must be >= 0 and finite, "
                             f"got {self.peak_to_peak_ma}")

    @property
    def min_current_ma(self) -> float:
        return self.bias_ma - self.peak_to_peak_ma / 2

    @property
    def max_current_ma(self) -> float:
        return self.bias_ma + self.peak_to_peak_ma / 2

    def validate_for(self, profile: DiodeProfile) -> None:
        """Reject bias/amplitude pairs that clip below threshold or above I_max."""
        if self.min_current_ma < profile.threshold_ma - CURRENT_ATOL_MA:
            raise ValueError(
                f"operating point clips below threshold: I_DC - I_pp/2 = "
                f"{self.min_current_ma:.6f} mA < I_th = {profile.threshold_ma} mA "
                f"({profile.name})")
        if self.max_current_ma > profile.max_current_ma + CURRENT_ATOL_MA:
            raise ValueError(
                f"operating point exceeds max current: I_DC + I_pp/2 = "
                f"{self.max_current_ma:.6f} mA > I_max = {profile.max_current_ma} mA "
                f"({profile.name})")


def _checked_samples(values, sample_rate, what: str) -> np.ndarray:
    """`values` as float64 after checking them and `sample_rate`."""
    import numpy as np

    _check_sample_rate(sample_rate)
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError(f"{what} must be finite and >= 0")
    return arr


@dataclass(frozen=True)
class DriveWaveform:
    """Diode drive current samples in mA."""

    currents_ma: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "currents_ma", _checked_samples(
            self.currents_ma, self.sample_rate, "drive currents"))


@dataclass(frozen=True)
class LightWaveform:
    """Optical power samples in mW."""

    powers_mw: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "powers_mw", _checked_samples(
            self.powers_mw, self.sample_rate, "optical powers"))

    @property
    def mean_mw(self) -> float:
        return float(self.powers_mw.mean())


def optical_power(profile: DiodeProfile, current_ma: float) -> float:
    """Emitted power for a DC current: 0 below threshold, linear above.

    Currents outside [0, I_max] are rejected (the upper bound models the
    damage limit).
    """
    if not 0 <= current_ma <= profile.max_current_ma:
        raise ValueError(
            f"current {current_ma} mA outside [0, {profile.max_current_ma}] mA "
            f"({profile.name})")
    if current_ma <= profile.threshold_ma:
        return 0.0
    return profile.slope_mw_per_ma * (current_ma - profile.threshold_ma)


def modulate(profile: DiodeProfile, op: OperatingPoint,
             audio: AudioSignal) -> DriveWaveform:
    """Amplitude-modulate normalized audio onto the drive current.

    currents[i] = I_DC + (I_pp/2) * s[i]. The operating point is validated
    against the profile before any waveform is produced.
    """
    op.validate_for(profile)
    if audio.peak > 1.0 + 1e-12:
        raise ValueError(
            f"audio must be normalized (max |s| <= 1), peak is {audio.peak:.6g}")
    currents = op.bias_ma + (op.peak_to_peak_ma / 2) * audio.samples
    return DriveWaveform(currents, audio.sample_rate)


def optimize_operating_point(profile: DiodeProfile,
                             budget_mw: float) -> OperatingPoint:
    """Largest-swing operating point under an average-power budget.

    With zero-mean audio the average emitted power depends only on the
    bias, so the budget pins I_DC = I_th + L/eta and the swing is then
    maximized by running the modulation floor right at threshold:
    I_pp/2 = I_DC - I_th. When that peak would exceed I_max, bias and
    swing shrink together (keeping the floor at threshold) until the
    peak sits exactly at I_max; average power then lands below budget.

    Raises BudgetError when the diode cannot emit `budget_mw` average at
    all, i.e. I_th + L/eta > I_max even with zero swing.
    """
    if not 0 < budget_mw < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget_mw} mW")
    amplitude = budget_mw / profile.slope_mw_per_ma  # I_DC - I_th, unclipped
    if profile.threshold_ma + amplitude > profile.max_current_ma + CURRENT_ATOL_MA:
        raise BudgetError(
            f"budget {budget_mw} mW needs I_DC = "
            f"{profile.threshold_ma + amplitude:.3f} mA, above I_max = "
            f"{profile.max_current_ma} mA ({profile.name})")
    headroom = (profile.max_current_ma - profile.threshold_ma) / 2
    amplitude = min(amplitude, headroom)
    return OperatingPoint(profile.threshold_ma + amplitude, 2 * amplitude)


def average_power(profile: DiodeProfile, op: OperatingPoint) -> float:
    """Mean emitted power for zero-mean audio: eta * (I_DC - I_th)."""
    return profile.slope_mw_per_ma * (op.bias_ma - profile.threshold_ma)


def emitted_light(profile: DiodeProfile, drive: DriveWaveform) -> LightWaveform:
    """Pointwise current-to-light conversion of a drive waveform."""
    import numpy as np

    currents = drive.currents_ma
    bad = np.flatnonzero((currents < -CURRENT_ATOL_MA) |
                         (currents > profile.max_current_ma + CURRENT_ATOL_MA))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"drive sample {i} is {currents[i]:.6f} mA, outside "
            f"[0, {profile.max_current_ma}] mA ({profile.name})")
    powers = profile.slope_mw_per_ma * np.maximum(
        currents - profile.threshold_ma, 0.0)
    return LightWaveform(powers, drive.sample_rate)


def save_drive_csv(drive: DriveWaveform, path) -> None:
    """Write `time_s,current_ma` rows (time to 9 dp, current to 6 dp).

    `_decimal` turns a block of rows into text at once, with the same
    digits as `%` and `format()`.
    """
    import numpy as np

    from . import _decimal

    currents = drive.currents_ma
    with open(path, "wb") as fh:
        fh.write(b"time_s,current_ma\r\n")
        for start in range(0, currents.size, _DRIVE_BLOCK_ROWS):
            block = currents[start:start + _DRIVE_BLOCK_ROWS]
            # arange / rate is bit-identical to i / rate for every i < 2**53
            times = np.arange(start, start + block.size) / drive.sample_rate
            fh.write(_decimal.rows(_decimal.fixed(times, 9), b",",
                                   _decimal.fixed(block, 6), b"\r\n"))


def save_drive_wav(drive: DriveWaveform, op: OperatingPoint, path,
                   sidecar_path) -> None:
    """Write the drive as 16-bit PCM plus a `param,value` sidecar.

    Sample value v maps back to current I_DC + (I_pp/2) * (v/32768); the
    sidecar records the (I_DC, I_pp) needed to invert.
    """
    import numpy as np

    from . import wavio
    from .signals import AudioSignal

    half = op.peak_to_peak_ma / 2
    if half > 0:
        normalized = (drive.currents_ma - op.bias_ma) / half
    else:
        normalized = np.zeros_like(drive.currents_ma)
    wavio.save_wav(AudioSignal(normalized, drive.sample_rate), path)
    with open(sidecar_path, "w", newline="") as fh:
        fh.write(f"param,value\r\n"
                 f"i_dc_ma,{op.bias_ma:.6f}\r\n"
                 f"i_pp_ma,{op.peak_to_peak_ma:.6f}\r\n"
                 f"sample_rate_hz,{drive.sample_rate}\r\n")
