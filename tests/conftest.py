import numpy as np
import pytest
from hypothesis import settings

from photoninject import profiles

# `pytest --hypothesis-profile=ci` draws 2000 examples per property
# instead of 100; CI runs the CSV formatter, band-pass and lookup
# properties with it
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def blue():
    return profiles.get_diode("blue-450")


@pytest.fixture(scope="session")
def red():
    return profiles.get_diode("red-638")


def synth_command(rng: np.random.Generator, n: int, sample_rate: int,
                  amplitude: float = 0.2) -> np.ndarray:
    """Deterministic speech-like burst: enveloped harmonics of a random f0."""
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(120, 300)
    x = np.zeros(n)
    for k in range(1, 6):
        x += rng.uniform(0.3, 1.0) * np.sin(
            2 * np.pi * f0 * k * t + rng.uniform(0, 2 * np.pi))
    x *= 0.5 - 0.5 * np.cos(2 * np.pi * t / t[-1])
    return amplitude * x / np.max(np.abs(x))


def thd_ratio(samples: np.ndarray, sample_rate: int, fundamental_hz: float,
              n_harmonics: int = 10) -> float:
    """Total harmonic distortion from the magnitude spectrum.

    Assumes the signal length is an integer number of fundamental periods
    so the fundamental and its harmonics land on exact bins.
    """
    spec = np.abs(np.fft.rfft(samples))
    bin_hz = sample_rate / samples.size
    fund_bin = int(round(fundamental_hz / bin_hz))
    harm = 0.0
    for k in range(2, 2 + n_harmonics):
        b = fund_bin * k
        if b >= spec.size:
            break
        harm += spec[b] ** 2
    return float(np.sqrt(harm) / spec[fund_bin])
