"""The decimal kernel behind the CSV writers against Python's own `format`."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photoninject import _decimal, signals
from photoninject.signals import Spectrogram

SPECS = (".3f", ".6f", ".9f", ".9g")


def kernel_texts(values, spec):
    v = np.asarray(values, dtype=np.float64)
    out = (_decimal.general9(v) if spec == ".9g"
           else _decimal.fixed(v, int(spec[1:-1])))
    assert out.dtype == np.uint8 and out.shape[0] == v.size
    return [bytes(row[row != 0]).decode("ascii") for row in out]


def as_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# decimal fractions one unit either side of a 4-13 digit tie, and k / 2**m
# binary fractions, which are exact ties for %f when m <= places
near_ties = st.one_of(
    st.builds(lambda i, k, d: (i * 10 + 5 + d) / 10 ** k,
              st.integers(-10 ** 12, 10 ** 12), st.integers(4, 13),
              st.sampled_from([-1e-9, 0, 1e-9])),
    st.builds(lambda i, m: i / 2 ** m, st.integers(-2 ** 40, 2 ** 40),
              st.integers(0, 30)))
values = st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(as_float),
                   st.floats(-1e12, 1e12), near_ties)


@given(st.lists(values, max_size=64), st.sampled_from(SPECS))
def test_text_matches_format(vals, spec):
    assert kernel_texts(vals, spec) == [format(v, spec) for v in vals]


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308, float("inf"),
         float("-inf"), float("nan"), 2.0 ** 52, 2.0 ** 53, 4503599627370495.5,
         # exact binary ties at 3, 6 and 9 places
         0.0625, 0.0078125, 0.0009765625, 1.0009765625, 0.001953125,
         # %.9g switches to the exponent form below 1e-4 and from 1e9,
         # after rounding to 9 digits
         1e-4, 9.99999999e-5, 9.999999995e-5, 9.9999999949e-5,
         0.0001000000005, 999999999.0, 999999999.4, 999999999.5,
         999999999.49, 1e9, 1000000000.5, 123456789.5, 1e-14, 1e-15, 1e30,
         9.9999999999e30, 1e31]


@pytest.mark.parametrize("spec", SPECS)
def test_edge_values(spec):
    vals = EDGES + [-v for v in EDGES]
    assert kernel_texts(vals, spec) == [format(v, spec) for v in vals]


def test_empty_block():
    for spec in SPECS:
        assert kernel_texts([], spec) == []


def test_rows_drop_padding_and_repeat_literals():
    a = _decimal.fixed([1.5, -20.25], 3)
    b = _decimal.general9([1e-5, 2.0])
    assert (_decimal.rows(a, b",", b, b"\r\n")
            == b"1.500,1e-05\r\n-20.250,2\r\n")


@pytest.mark.parametrize("frame_length", [16, 2048])
def test_to_csv_bins_cross_block_edges(tmp_path, frame_length):
    # two whole blocks of bins and one more
    n_freq = frame_length // 2 + 1
    n_time = 2 * max(1, signals._CSV_BLOCK_ROWS // n_freq) + 1
    rng = np.random.default_rng(frame_length)
    mags = rng.uniform(0.0, 1.0, (n_time, n_freq)) * 10.0 ** rng.integers(
        -20, 12, (n_time, n_freq))
    # the finite edge values that a magnitude may take, -0.0 among them
    edges = [v for v in EDGES if math.isfinite(v) and not v < 0]
    mags.flat[::97] = np.resize(edges, mags.flat[::97].size)
    spec = Spectrogram(mags, frame_length, 3, 44100)
    spec.to_csv(tmp_path / "spec.csv")
    expected = "time_s,freq_hz,magnitude\r\n" + "".join(
        f"{t:.9f},{f:.3f},{m:.9g}\r\n"
        for t, row in zip(spec.times_s.tolist(), mags.tolist())
        for f, m in zip(spec.freqs_hz.tolist(), row))
    assert (tmp_path / "spec.csv").read_bytes() == expected.encode()
