"""Exact float64-to-decimal text for the CSV writers, a block at a time.

`fixed(values, places)` gives the text of `'%.{places}f' % v` and
`general9(values)` that of `'%.9g' % v`, for every element of a float64
block at once. Each returns a `(rows, width)` uint8 matrix of ASCII, with
0 bytes as padding anywhere in a row; `rows` joins such matrices and
literal separators into CSV rows and drops the padding.

The digits are those of Python's `%`, which rounds the exact binary value
x = |v| * 10**k to an integer, half to even. The fast path computes
y = |v| * 10**k (or |v| / 10**-k) with |k| <= 22: that power of ten is
exact in float64 and the product or quotient is correctly rounded, so y
lies within half an ulp of x. Below 2**52 every half-integer h is a
float, so when y is not one, x is on the same side of every h as y (x
equal to h would make y equal to h) and rounds to the same integer. When
y is a half-integer, it is x itself exactly when |v| * 2**(k+1) is an odd
integer (k >= 0), and then rounding y half to even is right too. Every
other element (other halfway y, y of 2**52 or more, non-finite values,
and for %g nonzero magnitudes outside about [1e-14, 1e31), where |k|
would exceed 22) takes its text from `%` itself.
"""

from __future__ import annotations

import math

import numpy as np

_ZERO = ord("0")
_MAX_EXACT_POW10 = 22       # 10**k is exact in float64 up to k = 22
_POW10 = np.array([float(10 ** k) for k in range(_MAX_EXACT_POW10 + 1)])


def _le(text: str) -> int:
    """`text` as a little-endian integer: byte j holds character j."""
    return int.from_bytes(text.encode("ascii"), "little")


def _group_tables() -> np.ndarray:
    """Four digits of each i < 10000 as one little-endian word, in four
    kinds: entry kind * 10000 + i.

    Kind 0 has every digit, kind 1 blanks leading zeros (all of 0), kind 2
    does too but keeps the units digit of 0, and kind 3 blanks trailing
    zeros (all of 0).
    """
    i = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], np.uint16)
    digits = (i // place % 10 + _ZERO).astype(np.uint8)
    lead = np.where(i >= place, digits, 0)
    units = lead.copy()
    units[0, 3] = _ZERO
    strip = np.where(i % (10 * place) != 0, digits, 0)
    kinds = np.stack([digits, lead, units, strip]).astype(np.uint8)
    return kinds.view("<u4").ravel()


_GROUPS = _group_tables()
_PLAIN, _LEAD, _UNITS, _STRIP = (10000 * k for k in range(4))


def _split(n: np.ndarray, count: int) -> list:
    """The `count` base-10000 digits of integers n >= 0, most significant
    first."""
    groups = []
    for _ in range(count - 1):
        high = n // 10000
        groups.append(n - high * 10000)
        n = high
    groups.append(n)
    return groups[::-1]


def _as_text(words: list, width: int) -> np.ndarray:
    """The last `width` bytes of the 4-byte little-endian `words` of each
    row, most significant word first."""
    out = np.stack(words, axis=1)
    return out.view(np.uint8)[:, 4 * len(words) - width:]


def _whole_text(n: np.ndarray) -> np.ndarray:
    """Decimal digits of integers n >= 0 without leading zeros,
    right-aligned in as many columns as the largest n needs."""
    width = len(str(int(n.max(initial=0))))
    groups = _split(n, -(-width // 4))
    words = []
    zero_so_far = None
    for j, g in enumerate(groups):
        kind = _UNITS if j == len(groups) - 1 else _LEAD
        words.append(_GROUPS[g + (kind if zero_so_far is None else
                                  np.where(zero_so_far, kind, _PLAIN))])
        zero_so_far = g == 0 if zero_so_far is None else zero_so_far & (g == 0)
    return _as_text(words, width)


def _rounds_exactly(a: np.ndarray, k, y: np.ndarray,
                    n: np.ndarray) -> np.ndarray:
    """Where n = rint(y), for y = a * 10**k as rounded, is the integer
    that `%` rounds the exact a * 10**k to (see the module docstring)."""
    fast = y < 2.0 ** 52            # False for NaN and inf
    halfway = np.abs(y - n) == 0.5
    if halfway.any():
        # a * 2**(k+1) is an odd integer: a * 2**k (exact) ends in .5
        scaled = np.ldexp(a, k)
        fast &= ~halfway | ((np.asarray(k) >= 0)
                            & (scaled - np.floor(scaled) == 0.5))
    return fast


def _fall_back(out: np.ndarray, slow: np.ndarray, values: np.ndarray,
               spec: str) -> np.ndarray:
    """`out` with the rows at `slow` replaced by `spec % value`, widened to
    fit the longest such text."""
    idx = np.flatnonzero(slow)
    if not idx.size:
        return out
    texts = [spec % v for v in values[idx].tolist()]
    width = max(out.shape[1], max(map(len, texts)))
    if width > out.shape[1]:
        out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
    out[idx] = np.frombuffer(
        "".join(t.ljust(width, "\0") for t in texts).encode("ascii"),
        np.uint8).reshape(idx.size, width)
    return out


def fixed(values, places: int) -> np.ndarray:
    """Rows of `'%.{places}f' % v` for each v, 1 <= places <= 22.

    Each row is the sign, the integer digits, '.' and `places` digits.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    scale = _POW10[places]
    with np.errstate(over="ignore", invalid="ignore"):
        y = a * scale
        n = np.rint(y)
        fast = _rounds_exactly(a, places, y, n)
    n = np.where(fast, n, 0.0)
    # exact: n < 2**52, so n / scale never rounds up to the next integer
    whole = np.floor(n / scale)
    part = (n - whole * scale).astype(np.intp)
    int_text = _whole_text(whole.astype(np.intp))
    w = int_text.shape[1]
    out = np.empty((v.size, w + 2 + places), np.uint8)
    out[:, 0] = np.signbit(v) * ord("-")
    out[:, 1:w + 1] = int_text
    out[:, w + 1] = ord(".")
    out[:, w + 2:] = _as_text(
        [_GROUPS[g] for g in _split(part, -(-places // 4))], places)
    return _fall_back(out, ~fast, v, f"%.{places}f")


# %.9g prints the 9 significant digits d0..d8 of n = round(|v| * 10**s),
# s = 8 - x, where x is the decimal exponent of the rounded value: as
# d0.d1..d8e+XX when x < -4 or x >= 9, as 0.0..0d0..d8 when x < 0, and
# with the point after d_x otherwise, always without trailing zeros after
# the point or a bare point. The fast path keeps |s| <= 22, so x within
# [_X_MIN, _X_MAX], and writes a row in 16 bytes: the sign, a 5-byte
# "0.000" prefix, d0, and d1..d8 with the point put in (9 bytes); plus
# 4 bytes of 'e+XX' when the block has any exponent form.
_X_MIN, _X_MAX = 8 - _MAX_EXACT_POW10, 9 + _MAX_EXACT_POW10


def _exponent_tables() -> tuple:
    """Per exponent x from _X_MIN, as words over the bytes of d1..d8: the
    bytes after a point among them, which move up one byte; '0' in the
    bytes before it, to undo the blanking of trailing zeros there; the
    point in place; and the prefix and suffix texts."""
    move, restore, point, prefix, suffix = [], [], [], [], []
    for x in range(_X_MIN, _X_MAX + 1):
        plain = -4 <= x < 9
        before = 8 if plain and x < 0 else x if plain else 0
        move.append((1 << 64) - (1 << 8 * before))
        restore.append(_le("0" * before) if plain and x >= 0 else 0)
        point.append(ord(".") << 8 * before if before < 8 else 0)
        prefix.append(_le("0." + "0" * (-x - 1)) << 8   # after the sign
                      if plain and x < 0 else 0)
        suffix.append(0 if plain else _le("e%+03d" % x))
    return (np.array(move, np.uint64), np.array(restore, np.uint64),
            np.array(point, np.uint64), np.array(prefix, np.uint64),
            np.array(suffix, "<u4"))


_MOVE, _RESTORE, _POINT, _PREFIX, _SUFFIX = _exponent_tables()
_D0 = (np.arange(10, dtype=np.uint64) + _ZERO) << 48    # d0 in its byte
# indexed by s + 22: one of the two is 1, so a * _MUL / _DIV rounds once
_S = np.arange(-_MAX_EXACT_POW10, _MAX_EXACT_POW10 + 1)
_MUL, _DIV = _POW10[np.maximum(_S, 0)], _POW10[np.maximum(-_S, 0)]


def _significand(a: np.ndarray) -> tuple:
    """For a = |v|: the 9 significant digits n as an integer, the index of
    the exponent x in the tables, and where these are the ones `%` prints
    (elsewhere n = 0 and x = 0)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = 8 - np.floor(np.log10(a))    # NaN for NaN, inf for 0
        fast = np.abs(s) <= _MAX_EXACT_POW10
        s = np.where(fast, s, 0.0).astype(np.intp)
        y = a * _MUL[s + _MAX_EXACT_POW10]
        if (s < 0).any():
            y /= _DIV[s + _MAX_EXACT_POW10]
        n = np.rint(y)
        # log10 may land one off, which leaves y outside [1e8, 1e9)
        fast &= (y >= 1e8) & (y < 1e9) & _rounds_exactly(a, s, y, n)
    carry = n == 1e9                     # rounded up to ten digits
    i = np.where(fast, 8 - _X_MIN - s + carry, -_X_MIN)   # x = 8 - s + carry
    n = np.where(fast, n - carry * 9e8, 0.0).astype(np.intp)
    return n, i, fast | (a == 0)         # n = 0 and x = 0 print "0"


def general9(values) -> np.ndarray:
    """Rows of `'%.9g' % v` for each v."""
    v = np.asarray(values, dtype=np.float64).ravel()
    n, i, fast = _significand(np.abs(v))
    d0 = n // 100_000_000
    rest = n - d0 * 100_000_000
    high = rest // 10000
    low = rest - high * 10000
    # d1..d8 with trailing zeros blanked, byte j holding d(j+1)
    digits = (_GROUPS[high + (low == 0) * _STRIP]
              | _GROUPS[low + _STRIP].astype(np.uint64) << 32)
    after = digits & _MOVE[i]
    # the moved bytes shift d8 out of the word: it goes to the last byte
    text = ((digits ^ after) | _RESTORE[i] | after << 8
            | _POINT[i] * (after != 0))
    words = np.empty((v.size, 2), "<u8")
    words[:, 0] = (np.signbit(v) * np.uint64(ord("-")) | _PREFIX[i]
                   | _D0[d0] | text << 56)
    words[:, 1] = text >> 8 | after >> 56 << 56
    out = words.view(np.uint8)
    suffix = _SUFFIX[i]
    if suffix.any():
        out = np.concatenate((out, suffix.view(np.uint8).reshape(-1, 4)),
                             axis=1)
    return _fall_back(out, ~fast, v, "%.9g")


def rows(*fields) -> bytearray:
    """CSV text of rows built from `fields` side by side, padding dropped.

    Each field is a `bytes` literal repeated on every row or a uint8 text
    matrix from `fixed`/`general9`; the leading axes of the matrices
    broadcast against each other, and each element of the result is a row.
    """
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields
                                  if not isinstance(f, bytes)))
    widths = [len(f) if isinstance(f, bytes) else f.shape[-1] for f in fields]
    # the rows are built in place in the buffer that translate then reads
    buf = bytearray(math.prod(shape) * sum(widths))
    out = np.frombuffer(buf, np.uint8).reshape(shape + (sum(widths),))
    col = 0
    for f, w in zip(fields, widths):
        out[..., col:col + w] = (np.frombuffer(f, np.uint8)
                                 if isinstance(f, bytes) else f)
        col += w
    return buf.translate(None, b"\0")
