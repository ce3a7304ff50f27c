"""PIN lockout policies and brute-force enumeration timing.

Policies: unlimited attempts, hard lockout after n wrong attempts, or a
fixed delay inserted after every n wrong attempts. Enumeration walks the
PIN space in ascending or seeded-shuffled order, charging a constant
per-attempt duration plus any policy delays; its outcome is computed from
the secret's position in that order. Only the seeded shuffle needs a
candidate array, so only it imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _check_integer

UNLIMITED = "unlimited"
MAX_ATTEMPTS = "max_attempts"
DELAY_AFTER = "delay_after"

DEFAULT_PER_ATTEMPT_S = 13.0  # one spoken attempt plus the device's re-prompt


@dataclass(frozen=True)
class LockPolicy:
    kind: str
    attempt_limit: int = 0      # n for max_attempts / delay_after
    delay_s: float = 0.0        # for delay_after
    pin_length_range: tuple[int, int] = (1, 6)

    def __post_init__(self):
        if self.kind not in (UNLIMITED, MAX_ATTEMPTS, DELAY_AFTER):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        _check_integer("attempt_limit", self.attempt_limit)
        if self.kind in (MAX_ATTEMPTS, DELAY_AFTER) and self.attempt_limit < 1:
            raise ValueError("attempt_limit must be >= 1")
        if self.kind == DELAY_AFTER and not 0 <= self.delay_s < math.inf:
            raise ValueError(f"delay_s must be >= 0 and finite, got {self.delay_s}")
        lo, hi = self.pin_length_range
        _check_integer("pin_length_range lower bound", lo)
        _check_integer("pin_length_range upper bound", hi)
        if not 1 <= lo <= hi:
            raise ValueError(f"bad pin_length_range {self.pin_length_range}")

    @classmethod
    def unlimited(cls, pin_length_range=(1, 6)) -> "LockPolicy":
        return cls(UNLIMITED, pin_length_range=pin_length_range)

    @classmethod
    def max_attempts(cls, n: int, pin_length_range=(1, 6)) -> "LockPolicy":
        return cls(MAX_ATTEMPTS, attempt_limit=n, pin_length_range=pin_length_range)

    @classmethod
    def delay_after(cls, n: int, delay_s: float,
                    pin_length_range=(1, 6)) -> "LockPolicy":
        return cls(DELAY_AFTER, attempt_limit=n, delay_s=delay_s,
                   pin_length_range=pin_length_range)

    def describe(self) -> str:
        if self.kind == MAX_ATTEMPTS:
            return f"max_attempts({self.attempt_limit})"
        if self.kind == DELAY_AFTER:
            return f"delay_after({self.attempt_limit},{self.delay_s:g}s)"
        return UNLIMITED


@dataclass(frozen=True)
class BruteForceResult:
    attempts_made: int
    elapsed_s: float
    outcome: str  # unlocked | locked_out


@dataclass(frozen=True)
class ExpectedTime:
    worst_s: float
    mean_s: float
    success_prob: float


def _check_walk(policy: LockPolicy, digits: int, per_attempt_s: float) -> None:
    _check_integer("digits", digits)
    lo, hi = policy.pin_length_range
    if not lo <= digits <= hi:
        raise ValueError(
            f"{digits}-digit PINs outside the policy's range [{lo}, {hi}]")
    if not 0 < per_attempt_s < math.inf:
        raise ValueError(
            f"per_attempt_s must be positive and finite, got {per_attempt_s}")


def candidate_order(digits: int, order: str = "ascending",
                    seed: int | None = None) -> np.ndarray:
    """Candidate PINs as integers, in the enumeration order.

    `seeded_shuffle` needs an explicit seed, so that the order is
    reproducible.
    """
    import numpy as np

    n = 10 ** digits
    if order == "ascending":
        return np.arange(n)
    if order == "seeded_shuffle":
        if seed is None:
            raise ValueError("order 'seeded_shuffle' needs a seed")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        return np.random.default_rng(seed).permutation(n)
    raise ValueError(f"unknown order {order!r}")


def enumerate_pins(policy: LockPolicy, digits: int, per_attempt_s: float,
                   secret: str, order: str = "ascending",
                   seed: int | None = None) -> BruteForceResult:
    """Outcome of walking the PIN space until the secret or a lockout.

    Elapsed time is attempts * per_attempt_s plus, for delay_after
    policies, the configured delay after every n-th wrong attempt. The
    walk is not stepped: everything follows from the secret's 0-based
    position among the candidates.
    """
    _check_walk(policy, digits, per_attempt_s)
    if len(secret) != digits or not (secret.isascii() and secret.isdigit()):
        raise ValueError(f"secret must be exactly {digits} digits, got {secret!r}")
    target = int(secret)

    if order == "ascending":
        index = target
    else:
        candidates = candidate_order(digits, order, seed)
        index = int((candidates == target).nonzero()[0][0])
    attempts = index + 1
    n = policy.attempt_limit
    if policy.kind == MAX_ATTEMPTS and attempts > n:
        return BruteForceResult(n, n * per_attempt_s, "locked_out")
    # a delay follows every n-th of the `index` wrong attempts before it
    delays = index // n if policy.kind == DELAY_AFTER else 0
    return BruteForceResult(
        attempts, attempts * per_attempt_s + delays * policy.delay_s, "unlocked")


def expected_time(policy: LockPolicy, digits: int,
                  per_attempt_s: float = DEFAULT_PER_ATTEMPT_S) -> ExpectedTime:
    """Closed-form timing for a uniformly random secret."""
    _check_walk(policy, digits, per_attempt_s)
    n_space = 10 ** digits
    t = per_attempt_s

    if policy.kind == UNLIMITED:
        return ExpectedTime(n_space * t, (n_space + 1) / 2 * t, 1.0)

    if policy.kind == MAX_ATTEMPTS:
        m = min(policy.attempt_limit, n_space)
        # mean is conditional on the secret falling inside the first m tries
        return ExpectedTime(m * t, (m + 1) / 2 * t, m / n_space)

    # delay_after: floor((k-1)/n) delays before the k-th attempt succeeds
    n = policy.attempt_limit
    worst = n_space * t + ((n_space - 1) // n) * policy.delay_s
    q, r = divmod(n_space, n)
    total_delays = n * q * (q - 1) // 2 + r * q
    mean = (n_space + 1) / 2 * t + policy.delay_s * total_delays / n_space
    return ExpectedTime(worst, mean, 1.0)


def summary_row(policy: LockPolicy, digits: int,
                per_attempt_s: float) -> tuple:
    """One `policy,digits,per_attempt_s,worst_s,mean_s,success_prob` row."""
    et = expected_time(policy, digits, per_attempt_s)
    return (policy.describe(), digits, per_attempt_s, et.worst_s, et.mean_s,
            et.success_prob)
