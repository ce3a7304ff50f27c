"""PIN lockout policies and brute-force enumeration timing.

Policies: unlimited attempts, hard lockout after n wrong attempts, or a
fixed delay inserted after every n wrong attempts. Enumeration walks the
PIN space in ascending or seeded-shuffled order, charging a constant
per-attempt duration plus any policy delays; its outcome is computed from
the secret's position in that order. Only the seeded shuffle needs a
candidate array, so only it imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import _check_integer, _check_nonnegative, _check_positive

UNLIMITED = "unlimited"
MAX_ATTEMPTS = "max_attempts"
DELAY_AFTER = "delay_after"

DEFAULT_PER_ATTEMPT_S = 13.0  # one spoken attempt plus the device's re-prompt
_MAX_DIGITS = 6  # PINs of 1 to 6 digits: up to a million candidates


@dataclass(frozen=True)
class LockPolicy:
    kind: str
    attempt_limit: int = 0      # n for max_attempts / delay_after
    delay_s: float = 0.0        # for delay_after

    def __post_init__(self):
        if self.kind not in (UNLIMITED, MAX_ATTEMPTS, DELAY_AFTER):
            raise ValueError(f"kind must be {UNLIMITED!r}, {MAX_ATTEMPTS!r} "
                             f"or {DELAY_AFTER!r}, got {self.kind!r}")
        _check_integer("attempt_limit", self.attempt_limit)
        if self.kind in (MAX_ATTEMPTS, DELAY_AFTER) and self.attempt_limit < 1:
            raise ValueError(
                f"attempt_limit must be >= 1, got {self.attempt_limit}")
        _check_nonnegative("delay_s", self.delay_s)

    @classmethod
    def unlimited(cls) -> "LockPolicy":
        return cls(UNLIMITED)

    @classmethod
    def max_attempts(cls, n: int) -> "LockPolicy":
        return cls(MAX_ATTEMPTS, attempt_limit=n)

    @classmethod
    def delay_after(cls, n: int, delay_s: float) -> "LockPolicy":
        return cls(DELAY_AFTER, attempt_limit=n, delay_s=delay_s)

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


def _check_walk(digits: int, per_attempt_s: float) -> None:
    _check_integer("digits", digits)
    if not 1 <= digits <= _MAX_DIGITS:
        raise ValueError(f"digits must be in [1, {_MAX_DIGITS}], got {digits}")
    _check_positive("per_attempt_s", per_attempt_s)


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
        _check_integer("seed", seed, minimum=0)
        return np.random.default_rng(seed).permutation(n)
    raise ValueError(f"order must be 'ascending' or 'seeded_shuffle', "
                     f"got {order!r}")


def enumerate_pins(policy: LockPolicy, digits: int, per_attempt_s: float,
                   secret: str, order: str = "ascending",
                   seed: int | None = None) -> BruteForceResult:
    """Outcome of walking the PIN space until the secret or a lockout.

    Elapsed time is attempts * per_attempt_s plus, for delay_after
    policies, the configured delay after every n-th wrong attempt. The
    walk is not stepped: everything follows from the secret's 0-based
    position among the candidates.
    """
    _check_walk(digits, per_attempt_s)
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
    _check_walk(digits, per_attempt_s)
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
