import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoninject.authsim import (DELAY_AFTER, MAX_ATTEMPTS, BruteForceResult,
                                  LockPolicy, candidate_order, enumerate_pins,
                                  expected_time)


def reference_enumerate_pins(policy, digits, per_attempt_s, secret,
                             order="ascending", seed=None):
    """The candidate-by-candidate walk that enumerate_pins replaces."""
    target = int(secret)

    attempts = 0
    wrong = 0
    delays = 0
    for candidate in candidate_order(digits, order, seed):
        attempts += 1
        if candidate == target:
            return BruteForceResult(
                attempts, attempts * per_attempt_s + delays * policy.delay_s,
                "unlocked")
        wrong += 1
        if policy.kind == MAX_ATTEMPTS and wrong >= policy.attempt_limit:
            return BruteForceResult(attempts, attempts * per_attempt_s,
                                    "locked_out")
        if policy.kind == DELAY_AFTER and wrong % policy.attempt_limit == 0:
            delays += 1
    return BruteForceResult(
        attempts, attempts * per_attempt_s + delays * policy.delay_s, "exhausted")


@st.composite
def walks(draw):
    digits = draw(st.integers(1, 4))
    space = 10 ** digits
    limit = draw(st.integers(1, space + 5))
    kind = draw(st.sampled_from(["unlimited", "max_attempts", "delay_after"]))
    if kind == "unlimited":
        policy = LockPolicy.unlimited()
    elif kind == "max_attempts":
        policy = LockPolicy.max_attempts(limit)
    else:
        delay = draw(st.one_of(st.sampled_from([0.0, 0.1, 60.0]),
                               st.floats(0.0, 1e6)))
        policy = LockPolicy.delay_after(limit, delay)
    per_attempt = draw(st.one_of(st.sampled_from([13.0, 0.1, 1 / 3, 5e-324]),
                                 st.floats(1e-6, 1e4)))
    order = draw(st.sampled_from(["ascending", "seeded_shuffle"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    secret = str(draw(st.integers(0, space - 1))).zfill(digits)
    return policy, digits, per_attempt, secret, order, seed


@settings(deadline=None, max_examples=300)
@given(walks())
def test_matches_the_candidate_walk(walk):
    expected = reference_enumerate_pins(*walk)
    got = enumerate_pins(*walk)
    assert got == expected
    assert got.elapsed_s.hex() == expected.elapsed_s.hex()
    assert type(got.attempts_made) is int


class TestEnumerate:
    def test_first_candidate_unlocks_immediately(self):
        r = enumerate_pins(LockPolicy.unlimited(), 4, 13.0, "0000")
        assert r == BruteForceResult(1, 13.0, "unlocked")

    def test_last_candidate_takes_the_full_space(self):
        r = enumerate_pins(LockPolicy.unlimited(), 4, 13.0, "9999")
        assert r.attempts_made == 10000
        assert r.elapsed_s == pytest.approx(130000.0)
        assert r.elapsed_s / 3600 == pytest.approx(36.1, abs=0.05)
        assert r.outcome == "unlocked"

    def test_lockout_policy_halts(self):
        r = enumerate_pins(LockPolicy.max_attempts(3), 4, 13.0, "0005")
        assert r.outcome == "locked_out"
        assert r.attempts_made == 3
        assert r.elapsed_s == pytest.approx(39.0)

    def test_lockout_wins_before_limit(self):
        r = enumerate_pins(LockPolicy.max_attempts(3), 4, 13.0, "0002")
        assert r.outcome == "unlocked"
        assert r.attempts_made == 3

    def test_delay_policy_adds_pauses(self):
        # secret at position 6: five wrong attempts, a pause after every 2
        r = enumerate_pins(LockPolicy.delay_after(2, 10.0), 4, 13.0, "0005")
        assert r.outcome == "unlocked"
        assert r.attempts_made == 6
        assert r.elapsed_s == pytest.approx(6 * 13.0 + 2 * 10.0)

    def test_malformed_secret(self):
        with pytest.raises(ValueError, match="digits"):
            enumerate_pins(LockPolicy.unlimited(), 4, 13.0, "123")
        with pytest.raises(ValueError, match="digits"):
            enumerate_pins(LockPolicy.unlimited(), 4, 13.0, "12a4")

    def test_non_ascii_digits_rejected(self):
        for secret in ("\u0661\u0662\u0663\u0664", "12\u00b34", "\uff11234"):
            assert secret.isdigit()
            with pytest.raises(ValueError, match="digits"):
                enumerate_pins(LockPolicy.unlimited(), 4, 13.0, secret)

    def test_digits_outside_one_to_six(self):
        for digits in (0, 7):
            message = rf"^digits must be in \[1, 6\], got {digits}$"
            with pytest.raises(ValueError, match=message):
                enumerate_pins(LockPolicy.unlimited(), digits, 13.0,
                               "0" * digits)
            with pytest.raises(ValueError, match=message):
                expected_time(LockPolicy.max_attempts(3), digits)

    def test_per_attempt_positive(self):
        with pytest.raises(ValueError, match="per_attempt"):
            enumerate_pins(LockPolicy.unlimited(), 2, 0.0, "00")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_per_attempt_finite(self, bad):
        with pytest.raises(ValueError, match="per_attempt_s must be positive "
                                             "and finite"):
            enumerate_pins(LockPolicy.unlimited(), 2, bad, "00")
        with pytest.raises(ValueError, match="per_attempt_s"):
            expected_time(LockPolicy.unlimited(), 2, bad)

    def test_attempts_equal_position_in_order(self):
        policy = LockPolicy.unlimited()
        order = candidate_order(2, "seeded_shuffle", seed=3)
        for position, candidate in enumerate(order, start=1):
            secret = f"{candidate:02d}"
            r = enumerate_pins(policy, 2, 1.0, secret, "seeded_shuffle", seed=3)
            assert r.attempts_made == position

    def test_ascending_position_is_value_plus_one(self):
        policy = LockPolicy.unlimited()
        for value in (0, 1, 57, 99):
            r = enumerate_pins(policy, 2, 1.0, f"{value:02d}")
            assert r.attempts_made == value + 1

    def test_unlimited_always_unlocks_small_spaces(self):
        policy = LockPolicy.unlimited()
        for digits in (1, 2):
            for value in range(10 ** digits):
                r = enumerate_pins(policy, digits, 1.0, str(value).zfill(digits))
                assert r.outcome == "unlocked"

    def test_mean_attempts_over_all_secrets(self):
        # ascending order, 2-digit space: exact integer mean (N + 1) / 2
        total = sum(
            enumerate_pins(LockPolicy.unlimited(), 2, 1.0, f"{v:02d}").attempts_made
            for v in range(100))
        assert total * 2 == 100 * 101


class TestCandidateOrder:
    def test_shuffle_is_a_bijection(self):
        for digits in (1, 2, 3):
            order = candidate_order(digits, "seeded_shuffle", seed=11)
            assert sorted(order) == list(range(10 ** digits))

    def test_shuffle_is_seeded(self):
        a = candidate_order(3, "seeded_shuffle", seed=1)
        b = candidate_order(3, "seeded_shuffle", seed=1)
        c = candidate_order(3, "seeded_shuffle", seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unknown_order(self):
        with pytest.raises(ValueError, match="order"):
            candidate_order(2, "random")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            candidate_order(3, "seeded_shuffle", seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -2"):
            enumerate_pins(LockPolicy.unlimited(), 3, 1.0, "123",
                           "seeded_shuffle", seed=-2)

    def test_shuffle_without_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            candidate_order(3, "seeded_shuffle")
        with pytest.raises(ValueError, match="seed"):
            enumerate_pins(LockPolicy.unlimited(), 3, 1.0, "123",
                           "seeded_shuffle")


class TestExpectedTime:
    def test_four_digit_unlimited(self):
        et = expected_time(LockPolicy.unlimited(), 4, 13.0)
        assert et.worst_s == 130000.0
        assert et.worst_s / 3600 == pytest.approx(36.1, abs=0.05)
        assert et.mean_s == pytest.approx((10000 + 1) / 2 * 13.0)
        assert et.success_prob == 1.0

    def test_three_digit_unlimited(self):
        et = expected_time(LockPolicy.unlimited(), 3, 13.0)
        assert et.worst_s == 13000.0
        assert et.worst_s / 3600 == pytest.approx(3.6, abs=0.02)

    def test_max_attempts_success_probability(self):
        et = expected_time(LockPolicy.max_attempts(3), 4, 13.0)
        assert et.success_prob == pytest.approx(3 / 10000)
        assert et.mean_s == pytest.approx((3 + 1) / 2 * 13.0)
        assert et.worst_s == pytest.approx(3 * 13.0)

    def test_delay_after_worst_case(self):
        et = expected_time(LockPolicy.delay_after(3, 60.0), 4, 13.0)
        assert et.worst_s == pytest.approx(10000 * 13.0 + (9999 // 3) * 60.0)
        assert et.success_prob == 1.0

    def test_delay_after_mean_matches_enumeration(self):
        # exhaustive cross-check on the 2-digit space
        policy = LockPolicy.delay_after(3, 7.0)
        elapsed = [enumerate_pins(policy, 2, 5.0, f"{v:02d}").elapsed_s
                   for v in range(100)]
        et = expected_time(policy, 2, 5.0)
        assert et.mean_s == pytest.approx(np.mean(elapsed))
        assert et.worst_s == pytest.approx(max(elapsed))

    def test_worst_at_least_mean(self):
        for digits in (1, 2, 3, 4):
            et = expected_time(LockPolicy.unlimited(), digits, 13.0)
            assert et.worst_s >= et.mean_s


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            LockPolicy("sometimes")
        with pytest.raises(ValueError):
            LockPolicy.max_attempts(0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delay_s must be >= 0 and "
                                                 "finite"):
                LockPolicy.delay_after(3, bad)

    def test_fractional_attempt_limit_rejected(self):
        with pytest.raises(ValueError,
                           match="attempt_limit must be an integer, got 2.5"):
            LockPolicy.max_attempts(2.5)

    def test_bool_attempt_limit_rejected(self):
        with pytest.raises(ValueError,
                           match="attempt_limit must be an integer, got True"):
            LockPolicy.max_attempts(True)

    def test_float_digits_rejected(self):
        with pytest.raises(ValueError,
                           match="digits must be an integer, got 4.0"):
            expected_time(LockPolicy.unlimited(), 4.0)
        with pytest.raises(ValueError,
                           match="digits must be an integer, got 4.0"):
            enumerate_pins(LockPolicy.unlimited(), 4.0, 13.0, "1234")

    def test_describe(self):
        assert LockPolicy.unlimited().describe() == "unlimited"
        assert LockPolicy.max_attempts(3).describe() == "max_attempts(3)"
        assert LockPolicy.delay_after(3, 60).describe() == "delay_after(3,60s)"
