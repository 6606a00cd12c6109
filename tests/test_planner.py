import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dug import HanoiParams, OutOfRange, plan_parameters
from dug.planner import _pow_at_most_pow2, _pow_bound


def test_direct_mode_known_point():
    # n = 2^16, eps = 1/16: the inequality chain picks (a, b) = (3, 1)
    plan = plan_parameters(2**16, Fraction(1, 16))
    assert not plan.degenerate
    assert (plan.m, plan.a, plan.b) == (4, 3, 1)
    assert (plan.r, plan.k) == (256, 2)
    assert plan.base_n == 65536 and plan.predicted_d == 3
    assert not plan.needs_blow_up
    assert plan.within_hypothesis and plan.k_bound_ok
    assert plan.params() == HanoiParams(256, 2, proper=True)


def test_degenerate_below_two_over_sqrt_n():
    plan = plan_parameters(16, Fraction(1, 4))  # 1/4 < 2/sqrt(16)
    assert plan.degenerate
    assert (plan.r, plan.k) == (16, 1)
    assert plan.predicted_d == 1
    assert plan.m is None and plan.a is None and plan.b is None
    assert plan_parameters(10000, Fraction(1, 100)).degenerate


def test_boundary_not_degenerate():
    # eps == 2/sqrt(n) exactly is not below the threshold
    plan = plan_parameters(16, Fraction(1, 2))
    assert not plan.degenerate
    assert (plan.a, plan.b) == (2, 0)
    assert (plan.r, plan.k) == (16, 1)


def test_out_of_range():
    with pytest.raises(OutOfRange):
        plan_parameters(16, Fraction(1, 32))  # below 1/n
    with pytest.raises(OutOfRange):
        plan_parameters(16, Fraction(3, 2))  # above 1
    with pytest.raises(OutOfRange):
        plan_parameters(1, Fraction(1, 2))


def test_hypothesis_flag():
    assert plan_parameters(16, Fraction(1, 4)).within_hypothesis
    assert not plan_parameters(16, Fraction(1, 2)).within_hypothesis  # > 1/log2(16)


def test_general_mode_blow_up_counts():
    plan = plan_parameters(300, Fraction(1, 2))
    assert not plan.degenerate and plan.needs_blow_up
    assert plan.base_n == 256
    assert plan.selection_epsilon == Fraction(1, 4)
    assert (plan.r, plan.k) == (16, 2)
    assert (plan.copy_floor, plan.copy_ceil, plan.ceil_count) == (1, 2, 44)


def test_general_mode_divisible_target():
    plan = plan_parameters(512, Fraction(1, 2))
    assert plan.base_n == 256 and plan.needs_blow_up
    assert (plan.copy_floor, plan.copy_ceil, plan.ceil_count) == (2, 2, 0)


def test_selection_interval_is_unique():
    # the (a, b) intervals tile [1/n, 1): scan the whole grid for double hits
    for m in (2, 3, 4):
        n = 2 ** (2**m)
        for num in range(1, 33):
            eps = Fraction(num, 32)
            if eps < Fraction(1, n):
                continue
            hits = []
            for b in range(m + 1):
                a = m - b
                lo = eps.denominator * 2 ** (2 * b) <= eps.numerator * 2 ** (2**a)
                hi = (
                    eps.numerator**2 * 2 ** (2**a)
                    < eps.denominator**2 * 2 ** (4 * b + 4)
                )
                if lo and hi:
                    hits.append((a, b))
            assert len(hits) == 1, (n, eps, hits)


@given(
    st.integers(2, 10**6),
    st.integers(1, 64),
    st.integers(1, 64),
)
def test_plan_invariants_random(n, num, den):
    eps = Fraction(num, den)
    if eps < Fraction(1, n) or eps > 1:
        with pytest.raises(OutOfRange):
            plan_parameters(n, eps)
        return
    plan = plan_parameters(n, eps)
    assert plan.n_target == n and plan.epsilon == eps
    assert plan.predicted_d == 2**plan.k - 1
    if plan.degenerate:
        assert (plan.r, plan.k, plan.base_n) == (n, 1, n)
        return
    assert plan.a + plan.b == plan.m
    assert plan.r == 2 ** (2**plan.a)
    assert plan.k == 2**plan.b
    assert plan.base_n == plan.r**plan.k == 2 ** (2**plan.m)
    assert plan.base_n <= n < plan.base_n**2
    # uniformity guarantee of the selection
    assert Fraction(plan.k**2, plan.r) <= plan.selection_epsilon <= eps
    # copy counts partition the target exactly
    total = (
        plan.copy_ceil * plan.ceil_count
        + plan.copy_floor * (plan.base_n - plan.ceil_count)
    )
    assert total == n
    # deterministic
    assert plan_parameters(n, eps) == plan


@given(st.integers(2, 300), st.integers(1, 60), st.integers(-3, 3))
def test_pow_at_most_pow2_is_exact(n, p, offset):
    # q within a few units of log2(n^p): mostly inside the band the bounds must decide.
    q = max(0, (n**p).bit_length() - 1 + offset)
    assert _pow_at_most_pow2(n, p, q) == (n**p <= 2**q)


@pytest.mark.parametrize("half", [100, 1000])
def test_pow_at_most_pow2_near_a_power_of_two(half):
    # n^2 is within a factor 1 + 2^-half of 2^(2 half + 1): 64-bit bounds cannot decide.
    n = math.isqrt(2 << 2 * half)
    assert _pow_at_most_pow2(n, 2, 2 * half + 1)
    assert not _pow_at_most_pow2(n + 1, 2, 2 * half + 1)


@given(st.integers(2, 10**6), st.integers(1, 200), st.integers(1, 12), st.booleans())
def test_pow_bound_is_on_its_side(n, p, bits, up):
    c, e = _pow_bound(n, p, bits, up)
    assert c.bit_length() <= bits + 1
    assert (c << e >= n**p) if up else (c << e <= n**p)
