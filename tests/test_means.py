import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvilin import (
    DomainError,
    PowerVector,
    RangeError,
    SumSpec,
    conjugate,
    mean_alpha,
    sup_lambda_min_form,
)
from scalar_oracles import (
    MIXED_SIGN,
    SUM_NONNEG,
    MeanParams,
    gamma_pair,
    holder_product_bound,
    lambda_grid_sup,
    lp_coefficients,
    mean_p_alpha,
    optimal_lambda,
)

INF = math.inf

pos = st.floats(min_value=1e-3, max_value=10.0)
unit_open = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)
p_range = st.floats(min_value=1.0, max_value=4.0)
alpha_pos = st.floats(min_value=1e-2, max_value=1.0)


def test_conjugate():
    assert conjugate(1.0) == INF
    assert conjugate(2.0) == 2.0
    assert conjugate(4.0) == pytest.approx(4.0 / 3.0)
    assert conjugate(0.5) == -1.0
    with pytest.raises(RangeError):
        conjugate(0.0)


def test_lp_coefficients_values():
    c, d = lp_coefficients(2.0, 0.25, 0.36)
    assert c == pytest.approx(0.8 * math.sqrt(0.75), abs=1e-12)
    assert d == pytest.approx(0.3, abs=1e-12)
    # p = 1 drops the lam dependence entirely
    for lam in (0.1, 0.5, 0.9):
        assert lp_coefficients(1.0, lam, 0.3) == (0.7, 0.3)
    # p < 1 flips the sign of 1/q
    c, d = lp_coefficients(0.5, 0.5, 0.5)
    assert c == pytest.approx(0.5, abs=1e-12)
    assert d == pytest.approx(0.5, abs=1e-12)


@given(p=p_range, lam=unit_open, t=unit_open)
def test_lp_coefficients_bounded_for_p_ge_1(p, lam, t):
    c, d = lp_coefficients(p, lam, t)
    assert 0.0 < c <= 1.0 + 1e-12
    assert 0.0 < d <= 1.0 + 1e-12
    assert c + d <= 1.0 + 1e-12


@given(p=p_range, t=unit_open)
def test_coefficient_mass_peaks_at_lam_equal_t(p, t):
    c, d = lp_coefficients(p, t, t)
    assert c + d == pytest.approx(1.0, abs=1e-12)
    for lam in (t / 2, (1 + t) / 2):
        c2, d2 = lp_coefficients(p, lam, t)
        assert c2 + d2 <= 1.0 + 1e-12


def test_mean_alpha_branches():
    assert mean_alpha(2.0, 8.0, 0.5, 0.0) == pytest.approx(4.0)
    assert mean_alpha(2.0, 8.0, 0.25, 1.0) == pytest.approx(3.5)
    assert mean_alpha(2.0, 8.0, 0.5, INF) == 8.0
    assert mean_alpha(2.0, 8.0, 0.5, -INF) == 2.0
    assert mean_alpha(0.0, 8.0, 0.5, 1.0) == 0.0
    assert mean_alpha(8.0, 0.0, 0.5, -INF) == 0.0
    with pytest.raises(DomainError):
        mean_alpha(-1.0, 2.0, 0.5, 1.0)


@given(a=pos, b=pos, t=unit_open, alpha=st.floats(min_value=-3, max_value=3))
def test_mean_alpha_reciprocal_identity(a, b, t, alpha):
    lhs = 1.0 / mean_alpha(1.0 / a, 1.0 / b, t, alpha)
    assert lhs == pytest.approx(mean_alpha(a, b, t, -alpha), rel=1e-9)


@given(a=pos, b=pos, t=unit_open)
def test_mean_alpha_monotone_in_alpha(a, b, t):
    alphas = [-INF, -2.0, -0.5, 0.0, 0.5, 1.0, 2.0, INF]
    vals = [mean_alpha(a, b, t, al) for al in alphas]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-9 * max(1.0, hi)


def test_mean_p_alpha_values():
    params = MeanParams(p=2.0, t=0.36, lam=0.25)
    c, d = params.coefficients()
    assert mean_p_alpha(3.0, 5.0, params, 1.0) == pytest.approx(c * 3 + d * 5)
    assert mean_p_alpha(3.0, 5.0, params, 0.0) == pytest.approx(3.0**c * 5.0**d)
    assert mean_p_alpha(3.0, 5.0, params, INF) == 5.0
    assert mean_p_alpha(0.0, 5.0, params, INF) == 0.0


@given(a=pos, b=pos, p=p_range, t=unit_open, lam=unit_open, alpha=alpha_pos)
def test_mean_p_alpha_below_sup(a, b, p, t, lam, alpha):
    params = MeanParams(p=p, t=t, lam=lam)
    val = mean_p_alpha(a, b, params, alpha)
    sup = mean_alpha(a, b, t, p * alpha)
    assert val <= sup * (1 + 1e-12)


@given(a=pos, b=pos, t=unit_open, lam=unit_open, alpha=st.floats(-2, 2))
def test_p_equal_1_is_lambda_free(a, b, t, lam, alpha):
    v1 = mean_p_alpha(a, b, MeanParams(1.0, t, lam), alpha)
    v2 = mean_p_alpha(a, b, MeanParams(1.0, t, 0.5), alpha)
    assert v1 == v2  # bitwise: the lam factors never enter
    assert v1 == pytest.approx(mean_alpha(a, b, t, alpha), rel=1e-12)


def test_optimal_lambda_closed_form():
    lam = optimal_lambda(2.0, 4.0, p=2.0, t=0.5, alpha=1.0)
    assert lam == pytest.approx(0.8, abs=1e-12)
    params = MeanParams(p=2.0, t=0.5, lam=lam)
    assert mean_p_alpha(2.0, 4.0, params, 1.0) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    with pytest.raises(DomainError):
        optimal_lambda(0.0, 4.0, 2.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        optimal_lambda(2.0, 4.0, 2.0, 0.5, 0.0)


@given(a=pos, b=pos, p=p_range, t=unit_open, alpha=alpha_pos)
@settings(max_examples=200)
def test_optimal_lambda_against_grid_search(a, b, p, t, alpha):
    # Brute-force reference: the closed form must sit within one grid step
    # of the grid argmax and dominate every grid value.
    num = 4000
    sup_grid, lam_grid = lambda_grid_sup(a, b, p, t, alpha, num=num)
    lam_star = optimal_lambda(a, b, p, t, alpha)
    val_star = mean_p_alpha(a, b, MeanParams(p, t, lam_star), alpha)
    assert val_star >= sup_grid - 1e-9 * max(1.0, sup_grid)
    if p > 1.0 + 1e-9:
        assert abs(lam_star - lam_grid) <= 1.0 / (num + 1) + 1e-12


@given(a=pos, b=pos, p=p_range, t=unit_open, alpha=alpha_pos)
def test_sup_identity(a, b, p, t, alpha):
    # sup over lam of the coefficient mean collapses to the p*alpha mean
    lam_star = optimal_lambda(a, b, p, t, alpha)
    val_star = mean_p_alpha(a, b, MeanParams(p, t, lam_star), alpha)
    assert val_star == pytest.approx(mean_alpha(a, b, t, p * alpha), rel=1e-10)


@given(a=pos, b=pos, p=p_range, t=unit_open, alpha=st.floats(-2.0, -0.05))
def test_lambda_star_is_infimum_for_negative_alpha(a, b, p, t, alpha):
    lam_star = optimal_lambda(a, b, p, t, alpha)
    v_star = mean_p_alpha(a, b, MeanParams(p, t, lam_star), alpha)
    for lam in (0.1, 0.35, 0.62, 0.9):
        assert mean_p_alpha(a, b, MeanParams(p, t, lam), alpha) >= v_star * (1 - 1e-10)


def test_holder_product_bound_examples():
    params = MeanParams(p=2.0, t=0.4, lam=0.6)
    lhs, rhs, branch = holder_product_bound(2, 3, 5, 7, params, 1.0, 1.0)
    assert branch == SUM_NONNEG
    c, d = params.coefficients()
    assert lhs == pytest.approx((2 * c + 3 * d) * (5 * c + 7 * d))
    assert rhs == pytest.approx((c * math.sqrt(10) + d * math.sqrt(21)) ** 2)
    assert lhs >= rhs - 1e-12

    lhs, rhs, branch = holder_product_bound(2, 3, 5, 7, params, 1.0, -2.0)
    assert branch == MIXED_SIGN
    # gamma = (1 * -2) / (1 - 2) = 2
    assert rhs == pytest.approx(min(math.sqrt(c) * 10, math.sqrt(d) * 21))
    assert lhs >= rhs - 1e-12

    with pytest.raises(DomainError):
        holder_product_bound(2, 3, 5, 7, params, -1.0, -2.0)


def test_holder_opposite_powers_hit_min():
    # beta = -alpha makes gamma = -inf, so the bound is min(ac, bd)
    params = MeanParams(p=2.0, t=0.5, lam=0.3)
    lhs, rhs, branch = holder_product_bound(2, 3, 5, 7, params, 1.5, -1.5)
    assert branch == SUM_NONNEG
    assert rhs == min(2 * 5, 3 * 7)
    assert lhs >= rhs


def test_gamma_pair_conventions():
    assert gamma_pair(2.0, 2.0) == 1.0
    assert gamma_pair(1.0, -2.0) == 2.0
    assert gamma_pair(1.0, 0.0) == 0.0
    assert gamma_pair(3.0, -3.0) == -INF
    assert gamma_pair(INF, 2.0) == 2.0
    assert gamma_pair(INF, INF) == INF


def test_power_vector_gammas_add_left_to_right():
    # a compensated builtin sum, as Python 3.12 has, must not reach gamma:
    # reports carry it, and they must not depend on the interpreter
    from unittest import mock

    from curvilin import means

    alphas = (0.492, 2.192, 1.624, 1.0)
    want = 0.0
    for a in alphas:
        want += 1.0 / a
    assert 1.0 / math.fsum(1.0 / a for a in alphas) != 1.0 / want
    with mock.patch.object(means, "sum", math.fsum, create=True):
        assert PowerVector(alphas).gamma == 1.0 / want
        assert PowerVector(alphas + (2.0,)).base_gamma == 1.0 / want
    assert PowerVector((INF, INF)).gamma == INF
    assert PowerVector((1.0, 0.0)).gamma == 0.0


nonzero_alpha = st.floats(-3, -0.01) | st.floats(0.01, 3)


@given(
    a=pos, b=pos, c=pos, d=pos,
    p=p_range, t=unit_open, lam=unit_open,
    alpha=nonzero_alpha, beta=nonzero_alpha,
)
@settings(max_examples=500)
def test_holder_fuzz(a, b, c, d, p, t, lam, alpha, beta):
    params = MeanParams(p, t, lam)
    if alpha + beta < 0 and alpha * beta > 0:
        with pytest.raises(DomainError):
            holder_product_bound(a, b, c, d, params, alpha, beta)
        return
    lhs, rhs, _ = holder_product_bound(a, b, c, d, params, alpha, beta)
    assert lhs >= rhs - 1e-12 * max(1.0, abs(rhs))


@given(a=pos, b=pos, p=p_range, t=unit_open, gamma=st.floats(0.1, 4.0))
def test_sup_lambda_min_form_dominates_grid(a, b, p, t, gamma):
    best = sup_lambda_min_form(a, b, p, t, gamma)
    lams = np.linspace(1e-4, 1 - 1e-4, 400)
    for lam in lams:
        cc, dd = lp_coefficients(p, float(lam), t)
        v = min(cc ** (1 / gamma) * a, dd ** (1 / gamma) * b)
        assert best >= v - 1e-9 * max(1.0, v)


def test_power_vector():
    v = PowerVector((1.0,) * 3)
    assert v.n == 2
    assert v.gamma == pytest.approx(1.0 / 3.0)
    assert v.base_gamma == pytest.approx(0.5)
    assert not v.uses_min_branch()

    w = PowerVector((1.0, 1.0, -3.0))
    # threshold: last < -base_gamma = -1/2
    assert w.uses_min_branch()
    assert w.gamma == pytest.approx(1.0 / (2.0 - 1.0 / 3.0))

    x = PowerVector((1.0, 0.5))
    assert x.delta(2.0, 1) == pytest.approx(1.0 / (2.0 + 0.5 + 1.0))

    # a zero power degenerates the combination exponent to zero
    z = PowerVector((1.0, 0.0))
    assert z.gamma == 0.0
    assert z.delta(2.0, 1) == 0.0


def test_power_vector_refuses_nan_but_keeps_infinities():
    with pytest.raises(RangeError, match="powers must not be NaN"):
        PowerVector((1.0, math.nan))
    # +-inf stand for max and min
    assert PowerVector((math.inf, -math.inf)).alphas == (math.inf, -math.inf)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_sum_spec_refuses_a_non_finite_p(p):
    with pytest.raises(RangeError, match="p must be finite and positive"):
        SumSpec(p=p, alphas=PowerVector((1.0, 1.0)), t=0.5)


def test_mean_params_validation():
    with pytest.raises(RangeError):
        MeanParams(p=2.0, t=0.0, lam=0.5)
    with pytest.raises(RangeError):
        MeanParams(p=2.0, t=0.5, lam=1.0)
    with pytest.raises(RangeError):
        MeanParams(p=-1.0, t=0.5, lam=0.5)
    params = MeanParams(p=3.0, t=0.25, lam=0.25)
    assert params.q == pytest.approx(1.5)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=4.0)),
       t=unit_open, lam=unit_open, a=pos, b=pos,
       alpha=st.floats(min_value=1e-2, max_value=4.0), sign=st.sampled_from([-1, 1]),
       gamma=st.floats(min_value=1e-2, max_value=4.0))
def test_array_kernels_agree_with_the_scalars(p, t, lam, a, b, alpha, sign, gamma):
    spec = SumSpec(p=p, alphas=PowerVector((1.0,)), t=t)
    c, d = spec.coefficients(lam)
    c0, d0 = lp_coefficients(p, lam, t)
    assert float(c) == pytest.approx(c0, rel=1e-15, abs=0.0)
    assert float(d) == pytest.approx(d0, rel=1e-15, abs=0.0)
    alpha *= sign
    assert float(spec.pair_lambda_star(a, b, alpha)) == optimal_lambda(a, b, p, t, alpha)
    # 1 - lam cancels for a crossing within about 1e-15 of an endpoint
    cross = float(spec.quasi_crossing_lambda(a, b, gamma))
    assume(1e-6 <= cross <= 1.0 - 1e-6)
    cc, dd = (float(x) for x in spec.coefficients(cross))
    at_cross = min(cc ** (1.0 / gamma) * a, dd ** (1.0 / gamma) * b)
    assert at_cross == pytest.approx(sup_lambda_min_form(a, b, p, t, gamma), rel=1e-9)
