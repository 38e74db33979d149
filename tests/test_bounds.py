"""Rate-function and closed-form bound tests.

Expected values are either hand-derived or frozen from the quadrature oracle
(the defining integral of psi), never from the implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from selfnorm.bounds import (
    BOUND_KINDS,
    beta_decay_coefficient,
    clamp_probability,
    evaluate_bound,
    f_rate,
    optimal_lambda,
    peeling_prefactor,
    psi,
)

SQRT_E = math.sqrt(math.e)


def psi_quadrature(x: float) -> float:
    """Independent oracle: (2/x^2) * integral_0^x ln(1+u) du."""
    if x == 0:
        return 1.0
    value, err = quad(math.log1p, 0.0, x)
    assert err < 1e-8 * max(1.0, value)
    return 2.0 * value / (x * x)


class TestPsi:
    def test_zero_is_one(self):
        assert psi(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 1.0, 3.0, 10.0])
    def test_matches_quadrature(self, x):
        assert psi(x) == pytest.approx(psi_quadrature(x), rel=1e-12)

    def test_hand_values(self):
        # (1+x)ln(1+x) - x at x = 1 resp. x = 3, scaled by 2/x^2
        assert psi(1.0) == pytest.approx(4.0 * math.log(2.0) - 2.0, rel=1e-14)
        assert psi(3.0) == pytest.approx((2.0 / 9.0) * (8.0 * math.log(2.0) - 3.0), rel=1e-14)

    def test_continuity_at_zero(self):
        assert abs(psi(1e-8) - 1.0) < 1e-7

    def test_series_joins_closed_form(self):
        below, above = 1e-4 * (1 - 1e-9), 1e-4 * (1 + 1e-9)
        assert psi(below) == pytest.approx(psi(above), rel=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="psi"):
            psi(-0.1)

    def test_lower_envelope_on_grid(self):
        # psi(x) >= 1/(1 + x/3) on a 1000-point grid
        for x in np.linspace(0.0, 30.0, 1000):
            assert psi(float(x)) >= 1.0 / (1.0 + x / 3.0) - 1e-15

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_range(self, x):
        value = psi(x)
        assert 0.0 < value <= 1.0


class TestFRate:
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 7.0])
    def test_y_zero_convention(self, x):
        assert f_rate(x, 0.0) == 0.5 * x * x

    def test_hand_value(self):
        assert f_rate(1.0, 1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14)

    def test_small_product_against_quadrature(self):
        # f(2, 0.001) = 2 * psi(0.002) through the integral oracle
        assert f_rate(2.0, 0.001) == pytest.approx(2.0 * psi_quadrature(0.002), rel=1e-10)

    def test_continuity_near_y_zero(self):
        for x in (0.5, 1.0, 4.0):
            assert abs(f_rate(x, 1e-8) - 0.5 * x * x) < 1e-6 * x * x

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_rate(-1.0, 0.5)
        with pytest.raises(ValueError):
            f_rate(1.0, -0.5)

    def test_identity_with_psi_on_acceptance_grid(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            for y in (0.001, 0.01, 0.1, 1.0, 5.0):
                assert f_rate(x, y) == pytest.approx(0.5 * x * x * psi(x * y), rel=1e-10)

    def test_dominates_bernstein_rate(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            for y in (0.001, 0.01, 0.1, 1.0, 5.0):
                assert f_rate(x, y) >= x * x / (2.0 * (1.0 + x * y / 3.0)) - 1e-15

    @given(
        st.floats(min_value=1e-3, max_value=100.0),
        st.floats(min_value=1e-6, max_value=50.0),
    )
    @settings(max_examples=200)
    def test_identity_property(self, x, y):
        assert f_rate(x, y) == pytest.approx(0.5 * x * x * psi(x * y), rel=1e-9)


def _u_objective(lam, x, y):
    # the exponential-moment objective whose minimizer optimal_lambda claims
    if y == 0:
        return 0.5 * lam * lam - lam * x
    return (math.expm1(lam * y) - lam * y) / (y * y) - lam * x


class TestOptimalLambda:
    def test_hand_values(self):
        assert optimal_lambda(1.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-14)
        assert optimal_lambda(2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert optimal_lambda(3.0, 0.0) == 3.0

    def test_nonpositive_x_rejected(self):
        with pytest.raises(ValueError):
            optimal_lambda(0.0, 1.0)

    @pytest.mark.parametrize("x,y", [(0.5, 0.2), (1.0, 1.0), (2.0, 0.5), (4.0, 3.0)])
    def test_is_argmin(self, x, y):
        star = optimal_lambda(x, y)
        at_star = _u_objective(star, x, y)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert at_star < _u_objective(factor * star, x, y)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1e-6, max_value=5.0),
    )
    @settings(max_examples=150)
    def test_argmin_property(self, x, y):
        star = optimal_lambda(x, y)
        at_star = _u_objective(star, x, y)
        assert at_star <= _u_objective(0.9 * star, x, y) + 1e-12
        assert at_star <= _u_objective(1.1 * star, x, y) + 1e-12


class TestOptimalLambdaBeta:
    """beta_decay_coefficient is the maximum of lambda -> lambda*x - lambda^beta,
    reached at lambda* = (x/beta)^{1/(beta-1)}."""

    @pytest.mark.parametrize("x,beta", [(0.5, 1.2), (1.0, 1.5), (3.0, 1.9), (2.0, 1.5)])
    def test_is_argmax_with_value_identity(self, x, beta):
        star = (x / beta) ** (1.0 / (beta - 1.0))
        value = star * x - star ** beta
        assert value == pytest.approx(beta_decay_coefficient(x, beta), rel=1e-12)
        for factor in (0.5, 0.9, 1.1, 2.0):
            lam = factor * star
            assert value > lam * x - lam ** beta


class TestEvaluateBound:
    def test_freedman_hand_value(self):
        value = evaluate_bound("freedman", x=1.0, L=1.0, a_bnd=0.0)
        assert value == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_dvz_equals_freedman_without_truncation(self):
        for x in (0.5, 1.0, 2.0):
            for L in (0.5, 1.0, 3.0):
                dvz = evaluate_bound("dvz", x=x, L=L, a_bnd=0.0)
                freedman = evaluate_bound("freedman", x=x, L=L, a_bnd=0.0)
                assert dvz == pytest.approx(freedman, rel=1e-14)

    def test_dvz_sharper_than_freedman_125_grid(self):
        grid = (0.5, 1.0, 2.0, 4.0, 8.0)
        for x in grid:
            for L in grid:
                for a in (0.0, 0.5, 1.0, 2.0, 4.0):
                    dvz = evaluate_bound("dvz", x=x, L=L, a_bnd=a)
                    fr = evaluate_bound("freedman", x=x, L=L, a_bnd=a)
                    assert dvz <= fr + 1e-15

    def test_peeling_collapses_without_range(self):
        value = evaluate_bound("thm22_peeling", x=2.0, y=0.0, M=1.0)
        assert value == pytest.approx(SQRT_E * math.exp(-2.0), rel=1e-14)

    def test_tsp_bound_vacuous_value_returned_unclamped(self):
        expected = SQRT_E * (1.0 + 3.0 * math.log(100.0)) * math.exp(-2.0)
        value = evaluate_bound("thm34_tsp", t=2.0, n=100, d=2)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value > 1.0
        assert clamp_probability(value) == 1.0

    def test_bernstein_formula(self):
        assert evaluate_bound("bernstein", z=2.0, L=3.0, a_bnd=1.0) == pytest.approx(
            math.exp(-0.5 * 4.0 / (3.0 + 2.0 / 3.0)), rel=1e-14
        )

    def test_self_normalized_point_bounds(self):
        assert evaluate_bound(
            "dlp_point", x=0.5, y=8.0
        ) == pytest.approx(math.exp(-0.5 * 0.25 * 8.0), rel=1e-14)
        assert evaluate_bound(
            "delyon", x=2.0, y=8.0
        ) == pytest.approx(math.exp(-0.25), rel=1e-14)
        assert evaluate_bound(
            "bercu_touati", x=1.0, y=4.0, b=0.5, a_bnd=0.25
        ) == pytest.approx(math.exp(-(0.125 + 0.5 * 0.25 * 4.0)), rel=1e-14)
        assert evaluate_bound(
            "thm21_point", x=1.0, y=0.5, z=6.0
        ) == pytest.approx(math.exp(-6.0 / (2.0 * (1.0 + 1.0 / 6.0))), rel=1e-14)

    def test_beta_kinds(self):
        coef = evaluate_bound("thm23_exponent", x=3.0, beta=1.5)
        assert coef == pytest.approx(0.5 * (2.0) ** 3, rel=1e-14)  # (beta-1)(x/beta)^{beta/(beta-1)}
        printed = evaluate_bound("thm24_peeling", x=3.0, beta=1.5, M=4.0)
        expected = (1.0 + 2.0 * 4.0 * math.log(4.0)) * math.exp(-(2.0 ** 3) * (1.0 / 3.0))
        assert printed == pytest.approx(expected, rel=1e-14)

    def test_regression_and_tstat_kinds(self):
        value = evaluate_bound("thm33_regression", x=0.5, sigma=0.1, y=0.1, b=3.0, M=2.0)
        expected = (
            2.0
            * SQRT_E
            * (1.0 + 2.0 * 6.0 * math.log(2.0))
            * math.exp(-0.125 / (0.01 + 0.05 / 9.0))
        )
        assert value == pytest.approx(expected, rel=1e-12)
        tstat = evaluate_bound("thm31_tstat", x=2.0, n=20, M=2.0)
        shrink = math.sqrt(20.0 / 23.0)
        expected = (
            SQRT_E
            * (1.0 + 2.0 * (1.0 + 2.0 * shrink) * math.log(2.0))
            * math.exp(-0.5 * 20.0 * 4.0 / 23.0)
        )
        assert tstat == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["azuma_tsp", "dlp_pang", "thm24_peeling_conservative"])
    def test_unchecked_kinds_are_gone(self, kind):
        # no verification target checked these kinds against data
        assert kind not in BOUND_KINDS
        with pytest.raises(ValueError, match=f"unknown bound kind '{kind}'"):
            evaluate_bound(kind, x=1.5, t=1.5, n=50, d=2, beta=1.5, M=2.0)

    @pytest.mark.parametrize("name", ["q", "c_const"])
    def test_unread_inputs_are_not_catalogued(self, name):
        # only the deleted kinds read these inputs
        with pytest.raises(TypeError, match=f"unknown parameter '{name}'"):
            evaluate_bound("thm34_tsp", t=1.5, n=50, d=2, **{name: 2.0})

    def test_missing_parameter_names_field(self):
        with pytest.raises(ValueError, match="missing parameter.*L"):
            evaluate_bound("freedman", x=1.0, a_bnd=0.0)
        # b is read only when y > 0
        with pytest.raises(ValueError, match="missing parameter.*b"):
            evaluate_bound("thm22_peeling", x=1.0, y=0.5, M=2.0)

    def test_invalid_field_rejected_on_construction(self):
        # every given input is checked, also one the kind does not read
        with pytest.raises(ValueError, match="beta"):
            evaluate_bound("freedman", x=1.0, L=1.0, a_bnd=0.0, beta=2.5)
        with pytest.raises(ValueError, match="M"):
            evaluate_bound("cor22_peeling", x=1.0, M=0.5)
        with pytest.raises(ValueError, match="sigma"):
            evaluate_bound("thm33_regression", x=0.5, sigma=0.0, y=0.1, b=3.0, M=2.0)
        with pytest.raises(ValueError, match="x=nan"):
            evaluate_bound("dvz", x=math.nan, L=1.0, a_bnd=0.0)

    @pytest.mark.parametrize("name", ["x", "M", "n", "t"])
    def test_bool_rejected_on_construction(self, name):
        # JSON true/false load as bools, which would pass as 1 and 0
        with pytest.raises(ValueError, match=f"{name}=True"):
            evaluate_bound("thm31_tstat", **{"x": 1.0, "n": 10, "M": 2.0, name: True})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown bound kind"):
            evaluate_bound("thm99", x=1.0)

    def test_kind_is_positional_only(self):
        # a stray kind= keyword is an unknown input name, not the kind
        with pytest.raises(TypeError, match="kind"):
            evaluate_bound("freedman", kind="dvz", x=1.0, L=1.0, a_bnd=0.0)
        with pytest.raises(TypeError, match="lam"):
            evaluate_bound("freedman", x=1.0, L=1.0, a_bnd=0.0, lam=1.0)

    def test_all_kinds_positive(self):
        params = dict(
            x=1.5, y=0.5, z=2.0, b=1.0, M=2.0, beta=1.5, n=50, sigma=0.5,
            t=1.5, d=2, a_bnd=0.5, L=2.0,
        )
        for kind in BOUND_KINDS:
            assert evaluate_bound(kind, **params) > 0.0

    @pytest.mark.parametrize(
        "kind,params,xs",
        [
            ("freedman", dict(L=1.0, a_bnd=1.0), (0.5, 1, 2, 4, 8)),
            ("dvz", dict(L=1.0, a_bnd=1.0), (0.5, 1, 2, 4, 8)),
            ("dlp_point", dict(y=2.0), (0.5, 1, 2, 4)),
            ("bercu_touati", dict(y=2.0, b=0.5, a_bnd=0.5), (0.5, 1, 2, 4)),
            ("thm21_point", dict(y=0.5, z=2.0), (0.5, 1, 2, 4)),
            ("thm22_peeling", dict(y=0.5, b=1.0, M=4.0), (1, 1.5, 2, 3, 5)),
            ("cor22_peeling", dict(M=4.0), (1, 1.5, 2, 3, 5)),
            ("thm25_peeling", dict(M=4.0), (1, 1.5, 2, 3, 5)),
            ("delyon", dict(y=2.0), (0.5, 1, 2, 4)),
            ("thm24_peeling", dict(beta=1.5, M=4.0), (1.5, 2, 3, 5, 8)),
            ("thm31_tstat", dict(n=50, M=4.0), (1.5, 2, 3, 5)),
            ("thm33_regression", dict(sigma=0.5, y=0.5, b=2.0, M=2.0), (1, 1.5, 2, 4)),
        ],
    )
    def test_monotone_nonincreasing_in_deviation(self, kind, params, xs):
        values = [evaluate_bound(kind, x=float(x), **params) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_tsp_kinds_monotone_in_t(self):
        values = [evaluate_bound("thm34_tsp", t=t, n=50, d=2) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_clamp_probability(self):
        assert clamp_probability(0.4) == 0.4
        assert clamp_probability(1.7) == 1.0
        with pytest.raises(ValueError):
            clamp_probability(-0.1)

    def test_peeling_prefactor(self):
        assert peeling_prefactor(1.0, 1.0) == pytest.approx(SQRT_E, rel=1e-14)
        with pytest.raises(ValueError):
            peeling_prefactor(1.0, 0.5)
