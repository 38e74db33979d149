"""Monte Carlo estimation, the exact sign-type oracle, and certificate checks."""

import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats

from selfnorm import montecarlo
from selfnorm.applications.regression import regression_batch
from selfnorm.bounds import beta_decay_coefficient, f_rate
from selfnorm.montecarlo import (
    P_SEARCH_WINDOW,
    _EXP_SHIFT_CUT,
    _EXP_ZERO_CUT,
    MCEstimate,
    TailEvent,
    clopper_pearson,
    domination_check,
    estimate_tail_from,
    evaluate_event,
    exact_optimized_bound_rademacher,
    exact_tail_rademacher,
    exact_verdict,
    exp_growth_coefficient,
    golden_section_min,
    optimize_expectation_values,
    optimize_over_p_from,
)
from selfnorm.processes import CenteredPareto, Rademacher, ScaledTwoPoint

from reference import (
    MeanEstimate,
    enumerated_optimized_bound_rademacher,
    enumerated_tail_rademacher,
    enumerate_sign_chunks,
    exact_mean_rademacher,
    exact_supermartingale_mean_rademacher,
    expectation_bound_from,
    given_stats,
    plain_objective,
    shifted_objective,
    stream_stats,
    supermartingale_check,
)


class TestClopperPearson:
    def test_degenerate_endpoints(self):
        lo, hi = clopper_pearson(0, 100, 0.95)
        assert lo == 0.0 and 0.0 < hi < 0.06
        lo, hi = clopper_pearson(100, 100, 0.95)
        assert hi == 1.0 and lo > 0.94

    def test_interval_brackets_point_estimate(self):
        for hits, n in ((3, 50), (25, 50), (47, 50)):
            lo, hi = clopper_pearson(hits, n, 0.99)
            assert 0.0 <= lo <= hits / n <= hi <= 1.0

    def test_narrows_with_replicates(self):
        widths = []
        for n in (100, 1000, 10000):
            lo, hi = clopper_pearson(n // 5, n, 0.99)
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(11, 10, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson(1, 10, 1.0)

    @pytest.mark.parametrize("gamma", [0.5, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize("n_rep", [1, 2, 100, 25_000, 10**6])
    def test_bit_identical_to_beta_quantile(self, n_rep, gamma):
        alpha = 1.0 - gamma
        for hits in sorted({min(max(h, 0), n_rep)
                            for h in (0, 1, 2, n_rep // 2, n_rep - 2, n_rep - 1, n_rep)}):
            lo = 0.0 if hits == 0 else float(stats.beta.ppf(alpha / 2, hits, n_rep - hits + 1))
            hi = (1.0 if hits == n_rep
                  else float(stats.beta.ppf(1 - alpha / 2, hits + 1, n_rep - hits)))
            assert clopper_pearson(hits, n_rep, gamma) == (lo, hi), hits

    def test_estimate_invariants(self):
        est = MCEstimate.from_hits(7, 200, 0.99)
        assert est.ci_lo <= est.p_hat <= est.ci_hi
        assert MCEstimate.from_hits(0, 200, 0.99).ci_lo == 0.0
        assert MCEstimate.from_hits(200, 200, 0.99).ci_hi == 1.0


class TestExactOracle:
    def test_single_step(self):
        assert exact_tail_rademacher(1, TailEvent(x=1.0)) == 0.5

    def test_two_step_boundary_ratio(self):
        event = TailEvent(x=math.sqrt(2.0), normalizer=lambda st: np.sqrt(st.sq_var()))
        assert exact_tail_rademacher(2, event) == 0.25

    def test_three_step_hand_enumeration(self):
        event = TailEvent(x=0.5, normalizer=lambda st: st.b_n(0.0))
        assert exact_tail_rademacher(3, event) == 0.125

    def test_windowed_event(self):
        # S_3 >= 1 and B_3(0) = N+ + 1.5 >= 3.5 forces at least two up-steps
        event = TailEvent(x=1.0, window=(lambda st: st.b_n(0.0), 3.5, math.inf))
        assert exact_tail_rademacher(3, event) == 0.5

    def test_mean_oracle_matches_binomial(self):
        # E[S_n^2] = n by independence
        assert exact_mean_rademacher(8, lambda signs: signs.sum(axis=1) ** 2) == pytest.approx(8.0)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_tail_rademacher(0, TailEvent(x=1.0))

    def test_degenerate_normalizer_is_false(self):
        batch = np.zeros((4, 3))
        stats = given_stats(batch, Rademacher(), ("sq_var", None))
        event = TailEvent(x=0.0, normalizer=lambda st: np.sqrt(st.sq_var()))
        assert not evaluate_event(stats, event).any()


def _every_statistic(y):
    return [
        lambda st: st.b_n(y),
        lambda st: np.sqrt(st.b_n(y)),
        lambda st: st.sq_var(),
        lambda st: np.sqrt(st.sq_var()),
        lambda st: st.cond_var(),
        lambda st: st.h_n(y),
        lambda st: st.g_n(1.5),
        lambda st: st.g_n(1.5) ** (1.0 / 1.5),
    ]


def _cross_check_events(n, y):
    """Normalizer and window events for every statistic, raw events and the
    sqrt(2) boundary atom; window edges sit on realized values of the statistic."""
    events = [TailEvent(x=x) for x in (0.0, 1.0, math.sqrt(n))]
    events.append(TailEvent(x=math.sqrt(2.0), normalizer=lambda st: np.sqrt(st.sq_var())))
    paths = given_stats(next(enumerate_sign_chunks(n)), Rademacher(), ("b_n", y),
                        ("sq_var", None), ("h_n", y), ("g_n", 1.5))
    for stat in _every_statistic(y):
        events += [TailEvent(x=x, normalizer=stat) for x in (0.0, 0.3, 1.0)]
        values = np.sort(stat(paths))
        lo, hi = float(values[len(values) // 4]), float(values[3 * len(values) // 4])
        events += [
            TailEvent(x=0.0, window=(stat, lo, math.inf)),
            TailEvent(x=0.3, normalizer=stat, window=(stat, lo, hi)),
        ]
    return events


def _expectation(x, y=None, beta=None):
    """(event, rate) of the inf-over-p bound normalized by B_n(y), or by
    G_n(beta) when beta is given."""
    if beta is None:
        return TailEvent(x=x, normalizer=lambda st: st.b_n(y)), f_rate(x, y)
    return TailEvent(x=x, normalizer=lambda st: st.g_n(beta)), beta_decay_coefficient(x, beta)


class TestTypeOracleMatchesEnumeration:
    """The n + 1 sign types give the same floats as all 2^n enumerated paths."""

    @pytest.mark.parametrize("y", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 16])
    def test_tails(self, n, y):
        for event in _cross_check_events(n, y):
            assert exact_tail_rademacher(n, event) == enumerated_tail_rademacher(n, event), event

    @pytest.mark.parametrize("with_indicator", [True, False])
    @pytest.mark.parametrize("flavor", [{"y": 0.0}, {"y": 0.5}, {"y": 1.0}, {"beta": 1.5}])
    def test_expectation_bound(self, flavor, with_indicator):
        for n, x in itertools.product((1, 2, 7, 12, 16), (0.1, 0.3, 0.9)):
            event, rate = _expectation(x, **flavor)
            got = exact_optimized_bound_rademacher(n, event, rate, with_indicator)
            ref = enumerated_optimized_bound_rademacher(n, event, rate, with_indicator)
            assert (got.value, got.p_star) == (ref.value, ref.p_star), (n, x)

    @pytest.mark.parametrize("x", [0.1, 0.3])
    def test_expectation_bound_at_the_benchmark_size(self, x):
        got = exact_optimized_bound_rademacher(20, *_expectation(x, y=0.0))
        ref = enumerated_optimized_bound_rademacher(20, *_expectation(x, y=0.0))
        assert (got.value, got.p_star) == (ref.value, ref.p_star)

    def test_expectation_bound_on_an_empty_event(self):
        # one step: S_1 = 1 < 0.9 * B_1(0) = 1.35 and S_1 = -1 < 0.45
        got = exact_optimized_bound_rademacher(1, *_expectation(0.9, y=0.0))
        ref = enumerated_optimized_bound_rademacher(1, *_expectation(0.9, y=0.0))
        assert got.value == 0.0
        assert (got.value, got.p_star) == (ref.value, ref.p_star)

    def test_expectation_bound_memory(self):
        # exp per sign type and a gather of the event's terms: at n = 20 the
        # call holds about 16 bytes per path in the event, its type index and
        # one evaluation's terms (4.3 MiB at x = 0.1); 2^20-long float arrays
        # took 14 MiB
        event, rate = _expectation(0.1, y=0.0)
        exact_optimized_bound_rademacher(20, event, rate)  # builds the cached type table
        tracemalloc.start()
        try:
            exact_optimized_bound_rademacher(20, event, rate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, peak


def _stats(model, n, n_rep, master_seed):
    return stream_stats(model, n, n_rep, master_seed, ("sq_var", None), ("b_n", 0.0))


class TestEstimateTail:
    def test_single_step_coin(self):
        event = TailEvent(x=0.0, normalizer=lambda st: st.b_n(0.0))
        est = estimate_tail_from(_stats(Rademacher(), 1, 2000, 424242), event, 0.99)
        assert est.ci_lo <= 0.5 <= est.ci_hi

    def test_impossible_event(self):
        est = estimate_tail_from(_stats(Rademacher(), 10, 500, 7), TailEvent(x=1e3), 0.99)
        assert est.hits == 0 and est.ci_lo == 0.0

    @pytest.mark.parametrize("n", [5, 8, 10])
    def test_oracle_equivalence(self, n):
        events = [
            TailEvent(x=1.0, normalizer=lambda st: np.sqrt(st.sq_var())),
            TailEvent(x=0.3, normalizer=lambda st: st.b_n(0.0)),
            TailEvent(x=1.0, window=(lambda st: st.b_n(0.0), 0.0, n)),
        ]
        stats = _stats(Rademacher(), n, 40_000, 1357)
        for event in events:
            exact = exact_tail_rademacher(n, event)
            est = estimate_tail_from(stats, event, 0.99)
            assert est.ci_lo <= exact <= est.ci_hi

    def test_determinism(self):
        event = TailEvent(x=0.5, normalizer=lambda st: np.sqrt(st.sq_var()))
        a = estimate_tail_from(_stats(Rademacher(), 10, 1000, 31), event, 0.99)
        b = estimate_tail_from(_stats(Rademacher(), 10, 1000, 31), event, 0.99)
        assert a == b


class TestExpectationBounds:
    def test_zero_deviation_is_one(self):
        for p in (1.5, 2.0, 10.0):
            value, se = expectation_bound_from(
                _stats(Rademacher(), 10, 500, 3), *_expectation(0.0, y=0.0), p=p,
                with_indicator=False,
            )
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_p_near_one_limit(self):
        value, _ = expectation_bound_from(
            _stats(Rademacher(), 10, 2000, 3), *_expectation(0.5, y=0.0), p=1.0 + 1e-6,
            with_indicator=False,
        )
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_matches_exact_enumeration(self):
        n, x, p = 10, 0.3, 2.0
        rate = f_rate(x, 0.0)

        def certificate(signs):
            pos = ((signs ** 2) * (signs > 0)).sum(axis=1)
            b0 = pos + signs.shape[1] * 0.5
            ind = signs.sum(axis=1) >= x * b0
            return np.exp(-(p - 1.0) * rate * b0) * ind

        exact = exact_mean_rademacher(n, certificate) ** (1.0 / p)
        value, se = expectation_bound_from(
            _stats(Rademacher(), n, 40_000, 77), *_expectation(x, y=0.0), p=p, with_indicator=True
        )
        assert abs(value - exact) <= 3.0 * se + 1e-9

    def test_indicator_only_removes_mass(self):
        stats = _stats(Rademacher(), 10, 5000, 11)
        event, rate = _expectation(0.3, y=0.0)
        with_ind, _ = expectation_bound_from(stats, event, rate, p=2.0, with_indicator=True)
        without, _ = expectation_bound_from(stats, event, rate, p=2.0, with_indicator=False)
        assert with_ind <= without + 1e-12

    def test_p_domain(self):
        with pytest.raises(ValueError):
            expectation_bound_from(
                _stats(Rademacher(), 5, 500, 1), *_expectation(1.0, y=0.0), p=1.0
            )


class TestOptimizeOverP:
    def test_golden_section_on_parabola(self):
        x_star, f_star = golden_section_min(lambda u: (u - 2.0) ** 2, 0.0, 5.0)
        assert x_star == pytest.approx(2.0, abs=1e-9)
        assert f_star == pytest.approx(0.0, abs=1e-15)

    def test_zero_deviation_returns_one(self):
        stats = _stats(Rademacher(), 10, 500, 3)
        out = optimize_over_p_from(stats, *_expectation(0.0, y=0.0), with_indicator=False)
        assert out.value == pytest.approx(1.0, abs=1e-12)

    def test_argmin_on_evaluated_set(self):
        stats = _stats(Rademacher(), 10, 20_000, 5)
        event, rate = _expectation(0.3, y=0.0)
        out = optimize_over_p_from(stats, event, rate)
        at_star, _ = expectation_bound_from(stats, event, rate, p=out.p_star)
        assert out.value == pytest.approx(at_star, rel=1e-12)
        # perturbations stay inside the searched window: the infimum may sit
        # at its edge (the objective can be monotone in p)
        for raw in ((out.p_star - 1.0) / 2.0, (out.p_star - 1.0) * 2.0):
            pm1 = min(max(raw, 1e-3), 50.0)
            other, _ = expectation_bound_from(stats, event, rate, p=1.0 + pm1)
            assert out.value <= other + 1e-12

    def test_dominates_exact_tail(self):
        # the optimized certificate mean is an upper bound for the tail
        for x in (0.3, 0.5):
            event, rate = _expectation(x, y=0.0)
            exact = exact_tail_rademacher(10, event)
            opt = exact_optimized_bound_rademacher(10, event, rate)
            assert exact <= opt.value + 1e-12

    @pytest.mark.parametrize("n", [0, 21])
    def test_exact_size_cap(self, n):
        with pytest.raises(ValueError, match="capped at n = 20"):
            exact_optimized_bound_rademacher(n, *_expectation(0.3, y=0.0))

    def test_beta_flavor_exact(self):
        event, rate = _expectation(0.3, beta=1.5)
        exact = exact_tail_rademacher(8, event)
        opt = exact_optimized_bound_rademacher(8, event, rate)
        assert exact <= opt.value + 1e-12

    def test_never_worse_than_p_two(self):
        stats = _stats(Rademacher(), 10, 10_000, 23)
        for x in (0.1, 0.3, 0.5):
            event, rate = _expectation(x, y=0.0)
            out = optimize_over_p_from(stats, event, rate)
            at_two, _ = expectation_bound_from(stats, event, rate, p=2.0)
            assert out.value <= at_two + 1e-12


def _objective(monkeypatch, rate, weights, *rest):
    """The objective optimize_expectation_values hands to golden_section_min."""
    seen = []

    def spy(f, lo, hi, *args, **kwargs):
        seen.append(f)
        return golden_section_min(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "golden_section_min", spy)
    optimize_expectation_values(rate, weights, *rest)
    return seen[0]


_T_LO, _T_HI = math.log(P_SEARCH_WINDOW[0]), math.log(P_SEARCH_WINDOW[1])
_T_GRID = np.append(np.linspace(_T_LO, _T_HI, 241), 0.0)  # 0.0 is p = 2


def _exponent_range(rate, weights, t):
    c = -math.exp(t) * rate
    return c * weights.max(), c * weights.min()


def _straddle_weights():
    rng = np.random.default_rng(7)
    # exponents c * w from about -1500 to -5 at the top of the window, and
    # lanes at the old cut -746, in the subnormal band (-745.13, -708.4) and
    # at the cut at p = 2
    edges = [746.0, np.nextafter(746.0, 0.0), np.nextafter(746.0, 1e3), 745.5, 745.0, 720.0, 708.0,
             707.0, np.nextafter(707.0, 0.0), np.nextafter(707.0, 1e3)]
    return np.concatenate([rng.uniform(0.1, 30.0, 4000), edges])


def _c8_design_rate(x):
    """C8's design masses (uniform phi, n = 50, 5000 rows) and the thm32 rate
    at x, with sigma = y_xi = 0.1."""
    noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
    phi_sq = regression_batch("uniform", noise, 50, 5000, 808).phi_sq
    return phi_sq, x * x / (2.0 * (0.01 + x * 0.1 / 3.0))


class TestObjectiveUnderflowPaths:
    """The objective passes exp no exponent below the cut.  It must equal the
    plain objective bit for bit wherever every exponent is at or above the cut
    and wherever its largest exponent stays at or above the shift cut, and
    stay within 1e-12 of the exact log-space value everywhere."""

    def test_kept_terms_are_normal_and_left_out_ones_below_one_ulp(self):
        a = np.linspace(_EXP_ZERO_CUT, 0.0, 2_000_001)
        assert a[0] == _EXP_ZERO_CUT
        assert np.all(np.exp(a) >= np.finfo(float).tiny)
        for k in range(1, 17):  # short arrays take the non-vector tail loop
            assert np.all(np.exp(a[:k]) >= np.finfo(float).tiny)
        # relative to the largest term, 10^11 terms below the cut move the
        # mean by less than half an ulp: by less than e^(cut - shift cut) each
        # when raised to the cut while s = 0, by less than e^cut each when
        # left out once the largest term is factored out
        assert 1e11 * math.exp(_EXP_ZERO_CUT - _EXP_SHIFT_CUT) < 2.0**-53
        assert 2.0**53 * math.exp(_EXP_ZERO_CUT) < 2.0**-53

    @pytest.mark.parametrize(
        "case", ["never", "straddle", "straddle_indicator", "subnormal", "shift_band", "always", "empty"]
    )
    def test_objective_matches_plain(self, monkeypatch, case):
        rng = np.random.default_rng(3)
        rate, indicator = 1.0, None
        if case == "never":
            norm = rng.uniform(0.0, 1.0, 5000)
            assert _exponent_range(rate, norm, _T_HI)[0] >= _EXP_ZERO_CUT
        elif case.startswith("straddle"):
            norm = _straddle_weights()
            if case == "straddle_indicator":
                indicator = rng.random(len(norm)) < 0.5
                indicator[-10:] = True
            lo_at_two, hi_at_two = _exponent_range(rate, norm, 0.0)
            assert lo_at_two < _EXP_ZERO_CUT <= hi_at_two
            assert np.any((-norm > -745.13) & (-norm < -708.4))
        elif case == "subnormal":
            # at p = 2 every plain term is subnormal, some of them the smallest one
            norm = rng.uniform(709.0, 745.12, 5000)
            assert 0.0 < plain_objective(rate, norm, None, 0.0) < 1e-153
        elif case == "shift_band":
            # at p = 2 the largest exponent sits just above the shift cut, and
            # terms from -700 to -800 straddle the cut
            norm = np.concatenate([rng.uniform(635.0, 643.0, 100), rng.uniform(700.0, 800.0, 4900)])
            lo_at_two, hi_at_two = _exponent_range(rate, norm, 0.0)
            assert lo_at_two < _EXP_ZERO_CUT and _EXP_SHIFT_CUT <= hi_at_two < _EXP_SHIFT_CUT + 8.0
        elif case == "always":
            norm = rng.uniform(1e6, 2e6, 5000)
            assert _exponent_range(rate, norm, _T_LO)[1] < _EXP_ZERO_CUT
        else:
            norm = rng.uniform(0.0, 1.0, 50)
            indicator = np.zeros(len(norm), dtype=bool)
        weights = norm if indicator is None else norm[indicator]
        objective = _objective(monkeypatch, rate, weights, len(norm))
        for t in _T_GRID:
            got, exact = objective(t), shifted_objective(rate, norm, indicator, t)
            if exact >= np.finfo(float).tiny:
                assert got > 0.0 and abs(got - exact) <= 1e-12 * exact, (case, t)
            else:
                assert got < np.finfo(float).tiny, (case, t)
            lo, hi = _exponent_range(rate, weights, t) if weights.size else (0.0, 0.0)
            if lo < _EXP_ZERO_CUT and hi < _EXP_SHIFT_CUT:
                continue  # the largest term is factored out, and the plain terms lose bits
            want = plain_objective(rate, norm, indicator, t)
            assert got == want, (case, t)  # False for NaN
            if case in ("always", "empty"):
                assert got == 0.0

    @pytest.mark.parametrize("case", ["straddle", "subnormal", "always", "empty", "unread_extremes"])
    def test_per_type_exp_matches_expanded_terms(self, monkeypatch, case):
        # made-up per-type values: term i has type types[i] and norm
        # values[types[i]]; the indicated terms are gathered in order, and the
        # mean is over all 8192
        rng = np.random.default_rng(11)
        values = {
            "straddle": np.arange(1.0, 2001.0),  # c * w from -1 to -2000 at p = 2
            "subnormal": np.linspace(709.0, 745.12, 2000),
            "always": np.linspace(1e6, 2e6, 2000),
            "empty": np.arange(1.0, 2001.0),
            "unread_extremes": np.linspace(600.0, 800.0, 2000),
        }[case]
        n_all = 8192
        types = rng.integers(0, len(values), n_all)
        indicator = rng.random(n_all) < 0.6
        if case == "empty":
            indicator[:] = False
        elif case == "unread_extremes":
            # at p = 2 every read exponent lies in [-700, -650], below the
            # shift cut yet above the cut, while unread types reach -600 and -800
            indicator &= (values[types] >= 650.0) & (values[types] <= 700.0)
        lanes = types[indicator].astype(np.intp)
        expanded = values[types]
        got = optimize_expectation_values(1.0, values, n_all, lanes)
        want = optimize_expectation_values(1.0, expanded[indicator], n_all)
        assert (got.value, got.p_star) == (want.value, want.p_star)
        per_type = _objective(monkeypatch, 1.0, values, n_all, lanes)
        per_path = _objective(monkeypatch, 1.0, expanded[indicator], n_all)
        for t in _T_GRID:
            assert per_type(t) == per_path(t), (case, t)
        if case in ("always", "empty"):
            assert got.value == 0.0

    @pytest.mark.parametrize("x", [0.2])
    def test_golden_section_unchanged_on_regression_masses(self, monkeypatch, x):
        # the largest exponent stays above the shift cut over the whole window
        phi_sq, rate = _c8_design_rate(x)
        assert _exponent_range(rate, phi_sq, _T_HI)[1] >= _EXP_SHIFT_CUT
        objective = _objective(monkeypatch, rate, phi_sq)
        plain = partial(plain_objective, rate, phi_sq, None)
        assert golden_section_min(objective, _T_LO, _T_HI) == golden_section_min(plain, _T_LO, _T_HI)

    @pytest.mark.parametrize("x", [0.5, 1.0])
    def test_golden_section_on_underflowing_regression_masses(self, x):
        # the plain objective is 0 near the top of the window
        phi_sq, rate = _c8_design_rate(x)
        assert plain_objective(rate, phi_sq, None, _T_HI) == 0.0
        out = optimize_expectation_values(rate, phi_sq)
        want = shifted_objective(rate, phi_sq, None, math.log(out.p_star - 1.0))
        assert out.value > 0.0
        assert abs(out.value - want) <= 1e-12 * want
        # no point of a grid over the window beats it by more than rounding
        best = min(shifted_objective(rate, phi_sq, None, t) for t in np.linspace(_T_LO, _T_HI, 25))
        assert out.value <= best * (1.0 + 1e-12)

    @pytest.mark.parametrize("x", [0.2, 0.5, 1.0])
    def test_exp_sees_no_exponent_below_the_cut(self, monkeypatch, x):
        phi_sq, rate = _c8_design_rate(x)
        # the plain terms reach the slow exp paths inside the window
        assert _exponent_range(rate, phi_sq, _T_HI)[0] < _EXP_ZERO_CUT - 1.0
        lowest, exp = [], np.exp

        def spy(z, *args, **kwargs):
            lowest.append(float(np.min(z)))
            return exp(z, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        optimize_expectation_values(rate, phi_sq)
        monkeypatch.undo()
        assert len(lowest) == 2 + 60 + 3  # one call per evaluation
        assert min(lowest) >= _EXP_ZERO_CUT


class TestDominationCheck:
    def test_pass(self):
        est = MCEstimate(n_rep=100, hits=10, p_hat=0.1, ci_lo=0.1, ci_hi=0.2, gamma=0.99)
        assert domination_check(est, 0.5) == "pass"

    def test_violation_evidence(self):
        est = MCEstimate(n_rep=100, hits=60, p_hat=0.6, ci_lo=0.6, ci_hi=0.7, gamma=0.99)
        assert domination_check(est, 0.5) == "violation_evidence"
        # the rounding slack is relative, so a tiny exact tail cannot hide under it
        assert exact_verdict(5e-13, 1e-20) == "violation_evidence"

    def test_vacuous(self):
        est = MCEstimate(n_rep=100, hits=60, p_hat=0.6, ci_lo=0.6, ci_hi=0.7, gamma=0.99)
        assert domination_check(est, 1.3) == "vacuous"

    def test_bound_domain(self):
        est = MCEstimate(n_rep=10, hits=0, p_hat=0.0, ci_lo=0.0, ci_hi=0.3, gamma=0.99)
        with pytest.raises(ValueError):
            domination_check(est, -0.5)


class TestSupermartingaleChecks:
    def test_tiny_lambda_is_unit_mean(self):
        verdict = supermartingale_check(
            "U", Rademacher(), 10, 1e-9, y=0.5, n_rep=500, master_seed=5
        )
        assert verdict.status == "pass"
        assert verdict.estimate.mean == pytest.approx(1.0, abs=1e-6)

    def test_exact_u_certificate_grid(self):
        for lam in (0.1, 0.5, 1.0):
            for y in (0.0, 0.5, 1.0):
                assert exact_supermartingale_mean_rademacher(10, lam, y) <= 1.0 + 1e-12

    def test_mc_matches_exact_u_mean(self):
        exact = exact_supermartingale_mean_rademacher(10, 0.5, 1.0)
        verdict = supermartingale_check(
            "U", Rademacher(), 10, 0.5, y=1.0, n_rep=40_000, master_seed=8
        )
        est = verdict.estimate
        assert abs(est.mean - exact) <= 3.0 * est.se
        assert verdict.status == "pass"

    def test_v_certificate_heavy_tail(self):
        verdict = supermartingale_check(
            "V", CenteredPareto(beta_tail=1.9), 20, 0.3, beta=1.5,
            n_rep=20_000, master_seed=13,
        )
        assert verdict.status == "pass"
        assert isinstance(verdict.estimate, MeanEstimate)
        assert verdict.estimate.sample_max >= verdict.estimate.mean

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            supermartingale_check("U", Rademacher(), 5, 0.0, y=0.0, n_rep=500, master_seed=1)
        with pytest.raises(ValueError):
            exp_growth_coefficient(-1.0, 0.5)

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            supermartingale_check("W", Rademacher(), 5, 0.5, y=0.0, n_rep=500, master_seed=1)
        with pytest.raises(ValueError, match="needs y"):
            supermartingale_check("U", Rademacher(), 5, 0.5, n_rep=500, master_seed=1)

    def test_growth_coefficient_limit(self):
        assert exp_growth_coefficient(0.5, 0.0) == pytest.approx(0.125, rel=1e-14)
        # series and closed form agree across the cutover
        lam = 1.0
        assert exp_growth_coefficient(lam, 9.9e-5) == pytest.approx(
            exp_growth_coefficient(lam, 1.01e-4), rel=1e-6
        )
