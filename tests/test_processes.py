"""Difference-model moments, sampling determinism, and bracket-process identities."""

import dataclasses
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from selfnorm import processes
from selfnorm.experiments import load_spec, run_experiment
from selfnorm.processes import (
    BLOCK_VALUES,
    BatchStats,
    BoundedAbove,
    CenteredPareto,
    Gaussian,
    Rademacher,
    ScaledTwoPoint,
    SymmetricMixture,
    UndeclaredStatisticError,
    UnsupportedStatisticError,
    build_model,
    sample_batch,
    stream_blocks,
    substream,
)

from reference import (
    Path,
    cond_var_below,
    given_stats,
    path_matrix,
    positive_power_sum,
    sample_path,
    sample_reference,
    sq_var_above,
    sq_var_abs_above,
    stream_stats,
    truncated_mean,
)

N_MOMENT_DRAWS = 1_000_000
MOMENT_SEED = 20240817

ALL_MODELS = [
    Rademacher(),
    ScaledTwoPoint(p_up=1.0 / 3.0, up=2.0, down=-1.0),
    BoundedAbove(1.0),
    CenteredPareto(beta_tail=1.9, scale=1.0),
    Gaussian(sd=0.7),
    SymmetricMixture(weights=(0.6, 0.4), scales=(0.5, 2.0)),
    ScaledTwoPoint(p_up=0.5, up=1.5, down=-1.5),
    ScaledTwoPoint(p_up=0.75, up=1.0, down=-3.0),
    BoundedAbove(0.3),
    CenteredPareto(beta_tail=1.2, scale=0.5),
    SymmetricMixture(weights=(0.2, 0.3, 0.5), scales=(0.1, 1.0, 4.0)),
]
# the samplers that draw in place, each against its np.where form in reference.py
IN_PLACE_SAMPLERS = [m for m in ALL_MODELS
                     if m.family in ("scaled_two_point", "bounded_above", "centered_pareto")]


def _model_id(model):
    """The family name for the first model of each family, with the parameters after it."""
    first = next(m for m in ALL_MODELS if m.family == model.family)
    return model.family if model is first else f"{model.family}{dataclasses.astuple(model)}"


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _draws(model, n=N_MOMENT_DRAWS, seed=MOMENT_SEED):
    return model.sample(substream(seed, 0), n)


def _assert_mean_close(samples, target, label):
    # 5 standard errors of the empirical mean
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - target) <= 5.0 * se + 1e-12, (
        f"{label}: empirical {samples.mean():.6g} vs analytic {target:.6g} (se {se:.3g})"
    )


class TestSamplingContracts:
    def test_paths_are_pure_functions_of_seed(self):
        for model in ALL_MODELS:
            a = sample_path(model, 5, 1234, replicate=3)
            b = sample_path(model, 5, 1234, replicate=3)
            assert np.array_equal(a.xs, b.xs)
            c = sample_path(model, 5, 1234, replicate=4)
            assert not np.array_equal(a.xs, c.xs)

    def test_batch_rows_match_replicate_paths(self):
        model = BoundedAbove(1.0)
        batch = path_matrix(model, 7, 11, 99)
        for r in (0, 5, 10):
            assert np.array_equal(batch[r], sample_path(model, 7, 99, replicate=r).xs)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=_model_id)
    def test_block_boundary_rows_match_paths(self, model):
        n = 64
        rows = BLOCK_VALUES // n
        batch = path_matrix(model, n, rows + 3, 99)
        # last row of block 0, first row of block 1, and a row of the trimmed block
        for r in (rows - 1, rows, rows + 2):
            assert np.array_equal(batch[r], sample_path(model, n, 99, replicate=r).xs)

    def test_rows_do_not_depend_on_n_rep(self):
        model, n = Gaussian(sd=0.7), 64
        full = path_matrix(model, n, 5000, 31)
        keys = [("s", None), ("b_n", 0.5)]
        full_table = sample_batch(model, n, 5000, 31, keys)
        for n_rep in (11, BLOCK_VALUES // n + 1):
            assert np.array_equal(path_matrix(model, n, n_rep, 31), full[:n_rep])
            assert_same_bits(sample_batch(model, n, n_rep, 31, keys), full_table[:n_rep])

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("n_rep", [3 * (BLOCK_VALUES // 64) + 5, 100])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=_model_id)
    def test_batch_identical_at_any_jobs(self, model, n_rep, jobs):
        # 3 whole blocks and a partial one, or less than one block
        serial = path_matrix(model, 64, n_rep, 31)
        assert np.array_equal(path_matrix(model, 64, n_rep, 31, jobs=jobs), serial)
        keys = [("s", None), ("sq_var", None)]
        assert_same_bits(sample_batch(model, 64, n_rep, 31, keys, jobs=jobs),
                         sample_batch(model, 64, n_rep, 31, keys))

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_block_error_surfaces(self, jobs, monkeypatch):
        def failing(self, rng, size):
            raise RuntimeError("increment draw failed")

        monkeypatch.setattr(Gaussian, "sample", failing)
        n_rep = 3 * (BLOCK_VALUES // 64) + 5
        with pytest.raises(RuntimeError, match="increment draw failed"):
            path_matrix(Gaussian(), 64, n_rep, 55, jobs=jobs)
        with pytest.raises(RuntimeError, match="increment draw failed"):
            sample_batch(Gaussian(), 64, n_rep, 55, [("s", None)], jobs=jobs)
        spec = load_spec({"id": "failing", "theorem": "cor22_peeling", "n": 64,
                          "model": {"family": "gaussian"},
                          "grids": {"x": [0.5, 1.0], "b": [2.0], "M": [2.0]},
                          "n_rep": n_rep, "master_seed": 55})
        with pytest.raises(RuntimeError, match="increment draw failed"):
            run_experiment(spec, jobs=jobs)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            path_matrix(Rademacher(), 0, 1, 1)
        for n, n_rep in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                sample_batch(Rademacher(), n, n_rep, 1, [("s", None)])

    def test_rademacher_mean_clt_width(self):
        xs = sample_path(Rademacher(), 10_000, 7).xs
        assert abs(xs.mean()) <= 4.0 / math.sqrt(10_000)

    def test_bounded_above_support(self):
        xs = sample_path(BoundedAbove(1.0), 5000, 3).xs
        assert xs.max() <= 1.0
        xs = sample_path(BoundedAbove(0.25), 5000, 3).xs
        assert xs.max() <= 0.25

    @pytest.mark.parametrize("model", ALL_MODELS, ids=_model_id)
    def test_zero_mean_within_ci(self, model):
        xs = _draws(model, n=200_000)
        if model.family == "centered_pareto":
            # infinite variance: check the truncated mean instead
            xs = np.clip(xs, -50.0, 50.0)
            target = 0.0  # symmetric truncation keeps the mean at zero
        else:
            target = 0.0
        _assert_mean_close(xs, target, f"{model.family} mean")


class EdgeGenerator:
    """Stands in for np.random.Generator: each call returns the given draws,
    repeated to the requested size, as a new array."""

    def __init__(self, uniforms, exponentials=(0.0, 1.0, 0.5, 40.0)):
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.exponentials = np.asarray(exponentials, dtype=float)

    @staticmethod
    def _fill(draws, size):
        return np.resize(draws, int(np.prod(size))).reshape(size)

    def random(self, size):
        return self._fill(self.uniforms, size)

    def standard_exponential(self, size):
        return self._fill(self.exponentials, size)


class TestInPlaceSamplers:
    """Each in-place sampler draws the bits of its np.where form."""

    @pytest.mark.parametrize("n", [1, 50, 100])
    @pytest.mark.parametrize("seed", [0, 7, 4242])
    @pytest.mark.parametrize("model", IN_PLACE_SAMPLERS, ids=_model_id)
    def test_block_matches_reference(self, model, seed, n):
        size = (max(1, BLOCK_VALUES // n), n)
        assert_same_bits(model.sample(substream(seed, 3), size),
                         sample_reference(model, substream(seed, 3), size))
        assert_same_bits(model.sample(substream(seed, 0), 1001),
                         sample_reference(model, substream(seed, 0), 1001))

    @pytest.mark.parametrize("model", IN_PLACE_SAMPLERS, ids=_model_id)
    def test_edge_draws_match_reference(self, model):
        uniforms = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                    np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0), 0.25, 0.75]
        if model.family == "scaled_two_point":
            uniforms += [model.p_up, np.nextafter(model.p_up, 0.0), np.nextafter(model.p_up, 1.0)]
        size = (3, 2 * len(uniforms))
        got = model.sample(EdgeGenerator(uniforms), size)
        assert_same_bits(got, sample_reference(model, EdgeGenerator(uniforms), size))
        assert np.all(np.isfinite(got))

    def test_pareto_edges_keep_their_signs(self):
        # u = 0.5 and the float below it map to magnitudes near 0: the sign
        # still comes from u < 0.5
        got = CenteredPareto(beta_tail=1.5).sample(
            EdgeGenerator([0.5, np.nextafter(0.5, 0.0), 0.0]), 3)
        assert not np.signbit(got[0])
        assert np.signbit(got[1]) and np.signbit(got[2])

    @pytest.mark.parametrize("n", [1, 50, 100])
    @pytest.mark.parametrize("model", IN_PLACE_SAMPLERS, ids=_model_id)
    def test_batch_with_trimmed_last_block_matches_reference(self, model, n):
        rows = max(1, BLOCK_VALUES // n)
        n_rep = rows + 17 if n > 1 else 2 * rows - 5
        want = np.concatenate([
            sample_reference(model, rng, (block_rows, n))
            for _, block_rows, rng in stream_blocks(n, n_rep, 11)
        ])[:n_rep]
        assert_same_bits(path_matrix(model, n, n_rep, 11), want)
        stats = stream_stats(model, n, n_rep, 11, ("sq_var", None))
        assert_same_bits(stats.s(), want.sum(axis=1))
        assert_same_bits(stats.sq_var(), (want * want).sum(axis=1))

    @pytest.mark.parametrize("desc", [
        {"family": "scaled_two_point", "p_up": 0.5, "up": 1, "down": -1},
        {"family": "scaled_two_point", "p_up": 0.75, "up": 1, "down": -3},
        {"family": "bounded_above", "y_cap": 2},
        {"family": "centered_pareto", "beta_tail": 1.5, "scale": 2},
    ], ids=lambda d: f"{d['family']}-int")
    def test_integer_spec_parameters(self, desc):
        # a spec may write parameters as JSON integers; the draws are still
        # the float values of the np.where form
        model = build_model(desc)
        want = sample_reference(model, substream(9, 0), (40, 50)).astype(float)
        assert_same_bits(model.sample(substream(9, 0), (40, 50)), want)


class TestClosedFormMoments:
    def test_rademacher(self):
        xs = _draws(Rademacher())
        m = Rademacher()
        _assert_mean_close(xs * xs, m.var(), "var")
        _assert_mean_close(xs * xs * (xs <= 0.5), m.sq_below(0.5), "sq_below(0.5)")
        _assert_mean_close(xs * xs * (xs <= 1.0), m.sq_below(1.0), "sq_below(1)")
        _assert_mean_close(np.maximum(-xs, 0.0) ** 2, m.sq_below(0.0), "sq_below(0)")
        _assert_mean_close(np.maximum(-xs, 0.0) ** 1.5, m.neg_beta_moment(1.5), "neg_beta")

    def test_scaled_two_point(self):
        m = ScaledTwoPoint(p_up=1.0 / 3.0, up=2.0, down=-1.0)
        xs = _draws(m)
        _assert_mean_close(xs * xs, m.var(), "var")
        _assert_mean_close(xs * xs * (xs <= 1.0), m.sq_below(1.0), "sq_below(1)")
        _assert_mean_close(xs * xs * (xs <= 2.0), m.sq_below(2.0), "sq_below(2)")
        _assert_mean_close(np.maximum(-xs, 0.0) ** 1.5, m.neg_beta_moment(1.5), "neg_beta")

    def test_bounded_above(self):
        m = BoundedAbove(1.0)
        xs = _draws(m)
        _assert_mean_close(xs, 0.0, "mean")
        _assert_mean_close(xs * xs, m.var(), "var")
        for y in (0.0, 0.4, 0.9, 1.0, 2.0):
            _assert_mean_close(xs * xs * (xs <= y), m.sq_below(y), f"sq_below({y})")
        _assert_mean_close(np.maximum(-xs, 0.0) ** 1.5, m.neg_beta_moment(1.5), "neg_beta")

    def test_gaussian(self):
        m = Gaussian(sd=0.7)
        xs = _draws(m)
        _assert_mean_close(xs * xs, m.var(), "var")
        for y in (0.0, 0.5, 1.3):
            _assert_mean_close(xs * xs * (xs <= y), m.sq_below(y), f"sq_below({y})")
        _assert_mean_close(np.maximum(-xs, 0.0) ** 1.5, m.neg_beta_moment(1.5), "neg_beta")

    def test_mixture(self):
        m = SymmetricMixture(weights=(0.6, 0.4), scales=(0.5, 2.0))
        xs = _draws(m)
        _assert_mean_close(xs * xs, m.var(), "var")
        for y in (0.0, 0.5, 1.0, 2.0):
            _assert_mean_close(xs * xs * (xs <= y), m.sq_below(y), f"sq_below({y})")
        _assert_mean_close(np.maximum(-xs, 0.0) ** 1.5, m.neg_beta_moment(1.5), "neg_beta")

    def test_pareto_beta_moment_and_tails(self):
        m = CenteredPareto(beta_tail=1.9, scale=1.0)
        xs = _draws(m)
        # beta = 0.6 keeps the estimator's variance finite (2*0.6 < 1.9)
        _assert_mean_close(np.maximum(-xs, 0.0) ** 0.6, m.neg_beta_moment(0.6), "neg_beta(0.6)")
        for t in (0.5, 2.0, 10.0):
            hits = np.count_nonzero(xs <= -t)
            p = 0.5 * (1.0 + t / m.scale) ** (-m.beta_tail)  # P(xi <= -t)
            se = math.sqrt(p * (1 - p) / len(xs))
            assert abs(hits / len(xs) - p) <= 5.0 * se, f"tail at {t}"

    def test_pareto_variance_statistics_unsupported(self):
        m = CenteredPareto(beta_tail=1.9)
        with pytest.raises(UnsupportedStatisticError):
            m.var()
        with pytest.raises(UnsupportedStatisticError):
            m.sq_below(1.0)
        with pytest.raises(UnsupportedStatisticError):
            m.neg_beta_moment(1.95)

    def test_symmetric_families_split_conditional_variance(self):
        for m in (Rademacher(), Gaussian(sd=2.0), SymmetricMixture(weights=(1.0,), scales=(1.5,))):
            assert m.sq_below(0.0) == pytest.approx(m.var() / 2.0, rel=1e-14)


def bounded_truncated_mean_quadrature(c: float, a: float) -> float:
    """Oracle for E[min(|xi|, a) sign(xi)] of the capped-exponential family."""

    def integrand(e):
        xi = c * (1.0 - e)
        return min(abs(xi), a) * math.copysign(1.0, xi) * math.exp(-e)

    value, _ = quad(integrand, 0.0, 60.0, points=[1.0, 1.0 - a / c, 1.0 + a / c], limit=200)
    return value


class TestTruncatedMeanAndHeaviness:
    def test_symmetric_models_are_exactly_balanced(self):
        for a in (0.1, 1.0, 10.0):
            assert truncated_mean(Rademacher(), a) == 0.0
            assert truncated_mean(Gaussian(sd=0.5), a) == 0.0

    def test_two_point_hand_values(self):
        m = ScaledTwoPoint(p_up=1.0 / 3.0, up=2.0, down=-1.0)
        assert truncated_mean(m, 1.0) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert truncated_mean(m, 2.0) == pytest.approx(0.0, abs=1e-12)
        bad = ScaledTwoPoint(p_up=2.0 / 3.0, up=1.0, down=-2.0)
        assert truncated_mean(bad, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.2, 0.9, 1.0, 1.7, 5.0])
    def test_bounded_above_against_quadrature(self, c, a):
        got = truncated_mean(BoundedAbove(c), a * c)
        assert got == pytest.approx(bounded_truncated_mean_quadrature(c, a * c), abs=1e-9)

    def test_heavy_on_left_verdicts(self):
        # the declared flag agrees with E[min(|xi|, a) sign(xi)] <= 0 over the grid
        grid = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
        models = ALL_MODELS + [ScaledTwoPoint(p_up=2 / 3, up=1.0, down=-2.0)]
        for model in models:
            means = [truncated_mean(model, a) for a in grid]
            assert model.heavy_on_left == (max(means) <= 1e-12), model

    def test_bounded_above_is_not_heavy_on_left(self):
        model = BoundedAbove(1.0)
        assert not model.heavy_on_left
        assert max(truncated_mean(model, a) for a in (0.1, 0.5, 1.0, 2.0)) > 0

    def test_declared_flags(self):
        assert Rademacher().heavy_on_left
        assert ScaledTwoPoint(p_up=1 / 3, up=2.0, down=-1.0).heavy_on_left
        assert not ScaledTwoPoint(p_up=2 / 3, up=1.0, down=-2.0).heavy_on_left
        assert ScaledTwoPoint(p_up=0.5, up=1.0, down=-1.0).conditionally_symmetric
        assert not BoundedAbove(1.0).conditionally_symmetric
        assert CenteredPareto(beta_tail=1.9).beta_integrable(1.5)
        assert not CenteredPareto(beta_tail=1.9).beta_integrable(1.9)


def _path(model, xs):
    return Path(xs=np.asarray(xs, dtype=float), model=model, master_seed=0, replicate=0)


def _path_stats(model, xs, *keys):
    """Bracket statistics of one path, as the single row of a BatchStats
    reduced to S_n and the given keys."""
    return given_stats(_path(model, xs).xs, model, *keys)


# every bracket kind at thresholds of the tests below
_BRACKET_KEYS = (("sq_var", None), ("b_n", 0.0), ("b_n", 0.5), ("b_n", 1.0), ("h_n", 0.5),
                 ("h_n", 1.0), ("g_n", 1.5))


class TestPathStats:
    def test_hand_example(self):
        xs = np.array([[1.0, -1.0, 1.0]])
        st = _path_stats(Rademacher(), xs, *_BRACKET_KEYS)
        assert st.s()[0] == 1.0
        assert st.sq_var()[0] == 3.0
        assert st.b_n(0.0)[0] == pytest.approx(3.5)
        # B_n(0): realized squares of the 2 positive steps plus n E[(xi^-)^2] = 3 * 0.5
        pos_sq = ((xs > 0) * xs ** 2).sum(axis=1)
        assert pos_sq[0] == 2.0
        assert st.b_n(0.0)[0] == pytest.approx(pos_sq[0] + 3 * Rademacher().sq_below(0.0))
        assert st.g_n(1.5)[0] == pytest.approx(2.0 + 1.5)

    def test_y_above_support_kills_realized_part(self):
        xs = np.array([[1.0, -1.0, 1.0, 1.0]])
        st = _path_stats(Rademacher(), xs, *_BRACKET_KEYS)
        assert sq_var_above(xs, 1.0)[0] == 0.0
        assert st.b_n(1.0)[0] == pytest.approx(st.cond_var()[0])

    def test_all_below_threshold_makes_h_predictable(self):
        st = _path_stats(Rademacher(), [1.0, -1.0], *_BRACKET_KEYS)
        assert st.h_n(1.0)[0] == pytest.approx(st.cond_var()[0])
        assert st.h_n(0.5)[0] == pytest.approx(2.0 + st.cond_var()[0])

    @pytest.mark.parametrize(
        "model",
        [m for m in ALL_MODELS if m.square_integrable],
        ids=_model_id,
    )
    def test_identities_on_sampled_paths(self, model):
        batch = path_matrix(model, 40, 50, 2718)
        ys = (0.0, 0.3, 1.0)
        stats = stream_stats(model, 40, 50, 2718, ("sq_var", None),
                             *(("b_n", y) for y in ys), *(("h_n", y) for y in ys))
        b0 = stats.b_n(0.0)
        pos_sq = ((batch > 0) * batch ** 2).sum(axis=1)
        assert np.allclose(b0, pos_sq + batch.shape[1] * model.sq_below(0.0), rtol=1e-12)
        for y in ys:
            # B differs from H by the realized mass below -y and the
            # predictable mass above y, both nonnegative
            gap = stats.h_n(y) - stats.b_n(y)
            expected_gap = ((batch ** 2) * (batch < -y)).sum(axis=1) + batch.shape[1] * (
                model.var() - model.sq_below(y)
            )
            assert np.allclose(gap, expected_gap, rtol=1e-9, atol=1e-12)
            assert np.all(gap >= -1e-12)
            # realized squares split at the threshold
            below = ((batch ** 2) * (batch <= y)).sum(axis=1)
            assert np.allclose(stats.sq_var(), sq_var_above(batch, y) + below, rtol=1e-12)

    def test_brackets_are_memoized_per_parameter(self):
        model = BoundedAbove(1.0)
        xs = path_matrix(model, 20, 30, 8)
        stats = stream_stats(model, 20, 30, 8, ("sq_var", None), ("b_n", 0.0), ("b_n", 0.5),
                             ("h_n", 0.5), ("g_n", 1.2), ("g_n", 1.5))
        assert stats.s() is stats.s()
        assert stats.sq_var() is stats.sq_var()
        assert stats.b_n(0.5) is stats.b_n(0.5)
        assert stats.h_n(0.5) is stats.h_n(0.5)
        assert stats.g_n(1.5) is stats.g_n(1.5)
        assert stats.b_n(0.0) is not stats.b_n(0.5)
        assert not np.array_equal(stats.b_n(0.0), stats.b_n(0.5))
        assert not np.array_equal(stats.g_n(1.2), stats.g_n(1.5))
        assert np.array_equal(
            stats.b_n(0.5), sq_var_above(xs, 0.5) + cond_var_below(xs, model, 0.5)
        )

    def test_memoized_brackets_are_read_only(self):
        model = Rademacher()
        stats = stream_stats(model, 10, 5, 8, ("sq_var", None), ("b_n", 0.0), ("h_n", 0.5),
                             ("g_n", 1.5))
        before = stats.b_n(0.0).copy()
        for arr in (stats.s(), stats.sq_var(), stats.b_n(0.0), stats.h_n(0.5), stats.g_n(1.5)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 99.0
        assert np.array_equal(stats.b_n(0.0), before)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=_model_id)
    def test_brackets_identical_at_any_jobs(self, model, jobs):
        # 2 whole row blocks and a partial one; every bracket kind, streamed
        # and reduced block by block, must equal its whole-batch formula on
        # the path matrix bit for bit
        n = 64
        n_rep = 2 * (BLOCK_VALUES // n) + 7
        xs = path_matrix(model, n, n_rep, 12)
        beta = 1.5 if model.beta_integrable(1.5) else 1.1
        pairs = [
            (("s", None), xs.sum(axis=1)),
            (("sq_var", None), (xs * xs).sum(axis=1)),
            (("g_n", beta), positive_power_sum(xs, beta) + n * model.neg_beta_moment(beta)),
        ]
        if model.square_integrable:
            # the last threshold equals a sampled value (y) or a sampled |x|
            # (a), so the strict comparisons meet a tie
            for y, a in ((0.0, 0.0), (0.3, 0.3), (1.0, 1.0),
                         (float(xs[xs > 0][0]), float(np.abs(xs[-1, -1])))):
                pairs += [
                    (("b_n", y), sq_var_above(xs, y) + cond_var_below(xs, model, y)),
                    (("h_n", a), sq_var_abs_above(xs, a) + n * model.var()),
                ]
        keys = list(dict.fromkeys(key for key, _ in pairs))
        table = sample_batch(model, n, n_rep, 12, keys, jobs=jobs)
        assert table.shape == (n_rep, len(keys))
        stats = BatchStats(table, keys, model, n)
        for (method, param), reference in pairs:
            bracket = getattr(stats, method)
            assert_same_bits(bracket() if param is None else bracket(param), reference)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 1.9, 2.0, 3.0])
    def test_zero_and_negative_lanes(self, beta):
        # rows of 0.0, -0.0, negatives and positives; an all-zero row, and
        # odd integer beta, where (-0.0)^beta = -0.0
        xs = np.array([
            [0.0, -0.0, -1.5, 2.0, 0.0, 0.25],
            [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-3.0, -0.5, -1e-300, -2.0, -0.0, -7.0],
            [1e-300, 5e-324, 0.0, -5e-324, 3.0, 1.0],
            [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        ])
        model = Gaussian(sd=1.0)
        thresholds = (0.0, 0.25, 1.0, 2.0)
        stats = given_stats(xs, model, ("g_n", beta), *(("b_n", y) for y in thresholds),
                            *(("h_n", y) for y in thresholds))
        assert_same_bits(stats.g_n(beta),
                         positive_power_sum(xs, beta) + 6 * model.neg_beta_moment(beta))
        for y in thresholds:
            assert_same_bits(stats.b_n(y), sq_var_above(xs, y) + cond_var_below(xs, model, y))
            assert_same_bits(stats.h_n(y), sq_var_abs_above(xs, y) + stats.cond_var())

    def test_pareto_block_with_zero_lanes(self):
        model = CenteredPareto(beta_tail=1.9)
        xs = path_matrix(model, 100, 500, 8)
        xs[::3, ::2] = 0.0
        xs[1::3, ::5] = -0.0
        betas = (1.1, 1.5, 1.8)
        stats = given_stats(xs, model, *(("g_n", beta) for beta in betas))
        for beta in betas:
            assert_same_bits(stats.g_n(beta),
                             positive_power_sum(xs, beta) + 100 * model.neg_beta_moment(beta))

    def test_given_paths_span_blocks(self):
        # the hand-made path helper splits paths over blocks as the stream does
        model = Gaussian(sd=1.0)
        xs = path_matrix(model, 64, 3 * (BLOCK_VALUES // 64) + 5, 6)
        stats = given_stats(xs, model, ("b_n", 0.5), jobs=2)
        assert_same_bits(stats.s(), xs.sum(axis=1))
        assert_same_bits(stats.b_n(0.5), sq_var_above(xs, 0.5) + cond_var_below(xs, model, 0.5))

    def test_memoized_brackets_shared_across_threads(self, monkeypatch):
        # grid points run on threads under --jobs; the batch is drawn and
        # reduced to every key by one call, and every reader of a key gets
        # the one stored array without computing anything
        model = BoundedAbove(1.0)
        ys = [0.1 * k for k in range(8)]
        computed = []
        map_jobs = processes.map_jobs

        def counted(fill, blocks, jobs=1):
            computed.append(jobs)
            return map_jobs(fill, blocks, jobs)

        monkeypatch.setattr(processes, "map_jobs", counted)
        stats = stream_stats(model, 50, 6000, 4, *(("b_n", y) for y in ys), jobs=2)
        assert computed == [2]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(stats.b_n, y) for y in ys * 6]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert computed == [2]
        xs = path_matrix(model, 50, 6000, 4)
        for y, arr in zip(ys * 6, results):
            assert arr is stats.b_n(y)
            assert np.array_equal(arr, sq_var_above(xs, y) + cond_var_below(xs, model, y))

    def test_unsupported_statistic_propagates(self):
        model = CenteredPareto(beta_tail=1.9)
        with pytest.raises(UnsupportedStatisticError):
            stream_stats(model, 10, 5, 1, ("b_n", 1.0))
        with pytest.raises(UnsupportedStatisticError):
            stream_stats(model, 10, 5, 1, ("g_n", 1.95))
        assert np.all(stream_stats(model, 10, 5, 1, ("g_n", 1.5)).g_n(1.5) > 0)

    def test_undeclared_statistic_raises(self):
        stats = stream_stats(Rademacher(), 10, 5, 1, ("b_n", 0.5))
        assert stats.b_n(0.5).shape == (5,)
        for read, key in ((lambda: stats.b_n(0.0), "('b_n', 0.0)"),
                          (stats.sq_var, "('sq_var', None)"),
                          (lambda: stats.g_n(1.5), "('g_n', 1.5)")):
            with pytest.raises(UndeclaredStatisticError, match=re.escape(key)):
                read()
        # cond_var is a closed form, never a column
        assert np.array_equal(stats.cond_var(), np.full(5, 10.0))

    @pytest.mark.parametrize("key", [("b_n", -0.5), ("h_n", -1.0), ("t_n", 1.0)])
    def test_bad_keys_rejected(self, key):
        with pytest.raises(ValueError):
            sample_batch(Rademacher(), 10, 5, 1, [key])

    def test_path_validation(self):
        with pytest.raises(ValueError):
            _path(Rademacher(), [])
        with pytest.raises(ValueError):
            _path(Rademacher(), [1.0, math.inf])


class TestModelConstruction:
    def test_two_point_requires_zero_mean(self):
        with pytest.raises(ValueError, match="zero-mean"):
            ScaledTwoPoint(p_up=0.5, up=2.0, down=-1.0)

    def test_build_model_round_trip(self):
        m = build_model({"family": "scaled_two_point", "p_up": 0.25, "up": 3.0, "down": -1.0})
        assert isinstance(m, ScaledTwoPoint)
        m = build_model({"family": "conditionally_symmetric_mixture", "weights": [0.5, 0.5], "scales": [1.0, 2.0]})
        assert isinstance(m, SymmetricMixture)

    def test_rademacher_is_the_fair_two_point_law(self):
        m = build_model({"family": "rademacher"})
        assert isinstance(m, ScaledTwoPoint) and m.conditionally_symmetric
        assert (m.p_up, m.up, m.down, m.family) == (0.5, 1.0, -1.0, "rademacher")
        # its own np.where sampler: the draws are those of the fair-sign form
        want = np.where(substream(3, 0).random((20, 30)) < 0.5, -1.0, 1.0)
        assert_same_bits(m.sample(substream(3, 0), (20, 30)), want)

    def test_build_model_errors(self):
        with pytest.raises(ValueError, match="family"):
            build_model({"p_up": 0.5})
        with pytest.raises(ValueError, match="unknown model family"):
            build_model({"family": "cauchy"})
        with pytest.raises(ValueError, match="bad parameters"):
            build_model({"family": "gaussian", "mean": 3.0})
        with pytest.raises(ValueError, match="base_family"):
            build_model({"family": "bounded_above", "y_cap": 1.0, "base_family": "exponential"})
        mixture = {"family": "conditionally_symmetric_mixture", "weights": [1.0], "scales": [1.0]}
        for bad in ({k: v for k, v in mixture.items() if k != "weights"}, {**mixture, "bogus": 3}):
            with pytest.raises(ValueError, match="bad parameters for family"):
                build_model(bad)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BoundedAbove(0.0)
        with pytest.raises(ValueError):
            CenteredPareto(beta_tail=2.5)
        with pytest.raises(ValueError):
            Gaussian(sd=-1.0)
        with pytest.raises(ValueError):
            SymmetricMixture(weights=(0.5, 0.4), scales=(1.0, 2.0))
