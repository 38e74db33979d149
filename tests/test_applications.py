"""Student-t rewriting, least-squares regression checks, and TSP experiments."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from selfnorm.bounds import evaluate_bound
from selfnorm.montecarlo import domination_check, exact_verdict
from selfnorm.applications.student import (
    DegenerateSampleError,
    self_normalized_threshold,
    t_event_equivalence,
    t_statistic,
)
from selfnorm.applications.regression import (
    DegenerateDesignError,
    exact_regression_records,
    regression_batch,
    verify_regression,
)
from selfnorm.applications.tsp import (
    TSP_INSTANCE_BLOCK,
    _ROLE_LEVEL,
    _stream_id,
    _transition_plan,
    dist_matrix,
    dist_matrix_batch,
    held_karp,
    held_karp_batch,
    instance_tour_lengths,
    sample_points,
    tsp_martingale_diffs,
    verify_tsp,
)
from selfnorm.processes import BLOCK_VALUES, Gaussian, Rademacher, ScaledTwoPoint, substream

from reference import RegressionRun, ls_estimate, nested_level_estimates, simulate_regression


class TestStudentT:
    def test_zero_mean_samples(self):
        assert t_statistic([1.0, 1.0, 1.0, -3.0]) == 0.0
        assert t_statistic([1.0, -1.0]) == 0.0

    def test_hand_value(self):
        assert t_statistic([2.0, 0.0, 1.0, 1.0]) == pytest.approx(
            2.0 / math.sqrt(2.0 / 3.0), rel=1e-12
        )

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            t_statistic([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            t_statistic([1.0])

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            self_normalized_threshold(2.0, 4)  # x = sqrt(n)
        with pytest.raises(ValueError):
            self_normalized_threshold(0.0, 4)

    def test_equivalence_hand_case(self):
        assert t_event_equivalence([1.0, -1.0], 0.5) == (False, False)

    def test_equivalence_on_gaussian_batch(self):
        rng = substream(2024, 0)
        xs = rng.standard_normal((10_000, 20))
        s = xs.sum(axis=1)
        root = np.sqrt((xs ** 2).sum(axis=1))
        mean = xs.mean(axis=1)
        ssd = ((xs - mean[:, None]) ** 2).sum(axis=1)
        t = math.sqrt(20.0) * mean / np.sqrt(ssd / 19.0)
        for x in (0.5, 1.0, 2.0):
            lhs = t >= x
            rhs = s / root >= self_normalized_threshold(x, 20)
            assert np.array_equal(lhs, rhs)

    def test_tstat_bound_is_transformed_peeling_bound(self):
        # the windowed t bound equals the square-bracket peeling bound at the
        # shrunk deviation level, as an algebraic identity
        for n in (5, 20, 100):
            for x in (0.5, 1.0, 2.0):
                for M in (1.0, 2.0, 4.0):
                    lhs = evaluate_bound("thm31_tstat", x=x, n=n, M=M)
                    rhs = evaluate_bound("thm25_peeling", x=self_normalized_threshold(x, n), M=M)
                    assert lhs == pytest.approx(rhs, rel=1e-12)


def _manual_run(theta, phi, eps):
    phi = np.asarray(phi, dtype=float)
    eps = np.asarray(eps, dtype=float)
    return RegressionRun(theta=theta, phi=phi, eps=eps, x_obs=theta * phi + eps)


class TestLeastSquares:
    def test_noiseless_recovery(self):
        run = _manual_run(3.0, [0.5, -0.2, 1.0], [0.0, 0.0, 0.0])
        assert ls_estimate(run) == pytest.approx(3.0, rel=1e-14)

    def test_hand_values(self):
        run = _manual_run(1.0, [1.0, 1.0], [0.5, -0.5])
        assert ls_estimate(run) == pytest.approx(1.0, rel=1e-14)
        run = _manual_run(0.0, [1.0, 0.0], [1.0, 7.0])
        assert ls_estimate(run) == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesignError):
            ls_estimate(_manual_run(1.0, [0.0, 0.0], [0.1, 0.2]))

    def test_error_identity(self):
        noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
        for rep in range(20):
            run = simulate_regression(0.7, "uniform", noise, 30, 55, replicate=rep)
            err = ls_estimate(run) - run.theta
            identity = float(np.sum(run.phi * run.eps) / np.sum(run.phi * run.phi))
            assert err == pytest.approx(identity, rel=1e-12, abs=1e-15)

    def test_batch_rows_match_replicate_runs_across_blocks(self):
        noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
        n = 64
        rows = BLOCK_VALUES // n
        batch = regression_batch("uniform", noise, n, rows + 2, 55)
        for r in (0, rows - 1, rows, rows + 1):
            run = simulate_regression(0.7, "uniform", noise, n, 55, replicate=r)
            assert batch.err[r] == pytest.approx(ls_estimate(run) - 0.7, rel=1e-12, abs=1e-15)
            assert batch.phi_sq[r] == pytest.approx(float(np.sum(run.phi * run.phi)), rel=1e-14)

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("n_rep", [3 * (BLOCK_VALUES // 64) + 5, 100])
    def test_batch_identical_at_any_jobs(self, jobs, n_rep):
        # 3 whole blocks and a partial one, or less than one block
        noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
        serial = regression_batch("uniform", noise, 64, n_rep, 55)
        threaded = regression_batch("uniform", noise, 64, n_rep, 55, jobs=jobs)
        assert np.array_equal(threaded.err, serial.err)
        assert np.array_equal(threaded.phi_sq, serial.phi_sq)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_block_error_surfaces(self, jobs):
        class FailingNoise(ScaledTwoPoint):
            def sample(self, rng, size):
                raise RuntimeError("noise draw failed")

        noise = FailingNoise(p_up=0.5, up=0.1, down=-0.1)
        with pytest.raises(RuntimeError, match="noise draw failed"):
            regression_batch("uniform", noise, 64, 3 * (BLOCK_VALUES // 64) + 5, 55, jobs=jobs)
        with pytest.raises(RuntimeError, match="noise draw failed"):
            verify_regression("thm32_regression", phi_kind="uniform", eps_model=noise, n=64,
                              x_grid=[0.2], n_rep=500, gamma=0.95, master_seed=1, jobs=jobs)

    def test_observation_equation_exact(self):
        noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
        run = simulate_regression(2.0, "uniform", noise, 25, 99)
        assert np.array_equal(run.x_obs, 2.0 * run.phi + run.eps)

    def test_regressor_bound_enforced(self):
        with pytest.raises(ValueError):
            _manual_run(1.0, [1.5], [0.0])


class TestVerifyRegression:
    NOISE = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)

    def test_mc_passes_at_moderate_deviation(self):
        _, bounds, tails = verify_regression(
            "thm32_regression", phi_kind="uniform", eps_model=self.NOISE,
            n=50, x_grid=[0.5], n_rep=20_000, gamma=0.99, master_seed=5,
        )
        assert domination_check(tails[0], bounds[0]).status == "pass"

    def test_zero_deviation_is_vacuous(self):
        _, bounds, tails = verify_regression(
            "thm32_regression", phi_kind="uniform", eps_model=self.NOISE,
            n=20, x_grid=[0.0], n_rep=500, gamma=0.99, master_seed=5,
        )
        assert domination_check(tails[0], bounds[0]).status == "vacuous"
        assert tails[0].p_hat == 1.0

    def test_windowed_variant_never_violates(self):
        (b, M), bounds, tails = verify_regression(
            "thm33_regression", phi_kind="uniform", eps_model=self.NOISE,
            n=50, x_grid=[0.2, 0.5, 1.0], n_rep=20_000, gamma=0.99, master_seed=5,
        )
        statuses = [domination_check(tail, bound).status for tail, bound in zip(tails, bounds)]
        assert all(status in ("pass", "vacuous") for status in statuses)
        assert b > 0 and M >= 1

    def test_unbounded_noise_rejected(self):
        with pytest.raises(ValueError, match="bounded"):
            verify_regression(
                "thm32_regression", phi_kind="uniform", eps_model=Gaussian(sd=0.1),
                n=20, x_grid=[0.5], n_rep=500, gamma=0.99, master_seed=5,
            )

    def test_sigma_floor(self):
        tiny = ScaledTwoPoint(p_up=0.5, up=1e-4, down=-1e-4)
        with pytest.raises(ValueError, match="floor"):
            regression_batch("uniform", tiny, 10, 200, 1)

    def test_exact_oracle_hand_values(self):
        # self.NOISE is +-0.1 fair signs
        _, bounds, exact = exact_regression_records(
            "thm32_regression", n=12, x_grid=[0.05, 0.1], eps_model=self.NOISE
        )
        # |theta_hat - theta| = 0.1 |S_12| / 12: tails are binomial sums
        assert exact[0] == pytest.approx(598.0 / 4096.0, rel=1e-12)
        assert exact[1] == pytest.approx(2.0 / 4096.0, rel=1e-12)
        assert all(exact_verdict(p, bound).status == "pass" for p, bound in zip(exact, bounds))

    @pytest.mark.parametrize("n", [21, 200])
    def test_exact_oracle_beyond_enumeration(self, n):
        # only n + 1 binomial weights are summed, so n is not capped; every
        # tail is the exact binomial sum rounded once to float
        cases = {
            # |theta_hat - theta| = |2k - n| / n >= x
            "thm32_regression": ([0.175, 0.35], lambda d, x: Fraction(d, n) >= Fraction(x)),
            # sqrt(n) |theta_hat - theta| = |2k - n| / sqrt(n) >= x
            "thm33_regression": ([1.1, 2.05], lambda d, x: Fraction(d * d, n) >= Fraction(x) ** 2),
        }
        for thm, (x_grid, inside) in cases.items():
            _, _, exact = exact_regression_records(
                thm, n=n, x_grid=x_grid, eps_model=Rademacher()
            )
            for x, got in zip(x_grid, exact):
                count = sum(math.comb(n, k) for k in range(n + 1) if inside(abs(2 * k - n), x))
                assert 0 < count < 2 ** n
                assert got == float(Fraction(count, 2 ** n))

    @pytest.mark.parametrize(
        "thm, x_grid, b",
        [
            ("thm32_regression", [0.05, 0.1], None),
            ("thm33_regression", [0.15, 0.3], None),
            # a lower edge a hair above sqrt(n) still holds the constant
            # design: both modes close the window with the same slack
            ("thm33_regression", [0.15], math.sqrt(12) * (1 + 1e-13)),
        ],
        ids=["thm32", "thm33", "thm33-window-edge"],
    )
    def test_exact_oracle_agrees_with_mc(self, thm, x_grid, b):
        # phi = 1 makes the design constant, so both modes take the same
        # window and the same closed-form bound
        window, bounds, tails = verify_regression(
            thm, phi_kind="ones", eps_model=self.NOISE,
            n=12, x_grid=x_grid, n_rep=40_000, gamma=0.99, master_seed=12, b=b,
        )
        exact_window, exact_bounds, exact = exact_regression_records(
            thm, n=12, x_grid=x_grid, eps_model=self.NOISE, b=b
        )
        assert exact_window == window
        if thm == "thm33_regression":
            assert exact_bounds == bounds
        for mc, ex in zip(tails, exact):
            assert 0 < ex and mc.ci_lo <= ex <= mc.ci_hi


def _square_points():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _tour_length(pts):
    return held_karp(dist_matrix(pts)).length


class TestTours:
    def test_triangle_perimeter(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        expected = 2.0 + math.sqrt(2.0)
        assert _tour_length(pts) == pytest.approx(expected, rel=1e-12)

    def test_unit_square(self):
        assert _tour_length(_square_points()) == pytest.approx(4.0, rel=1e-12)

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 3.0]])
        assert _tour_length(pts) == pytest.approx(6.0, rel=1e-12)

    def test_tour_order_is_a_permutation(self):
        pts = sample_points(9, 2, substream(5, 0))
        dist = dist_matrix(pts)
        result = held_karp(dist)
        order = list(result.order)
        assert sorted(order) == list(range(9))
        closed = sum(dist[a, b] for a, b in zip(order, order[1:] + order[:1]))
        assert closed == pytest.approx(result.length)

    def test_batch_matches_single(self):
        pts = substream(3, 0).random((25, 8, 2))
        dists = dist_matrix_batch(pts)
        batch = held_karp_batch(dists)
        singles = np.array([held_karp(dists[i]).length for i in range(25)])
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 9])
    def test_dist_matrix_batch_matches_stacked(self, d):
        # n = 2 and 3 give one and two rows of pairs (k, j > k); n = 12 is the cap
        for n in (2, 3, 7, 12):
            pts = substream(6, d).random((13, n, d))
            stacked = np.stack([dist_matrix(p) for p in pts])
            batch = dist_matrix_batch(pts)
            assert batch.shape == (13, n, n)
            assert np.array_equal(batch, stacked)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_transition_plan_fills_each_row_once(self, n):
        # one step per subset of >= 2 cities; each (mask, j) row is written
        # once, from exactly the candidates (mask ^ j, k), k in mask \ {j},
        # all of them written before
        m = n - 1
        base, steps, _ = _transition_plan(n)
        assert len(steps) == 2 ** m - n
        written = set(base)
        for dst, src, kj in steps:
            assert src.shape == kj.shape == (len(dst) - 1, len(dst))
            mask = int(dst[0]) // m
            members = [j for j in range(1, n) if mask >> (j - 1) & 1]
            assert sorted(int(row) - mask * m + 1 for row in dst) == members
            for col, row in enumerate(dst):
                j = int(row) - mask * m + 1
                prev = mask ^ (1 << (j - 1))
                cands = {divmod(int(r), m) for r in src[:, col]}
                assert cands == {(prev, k - 1) for k in members if k != j}
                assert {divmod(int(r), n) for r in kj[:, col]} == {
                    (k, j) for k in members if k != j
                }
                assert all(int(r) in written for r in src[:, col])
            assert written.isdisjoint(int(row) for row in dst)
            written.update(int(row) for row in dst)
        # every (mask, j in mask) row: m * 2^(m-1) of them
        assert len(written) == m * 2 ** (m - 1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_batch_matches_single_on_plain_array(self, n):
        pts = substream(8, n).random((10, n, 2))
        dists = np.stack([dist_matrix(p) for p in pts])
        assert dists.flags.c_contiguous
        batch = held_karp_batch(dists, chunk=4)
        singles = np.array([held_karp(dists[i]).length for i in range(10)])
        assert np.array_equal(batch, singles)

    def test_large_instance_rejected(self):
        pts = substream(9, 0).random((14, 2))
        with pytest.raises(ValueError, match="exact tours capped at n = 12"):
            held_karp(dist_matrix(pts))
        with pytest.raises(ValueError, match="exact tours capped at n = 12"):
            held_karp_batch(dist_matrix_batch(pts[None]))

    def test_instance_tour_lengths_follow_point_streams(self):
        # exact tours in batches of TSP_INSTANCE_BLOCK: rows on both sides of
        # a block boundary equal the single-instance solve of their stream
        block = TSP_INSTANCE_BLOCK
        lengths = instance_tour_lengths(6, 2, block + 2, 9)
        for r in (0, block - 1, block, block + 1):
            pts = sample_points(6, 2, substream(9, (r << 8) | 2))
            assert lengths[r] == held_karp(dist_matrix(pts)).length
        # beyond the exact cap there are no tours
        with pytest.raises(ValueError, match="exact tours capped"):
            instance_tour_lengths(13, 2, 3, 9)

    def test_small_input_rejected(self):
        with pytest.raises(ValueError):
            _tour_length(np.array([[0.0, 0.0]]))


class TestTspMartingale:
    def test_last_level_is_exact(self):
        pts = sample_points(3, 2, substream(1, 0))
        diffs = tsp_martingale_diffs(pts, 1000, 21)
        assert diffs.level_means[-1] == diffs.t_n
        assert diffs.level_ses[-1] == 0.0
        assert diffs.d_hat.shape == (3,)

    def test_telescoping_and_reconciliation(self):
        hits = 0
        for inst in range(5):
            pts = sample_points(8, 2, substream(40, (inst << 8) | 2))
            diffs = tsp_martingale_diffs(pts, 1500, 40, instance=inst)
            total = float(diffs.d_hat.sum())
            assert total == pytest.approx(diffs.t_n - diffs.level_means[0], abs=1e-12)
            if abs(diffs.reconciliation_gap) <= 3.0 * diffs.reconciliation_se:
                hits += 1
        assert hits >= 4

    @pytest.mark.parametrize(
        "n, d, inner_rep",
        # n = 10 at d = 2 is the C9 acceptance shape
        list(itertools.product([2, 3, 7, 8], [2, 3, 9], [1000, 1003])) + [(10, 2, 1000)],
    )
    def test_one_batch_matches_per_level_reference(self, n, d, inner_rep):
        # every float equals one held_karp_batch call per level; level slots
        # start at rows 1 + slot * inner_rep, so 1003 leaves them unaligned
        # and one level always spans the TSP_INSTANCE_BLOCK boundary
        assert any(
            1 + slot * inner_rep < TSP_INSTANCE_BLOCK < 1 + (slot + 1) * inner_rep
            for slot in range(n + 1)
        )
        pts = sample_points(n, d, substream(60, n * d))
        diffs = tsp_martingale_diffs(pts, inner_rep, 61, instance=3)
        t_n, level_means, level_ses, e_t_ref, e_t_ref_se = nested_level_estimates(
            pts, inner_rep, 61, instance=3
        )
        assert diffs.t_n == t_n
        assert np.array_equal(diffs.level_means, level_means)
        assert np.array_equal(diffs.level_ses, level_ses)
        assert diffs.e_t_ref == e_t_ref
        assert diffs.e_t_ref_se == e_t_ref_se

    def test_held_karp_kernel_at_the_c9_shape(self):
        # rows built as tsp_martingale_diffs builds them at n = 10, d = 2 (C9),
        # from levels 0, 5 and 9, each solved by the batch kernel and by the
        # dict DP on its own
        n, d, inner_rep = 10, 2, 1000
        pts = sample_points(n, d, substream(62, 0))
        rows = []
        for i, take in ((0, 6), (5, 5), (9, 5)):
            rng = substream(63, _stream_id(0, i, _ROLE_LEVEL))
            level = np.empty((inner_rep, n, d))
            level[:, :i] = pts[:i]
            level[:, i:] = rng.random((inner_rep, n - i, d))
            rows.append(level[:take])
        dists = dist_matrix_batch(np.concatenate(rows))
        assert dists.shape == (16, n, n)
        batch = held_karp_batch(dists)
        for r in range(16):
            assert batch[r] == held_karp(dists[r]).length, r

    def test_preconditions(self):
        # sample_points applies the same cap, so draw the 13 points directly
        pts = substream(1, 0).random((13, 2))
        with pytest.raises(ValueError, match="exact"):
            tsp_martingale_diffs(pts, 1000, 1)
        pts = sample_points(5, 2, substream(1, 0))
        with pytest.raises(ValueError, match="inner_rep"):
            tsp_martingale_diffs(pts, 100, 1)


class TestVerifyTsp:
    def test_smoke_run(self):
        result = verify_tsp(8, 2, [2.0, 4.0], 6, 1000, 0.99, 77)
        assert result.c1 > 0
        lo, hi = result.window
        assert lo == pytest.approx(result.c1 * 8 ** 0.0)
        assert hi == pytest.approx(result.c1 * math.sqrt(8))
        # the calibrating instance sits inside the window
        assert result.window_hits >= 1
        statuses = [domination_check(e, b).status for e, b in zip(result.estimates, result.bounds)]
        assert all(status in ("pass", "vacuous") for status in statuses)
        assert result.sign_positive + result.sign_negative + result.sign_indeterminate == 6 * 8
        assert 0.0 <= result.recon_pass_fraction <= 1.0

    def test_explicit_c1_override(self):
        result = verify_tsp(8, 2, [4.0], 4, 1000, 0.99, 77, c1=100.0)
        assert result.window_hits == 0
        assert all(e.hits == 0 for e in result.estimates)

    def test_bound_matches_calculator(self):
        result = verify_tsp(8, 2, [3.0], 4, 1000, 0.99, 5)
        expected = evaluate_bound("thm34_tsp", t=3.0, n=8, d=2)
        assert result.bounds[0] == pytest.approx(expected, rel=1e-14)
