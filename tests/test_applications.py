"""Student-t rewriting, least-squares regression checks, and TSP experiments."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from selfnorm.bounds import evaluate_bound
from selfnorm.experiments import load_spec, run_experiment
from selfnorm.montecarlo import (
    TailEvent,
    closed_ge,
    domination_check,
    estimate_tail_from,
    evaluate_event,
)
from selfnorm.applications.student import self_normalized_threshold
from selfnorm.applications.regression import (
    DegenerateDesignError,
    RegressionBatch,
    regression_batch,
    verify_regression,
)
from selfnorm.applications import regression, tsp
from selfnorm.applications.tsp import (
    HELD_KARP_STEP_ROWS,
    TSP_INSTANCE_BLOCK,
    _ROLE_LEVEL,
    _ROLE_REF,
    _stream_id,
    _transition_plan,
    dist_matrix,
    dist_matrix_batch,
    held_karp,
    held_karp_batch,
    sample_points,
    tsp_martingale_diffs,
    verify_tsp,
)
from selfnorm.processes import (
    BLOCK_VALUES,
    Gaussian,
    Rademacher,
    ScaledTwoPoint,
    build_model,
    substream,
)

from reference import (
    DegenerateSampleError,
    RegressionRun,
    held_karp_reference,
    ls_estimate,
    nested_level_estimates,
    regression_rows_reference,
    simulate_regression,
    t_event_equivalence,
    t_statistic,
)


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

    @pytest.mark.parametrize("phi_kind", ["uniform", "ones"])
    @pytest.mark.parametrize("noise", [
        Rademacher(),
        ScaledTwoPoint(p_up=1.0 / 3.0, up=2.0, down=-1.0),
        ScaledTwoPoint(p_up=0.75, up=1.0, down=-3.0),
        build_model({"family": "scaled_two_point", "p_up": 0.5, "up": 1, "down": -1}),
    ], ids=["rademacher", "two_point_third", "two_point_three_quarters", "two_point_int"])
    @pytest.mark.parametrize("n", [1, 50])
    def test_rows_match_reference(self, phi_kind, noise, n):
        # the in-place fill gives the bits of product temporaries, across a
        # trimmed last block
        rows = max(1, BLOCK_VALUES // n)
        n_rep = rows + 13 if n > 1 else rows - 3
        batch = regression_batch(phi_kind, noise, n, n_rep, 31)
        err, phi_sq = regression_rows_reference(phi_kind, noise, n, n_rep, 31)
        assert np.array_equal(batch.err.view(np.int64), err.view(np.int64))
        assert np.array_equal(batch.phi_sq.view(np.int64), phi_sq.view(np.int64))

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("n_rep", [3 * (BLOCK_VALUES // 64) + 5, 100])
    def test_batch_identical_at_any_jobs(self, jobs, n_rep):
        # 3 whole blocks and a partial one, or less than one block
        noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
        serial = regression_batch("uniform", noise, 64, n_rep, 55)
        threaded = regression_batch("uniform", noise, 64, n_rep, 55, jobs=jobs)
        assert np.array_equal(threaded.err, serial.err)
        assert np.array_equal(threaded.phi_sq, serial.phi_sq)

    def test_s_and_root_made_once_per_batch(self):
        noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
        for batch in (regression_batch("uniform", noise, 30, 500, 55),
                      regression._sign_type_rows(30, noise)):
            s, root = batch.s(), batch.root()
            assert batch.s() is s and batch.root() is root
            assert np.array_equal(s.view(np.int64), np.abs(batch.cross).view(np.int64))
            assert np.array_equal(root.view(np.int64), np.sqrt(batch.phi_sq).view(np.int64))
            assert not s.flags.writeable and not root.flags.writeable

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_degenerate_design_raises(self, monkeypatch, jobs):
        # one all-zero design row, the last kept row of the trimmed last
        # block, raises rather than leaving a NaN row
        noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
        rows = BLOCK_VALUES // 64
        sample_phi, zeroed = regression._sample_phi, []

        def zero_row(kind, rng, shape):
            phi = sample_phi(kind, rng, shape)
            if rng.bit_generator.state["state"]["key"][1] == 3:
                phi[4] = 0.0
                zeroed.append(shape)
            return phi

        monkeypatch.setattr(regression, "_sample_phi", zero_row)
        with pytest.raises(DegenerateDesignError, match="all-zero design"):
            regression_batch("uniform", noise, 64, 3 * rows + 5, 55, jobs=jobs)
        assert zeroed == [(rows, 64)]
        assert np.all(np.isfinite(regression_batch("uniform", noise, 64, 3 * rows + 4, 55).err))

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
                              x_grid=[0.2], mode="mc", n_rep=500, master_seed=1, jobs=jobs)

    def test_observation_equation_exact(self):
        noise = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)
        run = simulate_regression(2.0, "uniform", noise, 25, 99)
        assert np.array_equal(run.x_obs, 2.0 * run.phi + run.eps)

    def test_regressor_bound_enforced(self):
        with pytest.raises(ValueError):
            _manual_run(1.0, [1.5], [0.0])


def _regression_tails(thm, mode="mc", **kwargs):
    """(bounds, Monte Carlo estimates at gamma = 0.99, exact tails) of
    verify_regression; the estimates or the exact tails are None outside
    their modes."""
    rows, types, _, pairs = verify_regression(thm, mode=mode, **kwargs)
    bounds = [bound for _, bound in pairs]
    mc = exact = None
    if rows is not None:
        mc = [estimate_tail_from(rows, event, 0.99) for event, _ in pairs]
    if types is not None:
        exact = [types.mass(evaluate_event(types, event)) for event, _ in pairs]
    return bounds, mc, exact


def _regression_records(thm, grids, mode, **fields):
    raw = {
        "id": "reg", "theorem": thm, "n": 12, "phi": "ones", "mode": mode,
        "model": {"family": "scaled_two_point", "p_up": 0.5, "up": 0.1, "down": -0.1},
        "grids": grids, **fields,
    }
    return run_experiment(load_spec(raw))


class TestVerifyRegression:
    NOISE = ScaledTwoPoint(p_up=0.5, up=0.1, down=-0.1)

    def test_mc_passes_at_moderate_deviation(self):
        [rec] = _regression_records("thm32_regression", {"x": [0.5]}, "mc", n=50, phi="uniform",
                                    n_rep=20_000, gamma=0.99, master_seed=5)
        assert rec.status == "pass"

    def test_zero_deviation_is_vacuous(self):
        bounds, tails, _ = _regression_tails(
            "thm32_regression", phi_kind="uniform", eps_model=self.NOISE,
            n=20, x_grid=[0.0], n_rep=500, master_seed=5,
        )
        assert domination_check(tails[0], bounds[0]) == "vacuous"
        assert tails[0].p_hat == 1.0

    def test_windowed_variant_never_violates(self):
        records = _regression_records("thm33_regression", {"x": [0.2, 0.5, 1.0]}, "mc", n=50,
                                      phi="uniform", n_rep=20_000, gamma=0.99, master_seed=5)
        assert all(rec.status in ("pass", "vacuous") for rec in records)
        assert all(rec.b > 0 and rec.M >= 1 for rec in records)

    def test_unbounded_noise_rejected(self):
        with pytest.raises(ValueError, match="bounded"):
            verify_regression(
                "thm32_regression", phi_kind="uniform", eps_model=Gaussian(sd=0.1),
                n=20, x_grid=[0.5], mode="mc", n_rep=500, master_seed=5,
            )

    def test_sigma_floor(self):
        tiny = ScaledTwoPoint(p_up=0.5, up=1e-4, down=-1e-4)
        with pytest.raises(ValueError, match="floor"):
            regression_batch("uniform", tiny, 10, 200, 1)

    def test_exact_oracle_hand_values(self):
        # self.NOISE is +-0.1 fair signs
        records = _regression_records("thm32_regression", {"x": [0.05, 0.1]}, "exact_oracle")
        # |theta_hat - theta| = 0.1 |S_12| / 12: tails are binomial sums
        assert records[0].exact == pytest.approx(598.0 / 4096.0, rel=1e-12)
        assert records[1].exact == pytest.approx(2.0 / 4096.0, rel=1e-12)
        assert all(rec.status == "pass" for rec in records)

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
            _, _, exact = _regression_tails(
                thm, mode="exact_oracle", phi_kind="ones", eps_model=Rademacher(), n=n,
                x_grid=x_grid, n_rep=100, master_seed=0,
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
        grids = {"x": x_grid} if b is None else {"x": x_grid, "b": [b]}
        fields = dict(n_rep=40_000, gamma=0.99, master_seed=12)
        mc = _regression_records(thm, grids, "mc", **fields)
        exact = _regression_records(thm, grids, "exact_oracle", **fields)
        assert [(rec.b, rec.M) for rec in exact] == [(rec.b, rec.M) for rec in mc]
        if thm == "thm33_regression":
            assert [rec.bound for rec in exact] == [rec.bound for rec in mc]
        for rec, ex in zip(mc, exact):
            assert 0 < ex.exact and rec.ci_lo <= ex.exact <= rec.ci_hi

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_thm33_event_rewrite_on_sign_types(self, scale):
        # |sum phi eps| / sqrt(sum phi^2) >= x marks the rows that the product
        # form |sum phi eps / sum phi^2| * sqrt(sum phi^2) >= x marks, at
        # every atom of either form and between them
        noise = ScaledTwoPoint(p_up=0.5, up=scale, down=-scale)
        for n in range(2, 61):
            _assert_thm33_forms_agree(regression._sign_type_rows(n, noise),
                                      (0.1, 0.2, 0.3, 0.5, 1.0))

    def test_thm33_event_rewrite_on_uniform_design(self):
        rows = regression_batch("uniform", self.NOISE, 50, 20_000, 5)
        _assert_thm33_forms_agree(rows, (0.1, 0.2, 0.3, 0.5, 1.0), atoms=500)


def _assert_thm33_forms_agree(rows: RegressionBatch, grid, atoms=None):
    """The thm33 event and its product form |theta_hat - theta| * sqrt(sum
    phi^2), both closed by closed_ge, mark the same rows at each x of `grid`
    and at the values of both forms (every one, or `atoms` of each, evenly
    spaced in sorted order)."""
    root = np.sqrt(rows.phi_sq)
    product = np.abs(rows.err) * root
    values = [np.sort(form) for form in (product, rows.s() / root)]
    if atoms is not None:
        values = [v[np.linspace(0, len(v) - 1, atoms).astype(int)] for v in values]
    event = lambda x: TailEvent(x, normalizer=RegressionBatch.root)
    for x in itertools.chain(grid, *values):
        x = float(x)
        assert np.array_equal(evaluate_event(rows, event(x)), closed_ge(product, x)), x


def _square_points():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _tour_length(pts):
    return held_karp(dist_matrix(pts))


def _reference_length(dist):
    return held_karp_reference(dist)[0]


def _level_tours(n):
    # row i: level i's tour over the (X; Z) stack, X ids below i, Z ids from i
    ids = np.arange(n)
    return np.where(ids < ids[:, None], ids, ids + n)


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
        length, order = held_karp_reference(dist)
        order = list(order)
        assert sorted(order) == list(range(9))
        closed = sum(dist[a, b] for a, b in zip(order, order[1:] + order[:1]))
        assert closed == pytest.approx(length)

    def test_batch_matches_single(self):
        pts = substream(3, 0).random((25, 8, 2))
        dists = dist_matrix_batch(pts)
        batch = held_karp_batch(dists)
        singles = np.array([_reference_length(dists[i]) for i in range(25)])
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
        # for one tour and for the n level tours over 2n points: each
        # (start, set, end) state is written once, in a step that fills G
        # whole sets of one size in contiguous rows, from exactly the
        # candidates (set - j, k), k in set - {j}, each still held in its row
        # when it is read; a step of G > 1 sets stays within the row cap
        one = (tuple(range(n)),)
        for tours, size in ((one, n), (tuple(map(tuple, _level_tours(n).tolist())), 2 * n)):
            n_rows, base, steps, finals, closing = _transition_plan(tours, size)
            held = {}  # DP row -> the state it holds now
            for row, kj in enumerate(base):
                start, j = divmod(int(kj), size)
                held[row] = (start, frozenset([j]), j)
            writes = list(held.values())
            n_sets = 0
            for first, src, kj in steps:
                s = src.shape[0] + 1
                width = src.shape[1]
                assert src.shape == kj.shape == (s - 1, width) and width % s == 0
                if width > s:
                    assert src.size <= HELD_KARP_STEP_ROWS
                filled = {}
                for col in range(width):
                    cands = [held[int(r)] for r in src[:, col]]
                    pairs = [divmod(int(r), size) for r in kj[:, col]]
                    ((start, prev),) = {c[:2] for c in cands}
                    (j,) = {p[1] for p in pairs}
                    assert [c[2] for c in cands] == [p[0] for p in pairs]
                    assert sorted(c[2] for c in cands) == sorted(prev) and j not in prev
                    filled[first + col] = (start, prev | {j}, j)
                # G whole sets of s points, each in s contiguous rows
                in_rows = list(filled.values())
                sets = [{st[:2] for st in in_rows[g : g + s]} for g in range(0, width, s)]
                assert all(len(block) == 1 for block in sets)
                assert len(set().union(*sets)) == width // s
                assert all(len(st[1]) == s for st in in_rows)
                n_sets += width // s
                held.update(filled)
                writes.extend(filled.values())
            assert max(held) < n_rows
            for tour, rows, back in zip(tours, finals, closing):
                start, rest = tour[0], tour[1:]
                whole = frozenset(rest)
                assert [held[int(r)] for r in rows] == [(start, whole, j) for j in rest]
                assert [divmod(int(r), size) for r in back] == [(j, start) for j in rest]
            states = {
                (tour[0], frozenset(c), j)
                for tour in tours
                for s in range(1, n)
                for c in itertools.combinations(tour[1:], s)
                for j in c
            }
            assert len(writes) == len(set(writes)) and set(writes) == states
            if tours == one:
                # the steps cover each subset of >= 2 cities once, one state
                # per (mask, j in mask)
                assert n_sets == 2 ** (n - 1) - n
                assert len(states) == (n - 1) * 2 ** (n - 2)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_batch_matches_single_on_plain_array(self, monkeypatch, n):
        # chunks of 4 matrices, the last one partial; held_karp, the
        # one-matrix case, too (n = 2 has no DP step)
        pts = substream(8, n).random((10, n, 2))
        dists = np.stack([dist_matrix(p) for p in pts])
        assert dists.flags.c_contiguous
        monkeypatch.setattr(tsp, "TSP_INSTANCE_BLOCK", 4)
        batch = held_karp_batch(dists)
        singles = np.array([_reference_length(dists[i]) for i in range(10)])
        assert np.array_equal(batch, singles)
        for i in range(10):
            assert held_karp(dists[i]) == singles[i], i

    @pytest.mark.parametrize("n", [2, 3, 7, 9, 10])
    def test_tours_match_single_on_their_submatrices(self, monkeypatch, n):
        # the n level tours and one permuted tour over a (B, 2n) point stack,
        # solved together in chunks of 4 matrices (the last one partial) and
        # in one chunk: each length is the dict DP on the tour's submatrix.
        # n = 2 has no DP step; at n = 9 a layer splits across several
        # steps, and each set of 7 or 8 points is a step alone, over the cap
        pts = substream(64, n).random((5, 2 * n, 2))
        tours = np.vstack([_level_tours(n), substream(65, n).permutation(2 * n)[:n]])
        dists = dist_matrix_batch(pts)
        singles = np.array(
            [[_reference_length(dist[np.ix_(tour, tour)]) for dist in dists] for tour in tours]
        )
        for block in (4, TSP_INSTANCE_BLOCK):
            monkeypatch.setattr(tsp, "TSP_INSTANCE_BLOCK", block)
            batch = held_karp_batch(dists, tours)
            assert np.array_equal(batch, singles.reshape(-1))

    def test_large_instance_rejected(self):
        pts = substream(9, 0).random((14, 2))
        with pytest.raises(ValueError, match="exact tours capped at n = 12"):
            held_karp(dist_matrix(pts))
        with pytest.raises(ValueError, match="exact tours capped at n = 12"):
            held_karp_batch(dist_matrix_batch(pts[None]))

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
        # every float equals the coupled reference, which builds each level's
        # point sets from the shared resamples and solves one level at a time
        pts = sample_points(n, d, substream(60, n * d))
        diffs = tsp_martingale_diffs(pts, inner_rep, 61, instance=3)
        t_n, level_means, level_ses, d_se, e_t_ref, e_t_ref_se = nested_level_estimates(
            pts, inner_rep, 61, instance=3
        )
        assert diffs.t_n == t_n
        assert np.array_equal(diffs.level_means, level_means)
        assert np.array_equal(diffs.level_ses, level_ses)
        assert np.array_equal(diffs.d_se, d_se)
        assert diffs.e_t_ref == e_t_ref
        assert diffs.e_t_ref_se == e_t_ref_se

    def test_level_zero_and_reference_keep_their_draws(self):
        # level 0, the reference level and T_n are the estimates that
        # independent per-level substreams gave, (instance << 8) | (level << 2)
        # | role: level 0 draws all n points from the shared stream, which is
        # level 0's, and the reference keeps its own
        n, d, inner_rep, seed, inst = 7, 2, 1000, 67, 5
        pts = sample_points(n, d, substream(seed, (inst << 8) | 2))
        diffs = tsp_martingale_diffs(pts, inner_rep, seed, instance=inst)

        def independent_level(stream_id):
            draws = substream(seed, stream_id).random((inner_rep, n, d))
            lengths = held_karp_batch(dist_matrix_batch(draws))
            return float(lengths.mean()), float(lengths.std(ddof=1) / math.sqrt(inner_rep))

        assert _stream_id(inst, _ROLE_LEVEL) == inst << 8
        assert _stream_id(inst, _ROLE_REF) == (inst << 8) | 1
        assert (diffs.level_means[0], diffs.level_ses[0]) == independent_level(inst << 8)
        assert (diffs.e_t_ref, diffs.e_t_ref_se) == independent_level((inst << 8) | 1)
        assert diffs.t_n == _reference_length(dist_matrix(pts))

    def test_coupled_levels_shrink_increment_errors(self):
        # adjacent levels share all but one point, so the paired SE of d_hat
        # falls well below hypot(se_i, se_{i-1}), what independent levels give
        pts = sample_points(8, 2, substream(68, 2))
        diffs = tsp_martingale_diffs(pts, 1000, 68)
        ratio = diffs.d_se / np.hypot(diffs.level_ses[1:], diffs.level_ses[:-1])
        assert np.median(ratio) <= 0.75

    def test_held_karp_kernel_at_the_c9_shape(self):
        # coupled rows as tsp_martingale_diffs builds them at n = 10, d = 2
        # (C9): the (X; Z^r) stacks of two replicates, all ten level tours of
        # each solved by the batch kernel and each level's own point set by
        # the dict DP
        n, d, inner_rep = 10, 2, 1000
        pts = sample_points(n, d, substream(62, 0))
        shared = substream(63, _stream_id(0, _ROLE_LEVEL)).random((inner_rep, n, d))[:2]
        stack = np.concatenate([np.broadcast_to(pts, shared.shape), shared], axis=1)
        dists = dist_matrix_batch(stack)
        assert dists.shape == (2, 2 * n, 2 * n)
        batch = held_karp_batch(dists, _level_tours(n)).reshape(n, 2)
        for i in range(n):
            for r in range(2):
                own = np.concatenate([pts[:i], shared[r, i:]])
                assert batch[i, r] == _reference_length(dist_matrix(own)), (i, r)

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
        statuses = [domination_check(e, b) for e, b in zip(result.estimates, result.bounds)]
        assert all(status in ("pass", "vacuous") for status in statuses)
        assert result.sign_positive + result.sign_negative + result.sign_indeterminate == 6 * 8
        assert 0.0 <= result.recon_pass_fraction <= 1.0

    def test_explicit_c1_override(self):
        result = verify_tsp(8, 2, [4.0], 4, 1000, 0.99, 77, c1=100.0)
        assert result.window_hits == 0
        assert all(e.hits == 0 for e in result.estimates)

    def test_threshold_is_closed(self):
        # c1 is the smallest root, so the window holds all 3 instances; the
        # top instance's ratio still counts one ulp below a threshold, as in
        # every other closed event, and drops out well above it
        ratio = 0.4467640215842168
        grid = [ratio, np.nextafter(ratio, np.inf), ratio * (1.0 + 1e-9)]
        result = verify_tsp(6, 2, grid, 3, 1000, 0.99, 5, c1=0.1925219906678803)
        assert result.window_hits == 3
        assert [e.hits for e in result.estimates] == [1, 1, 0]

    def test_bound_matches_calculator(self):
        result = verify_tsp(8, 2, [3.0], 4, 1000, 0.99, 5)
        expected = evaluate_bound("thm34_tsp", t=3.0, n=8, d=2)
        assert result.bounds[0] == pytest.approx(expected, rel=1e-14)
