"""Random Euclidean TSP instances: exact tours, nested conditional means, and
windowed self-normalized deviation checks for the centered tour length."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..bounds import evaluate_bound
from ..montecarlo import MCEstimate
from ..processes import substream

__all__ = [
    "HELD_KARP_CAP",
    "TourResult",
    "check_tsp_size",
    "held_karp",
    "held_karp_batch",
    "sample_points",
    "instance_tour_lengths",
    "dist_matrix",
    "dist_matrix_batch",
    "TspDiffs",
    "tsp_martingale_diffs",
    "TspVerification",
    "verify_tsp",
]

HELD_KARP_CAP = 12

# Point sets solved per held_karp_batch call (instances in
# instance_tour_lengths, one instance's rows across all its levels in
# tsp_martingale_diffs), and the default width of its DP table.
TSP_INSTANCE_BLOCK = 2048


def check_tsp_size(n: int, inner_rep: int | None = None) -> None:
    """The size rules: exact tours, 2 <= n <= HELD_KARP_CAP, and for nested
    estimates (inner_rep given) inner_rep >= 1000."""
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if n > HELD_KARP_CAP:
        raise ValueError(f"exact tours capped at n = {HELD_KARP_CAP}, got {n}")
    if inner_rep is not None and inner_rep < 1000:
        raise ValueError(f"inner_rep must be >= 1000, got {inner_rep}")


def sample_points(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points in the unit cube of dimension d."""
    check_tsp_size(n)
    return rng.random((n, d))


def dist_matrix(points: np.ndarray) -> np.ndarray:
    """(..., n, d) points to (..., n, n) Euclidean distance matrices."""
    pts = np.asarray(points, dtype=float)
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def dist_matrix_batch(points: np.ndarray) -> np.ndarray:
    """(B, n, d) point batches to (B, n, n) distance matrices.

    The result is a (B, n, n) view of an (n, n, B) array, so the matrices of
    a batch lie side by side and ``held_karp_batch`` reads contiguous rows.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[2] >= 8:
        # NumPy sums 8 or more terms along a contiguous axis pairwise, so a
        # term-by-term coordinate sum would differ from dist_matrix in the
        # last bit.
        return dist_matrix(pts)
    n = pts.shape[1]
    coords = np.ascontiguousarray(pts.transpose(2, 1, 0))  # (d, n, B)
    out = np.empty((n, n, pts.shape[0]))
    out[range(n), range(n)] = 0.0
    for k in range(n - 1):
        # pairs (k, j > k) once, as (x_j - x_k)^2 == (x_k - x_j)^2; squared
        # coordinate differences added term by term, x0 + x1 (+ ...), the
        # order dist_matrix sums fewer than 8 terms in
        row = np.subtract(coords[0, k + 1 :], coords[0, k], out=out[k, k + 1 :])
        row *= row
        for col in coords[1:]:
            term = col[k + 1 :] - col[k]
            term *= term
            row += term
        np.sqrt(row, out=row)
        out[k + 1 :, k] = row
    return out.transpose(2, 0, 1)


@dataclass(frozen=True)
class TourResult:
    length: float
    order: tuple


def held_karp(dist: np.ndarray) -> TourResult:
    """Exact shortest closed tour by dynamic programming over city subsets."""
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    check_tsp_size(n)
    if n == 2:
        return TourResult(length=float(2.0 * dist[0, 1]), order=(0, 1))
    m = n - 1
    cost = {}
    parent = {}
    for j in range(1, n):
        cost[(1 << (j - 1), j)] = float(dist[0, j])
    for mask in range(1, 1 << m):
        if mask & (mask - 1) == 0:
            continue  # singletons are base cases
        for j in range(1, n):
            bit = 1 << (j - 1)
            if not mask & bit:
                continue
            prev = mask ^ bit
            best, best_k = math.inf, -1
            for k in range(1, n):
                if prev & (1 << (k - 1)):
                    cand = cost[(prev, k)] + dist[k, j]
                    if cand < best:
                        best, best_k = cand, k
            cost[(mask, j)] = best
            parent[(mask, j)] = best_k
    full = (1 << m) - 1
    best, best_j = math.inf, -1
    for j in range(1, n):
        cand = cost[(full, j)] + dist[j, 0]
        if cand < best:
            best, best_j = cand, j
    order = [0]
    mask, j = full, best_j
    tail = []
    while j > 0:
        tail.append(j)
        mask, j = mask ^ (1 << (j - 1)), parent.get((mask, j), 0)
    order.extend(reversed(tail))
    return TourResult(length=float(best), order=tuple(order))


@lru_cache(maxsize=None)
def _transition_plan(n: int):
    """Flattened-index DP schedule shared by all batches of the same size.

    DP row ``mask * m + (j - 1)`` holds the shortest path from city 0 through
    the cities of ``mask`` ending at j; distance row ``k * n + j`` holds the
    distance from k to j.  There is one step per subset of two or more
    cities, smaller subsets first.  The step ``(dst, src, kj)`` of a subset
    of s cities fills its s rows ``dst``, one per end city j, from an
    (s - 1, s) candidate block: column j pairs DP row (mask ^ j, k) in
    ``src`` with distance row (k, j) in ``kj``, one per other member k.
    """
    m = n - 1
    base = [(1 << (j - 1)) * m + (j - 1) for j in range(1, n)]
    steps = []
    for mask in sorted(range(1, 1 << m), key=int.bit_count):
        if mask & (mask - 1) == 0:
            continue
        js = np.array([j for j in range(1, n) if mask >> (j - 1) & 1], dtype=np.intp)
        ks = np.array([[k for k in js if k != j] for j in js], dtype=np.intp).T
        prev = mask ^ (1 << (js - 1))
        steps.append((mask * m + js - 1, prev * m + ks - 1, ks * n + js))
    full = (1 << m) - 1
    finals = np.array([full * m + (j - 1) for j in range(1, n)], dtype=np.intp)
    return base, steps, finals


def held_karp_batch(dists: np.ndarray, chunk: int = TSP_INSTANCE_BLOCK) -> np.ndarray:
    """Exact tour lengths for a batch of distance matrices, shape (B, n, n).

    Each chunk of instances shares one DP table of 2^(n-1) (n-1) rows; the
    chunk shrinks so that the table holds at most 2**24 values (128 MB).
    Each subset's rows take one step: the gathered DP candidates plus their
    distances, reduced by min over the previous city.  A row is the exact
    minimum of the same single additions ``held_karp`` compares, so every
    length equals its ``held_karp`` length bit for bit.
    """
    dists = np.asarray(dists, dtype=float)
    batch, n = dists.shape[0], dists.shape[1]
    check_tsp_size(n)
    if n == 2:
        return 2.0 * dists[:, 0, 1]
    out = np.empty(batch)
    base, steps, finals = _transition_plan(n)
    m = n - 1
    chunk = min(chunk, 2 ** 24 // ((1 << m) * m))
    by_pair = dists.transpose(1, 2, 0)  # free for dist_matrix_batch's layout
    for start in range(0, batch, chunk):
        # row k * n + j: distance from k to j across the chunk
        d = np.ascontiguousarray(by_pair[:, :, start : start + chunk]).reshape(n * n, -1)
        dp = np.empty(((1 << m) * m, d.shape[1]))
        dp[base] = d[1:n]  # row of {j} ending at j: distance from 0 to j
        for dst, src, kj in steps:
            cand = dp[src]
            cand += d[kj]
            dp[dst] = cand.min(axis=0)
        closing = d[n : n * n : n]  # row j - 1: distance from city j back to 0
        out[start : start + d.shape[1]] = (dp[finals] + closing).min(axis=0)
    return out


def _stream_id(instance: int, level: int, role: int) -> int:
    # level < 64 (n is capped far below), role < 4
    return (instance << 8) | (level << 2) | role


_ROLE_LEVEL = 0    # conditional-mean estimate at one level
_ROLE_REF = 1      # independent reference estimate of E[T_n]
_ROLE_POINTS = 2   # the instance's own points


def _instance_points(n: int, d: int, master_seed: int, instance: int) -> np.ndarray:
    return sample_points(n, d, substream(master_seed, _stream_id(instance, 0, _ROLE_POINTS)))


def _tour_lengths(n_rows: int, block_points) -> np.ndarray:
    """Exact tour lengths of n_rows point sets, TSP_INSTANCE_BLOCK per solve.

    ``block_points(start, stop)`` returns the (stop - start, n, d) points of
    rows start..stop-1.  Each tour is a column of its own in the DP, so a
    row's length does not depend on the rows solved beside it.
    """
    lengths = np.empty(n_rows)
    for start in range(0, n_rows, TSP_INSTANCE_BLOCK):
        stop = min(start + TSP_INSTANCE_BLOCK, n_rows)
        lengths[start:stop] = held_karp_batch(dist_matrix_batch(block_points(start, stop)))
    return lengths


def instance_tour_lengths(n: int, d: int, n_instances: int, master_seed: int) -> np.ndarray:
    """Exact tour lengths of instances 0..n_instances-1 of the point streams.

    Points are drawn one block at a time, so the point and distance arrays
    stay small at n_instances = 1e5.
    """
    return _tour_lengths(
        n_instances,
        lambda start, stop: np.stack(
            [_instance_points(n, d, master_seed, r) for r in range(start, stop)]
        ),
    )


@dataclass(frozen=True, eq=False)
class TspDiffs:
    """Nested-Monte-Carlo estimates of the tour-length martingale increments."""

    t_n: float
    d_hat: np.ndarray        # increment estimates, length n
    d_se: np.ndarray         # their standard errors
    level_means: np.ndarray  # conditional means, levels 0..n (level n exact)
    level_ses: np.ndarray
    e_t_ref: float           # independent estimate of E[T_n]
    e_t_ref_se: float

    @property
    def reconciliation_gap(self) -> float:
        """sum d_hat - (T_n - independent E[T_n] estimate)."""
        return float(self.d_hat.sum() - (self.t_n - self.e_t_ref))

    @property
    def reconciliation_se(self) -> float:
        return math.hypot(self.level_ses[0], self.e_t_ref_se)


def tsp_martingale_diffs(
    points: np.ndarray,
    inner_rep: int,
    master_seed: int,
    instance: int = 0,
) -> TspDiffs:
    """Estimate d_i = E[T_n | first i points] - E[T_n | first i-1 points].

    Each conditional mean fixes the first i points and redraws the rest
    uniformly, solving an exact tour per resample.  Means at adjacent levels
    share no draws, and E[T_n] is re-estimated from a separate substream so
    the telescoped sum can be reconciled against T_n - E[T_n] statistically.

    All tours of the instance are solved as one batch: row 0 is the instance
    itself (T_n), then inner_rep resamples for each of levels 0..n-1 and for
    the reference estimate, each level drawn from its own substream.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    check_tsp_size(n, inner_rep)
    batch = np.empty((1 + (n + 1) * inner_rep, n, d))
    batch[0] = pts
    slots = batch[1:].reshape(n + 1, inner_rep, n, d)
    for slot, (i, role) in enumerate([(i, _ROLE_LEVEL) for i in range(n)] + [(0, _ROLE_REF)]):
        rng = substream(master_seed, _stream_id(instance, i, role))
        slots[slot, :, :i] = pts[:i]
        slots[slot, :, i:] = rng.random((inner_rep, n - i, d))
    lengths = _tour_lengths(len(batch), lambda start, stop: batch[start:stop])
    per_slot = lengths[1:].reshape(n + 1, inner_rep)
    means = [float(row.mean()) for row in per_slot]
    ses = [float(row.std(ddof=1) / math.sqrt(inner_rep)) for row in per_slot]
    t_n = float(lengths[0])
    level_means = np.array(means[:n] + [t_n])
    level_ses = np.array(ses[:n] + [0.0])
    e_t_ref, e_t_ref_se = means[n], ses[n]
    d_hat = np.diff(level_means)
    d_se = np.sqrt(level_ses[1:] ** 2 + level_ses[:-1] ** 2)
    return TspDiffs(
        t_n=t_n,
        d_hat=d_hat,
        d_se=d_se,
        level_means=level_means,
        level_ses=level_ses,
        e_t_ref=e_t_ref,
        e_t_ref_se=e_t_ref_se,
    )


@dataclass(frozen=True, eq=False)
class TspVerification:
    """Bounds and Monte Carlo estimates per grid t, and the run's window."""

    c1: float
    window: tuple[float, float]
    window_hits: int         # instances inside the window
    bounds: list
    estimates: list
    sign_positive: int       # d_hat significantly > 0 at 2 SE
    sign_negative: int
    sign_indeterminate: int
    recon_pass_fraction: float


def verify_tsp(
    n: int,
    d: int,
    t_grid,
    n_instances: int,
    inner_rep: int,
    gamma: float,
    master_seed: int,
    c1: float | None = None,
) -> TspVerification:
    """Windowed self-normalized deviation check for the centered tour length.

    The window scale c1 is calibrated, unless given, as the smallest constant
    whose window [c1 n^{1/2-1/d}, c1 n^{1/2}] contains at least one sampled
    instance, i.e. min_r sqrt(sum_i d_i^2) / sqrt(n).
    """
    if n_instances < 2:
        raise ValueError(f"need at least 2 instances, got {n_instances}")
    instances = [
        tsp_martingale_diffs(
            _instance_points(n, d, master_seed, r), inner_rep, master_seed, instance=r
        )
        for r in range(n_instances)
    ]
    tour_lengths = np.array([inst.t_n for inst in instances])
    root_sq_sums = np.array([math.sqrt(float(np.sum(inst.d_hat ** 2))) for inst in instances])
    e_t_pooled = float(np.mean([inst.e_t_ref for inst in instances]))

    pos = sum(int(np.count_nonzero(inst.d_hat > 2.0 * inst.d_se)) for inst in instances)
    neg = sum(int(np.count_nonzero(inst.d_hat < -2.0 * inst.d_se)) for inst in instances)
    recon_pass = sum(
        1
        for inst in instances
        if abs(inst.reconciliation_gap) <= 3.0 * inst.reconciliation_se
    )

    if c1 is None:
        c1 = float(root_sq_sums.min() / math.sqrt(n))
    lo = c1 * n ** (0.5 - 1.0 / d)
    hi = c1 * math.sqrt(n)
    # closed window widened by a relative 1e-12 (thousands of ulps), so the
    # rounding of c1 and of lo, hi cannot put the calibrating instance outside
    tol = 1e-12
    in_window = (root_sq_sums >= lo * (1.0 - tol)) & (root_sq_sums <= hi * (1.0 + tol))
    ratios = (tour_lengths - e_t_pooled) / root_sq_sums
    hits = [int(np.count_nonzero((ratios >= t) & in_window)) for t in t_grid]
    bounds = [evaluate_bound("thm34_tsp", t=float(t), n=n, d=d) for t in t_grid]
    return TspVerification(
        c1=c1,
        window=(lo, hi),
        window_hits=int(np.count_nonzero(in_window)),
        bounds=bounds,
        estimates=[MCEstimate.from_hits(h, n_instances, gamma) for h in hits],
        sign_positive=pos,
        sign_negative=neg,
        sign_indeterminate=n * n_instances - pos - neg,
        recon_pass_fraction=recon_pass / n_instances,
    )

