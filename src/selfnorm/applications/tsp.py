"""Random Euclidean TSP instances: exact tours, nested conditional means, and
windowed self-normalized deviation checks for the centered tour length."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..bounds import evaluate_bound
from ..montecarlo import MCEstimate, closed_ge
from ..processes import substream

__all__ = [
    "HELD_KARP_CAP",
    "check_tsp_size",
    "held_karp",
    "held_karp_batch",
    "sample_points",
    "dist_matrix",
    "dist_matrix_batch",
    "TspDiffs",
    "tsp_martingale_diffs",
    "TspVerification",
    "verify_tsp",
]

HELD_KARP_CAP = 12

# The most distance matrices (DP table columns) held_karp_batch solves side
# by side.
TSP_INSTANCE_BLOCK = 2048

# Candidate rows (s - 1 per DP row filled) that one held_karp_batch step
# gathers at most, unless a single set needs more: about 2**15 values
# (256 KB) at the ~1,000 columns of a nested TSP call.
HELD_KARP_STEP_ROWS = 32


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


@lru_cache(maxsize=None)
def _transition_plan(tours: tuple, size: int):
    """Flattened-index DP schedule for tours over shared (size, size)
    distance matrices, built once per set of tours.

    Distance row ``k * size + j`` holds the distance from point k to point j.
    A DP state is the shortest path from a tour's start through a set of its
    points ending at one of them, keyed by (start, set, end): tours that
    share a start and a set share the state, which is computed once.  The
    states of s-point sets form layer s, and layer s + 1 reads only layer s,
    so odd and even layers take turns in two regions of the table.  Layer 1
    is filled from distance rows ``base``; then each layer of s >= 2 points
    is filled in steps of G consecutive sets, whose G * s rows are
    contiguous.  The step ``(first, src, kj)`` fills rows ``first ..
    first + G * s - 1``, one per (set, end j), from an (s - 1, G * s)
    candidate block: the column of (set, j) pairs DP row (set - j, k) in
    ``src`` with distance row (k, j) in ``kj``, one per other member k.  A
    step holds as many sets as fit in HELD_KARP_STEP_ROWS candidate rows,
    and at least one.  Row l of ``finals`` and ``closing`` holds tour l's
    rows over all its points and the distances from each end back to its
    start.
    """
    layers = [{} for _ in tours[0][1:]]  # layers[s - 1]: (start, set) -> members
    for start, *rest in tours:
        for s, layer in enumerate(layers, 1):
            for members in itertools.combinations(rest, s):
                layer.setdefault((start, sum(1 << j for j in members)), members)
    sizes = [s * len(layer) for s, layer in enumerate(layers, 1)]
    region = (0, max(sizes[0::2]))  # odd layers from row 0, even ones after them
    rows = {}
    for s, layer in enumerate(layers, 1):
        row = region[s % 2 == 0]
        for (start, mask), members in layer.items():
            for j in members:
                rows[start, mask, j] = row
                row += 1
    base = np.array([start * size + j for (start, _), (j,) in layers[0].items()])
    steps = []
    for s, layer in enumerate(layers[1:], 2):
        sets = list(layer.items())
        per_step = max(1, HELD_KARP_STEP_ROWS // ((s - 1) * s))
        for g in range(0, len(sets), per_step):
            src, kj = [], []  # one list of s - 1 candidates per filled row
            for (start, mask), members in sets[g : g + per_step]:
                for j in members:
                    others = [k for k in members if k != j]
                    src.append([rows[start, mask ^ 1 << j, k] for k in others])
                    kj.append([k * size + j for k in others])
            (start, mask), members = sets[g]
            steps.append((rows[start, mask, members[0]],
                          np.array(src).T.copy(), np.array(kj).T.copy()))
    full = [(start, sum(1 << j for j in rest), rest) for start, *rest in tours]
    finals = np.array([[rows[start, mask, j] for j in rest] for start, mask, rest in full])
    closing = np.array([[j * size + start for j in rest] for start, _, rest in full])
    return region[1] + max(sizes[1::2], default=0), base, steps, finals, closing


def held_karp_batch(dists: np.ndarray, tours=None) -> np.ndarray:
    """Exact lengths of tours over a batch of distance matrices.

    ``dists`` has shape (B, P, P); ``tours`` is an (L, n) array of point ids
    into each matrix, by default the one tour through all P points.  The
    result is flat, of length L * B: tour l of matrix b at ``l * B + b``.
    Tour l of matrix b is the tour of the points ``tours[l]`` in that order,
    so its first point is the start.

    Each chunk of at most TSP_INSTANCE_BLOCK matrices shares one DP table,
    whose rows are shared by every tour that reaches the same (start, set,
    end) state; the chunk shrinks so that the table holds at most 2**23
    values (64 MB).  Each step fills a group of same-size sets: the gathered
    DP candidates plus their distances, reduced by min over the previous
    point.  A step costs about 9 us of Python however few rows it gathers,
    and gathers much past cache size run slower, so steps group sets up to
    HELD_KARP_STEP_ROWS candidate rows.  A row is the exact minimum of the same single
    additions that the dict DP of ``tests/reference.py`` compares on the
    tour's own submatrix, however its step is grouped, so every length
    equals that reference length bit for bit.
    """
    dists = np.asarray(dists, dtype=float)
    batch, size = dists.shape[0], dists.shape[1]
    tours = np.arange(size)[None] if tours is None else np.asarray(tours)
    check_tsp_size(tours.shape[1])
    n_rows, base, steps, finals, closing = _transition_plan(
        tuple(map(tuple, tours.tolist())), size
    )
    chunk = min(TSP_INSTANCE_BLOCK, 2 ** 23 // n_rows)
    out = np.empty((len(tours), batch))
    by_pair = dists.transpose(1, 2, 0)  # free for dist_matrix_batch's layout
    for start in range(0, batch, chunk):
        # row k * size + j: distance from k to j across the chunk
        d = np.ascontiguousarray(by_pair[:, :, start : start + chunk]).reshape(size * size, -1)
        dp = np.empty((n_rows, d.shape[1]))
        dp[: len(base)] = d[base]
        for first, src, kj in steps:
            cand = dp[src]
            cand += d[kj]
            cand.min(axis=0, out=dp[first : first + cand.shape[1]])
        out[:, start : start + d.shape[1]] = (dp[finals] + d[closing]).min(axis=1)
    return out.reshape(-1)


def held_karp(dist: np.ndarray) -> float:
    """Exact shortest closed tour length over one distance matrix, the
    one-matrix case of ``held_karp_batch``."""
    return float(held_karp_batch(np.asarray(dist, dtype=float)[None])[0])


def _stream_id(instance: int, role: int) -> int:
    # role < 4; instances lie 256 ids apart, the layout that every instance's
    # points, and so the pinned TSP reports, are drawn from
    return (instance << 8) | role


_ROLE_LEVEL = 0    # the resamples shared by all levels of the nested estimate
_ROLE_REF = 1      # independent reference estimate of E[T_n]
_ROLE_POINTS = 2   # the instance's own points


def _instance_points(n: int, d: int, master_seed: int, instance: int) -> np.ndarray:
    return sample_points(n, d, substream(master_seed, _stream_id(instance, _ROLE_POINTS)))


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
    uniformly, solving an exact tour per resample.  The levels share their
    draws (common random numbers): replicate r resamples all n points once,
    as Z^r, and level i uses (X_0..X_{i-1}, Z^r_i..Z^r_{n-1}), so adjacent
    levels differ in one point and d_se is the standard error of the paired
    differences T_i^r - T_{i-1}^r (with T_n^r = T_n).  E[T_n] is
    re-estimated from a separate substream so the telescoped sum can be
    reconciled against T_n - E[T_n] statistically.

    The n level tours of replicate r are tours over the 2n points
    (X; Z^r), solved in one ``held_karp_batch`` call that computes the DP
    states they share once.  A second call solves the instance itself (T_n)
    and the reference resamples.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    check_tsp_size(n, inner_rep)

    def resamples(role: int) -> np.ndarray:
        return substream(master_seed, _stream_id(instance, role)).random((inner_rep, n, d))

    shared = resamples(_ROLE_LEVEL)
    stack = np.concatenate([np.broadcast_to(pts, shared.shape), shared], axis=1)
    ids = np.arange(n)
    tours = np.where(ids < ids[:, None], ids, ids + n)  # row i: X ids below i, Z ids from i
    levels = held_karp_batch(dist_matrix_batch(stack), tours).reshape(n, inner_rep)
    ref = np.concatenate([pts[None], resamples(_ROLE_REF)])  # row 0 gives T_n
    ref_lengths = held_karp_batch(dist_matrix_batch(ref))
    t_n = float(ref_lengths[0])
    per_slot = list(levels) + [ref_lengths[1:]]
    means = [float(row.mean()) for row in per_slot]
    ses = [float(row.std(ddof=1) / math.sqrt(inner_rep)) for row in per_slot]
    level_means = np.array(means[:n] + [t_n])
    level_ses = np.array(ses[:n] + [0.0])
    e_t_ref, e_t_ref_se = means[n], ses[n]
    paired = np.diff(levels, axis=0, append=t_n)  # T_i^r - T_{i-1}^r, T_n^r = T_n
    return TspDiffs(
        t_n=t_n,
        d_hat=np.diff(level_means),
        d_se=paired.std(axis=1, ddof=1) / math.sqrt(inner_rep),
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
    # closed events, so the rounding of c1 and of lo, hi cannot put the
    # calibrating instance outside the window
    in_window = closed_ge(root_sq_sums, lo) & closed_ge(-root_sq_sums, -hi)
    ratios = (tour_lengths - e_t_pooled) / root_sq_sums
    hits = [int(np.count_nonzero(closed_ge(ratios, t) & in_window)) for t in t_grid]
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

