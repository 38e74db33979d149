"""Workload definitions: the specs each workload sends, built from a seed.

Every workload is a fixed list of experiment specs.  The benchmark seed
replaces each spec's ``master_seed``; nothing else depends on it, so the
amount of work per pass is the same on every seed.

Passes are kept to about 2-4 s so that a run of ``--seconds`` holds several
of them for a steady median.  The Monte Carlo specs therefore draw 25,000
replicates instead of 1e5.  The same layers dominate at both sizes, though
their shares move: on mc_diff, sampling takes 73 % and brackets 25 % of a
traced pass at 25,000 replicates, against 65 % and 34 % at 1e5.  The TSP spec keeps 100 instances
(validation needs ``n_rep >= 100``) and 1000 inner tours, but uses n = 7
instead of 8: at n = 8 one pass takes about 10 s.

Seed 1 is the default.  Seed 4242 was never run while the benchmark was
written; re-check claims on it.
"""

from __future__ import annotations

import copy
import math

DEFAULT_SEED = 1

TWO_POINT_NOISE = {"family": "scaled_two_point", "p_up": 0.5, "up": 0.1, "down": -0.1}

WORKLOADS = {
    "mc_diff": {
        "stresses": ["processes.sample", "processes.bracket", "montecarlo.event",
                     "montecarlo.cp", "bounds.eval"],
        "bypasses": ["montecarlo.enumerate", "montecarlo.optimize",
                     "applications.regression", "applications.tsp"],
        "specs": [
            {
                "id": "c5-thm22-bounded-above",
                "theorem": "thm22_peeling",
                "n": 100,
                "model": {"family": "bounded_above", "y_cap": 1.0},
                "grids": {"x": [0.5, 1.0, 1.5, 2.0], "y": [1.0], "b": ["p10"],
                          "M": [1.0, 2.0, 4.0]},
                "n_rep": 25_000,
            },
            {
                "id": "c6-thm24-pareto",
                "theorem": "thm24_peeling",
                "n": 50,
                "model": {"family": "centered_pareto", "beta_tail": 1.9},
                "grids": {"x": [0.5, 1.0], "beta": [1.5], "b": ["p10"], "M": [2.0]},
                "n_rep": 25_000,
            },
        ],
    },
    "regression": {
        "stresses": ["applications.regression", "montecarlo.optimize",
                     "montecarlo.cp", "bounds.eval"],
        "bypasses": ["processes.sample", "processes.bracket", "montecarlo.event",
                     "montecarlo.enumerate", "applications.tsp"],
        "specs": [
            {
                "id": "c8-thm32-regression",
                "theorem": "thm32_regression",
                "n": 50,
                "model": TWO_POINT_NOISE,
                "phi": "uniform",
                "grids": {"x": [0.2, 0.5, 1.0]},
                "n_rep": 25_000,
            },
            {
                "id": "c8-thm33-regression",
                "theorem": "thm33_regression",
                "n": 50,
                "model": TWO_POINT_NOISE,
                "phi": "uniform",
                "grids": {"x": [0.2, 0.5, 1.0]},
                "n_rep": 25_000,
            },
        ],
    },
    "oracle_exact": {
        "stresses": ["montecarlo.enumerate", "montecarlo.event",
                     "montecarlo.optimize", "bounds.eval"],
        "bypasses": ["processes.sample", "processes.bracket", "montecarlo.cp",
                     "applications.regression", "applications.tsp"],
        "specs": [
            {
                "id": "c3-thm21-point",
                "theorem": "thm21_point",
                "n": 20,
                "model": {"family": "rademacher"},
                "grids": {"x": [0.2, 0.4], "y": [0.0, 0.5], "z": [7.0, 12.0]},
                "mode": "exact_oracle",
            },
            {
                "id": "c3-cor21-expectation",
                "theorem": "cor21_expectation",
                "n": 20,
                "model": {"family": "rademacher"},
                "grids": {"x": [0.1, 0.3]},
                "mode": "exact_oracle",
            },
        ],
    },
    "tsp_nested": {
        "stresses": ["applications.tsp", "montecarlo.cp", "bounds.eval"],
        "bypasses": ["processes.sample", "processes.bracket", "montecarlo.event",
                     "montecarlo.optimize", "montecarlo.enumerate",
                     "applications.regression"],
        "specs": [
            {
                "id": "c9-thm34-tsp",
                "theorem": "thm34_tsp",
                "n": 7,
                "d": 2,
                "grids": {"t": [2.0, 4.0]},
                "n_rep": 100,
                "inner_rep": 1000,
            },
        ],
    },
}

# sha256 of each oracle_exact report rendered as JSON with master_seed 0.
# Exact enumeration draws no random numbers, so only the echoed seed differs
# between seeds; the check re-renders with seed 0 before hashing.
ORACLE_DIGESTS = {
    "c3-thm21-point": "db9a301e93401e8676a640454e0d5e5a92d631ddf8b665cc721b894e18c5fbe9",
    "c3-cor21-expectation": "5e0fdaa5d2be90fb57393422422bbde7fc998ece3cfbaa05d078ab7770b1e8ca",
}


def build_specs(workload: str, seed: int) -> list[dict]:
    """The workload's specs with ``master_seed`` set to ``seed``."""
    specs = copy.deepcopy(WORKLOADS[workload]["specs"])
    for raw in specs:
        raw["master_seed"] = seed
    return specs


def expected_records(raw: dict) -> int:
    """Record count of a spec's grid: one per grid point, two for thm21_point."""
    points = math.prod(len(values) for values in raw["grids"].values())
    return 2 * points if raw["theorem"] == "thm21_point" else points
