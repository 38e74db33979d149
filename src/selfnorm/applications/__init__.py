from .student import self_normalized_threshold
from .regression import (
    regression_batch,
    verify_regression,
    exact_regression_records,
)
from .tsp import (
    held_karp,
    held_karp_batch,
    tsp_martingale_diffs,
    verify_tsp,
)

__all__ = [
    "self_normalized_threshold",
    "regression_batch",
    "verify_regression",
    "exact_regression_records",
    "held_karp",
    "held_karp_batch",
    "tsp_martingale_diffs",
    "verify_tsp",
]
