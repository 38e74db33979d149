"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria 3-9 stash their canonical reports; criterion 10 re-runs
every stashed experiment at a different worker count and demands
byte-identical output.
"""

import math
import re
import time

import numpy as np

from selfnorm.bounds import evaluate_bound, f_rate, psi
from selfnorm.experiments import load_spec, render_report, run_experiment
from selfnorm.processes import CenteredPareto, substream
from selfnorm.applications.student import self_normalized_threshold

from reference import exact_supermartingale_mean_rademacher, supermartingale_check

# criterion id -> (spec dict, canonical json report) for the determinism re-run
_RERUNS: dict = {}


def _finish(name: str, failures: list, elapsed: float, budget: float, detail: str = ""):
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert not failures, f"{name}: " + "; ".join(failures)


def _run_and_stash(key: str, raw_spec: dict, failures: list):
    spec = load_spec(raw_spec)
    records = run_experiment(spec)
    _RERUNS[key] = (raw_spec, render_report(records, "json", spec=spec))
    for rec in records:
        if rec.status == "violation_evidence":
            failures.append(f"{key}: violation at {rec.experiment_id} grid {rec.grid}")
    return records


def test_c1_rate_function_identities():
    t0 = time.perf_counter()
    failures = []
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for y in (0.001, 0.01, 0.1, 1.0, 5.0):
            f = f_rate(x, y)
            ident = 0.5 * x * x * psi(x * y)
            if abs(f - ident) > 1e-10 * abs(ident):
                failures.append(f"identity off at ({x},{y}): {f} vs {ident}")
            if f < x * x / (2.0 * (1.0 + x * y / 3.0)) - 1e-12:
                failures.append(f"f below its envelope at ({x},{y})")
            if psi(x) < 1.0 / (1.0 + x / 3.0) - 1e-15:
                failures.append(f"psi below envelope at {x}")
    _finish("C1 rate-function identities", failures, time.perf_counter() - t0, 1.0)


def test_c2_bound_ordering():
    t0 = time.perf_counter()
    failures = []
    grid = (0.5, 1.0, 2.0, 4.0, 8.0)
    for x in grid:
        for L in grid:
            for a in grid:
                dvz = evaluate_bound("dvz", x=x, L=L, a_bnd=a)
                fr = evaluate_bound("freedman", x=x, L=L, a_bnd=a)
                if dvz > fr + 1e-15:
                    failures.append(f"dvz above freedman at ({x},{L},{a})")
    _finish("C2 bound ordering (125 points)", failures, time.perf_counter() - t0, 1.0)


def test_c3_exact_oracle_domination():
    t0 = time.perf_counter()
    failures = []
    xs = [0.25, 0.5, 1.0, 1.5]
    for n in (5, 8, 10):
        root = math.sqrt(n)
        suites = {
            f"c3-cor21_point-n{n}": {
                "id": f"c3-cor21-n{n}", "theorem": "cor21_point", "n": n,
                "model": {"family": "rademacher"},
                "grids": {"x": xs, "y": [0.5 * n, 0.75 * n, 1.0 * n, 1.25 * n]},
            },
            f"c3-cor21_expectation-n{n}": {
                "id": f"c3-cor21exp-n{n}", "theorem": "cor21_expectation", "n": n,
                "model": {"family": "rademacher"}, "grids": {"x": xs},
            },
            f"c3-thm25-n{n}": {
                "id": f"c3-thm25-n{n}", "theorem": "thm25_peeling", "n": n,
                "model": {"family": "rademacher"},
                "grids": {"x": xs, "b": [0.8 * root, root], "M": [1.0, 1.5, 2.0]},
            },
            f"c3-dlp15-n{n}": {
                "id": f"c3-dlp15-n{n}", "theorem": "dlp_point", "n": n,
                "model": {"family": "rademacher"},
                "grids": {"x": xs, "y": [0.5 * n, 1.0 * n, 1.5 * n]},
            },
            f"c3-bt18-n{n}": {
                "id": f"c3-bt18-n{n}", "theorem": "bercu_touati", "n": n,
                "model": {"family": "rademacher"},
                "grids": {"x": xs, "y": [0.5 * n, 1.0 * n],
                          "a": [0.0, 0.5], "b": [1.0 / n, 2.0 / n]},
            },
        }
        for key, raw in suites.items():
            raw.update({"mode": "exact_oracle", "master_seed": 101})
            records = _run_and_stash(key, raw, failures)
            for rec in records:
                if rec.exact is None:
                    failures.append(f"{key}: missing exact value")
    _finish("C3 exact-oracle domination", failures, time.perf_counter() - t0, 30.0)


def test_c3_exact_oracle_at_depth():
    # sign types make exact tails O(n), so the oracle reaches depths where the
    # bounds fall far below what plain Monte Carlo can resolve
    t0 = time.perf_counter()
    failures = []
    informative = 0
    for n in (100, 400):
        root = math.sqrt(n)
        suites = {
            "cor22_peeling": {"x": [3.0, 4.0], "b": [math.sqrt(n / 2)], "M": [4.0]},
            "thm22_peeling": {"x": [3.0, 4.0], "y": [0.5], "b": [math.sqrt(n / 2)], "M": [4.0]},
            "thm25_peeling": {"x": [4.0, 5.0], "b": [0.9 * root], "M": [1.5]},
            "thm31_tstat": {"x": [4.0, 5.0], "b": [0.9 * root], "M": [1.5]},
            "cor21_point": {"x": [0.25, 0.5], "y": [n / 2]},
            "freedman": {"x": [3.0 * root, 4.0 * root], "L": [float(n)]},
        }
        for theorem, grids in suites.items():
            key = f"c3-depth-{theorem}-n{n}"
            records = _run_and_stash(key, {
                "id": key, "theorem": theorem, "n": n, "model": {"family": "rademacher"},
                "grids": grids, "mode": "exact_oracle",
            }, failures)
            hits = sum(rec.bound < 1.0 and rec.exact > 0.0 for rec in records)
            if not hits:
                failures.append(f"{key}: no informative record")
            informative += hits
    _finish("C3 exact oracle at n = 100 and 400", failures, time.perf_counter() - t0, 30.0,
            f"informative={informative}")


def test_c4_supermartingale_certificates():
    t0 = time.perf_counter()
    failures = []
    for lam in (0.1, 0.5, 1.0):
        for y in (0.0, 0.5, 1.0):
            mean = exact_supermartingale_mean_rademacher(10, lam, y)
            if mean > 1.0 + 1e-12:
                failures.append(f"exact U mean {mean} > 1 at lam={lam}, y={y}")
    verdict = supermartingale_check(
        "V", CenteredPareto(beta_tail=1.9), 20, 0.3, beta=1.5,
        n_rep=100_000, gamma=0.99, master_seed=404,
    )
    _RERUNS["c4-v-certificate"] = ("v-check", verdict)
    if verdict.status != "pass":
        failures.append(
            f"V certificate mean {verdict.estimate.mean} - 3se > 1 "
            f"(se {verdict.estimate.se})"
        )
    detail = f"V mean={verdict.estimate.mean:.4f} se={verdict.estimate.se:.4f}"
    _finish("C4 supermartingale certificates", failures, time.perf_counter() - t0, 60.0, detail)


def test_c5_truncated_bracket_peeling():
    t0 = time.perf_counter()
    failures = []
    for model in ({"family": "bounded_above", "y_cap": 1.0}, {"family": "rademacher"}):
        fam = model["family"]
        _run_and_stash(
            f"c5-thm22-{fam}",
            {
                "id": f"c5-thm22-{fam}", "theorem": "thm22_peeling", "n": 100,
                "model": model,
                "grids": {"x": [0.5, 1.0, 1.5, 2.0], "y": [1.0], "b": ["p10"],
                          "M": [1.0, 2.0, 4.0]},
                "n_rep": 100_000, "master_seed": 505,
            },
            failures,
        )
        _run_and_stash(
            f"c5-cor22-{fam}",
            {
                "id": f"c5-cor22-{fam}", "theorem": "cor22_peeling", "n": 100,
                "model": model,
                "grids": {"x": [0.5, 1.0, 1.5, 2.0], "b": ["p10"], "M": [1.0, 2.0, 4.0]},
                "n_rep": 100_000, "master_seed": 505,
            },
            failures,
        )
    _finish("C5 peeling bounds (Monte Carlo)", failures, time.perf_counter() - t0, 300.0)


def test_c6_heavy_tail_regime():
    t0 = time.perf_counter()
    failures = []
    records = _run_and_stash(
        "c6-thm23",
        {
            "id": "c6-thm23", "theorem": "thm23_expectation", "n": 50,
            "model": {"family": "centered_pareto", "beta_tail": 1.9},
            "grids": {"x": [0.5, 1.0], "beta": [1.5]},
            "n_rep": 100_000, "master_seed": 606,
        },
        failures,
    )
    for rec in records:
        if rec.ci_lo > rec.bound + 1e-12:
            failures.append(f"thm23 ci_lo {rec.ci_lo} above optimized bound {rec.bound}")
    _run_and_stash(
        "c6-thm24",
        {
            "id": "c6-thm24", "theorem": "thm24_peeling", "n": 50,
            "model": {"family": "centered_pareto", "beta_tail": 1.9},
            "grids": {"x": [0.5, 1.0], "beta": [1.5], "b": ["p10"], "M": [2.0]},
            "n_rep": 100_000, "master_seed": 606,
        },
        failures,
    )
    _finish("C6 heavy-tail bracket bounds", failures, time.perf_counter() - t0, 300.0)


def test_c7_t_statistic_rewriting():
    t0 = time.perf_counter()
    failures = []
    n = 20
    xs = substream(707, 0).standard_normal((100_000, n))
    s = xs.sum(axis=1)
    root = np.sqrt((xs ** 2).sum(axis=1))
    mean = xs.mean(axis=1)
    t_stat = math.sqrt(n) * mean / np.sqrt(((xs - mean[:, None]) ** 2).sum(axis=1) / (n - 1))
    for x in (0.5, 1.0, 2.0):
        lhs = t_stat >= x
        rhs = s / root >= self_normalized_threshold(x, n)
        disagreements = int(np.count_nonzero(lhs != rhs))
        if disagreements:
            failures.append(f"event rewriting differs on {disagreements} samples at x={x}")
    for nn in (5, 20, 100):
        for x in (0.5, 1.0, 2.0):
            for M in (1.0, 2.0, 4.0):
                lhs = evaluate_bound("thm31_tstat", x=x, n=nn, M=M)
                rhs = evaluate_bound("thm25_peeling", x=self_normalized_threshold(x, nn), M=M)
                if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
                    failures.append(f"t bound mismatch at (x={x}, n={nn}, M={M})")
    _finish("C7 t-statistic event rewriting", failures, time.perf_counter() - t0, 30.0)


def test_c8_regression_bounds():
    t0 = time.perf_counter()
    failures = []
    noise = {"family": "scaled_two_point", "p_up": 0.5, "up": 0.1, "down": -0.1}
    for thm in ("thm32_regression", "thm33_regression"):
        _run_and_stash(
            f"c8-{thm}",
            {
                "id": f"c8-{thm}", "theorem": thm, "n": 50, "model": noise,
                "phi": "uniform", "theta": 1.0,
                "grids": {"x": [0.2, 0.5, 1.0]},
                "n_rep": 100_000, "master_seed": 808,
            },
            failures,
        )
    records = _run_and_stash(
        "c8-oracle",
        {
            "id": "c8-oracle", "theorem": "thm32_regression", "n": 12, "model": noise,
            "phi": "ones", "theta": 0.0, "mode": "both",
            "grids": {"x": [0.05, 0.1]},
            "n_rep": 100_000, "master_seed": 808,
        },
        failures,
    )
    for rec in records:
        if rec.exact is None:
            failures.append("oracle variant missing exact value")
        elif not rec.ci_lo <= rec.exact <= rec.ci_hi:
            failures.append(f"exact {rec.exact} outside MC interval at x={rec.x}")
    _finish("C8 regression deviation bounds", failures, time.perf_counter() - t0, 300.0)


def test_c9_tsp_window_bound():
    t0 = time.perf_counter()
    failures = []
    records = _run_and_stash(
        "c9-thm34",
        {
            "id": "c9-thm34", "theorem": "thm34_tsp", "n": 10, "d": 2,
            "grids": {"t": [0.1, 2.0, 4.0]},
            "n_rep": 200, "inner_rep": 2000, "master_seed": 909,
        },
        failures,
    )
    note = records[0].note
    recon = re.search(r"recon_pass=([0-9.]+)", note)
    signs = re.search(r"d_sign \+(\d+)/-(\d+)/\?(\d+)", note)
    if recon is None or signs is None:
        failures.append(f"summary note malformed: {note!r}")
    else:
        frac = float(recon.group(1))
        if frac < 0.95:
            failures.append(f"reconciliation pass fraction {frac} < 0.95")
        total = sum(int(g) for g in signs.groups())
        if total != 10 * 200:
            failures.append(f"sign pattern covers {total} increments, expected 2000")
    detail = f"recon={recon.group(1) if recon else '?'} signs={signs.groups() if signs else '?'}"
    _finish("C9 TSP windowed deviation", failures, time.perf_counter() - t0, 1200.0, detail)


def test_c10_deterministic_reruns():
    t0 = time.perf_counter()
    failures = []
    if not _RERUNS:
        failures.append("no stashed runs to replay (criteria 3-9 must run first)")
    for key, (raw, expected) in sorted(_RERUNS.items()):
        if key == "c4-v-certificate":
            verdict = supermartingale_check(
                "V", CenteredPareto(beta_tail=1.9), 20, 0.3, beta=1.5,
                n_rep=100_000, gamma=0.99, master_seed=404,
            )
            if verdict != expected:
                failures.append("V certificate re-run differs")
            continue
        spec = load_spec(raw)
        text = render_report(run_experiment(spec, jobs=3), "json", spec=spec)
        if text != expected:
            failures.append(f"{key}: report differs across re-runs/worker counts")
    _finish(
        "C10 byte-identical re-runs", failures, time.perf_counter() - t0, 1800.0,
        f"replayed {len(_RERUNS)} runs at jobs=3",
    )
