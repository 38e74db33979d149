"""Spec validation, experiment orchestration determinism, reports, and the CLI."""

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from selfnorm import cli, experiments, montecarlo
from selfnorm.applications import regression, tsp
from selfnorm.bounds import BOUND_KINDS, evaluate_bound
from selfnorm.cli import main
from selfnorm.experiments import (
    CSV_COLUMNS,
    UNTESTED_DEPTH_FACTOR,
    SpecValidationError,
    load_report,
    load_spec,
    render_report,
    run_experiment,
)
from selfnorm.montecarlo import P_SEARCH_WINDOW, TailEvent, evaluate_event, exact_tail_rademacher
from selfnorm.processes import BatchStats, sample_batch


def _spec(**overrides):
    base = {
        "id": "t",
        "theorem": "thm25_peeling",
        "n": 10,
        "model": {"family": "rademacher"},
        "grids": {"x": [0.5, 1.0], "b": [2.8], "M": [2.0]},
        "n_rep": 2000,
        "master_seed": 11,
    }
    base.update(overrides)
    return base


def _regression_spec(**grids):
    return {
        "id": "reg", "theorem": "thm33_regression", "n": 20,
        "model": {"family": "scaled_two_point", "p_up": 0.5, "up": 0.1, "down": -0.1},
        "grids": {"x": [0.5], **grids}, "n_rep": 500, "master_seed": 4,
    }


# Small grids, one per diff target; every diff target is pinned in mc and in
# exact_oracle mode (fair signs, n = 10).
_PINNED_DIFF_GRIDS = {
    "bernstein": {"z": [2.0, 4.0]},
    "freedman": {"x": [2.0], "L": [10.0, 20.0]},
    "dvz": {"x": [2.0], "L": [10.0], "a": [0.5, 1.5]},
    "dlp_point": {"x": [0.5], "y": [5.0, 8.0]},
    "cor21_point": {"x": [0.3], "y": [5.0]},
    "cor21_expectation": {"x": [0.3, 0.6]},
    "thm21_point": {"x": [0.5], "y": [0.0, 0.5], "z": [7.0]},
    "thm21_expectation": {"x": [0.3], "y": [0.5, 1.0]},
    "bercu_touati": {"x": [0.5], "y": [5.0], "a": [0.0, 1.0], "b": [0.5]},
    "thm22_peeling": {"x": [0.5, 1.0], "y": [1.0], "b": [2.0], "M": [2.0]},
    "cor22_peeling": {"x": [0.5, 1.0], "b": [2.0], "M": [2.0]},
    "thm25_peeling": {"x": [0.5, 1.0], "b": [2.8], "M": [2.0]},
    "delyon": {"x": [1.0], "y": [8.0, 12.0]},
    "thm23_expectation": {"x": [0.3], "beta": [1.5]},
    "thm24_peeling": {"x": [0.5], "beta": [1.5], "b": [5.0], "M": [2.0]},
    "thm31_tstat": {"x": [1.0, 2.0], "b": [2.8], "M": [2.0]},
}


def _pinned(theorem, grids, mode="mc", **fields):
    raw = {
        "id": f"pin-{theorem}", "theorem": theorem, "n": 10, "grids": grids,
        "model": {"family": "rademacher"}, "n_rep": 1000, "master_seed": 5, "mode": mode,
    }
    raw.update(fields)
    return raw


_NOISE = {"family": "scaled_two_point", "p_up": 0.5, "up": 0.1, "down": -0.1}
_REGRESSION_MC = {"n": 20, "model": _NOISE, "phi": "uniform", "theta": 0.5}
_REGRESSION_EXACT = {"n": 12, "model": _NOISE, "phi": "ones"}

PINNED_SPECS = {
    **{f"{thm}-mc": _pinned(thm, grids) for thm, grids in _PINNED_DIFF_GRIDS.items()},
    **{
        f"{thm}-exact": _pinned(thm, grids, "exact_oracle")
        for thm, grids in _PINNED_DIFF_GRIDS.items()
    },
    "thm22_peeling-percentile": _pinned(
        "thm22_peeling", {"x": [0.5, 1.0], "y": [1.0], "b": ["p10"], "M": [2.0]},
        model={"family": "bounded_above", "y_cap": 1.0},
    ),
    "thm24_peeling-percentile": _pinned(
        "thm24_peeling", {"x": [0.5], "beta": [1.5], "b": ["p10", "p50"], "M": [2.0]},
        model={"family": "centered_pareto", "beta_tail": 1.9},
    ),
    "thm31_tstat-percentile": _pinned(
        "thm31_tstat", {"x": [1.0], "b": ["p50"], "M": [2.0]},
        model={"family": "gaussian", "sd": 1.0},
    ),
    "thm32_regression-mc": _pinned(
        "thm32_regression", {"x": [0.02, 0.05]}, **_REGRESSION_MC
    ),
    "thm32_regression-exact": _pinned(
        "thm32_regression", {"x": [0.02, 0.05]}, "exact_oracle", **_REGRESSION_EXACT
    ),
    "thm33_regression-mc": _pinned(
        "thm33_regression", {"x": [0.1, 0.3]}, **_REGRESSION_MC
    ),
    "thm33_regression-exact": _pinned(
        "thm33_regression", {"x": [0.1, 0.3], "b": [3.0], "M": [2.0]}, "exact_oracle",
        **_REGRESSION_EXACT,
    ),
    "thm34_tsp": {
        "id": "pin-thm34", "theorem": "thm34_tsp", "n": 5, "d": 2,
        "grids": {"t": [1.0, 2.0]}, "n_rep": 100, "inner_rep": 1000, "master_seed": 3,
    },
}

# the pinned specs of diff targets in mode mc
_MC_DIFF_SPECS = [
    name for name, raw in PINNED_SPECS.items()
    if experiments.VERIFY_TARGETS[raw["theorem"]].plan and raw.get("mode", "mc") == "mc"
]

# sha256 of each pinned spec's JSON report; a change that moves any byte of
# a report fails here
PINNED_DIGESTS = {
    "bercu_touati-exact": "945fbc8234cc2a5d42838a47f1a2cee0c969a791e8dd15a84d9df106181778a6",
    "bercu_touati-mc": "634f44e52d39d17675e7b63ea670e1247e031b9696d3713be10fb9c88c414633",
    "bernstein-exact": "742d4500a9201221f67b498bfde8c99631061450f5714694309105e2a157c1a3",
    "bernstein-mc": "8087095f5df8098f059a61bf65532ff2e6129e17722dc1612fb86ec3057acf86",
    "cor21_expectation-exact": "44e1d8b73d992a178c34a0f58030615923a55c29e4700cfe913cbe61cda0dcbc",
    "cor21_expectation-mc": "96778fe6bd336a37e4d4c5bdf5df1b80481207e4b90083367203ecda23cb2c91",
    "cor21_point-exact": "2f2750ca172f970b5bfb5802bd6ca3462784d5d31c9c9cc8949b4e608f4f369c",
    "cor21_point-mc": "038ea0dd5dac75354dd2234426bd3194fed94074b53b9601fba1c11a8c9af2f6",
    "cor22_peeling-exact": "ea62064450fa2cd2a7800b3a7a52c2789a0b7d00ded82dd4be57dc570d94a4e6",
    "cor22_peeling-mc": "e10e81f7a14e1739b363138690d798830ce283eaa96f308f7fce0d504ef63d8c",
    "delyon-exact": "17b703e2f45b876c3c8df488b49213b6063cfe08499cef4b7a1947d8a298fa86",
    "delyon-mc": "2f9fffd1bd7db12375ca7d6262b9cdd1d7defcf83ffbd4c1a06b8fc9deb86299",
    "dlp_point-exact": "9cdb967a450091b353e9af9116e63f93a3f5820168c7f74b3dbd368aadbe74e3",
    "dlp_point-mc": "deefefa8e0bf01d849cb348dbfa7aae7d682d61e0d62ee0ce9c88b2f790420d6",
    "dvz-exact": "d640e71d3f68b53ff2bd9b870fbbeacaa29cba919f67bc172cc3786d88e6455d",
    "dvz-mc": "b337715b3301dc58c8f4d6dfaeca0cba76a95b27ad54ba0e5ffb3eab2a977f13",
    "freedman-exact": "93c7b2874086be1feae7ef6131495b0bc1c4d5d6dca832b6c6350ec0a0b0786e",
    "freedman-mc": "68273fad6dc2cc3b3909fe7eafc231253d6a2485dbc80182d7cdfa432ab145e4",
    "thm21_expectation-exact": "e58953b35c28aa16836bce381266fb4e571dc2afb69d8bcedf87240128991b76",
    "thm21_expectation-mc": "599ebcd777e5dc5b936d9af47eb94ff5fe3e707362c8ca6d4398cb0447c3fabd",
    "thm21_point-exact": "95f9e19a1e2e18d7eeb7c82d30b256cbab3308d15984041c51dd7264650b7aa8",
    "thm21_point-mc": "46d72bee889e4c339c0a03c705dddd143baa55b3607877b0db1eb54609672e49",
    "thm22_peeling-exact": "dad1b0a0ed2ec18ea44b3e23abe0fd833f27c01bebce861ee6fd7702e87ead36",
    "thm22_peeling-mc": "a326c900772e5d75574b811b6df2c0ea8bc994cbc94b0fbe268d40fdb7daa5bd",
    "thm22_peeling-percentile": "05b64f4d10044ac05f454969911edae327def49eb93695ad7a00f08b27b63e09",
    "thm23_expectation-exact": "2b7bf4a8a8c9cf300e554024e8a13042c2402a9678b206af1da3a8ec210b7b36",
    "thm23_expectation-mc": "ae91a1cbeaa9330556e420a7b8b1fc145ee076597b353bcb6954bf0694c91d1b",
    "thm24_peeling-exact": "2ef5f88bcd8ad4597f06004753c1625662e3380b6299534618727448135b6274",
    "thm24_peeling-mc": "026d4080ef1680d783f2504df98fccebddd51b0dcb8833a4fd3e4092a8f8d972",
    "thm24_peeling-percentile": "76c936065d71a6450651400bf0408b2e0d2d82b3e3fa296ae669f2d23d2dc1a3",
    "thm25_peeling-exact": "31ae519eda5592e6251b3253c4f39a73ba9980fe02a00bd31419fc9c536858d5",
    "thm25_peeling-mc": "670d12e74216ba74f7fcb3927b8e7d53c6b1d5be1af893d15ae6973079a01cd8",
    "thm31_tstat-exact": "8c45871d2b5fbd1bc730e4f701139466ccfc3ba0f71f0220dd9194b776295418",
    "thm31_tstat-mc": "0f1feb9367bd0ded1987391235f960983645f99a5da79e34a5abb6339eca72c7",
    "thm31_tstat-percentile": "6b0cbf2f85635b6d34afe2bfb4f390f06d639e8cc2609fd82566bf53d738b981",
    "thm32_regression-exact": "9a689de0b450ea0f57e553f7a14437a36ec7d6ca291165dd26f1116f892975c5",
    "thm32_regression-mc": "9501426dad0115b29a50d9eee7f8433a3c021df2b3db3ab9c0517e9a122ca4b2",
    "thm33_regression-exact": "49c5cea0464aeacfccd863bdec17c3caac82753160f907f89406d1e3077979f0",
    "thm33_regression-mc": "0aedbd11cd84deb840edb2040217ac4d1444458492b0040fb79cc4229c0bca79",
    "thm34_tsp": "eaaf999c23cc8993d03882b43c13567ce92ea0ca966eff9c9671f701614431ac",
}


# Specs that break a rule owned by an application guard or a bound calculator:
# validation rejects them before anything runs.
_RUN_TIME_RULE_SPECS = {
    "regression-oracle-n1": _pinned(
        "thm32_regression", {"x": [0.5]}, "exact_oracle", n=1, phi="ones"
    ),
    "regression-sigma-floor": _pinned(
        "thm32_regression", {"x": [0.5]},
        model={"family": "scaled_two_point", "p_up": 0.5, "up": 1e-4, "down": -1e-4},
    ),
    "thm34-n1": {**PINNED_SPECS["thm34_tsp"], "n": 1},
    "tstat-n1": _pinned("thm31_tstat", {"x": [0.5], "b": [1.0], "M": [2.0]}, n=1),
    "delyon-y0": _pinned("delyon", {"x": [1.0], "y": [0.0]}),
    "thm23-x0": _pinned("thm23_expectation", {"x": [0.0], "beta": [1.5]}),
}


class TestLoadSpec:
    def test_minimal_spec_gets_documented_defaults(self):
        spec = load_spec({k: v for k, v in _spec().items() if k not in ("n_rep", "master_seed")})
        assert spec.gamma == 0.99
        assert spec.n_rep == 100_000
        assert spec.master_seed == 0
        assert spec.mode == "mc"

    def test_beta_outside_interval_names_field(self):
        raw = _spec(
            theorem="thm24_peeling",
            model={"family": "centered_pareto", "beta_tail": 1.9},
            grids={"x": [1.0], "beta": [2.5], "b": [1.0], "M": [2.0]},
        )
        with pytest.raises(SpecValidationError) as err:
            load_spec(raw)
        assert any("grids.beta" in e and "(1, 2)" in e for e in err.value.errors)

    def test_enumeration_cap_enforced(self):
        with pytest.raises(SpecValidationError) as err:
            load_spec(_spec(
                theorem="cor21_expectation", n=21, mode="exact_oracle", grids={"x": [0.3]}
            ))
        assert any("capped at n = 20" in e for e in err.value.errors)

    def test_regression_oracle_is_not_capped(self):
        # the regression oracle sums n + 1 binomial weights, so only the exact
        # expectation bounds keep the enumeration cap
        raw = {**_regression_spec(), "n": 200, "mode": "exact_oracle", "phi": "ones"}
        records = run_experiment(load_spec(raw))
        assert [r.status for r in records] == ["pass"]
        assert 0.0 < records[0].exact < 1.0

    @pytest.mark.parametrize(
        "field", ["n", "n_rep", "inner_rep", "d", "master_seed", "theta", "c1", "c_const"]
    )
    def test_bool_rejected_for_integer_fields(self, field):
        # JSON true/false load as Python bools, which are ints; the numeric
        # fields reject them too, each on a target that reads it
        base = {
            "theta": _regression_spec(),
            "c1": PINNED_SPECS["thm34_tsp"],
        }.get(field, _spec())
        with pytest.raises(SpecValidationError) as err:
            load_spec({**base, field: True})
        assert any(e.startswith(f"{field}:") for e in err.value.errors)

    @pytest.mark.parametrize(
        "model",
        [
            {"family": "gaussian", "sd": math.nan},
            {"family": "scaled_two_point", "p_up": 0.5, "up": math.nan, "down": -1.0},
            {"family": "bounded_above", "y_cap": math.inf},
            {"family": "gaussian", "sd": True},
        ],
        ids=["gaussian-nan", "two_point-nan", "bounded_above-inf", "gaussian-bool"],
    )
    def test_non_finite_or_bool_model_parameter_exits_two(self, tmp_path, model):
        # json.dumps writes NaN and Infinity, which json.load reads back
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec(model=model)))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert "config error: model:" in result.output
        assert "must be finite numbers" in result.output

    @pytest.mark.parametrize(
        "field, value, base",
        [
            ("theta", math.nan, "regression"),
            ("theta", math.inf, "regression"),
            ("theta", 10 ** 400, "regression"),
            ("c1", math.inf, "thm34_tsp"),
            ("c_const", math.inf, "thm34_tsp"),
        ],
        ids=["theta-nan", "theta-inf", "theta-overflow", "c1-inf", "c_const-inf"],
    )
    def test_non_finite_spec_number_exits_two(self, tmp_path, field, value, base):
        # NaN and Infinity are not JSON numbers (RFC 8259), though json.load
        # reads them; an integer beyond the float range cannot be converted
        raw = _regression_spec() if base == "regression" else PINNED_SPECS[base]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**raw, field: value}))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert f"config error: {field}:" in result.output

    def test_minimum_replicates(self):
        assert load_spec(_spec(n_rep=100)).n_rep == 100
        with pytest.raises(SpecValidationError, match="n_rep"):
            load_spec(_spec(n_rep=50))

    def test_master_seed_must_fit_64_bits(self):
        assert load_spec(_spec(master_seed=2 ** 64 - 1)).master_seed == 2 ** 64 - 1
        with pytest.raises(SpecValidationError, match="master_seed"):
            load_spec(_spec(master_seed=2 ** 64))

    def test_all_errors_collected(self):
        raw = _spec(n_rep=5, mode="exact_oracle", gamma=2.0)
        raw["grids"] = {"x": [-1.0], "b": [0.0], "M": [2.0]}
        with pytest.raises(SpecValidationError) as err:
            load_spec(raw)
        assert len(err.value.errors) >= 4

    def test_model_precondition_checks(self):
        raw = _spec(theorem="dlp_point", model={"family": "bounded_above", "y_cap": 1.0},
                    grids={"x": [0.5], "y": [1.0]})
        with pytest.raises(SpecValidationError, match="conditionally symmetric"):
            load_spec(raw)
        raw = _spec(theorem="freedman", model={"family": "gaussian", "sd": 1.0},
                    grids={"x": [1.0], "L": [10.0]})
        with pytest.raises(SpecValidationError, match="unbounded"):
            load_spec(raw)
        raw = _spec(model={"family": "bounded_above", "y_cap": 1.0})
        with pytest.raises(SpecValidationError, match="heavy on left"):
            load_spec(raw)

    def test_rademacher_parameters_are_fixed(self):
        with pytest.raises(SpecValidationError, match="model: bad parameters for family"):
            load_spec(_spec(model={"family": "rademacher", "p_up": 0.3}))

    def test_percentile_b_requires_mc(self):
        raw = _spec(mode="exact_oracle", grids={"x": [0.5], "b": ["p10"], "M": [2.0]})
        with pytest.raises(SpecValidationError, match="percentile"):
            load_spec(raw)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown field"):
            load_spec(_spec(shape="estimator"))
        with pytest.raises(SpecValidationError, match="not used by theorem"):
            load_spec(_spec(grids={"x": [0.5], "b": [1.0], "M": [2.0], "beta": [1.5]}))

    def test_empty_grid_rejected(self):
        with pytest.raises(SpecValidationError, match="grids.x"):
            load_spec(_spec(grids={"x": [], "b": [1.0], "M": [2.0]}))

    def test_exact_oracle_needs_fair_signs(self):
        raw = _spec(mode="exact_oracle", model={"family": "gaussian", "sd": 1.0})
        with pytest.raises(SpecValidationError) as err:
            load_spec(raw)
        assert any("rademacher" in e for e in err.value.errors)

    @pytest.mark.parametrize(
        "grids, key",
        [
            ({"b": [-1.0]}, "grids.b"),
            ({"b": ["p10"]}, "grids.b"),
            ({"b": []}, "grids.b"),
            ({"b": 2.0}, "grids.b"),
            ({"b": [1.0, 2.0]}, "grids.b"),
            ({"M": [0.5]}, "grids.M"),
            ({"b": [1.0], "M": [2.0, 3.0]}, "grids.M"),
        ],
    )
    def test_regression_window_keys_validated(self, grids, key):
        with pytest.raises(SpecValidationError) as err:
            load_spec(_regression_spec(**grids))
        assert any(e.startswith(key) for e in err.value.errors)

    def test_regression_window_keys_honoured(self):
        records = run_experiment(load_spec(_regression_spec(b=[0.5], M=[3.0])))
        assert [(r.b, r.M) for r in records] == [(0.5, 3.0)]

    def test_bool_grid_values_rejected(self):
        with pytest.raises(SpecValidationError) as err:
            load_spec(_spec(grids={"x": [True], "b": [True], "M": [True]}))
        assert any(e.startswith("grids.x: value True") for e in err.value.errors)
        assert any(e.startswith("grids.M: value True") for e in err.value.errors)

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"id": "a", "theorem": "thm34_tsp", "n": 5, "grids": {"t": [1.0]},
              "n_rep": 100, "inner_rep": "x"}, "inner_rep"),
            (_spec(theorem="thm23_expectation", grids={"x": [1.0], "beta": 1.5}), "grids.beta"),
            (_spec(theorem="thm31_tstat", grids={"x": 1.0, "b": [1.0], "M": [2.0]}), "grids.x"),
        ],
    )
    def test_malformed_values_are_validation_errors(self, raw, key):
        with pytest.raises(SpecValidationError) as err:
            load_spec(raw)
        assert any(e.startswith(key) for e in err.value.errors)

    def test_tsp_constraints(self):
        raw = {
            "id": "tsp", "theorem": "thm34_tsp", "n": 14, "grids": {"t": [2.0]},
            "n_rep": 100, "inner_rep": 1000,
        }
        with pytest.raises(SpecValidationError, match="exact tours"):
            load_spec(raw)

    @pytest.mark.parametrize("value", [1.0, math.nan])
    def test_c_const_rejected(self, tmp_path, value):
        # no target reads c_const, so setting it is a config error; reports
        # echo it as null, and that echo still loads
        raw = {**PINNED_SPECS["thm34_tsp"], "c_const": value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert result.output.startswith("config error: c_const:")
        assert load_spec({**raw, "c_const": None}).c_const is None

    def test_path_is_not_a_spec(self):
        # load_spec validates a parsed spec; the CLI reads and parses spec files
        with pytest.raises(SpecValidationError, match="spec must be a JSON object"):
            load_spec("specs/cor22_rademacher.json")

    def test_model_rejected_where_no_target_reads_it(self, tmp_path):
        raw = {**PINNED_SPECS["thm34_tsp"], "model": "garbage"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert result.output == (
            "config error: model: theorem thm34_tsp reads no model; leave it out\n"
        )

    @pytest.mark.parametrize("sid", ["a,b\nc", 'a"b', "a\rb", "a\nb"])
    def test_id_that_breaks_a_csv_row_rejected(self, tmp_path, sid):
        raw = {"id": sid, "theorem": "bernstein", "n": 10, "model": {"family": "rademacher"},
               "grids": {"z": [3.0]}, "mode": "exact_oracle"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path), "--format", "csv"])
        assert result.exit_code == 2
        assert result.output.startswith("config error: id: ")

    def test_removed_target_rejected(self):
        raw = {"id": "a", "theorem": "azuma_tsp", "n": 8, "grids": {"t": [2.0]}, "n_rep": 100}
        with pytest.raises(SpecValidationError, match="'azuma_tsp' is not a verification target"):
            load_spec(raw)


class TestRunExperiment:
    def test_every_bound_kind_is_checked_by_a_target(self, monkeypatch):
        # one pinned spec per target evaluates every closed-form kind; the
        # thm23_exponent coefficient enters the thm23 objective directly
        seen = set()

        def spy(kind, /, **inputs):
            seen.add(kind)
            return evaluate_bound(kind, **inputs)

        for module in (experiments, regression, tsp):
            monkeypatch.setattr(module, "evaluate_bound", spy)
        for theorem in experiments.VERIFY_TARGETS:
            raw = next(raw for raw in PINNED_SPECS.values() if raw["theorem"] == theorem)
            run_experiment(load_spec(raw))
        assert seen == set(BOUND_KINDS) - {"thm23_exponent"}

    def test_both_mode_carries_exact_and_mc(self):
        spec = load_spec(_spec(mode="both"))
        records = run_experiment(spec)
        assert len(records) == 2
        for rec in records:
            assert rec.exact is not None
            assert rec.p_hat is not None
            assert rec.status in ("pass", "vacuous")
            assert rec.ci_lo <= rec.exact <= rec.ci_hi

    def test_both_mode_exact_tail_decides_closed_form_bound(self, monkeypatch):
        # S_10 >= 3 sqrt(10) needs ten up-steps (probability 2^-10): 100
        # replicates see no hit, while the exact tail is far above the bound
        monkeypatch.setattr(experiments, "evaluate_bound", lambda kind, /, **inputs: 1e-9)
        spec = load_spec(_spec(mode="both", n_rep=100, grids={"x": [3.0], "b": [2.8], "M": [2.0]}))
        (rec,) = run_experiment(spec)
        assert rec.hits == 0 and rec.exact == 2.0 ** -10
        assert rec.status == "violation_evidence"

    def test_both_mode_estimated_bound_keeps_mc_verdict(self):
        spec = load_spec(_spec(theorem="cor21_expectation", mode="both", grids={"x": [0.3]}))
        (rec,) = run_experiment(spec)
        assert rec.exact is not None and rec.p_hat is not None
        assert "exact tail not compared (estimated bound)" in rec.note

    def test_rerun_is_byte_identical(self):
        spec = load_spec(_spec())
        a = render_report(run_experiment(spec), "json", spec=spec)
        b = render_report(run_experiment(spec), "json", spec=spec)
        assert a == b

    def test_jobs_do_not_change_records(self):
        spec = load_spec(_spec(grids={"x": [0.25, 0.5, 1.0, 1.5], "b": [2.8], "M": [1.0, 2.0]}))
        assert run_experiment(spec, jobs=1) == run_experiment(spec, jobs=4)

    def test_orientation_split_for_pointwise_window(self):
        spec = load_spec(
            _spec(theorem="thm21_point", grids={"x": [0.5], "y": [0.0], "z": [7.0]})
        )
        records = run_experiment(spec)
        assert [r.experiment_id for r in records] == ["t:orient_ge", "t:orient_le"]
        assert all(r.bound == records[0].bound for r in records)

    def test_expectation_target_notes_sparse_depth(self):
        spec = load_spec(
            _spec(theorem="cor21_expectation", grids={"x": [0.6]}, n_rep=500)
        )
        records = run_experiment(spec)
        # With fair signs, B_n(0) = K + n/2 for K positive signs, so the ratio
        # reaches 0.6 only when all ten signs are positive: P = 2^-10, and 500
        # replicates expect about 0.5 hits, far below the depth threshold.
        event = TailEvent(x=0.6, normalizer=lambda st: st.b_n(0.0))
        assert exact_tail_rademacher(10, event) == 2.0 ** -10
        assert records[0].hits < UNTESTED_DEPTH_FACTOR
        assert "untested_depth" in records[0].note

    @pytest.mark.parametrize("mode", ["exact_oracle", "mc"])
    def test_expectation_bound_and_tail_read_one_event(self, monkeypatch, mode):
        # the bound's indicator and the tail are the plan's one TailEvent
        seen = []

        def spy(stats, event):
            seen.append(event)
            return evaluate_event(stats, event)

        monkeypatch.setattr(montecarlo, "evaluate_event", spy)
        run_experiment(load_spec(_pinned("thm21_expectation", {"x": [0.3], "y": [0.5]}, mode)))
        assert len(seen) == 2 and seen[0] is seen[1]

    @pytest.mark.parametrize("mode", ["exact_oracle", "mc", "both"])
    @pytest.mark.parametrize("n", [9, 18])
    @pytest.mark.parametrize("theorem, grids", [
        ("cor21_expectation", {}),
        ("thm21_expectation", {"y": [0.0, 0.5, 1.0]}),
        ("thm23_expectation", {"beta": [1.5]}),
    ])
    def test_expectation_bound_counts_the_tail_at_a_tie(self, theorem, grids, n, mode):
        # at n = 9 the sign type with eight +1 steps has S_n / B_n(0) = 7 / 12.5 =
        # 0.56 exactly (and G_n(1.5) = 12.5 too), but 0.56 * 12.5 rounds above 7:
        # an indicator S_n >= x * N of the bound's own dropped the type that the
        # tail counts, a false violation in every mode
        raw = _pinned(theorem, {"x": [0.56], **grids}, mode, n=n, n_rep=20_000)
        for rec in run_experiment(load_spec(raw)):
            assert rec.status == "pass", rec
            # the exact bound holds the exact tail; Monte Carlo bounds are estimates
            assert mode != "exact_oracle" or rec.exact <= rec.bound

    def test_expectation_bound_counts_the_tail_at_a_tie_in_mc(self):
        # B_25(1) = 25 on every path and 0.28 * 25 rounds above 7
        raw = _pinned("thm21_expectation", {"x": [0.28], "y": [1.0]}, n=25, n_rep=2000)
        (rec,) = run_experiment(load_spec(raw))
        assert rec.status == "pass"
        assert rec.bound >= rec.p_hat

    def test_exact_expectation_sweep_has_no_violation(self):
        # every exact expectation record on a grid of x dense enough to land
        # on the event's edge for some sign types, both brackets
        xs = [round(0.02 * i, 2) for i in range(1, 79)]
        for n in range(1, 17):
            for theorem, grids in (("thm21_expectation", {"y": [0.0, 0.5, 1.0]}),
                                   ("thm23_expectation", {"beta": [1.2, 1.5]})):
                raw = _pinned(theorem, {"x": xs, **grids}, "exact_oracle", n=n)
                for rec in run_experiment(load_spec(raw)):
                    assert rec.status != "violation_evidence", (n, rec)

    def test_percentile_b_resolution(self):
        spec = load_spec(_spec(grids={"x": [1.0], "b": ["p10"], "M": [2.0]}))
        records = run_experiment(spec)
        assert records[0].b == pytest.approx(math.sqrt(10.0), rel=1e-12)

    def test_percentile_anchor_resolved_once_per_run(self, monkeypatch):
        # the mc_diff workload's thm22 spec has 12 grid points and its thm24
        # spec 2, each with one (bracket, "p10") pair
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        calls = []
        percentile = np.percentile

        def spy(*args, **kwargs):
            calls.append(args[1])
            return percentile(*args, **kwargs)

        monkeypatch.setattr(np, "percentile", spy)
        for raw in workloads.build_specs("mc_diff", workloads.DEFAULT_SEED):
            run_experiment(load_spec(raw), jobs=1)
        assert calls == [10.0, 10.0]

    def test_pinned_grids_cover_every_diff_target(self):
        diff = {name for name, target in experiments.VERIFY_TARGETS.items() if target.plan}
        assert diff == set(_PINNED_DIFF_GRIDS)

    @pytest.mark.parametrize("name", _MC_DIFF_SPECS)
    def test_diff_target_reads_exactly_its_declared_statistics(self, monkeypatch, name):
        # the batch is reduced to the declared keys only; a plan that read
        # another key would raise, and a declared key no plan reads is waste
        declared, read = [], set()

        def spy(model, n, n_rep, master_seed, keys, jobs=1):
            declared.extend(keys)
            return sample_batch(model, n, n_rep, master_seed, keys, jobs)

        class Recording(BatchStats):
            def _column(self, key):
                read.add(key)
                return super()._column(key)

        monkeypatch.setattr(experiments, "sample_batch", spy)
        monkeypatch.setattr(experiments, "BatchStats", Recording)
        spec = load_spec(PINNED_SPECS[name])
        run_experiment(spec, jobs=2)
        assert len(declared) == len(set(declared))
        assert read == set(declared)

    def test_streamed_run_never_holds_the_path_matrix(self):
        # each block is reduced as it is drawn: the run holds the (n_rep, 3)
        # table and a few block-sized arrays, about 4 MiB, where the
        # (n_rep, n) path matrix alone would be 30.5 MiB
        n, n_rep = 100, 40_000
        raw = {"id": "memory", "theorem": "thm22_peeling", "n": n,
               "model": {"family": "bounded_above", "y_cap": 1.0},
               "grids": {"x": [0.5, 1.0], "y": [0.0, 1.0], "b": ["p10"], "M": [2.0]},
               "n_rep": n_rep, "master_seed": 3}
        spec = load_spec(raw)
        run_experiment(load_spec({**raw, "n_rep": 100}))  # imports outside the traced run
        tracemalloc.start()
        try:
            records = run_experiment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 4
        assert peak < n * n_rep * 8 / 4, peak

    def test_timing_shares_the_draw_among_records(self, monkeypatch):
        delay_ms = 200.0

        def slow(*args, **kwargs):
            time.sleep(delay_ms / 1e3)
            return sample_batch(*args, **kwargs)

        monkeypatch.setattr(experiments, "sample_batch", slow)
        grids = {"x": [0.5, 1.0], "y": [0.0], "z": [7.0]}
        spec = load_spec(_spec(theorem="thm21_point", grids=grids))
        records = run_experiment(spec, jobs=2)
        assert len(records) == 4
        assert all(rec.wall_ms >= delay_ms / 4 for rec in records)
        # the exact oracle draws nothing, so nothing is shared
        exact = run_experiment(load_spec({**_spec(), "mode": "exact_oracle"}))
        assert all(rec.wall_ms < delay_ms / 4 for rec in exact)

    @pytest.mark.parametrize("name", ["thm32_regression-mc", "thm33_regression-exact",
                                      "thm34_tsp", "thm21_point-mc"])
    def test_record_times_sum_to_at_most_the_run(self, name):
        # each record holds its share of the run, not the run's whole time;
        # thm21_point builds two records per grid point
        spec = load_spec(PINNED_SPECS[name])
        t0 = time.perf_counter()
        records = run_experiment(spec)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        assert len(records) > 1
        assert all(rec.wall_ms > 0 for rec in records)
        assert sum(rec.wall_ms for rec in records) <= elapsed_ms


class TestReports:
    def _records(self):
        spec = load_spec(_spec())
        return spec, run_experiment(spec)

    def test_single_record_csv_is_two_lines(self):
        spec = load_spec(_spec(grids={"x": [1.0], "b": [2.8], "M": [2.0]}))
        records = run_experiment(spec)
        lines = render_report(records, "csv", spec=spec).splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_json_round_trip(self, tmp_path):
        spec, records = self._records()
        path = tmp_path / "r.json"
        path.write_text(render_report(records, "json", spec=spec, include_timing=True))
        spec_echo, reloaded = load_report(path)
        assert reloaded == records
        assert spec_echo["id"] == "t"
        assert spec_echo["gamma"] == 0.99

    def test_csv_uses_17_significant_digits(self):
        spec, records = self._records()
        row = render_report(records, "csv", spec=spec).splitlines()[1].split(",")
        bound_field = row[CSV_COLUMNS.index("bound")]
        assert float(bound_field) == records[0].bound
        assert len(bound_field.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            render_report([], "csv")

    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_report_bytes_pinned(self, name):
        spec = load_spec(PINNED_SPECS[name])
        records = run_experiment(spec)
        text = render_report(records, "json", spec=spec)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[name]
        assert all(rec.wall_ms is not None and rec.wall_ms > 0 for rec in records)

    def test_csv_report_holds_plot_columns(self):
        spec, records = self._records()
        lines = render_report(records, "csv", spec=spec).splitlines()
        header = lines[0].split(",")
        for row, rec in zip(lines[1:], records):
            fields = dict(zip(header, row.split(",")))
            assert fields["theorem"] == rec.theorem
            for col in ("x", "p_hat", "ci_hi", "bound"):
                assert float(fields[col]) == getattr(rec, col)
        assert len(lines) == len(records) + 1

    def test_json_report_echoes_c_const_as_null(self):
        # the echoed spec keeps c_const, which no target reads, as null
        spec = load_spec(PINNED_SPECS["thm34_tsp"])
        text = render_report(run_experiment(spec), "json", spec=spec)
        assert '"c_const": null' in text
        assert json.loads(text)["spec"]["c_const"] is None

    def test_timing_excluded_by_default(self, tmp_path):
        spec, records = self._records()
        assert any(r.wall_ms is not None for r in records)
        text = render_report(records, "json", spec=spec)
        assert "wall_ms" not in text
        text = render_report(records, "json", spec=spec, include_timing=True)
        assert "wall_ms" in text


class TestCli:
    def _write_spec(self, tmp_path, **overrides):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec(**overrides)))
        return path

    def test_bounds_eval(self):
        runner = CliRunner()
        result = runner.invoke(main, ["bounds", "eval", "freedman", "x=1", "L=1", "a_bnd=0"])
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_bounds_eval_clamped(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["bounds", "eval", "thm34_tsp", "t=2", "n=100", "d=2", "--clamp"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_bounds_eval_every_kind(self, kind):
        # the parameter set of test_bounds' test_all_kinds_positive
        params = dict(
            x=1.5, y=0.5, z=2.0, b=1.0, M=2.0, beta=1.5, n=50, sigma=0.5,
            t=1.5, d=2, a_bnd=0.5, L=2.0,
        )
        args = [f"{name}={value}" for name, value in params.items()]
        result = CliRunner().invoke(main, ["bounds", "eval", kind, *args])
        assert result.exit_code == 0, result.output
        assert result.output == format(evaluate_bound(kind, **params), ".17g") + "\n"

    @pytest.mark.parametrize("kind", ["azuma_tsp", "dlp_pang", "thm24_peeling_conservative"])
    def test_bounds_eval_unchecked_kind_exit_two(self, kind):
        args = ["bounds", "eval", kind, "x=1.5", "t=1.5", "n=50", "d=2", "beta=1.5", "M=2"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert result.output.startswith(f"config error: unknown bound kind '{kind}'")

    def test_bounds_eval_bad_kind(self):
        runner = CliRunner()
        result = runner.invoke(main, ["bounds", "eval", "nope", "x=1"])
        assert result.exit_code != 0
        assert "unknown bound kind" in result.output

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_bounds_eval_non_finite_input_exit_two(self, t):
        args = ["bounds", "eval", "thm34_tsp", f"t={t}", "n=100", "d=2"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert result.output == (
            f"config error: evaluate_bound(thm34_tsp): t={t} must be a finite number\n"
        )

    def test_bounds_eval_bad_parameter_exit_two(self):
        runner = CliRunner()
        for args in (["x=-1", "L=1", "a_bnd=0"], ["x=1", "L", "a_bnd=0"], ["x=one"]):
            result = runner.invoke(main, ["bounds", "eval", "freedman", *args])
            assert result.exit_code == 2
            assert result.output.startswith("config error: ")

    def test_verify_writes_report_and_exit_zero(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "report.csv"
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["verify", "--spec", str(spec_path), "--format", "csv", "--out", str(out),
             "--jobs", "2"],
        )
        assert result.exit_code == 0, result.output
        assert out.exists()

    def test_verify_stdout_when_no_out(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--spec", str(spec_path), "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_unwritable_out_exit_two_before_running(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("ran before checking the output paths")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        spec_path = self._write_spec(tmp_path)
        runner = CliRunner()
        missing = tmp_path / "missing" / "r.json"
        result = runner.invoke(main, ["verify", "--spec", str(spec_path), "--out", str(missing)])
        assert result.exit_code == 2
        assert result.output.startswith(f"config error: cannot write {missing}")
        out = tmp_path / "r.json"
        out.write_text(render_report(run_experiment(load_spec(_spec())), "json"))
        result = runner.invoke(
            main, ["report", "--in", str(out), "--format", "csv", "--out", str(missing)]
        )
        assert result.exit_code == 2
        assert result.output.startswith(f"config error: cannot write {missing}")

    def test_config_error_exit_two(self, tmp_path):
        spec_path = self._write_spec(
            tmp_path, theorem="cor21_expectation", n=21, mode="exact_oracle", grids={"x": [0.3]}
        )
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert "config error" in result.output and "capped at n = 20" in result.output

    def test_unfit_integers_exit_two_before_running(self, tmp_path):
        runner = CliRunner()
        bool_n = runner.invoke(main, ["verify", "--spec", str(self._write_spec(tmp_path, n=True))])
        assert bool_n.exit_code == 2
        assert "n: required positive integer" in bool_n.output
        wide_seed = runner.invoke(
            main, ["verify", "--spec", str(self._write_spec(tmp_path)), "--seed", str(2 ** 64)]
        )
        assert wide_seed.exit_code == 2
        assert "master_seed" in wide_seed.output

    def test_bad_regression_window_exit_two(self, tmp_path):
        runner = CliRunner()
        for grids in ({"b": [-1.0]}, {"b": ["p10"]}, {"b": [1.0, 2.0], "M": [2.0, 3.0]}):
            spec_path = tmp_path / "reg.json"
            spec_path.write_text(json.dumps(_regression_spec(**grids)))
            result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
            assert result.exit_code == 2, result.output
            assert "grids." in result.output

    def test_bool_grid_values_exit_two(self, tmp_path):
        spec_path = self._write_spec(tmp_path, grids={"x": [True], "b": [2.8], "M": [2.0]})
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert "config error: grids.x: value True" in result.output

    @pytest.mark.parametrize(
        "grids",
        [
            {"x": [math.inf], "b": [2.8], "M": [2.0]},
            {"x": [0.5], "b": [2.8], "M": [math.inf]},
            {"x": [math.nan], "b": [2.8], "M": [2.0]},
        ],
        ids=["x-inf", "M-inf", "x-nan"],
    )
    def test_non_finite_grid_values_exit_two(self, tmp_path, grids):
        # json.dumps writes Infinity and NaN, which json.load reads back; both
        # break every catalogue rule, however the rule's comparison comes out
        spec_path = self._write_spec(tmp_path, grids=grids)
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        (key,) = [k for k, v in grids.items() if not math.isfinite(v[0])]
        assert f"config error: grids.{key}: value {grids[key][0]!r} must be a finite number" in (
            result.output
        )

    @pytest.mark.parametrize("name", sorted(_RUN_TIME_RULE_SPECS))
    def test_owned_rules_exit_two_at_validation(self, tmp_path, name):
        raw = _RUN_TIME_RULE_SPECS[name]
        with pytest.raises(SpecValidationError):
            load_spec(raw)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert "config error:" in result.output
        assert "internal error" not in result.output

    @pytest.mark.parametrize(
        "runner_name, raw",
        [
            ("estimate_tail_from", _spec()),
            ("verify_regression", _regression_spec()),
            ("verify_tsp", PINNED_SPECS["thm34_tsp"]),
            ("evaluate_bound", _spec()),
        ],
    )
    def test_internal_fault_is_not_a_config_error(self, tmp_path, monkeypatch, runner_name, raw):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("injected fault")

        monkeypatch.setattr(experiments, runner_name, broken)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert f"internal error: experiment {raw['id']}: " in result.output
        assert "injected fault" in result.output
        assert "config error" not in result.output

    def test_undeclared_statistic_is_an_internal_fault(self, tmp_path, monkeypatch):
        # dvz declares H_n(a); a plan that reads another bracket fails during
        # the run, naming the target and the key, and not as a config error
        target = experiments.VERIFY_TARGETS["dvz"]

        def reads_undeclared(spec, gp, model, key):
            return target.plan(spec, gp, model, ("b_n", gp["a"]))

        monkeypatch.setitem(experiments.VERIFY_TARGETS, "dvz",
                            replace(target, plan=reads_undeclared))
        raw = PINNED_SPECS["dvz-mc"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert f"internal error: experiment {raw['id']}: dvz at grid point" in result.output
        assert "statistic ('b_n', 0.5) was not declared" in result.output
        assert "config error" not in result.output

    def test_percentile_b_only_anchors_a_window(self, tmp_path):
        # bercu_touati's b is the normalizer's coefficient, not a window base
        raw = _pinned("bercu_touati", {"x": [0.5], "y": [5.0], "a": [1.0], "b": ["p10"]})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert "config error: grids.b: value 'p10' must be a finite number" in result.output
        assert "internal error" not in result.output

    def test_violation_exit_one(self, tmp_path, monkeypatch):
        # a bound fault that shrinks every bound a billionfold is refuted by the
        # data, and the run exits 1
        def shrunk(kind, /, **inputs):
            return 1e-9 * evaluate_bound(kind, **inputs)

        monkeypatch.setattr(experiments, "evaluate_bound", shrunk)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(PINNED_SPECS["bernstein-mc"]))
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path), "--format", "csv"])
        assert result.exit_code == 1
        assert "violation_evidence" in result.output

    def test_thm32_exact_n200_spec_passes_with_positive_bound(self, tmp_path):
        # at x = 0.5 the objective underflows a linear-space mean near the top of
        # the p window; a bound of 0 there was a false violation of the exact
        # tail 8.39e-13
        spec_path = Path(__file__).resolve().parents[1] / "specs" / "thm32_regression_exact_n200.json"
        out = tmp_path / "r.json"
        result = CliRunner().invoke(main, ["verify", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 0
        rec = next(r for r in load_report(out)[1] if r.x == 0.5)
        # phi = 1 makes the design the point mass n = 200 and sigma = y_xi = 1, so
        # the objective exp(-(1 - 1/p) * rate * n) falls with p: its infimum over
        # the window is at the window's top
        rate = 0.5**2 / (2.0 * (1.0 + 0.5 / 3.0))
        p_top = 1.0 + P_SEARCH_WINDOW[1]
        assert rec.bound > 0.0
        assert rec.bound == pytest.approx(2.0 * math.exp(-(1.0 - 1.0 / p_top) * rate * 200), rel=1e-12)
        assert 0.0 < rec.exact < rec.bound

    def test_seed_precedence_env_fallback(self, tmp_path):
        raw = _spec()
        del raw["master_seed"]
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        runner = CliRunner()
        base = runner.invoke(main, ["verify", "--spec", str(spec_path), "--format", "csv"])
        env = runner.invoke(
            main, ["verify", "--spec", str(spec_path), "--format", "csv"],
            env={"SELFNORM_SEED": "11"},
        )
        flagged = runner.invoke(
            main, ["verify", "--spec", str(spec_path), "--format", "csv", "--seed", "11"],
            env={"SELFNORM_SEED": "999"},
        )
        assert ",11," not in base.output
        assert ",11," in env.output
        assert env.output == flagged.output

    @pytest.mark.parametrize("text", ["[1]", "3"])
    def test_non_object_spec_exit_two(self, tmp_path, text):
        spec_path = tmp_path / "s.json"
        spec_path.write_text(text)
        for command in ("verify", "oracle"):
            result = CliRunner().invoke(main, [command, "--spec", str(spec_path)])
            assert result.exit_code == 2
            assert result.output == "config error: spec must be a JSON object\n"

    def test_bad_seed_env_exit_two(self, tmp_path):
        raw = _spec()
        del raw["master_seed"]
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(
            main, ["verify", "--spec", str(spec_path)], env={"SELFNORM_SEED": "abc"}
        )
        assert result.exit_code == 2
        assert result.output == "config error: SELFNORM_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("source", ["flag", "spec"])
    def test_bad_seed_env_unread_when_seed_given(self, tmp_path, source):
        # SELFNORM_SEED is only a fallback, so a bad value matters only when read
        raw = _spec()
        args = ["--seed", str(raw["master_seed"])] if source == "flag" else []
        if source == "flag":
            del raw["master_seed"]
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(
            main, ["verify", "--spec", str(spec_path), "--format", "csv", *args],
            env={"SELFNORM_SEED": "abc"},
        )
        assert result.exit_code == 0, result.output
        assert f",{_spec()['master_seed']}," in result.output

    @pytest.mark.parametrize("command", ["verify", "oracle"])
    def test_emit_plot_data_is_not_an_option(self, tmp_path, command):
        # the CSV report carries every column the plot-data file held
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "r.csv"
        result = CliRunner().invoke(
            main, [command, "--spec", str(spec_path), "--out", str(out), "--emit-plot-data"]
        )
        assert result.exit_code == 2
        assert "No such option '--emit-plot-data'" in result.output
        assert not out.exists()

    def test_oracle_forces_exact_mode(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        runner = CliRunner()
        result = runner.invoke(main, ["oracle", "--spec", str(spec_path), "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["spec"]["mode"] == "exact_oracle"
        assert all(r["p_hat"] is None and r["exact"] is not None for r in payload["records"])

    def test_report_conversion(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        out_json = tmp_path / "r.json"
        runner = CliRunner()
        assert runner.invoke(
            main, ["verify", "--spec", str(spec_path), "--format", "json", "--out", str(out_json)]
        ).exit_code == 0
        out_csv = tmp_path / "r.csv"
        result = runner.invoke(
            main, ["report", "--in", str(out_json), "--format", "csv", "--out", str(out_csv)]
        )
        assert result.exit_code == 0
        direct = runner.invoke(
            main, ["verify", "--spec", str(spec_path), "--format", "csv"]
        )
        assert out_csv.read_text() == direct.output

    def test_report_writes_a_stale_spec_echo_as_read(self, tmp_path):
        # the echo is not validated again: a report written when c_const could
        # still be set keeps it
        spec_path = self._write_spec(tmp_path)
        runner = CliRunner()
        out_json = tmp_path / "r.json"
        assert runner.invoke(
            main, ["verify", "--spec", str(spec_path), "--out", str(out_json)]
        ).exit_code == 0
        payload = json.loads(out_json.read_text())
        payload["spec"]["c_const"] = 1.0
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        out = tmp_path / "again.json"
        result = runner.invoke(
            main, ["report", "--in", str(stale), "--format", "json", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert out.read_text() == stale.read_text()

    @pytest.mark.parametrize(
        "field, value", [("experiment_id", "a,b"), ("theorem", 'a"b'), ("status", "pass\r")]
    )
    def test_report_field_that_splits_a_csv_row_exit_two(self, tmp_path, field, value):
        # csv quoting would not do: a bare CR is left unquoted with "\n" rows
        spec_path = self._write_spec(tmp_path)
        runner = CliRunner()
        written = tmp_path / "r.json"
        assert runner.invoke(
            main, ["verify", "--spec", str(spec_path), "--out", str(written)]
        ).exit_code == 0
        payload = json.loads(written.read_text())
        payload["records"][0][field] = value
        written.write_text(json.dumps(payload))
        out = tmp_path / "r.csv"
        result = runner.invoke(
            main, ["report", "--in", str(written), "--format", "csv", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.output.startswith(f"config error: cannot read report: {field}: {value!r} holds")
        assert not out.exists()

    def test_report_without_records_exit_two(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"spec": None, "records": []}))
        out = tmp_path / "r.csv"
        result = CliRunner().invoke(
            main, ["report", "--in", str(empty), "--format", "csv", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.output == "config error: cannot read report: the report holds no records\n"
        assert not out.exists()

    def test_jobs_reports_identical(self, tmp_path):
        spec_path = self._write_spec(
            tmp_path, grids={"x": [0.25, 0.5, 1.0], "b": [2.8], "M": [1.0, 2.0]}
        )
        runner = CliRunner()
        one = runner.invoke(main, ["verify", "--spec", str(spec_path), "--format", "json"])
        four = runner.invoke(
            main, ["verify", "--spec", str(spec_path), "--format", "json", "--jobs", "4"]
        )
        assert one.output == four.output


def test_cold_import_skips_scipy_stats():
    # scipy.stats costs about half a second of start-up; the CLI needs only
    # scipy.special
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, selfnorm, selfnorm.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_scipy_loads_only_for_monte_carlo_intervals():
    # clopper_pearson imports scipy.special when first called: importing the
    # CLI and an exact-oracle run load no SciPy, a Monte Carlo run does
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = (
        "import json, sys, selfnorm.cli\n"
        "from selfnorm.experiments import load_spec, render_report, run_experiment\n"
        "def run(raw):\n"
        "    spec = load_spec(raw)\n"
        "    render_report(run_experiment(spec), 'json', spec)\n"
        "    return 'scipy' in sys.modules\n"
        "exact, mc = json.loads(sys.argv[1])\n"
        "print('scipy' in sys.modules, run(exact), run(mc))\n"
    )
    specs = [PINNED_SPECS["freedman-exact"], PINNED_SPECS["freedman-mc"]]
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(specs)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["False", "False", "True"]


class TestBenchmarkHooks:
    """The benchmark's tracer patches names in selfnorm; a rename breaks it here."""

    SPANS = [
        (_spec(), {"bounds.eval_s", "montecarlo.event_s", "processes.sample_s"}),
        (_regression_spec(), {"applications.regression.batch_s", "applications.regression.verify_self_s",
                              "bounds.eval_s", "montecarlo.event_s"}),
        (PINNED_SPECS["thm34_tsp"], {"applications.tsp.held_karp_s", "bounds.eval_s"}),
    ]

    @pytest.mark.parametrize("raw, spans", SPANS, ids=["diff", "regression", "thm34"])
    def test_tracer_records_layer_spans(self, monkeypatch, raw, spans):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracing = importlib.import_module("tracing")
        with tracing.instrument(tracing.Tracer()) as tracer:
            spec = experiments.load_spec(raw)
            records = experiments.run_experiment(spec)
        recorded = {span[0] for span in tracer.spans}
        assert spans | {"experiments.validate_s", "experiments.run_self_s"} <= recorded
        assert records == run_experiment(spec)

    def test_instrument_patches_and_restores_traced_names(self, monkeypatch):
        # instrument looks each traced name up with vars(owner)[attr], so a
        # deleted or renamed one raises on entry
        from selfnorm import montecarlo

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracing = importlib.import_module("tracing")
        originals = tsp.held_karp, montecarlo.golden_section_min
        with tracing.instrument(tracing.Tracer()):
            assert tsp.held_karp is not originals[0]
            assert montecarlo.golden_section_min is not originals[1]
        assert tsp.held_karp is originals[0]
        assert montecarlo.golden_section_min is originals[1]
