"""Spec validation, experiment orchestration determinism, reports, and the CLI."""

import json
import math

import pytest
from click.testing import CliRunner

from selfnorm.cli import main
from selfnorm.experiments import (
    CSV_COLUMNS,
    UNTESTED_DEPTH_FACTOR,
    SpecValidationError,
    emit_plot_data,
    emit_report,
    load_report,
    load_spec,
    render_report,
    run_experiment,
)
from selfnorm.montecarlo import Statistic, TailEvent, exact_tail_rademacher


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
            load_spec(_spec(n=25, mode="exact_oracle"))
        assert any("capped at n = 20" in e for e in err.value.errors)

    @pytest.mark.parametrize("field", ["n", "n_rep", "inner_rep", "d", "master_seed"])
    def test_bool_rejected_for_integer_fields(self, field):
        # JSON true/false load as Python bools, which are ints
        with pytest.raises(SpecValidationError) as err:
            load_spec(_spec(**{field: True}))
        assert any(e.startswith(f"{field}:") for e in err.value.errors)

    def test_master_seed_must_fit_64_bits(self):
        assert load_spec(_spec(master_seed=2 ** 64 - 1)).master_seed == 2 ** 64 - 1
        with pytest.raises(SpecValidationError, match="master_seed"):
            load_spec(_spec(master_seed=2 ** 64))

    def test_all_errors_collected(self):
        raw = _spec(n=25, mode="exact_oracle", gamma=2.0)
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

    def test_tsp_constraints(self):
        raw = {
            "id": "tsp", "theorem": "thm34_tsp", "n": 14, "grids": {"t": [2.0]},
            "n_rep": 100, "inner_rep": 1000,
        }
        with pytest.raises(SpecValidationError, match="exact tours"):
            load_spec(raw)
        raw = {"id": "a", "theorem": "azuma_tsp", "n": 8, "grids": {"t": [2.0]}, "n_rep": 100}
        with pytest.raises(SpecValidationError, match="c_const"):
            load_spec(raw)


class TestRunExperiment:
    def test_both_mode_carries_exact_and_mc(self):
        spec = load_spec(_spec(mode="both"))
        records = run_experiment(spec)
        assert len(records) == 2
        for rec in records:
            assert rec.exact is not None
            assert rec.p_hat is not None
            assert rec.status in ("pass", "vacuous")
            assert rec.ci_lo <= rec.exact <= rec.ci_hi

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
        event = TailEvent(x=0.6, normalizer=Statistic("b_n", y=0.0))
        assert exact_tail_rademacher(10, event) == 2.0 ** -10
        assert records[0].hits < UNTESTED_DEPTH_FACTOR
        assert "untested_depth" in records[0].note

    def test_percentile_b_resolution(self):
        spec = load_spec(_spec(grids={"x": [1.0], "b": ["p10"], "M": [2.0]}))
        records = run_experiment(spec)
        assert records[0].b == pytest.approx(math.sqrt(10.0), rel=1e-12)


class TestReports:
    def _records(self):
        spec = load_spec(_spec())
        return spec, run_experiment(spec)

    def test_single_record_csv_is_two_lines(self, tmp_path):
        spec = load_spec(_spec(grids={"x": [1.0], "b": [2.8], "M": [2.0]}))
        records = run_experiment(spec)
        path = tmp_path / "r.csv"
        emit_report(records, "csv", path, spec=spec)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_json_round_trip(self, tmp_path):
        spec, records = self._records()
        path = tmp_path / "r.json"
        emit_report(records, "json", path, spec=spec, include_timing=True)
        spec_echo, reloaded = load_report(path)
        assert reloaded == records
        assert spec_echo["id"] == "t"
        assert spec_echo["gamma"] == 0.99

    def test_csv_uses_17_significant_digits(self, tmp_path):
        spec, records = self._records()
        path = tmp_path / "r.csv"
        emit_report(records, "csv", path, spec=spec)
        row = path.read_text().splitlines()[1].split(",")
        bound_field = row[CSV_COLUMNS.index("bound")]
        assert float(bound_field) == records[0].bound
        assert len(bound_field.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "csv", tmp_path / "x.csv")

    def test_plot_data_export(self, tmp_path):
        spec, records = self._records()
        path = tmp_path / "plot.csv"
        emit_plot_data(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "theorem,x,p_hat,ci_hi,bound"
        assert len(lines) == len(records) + 1

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

    def test_bounds_eval_bad_kind(self):
        runner = CliRunner()
        result = runner.invoke(main, ["bounds", "eval", "nope", "x=1"])
        assert result.exit_code != 0
        assert "unknown kind" in result.output

    def test_verify_writes_report_and_exit_zero(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "report.csv"
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["verify", "--spec", str(spec_path), "--format", "csv", "--out", str(out),
             "--emit-plot-data", "--jobs", "2"],
        )
        assert result.exit_code == 0, result.output
        assert out.exists() and (tmp_path / "report.csv.plot.csv").exists()

    def test_verify_stdout_when_no_out(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--spec", str(spec_path), "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_config_error_exit_two(self, tmp_path):
        spec_path = self._write_spec(tmp_path, n=25, mode="exact_oracle")
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
        assert result.exit_code == 2
        assert "config error" in result.output

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

    def test_violation_exit_one(self, tmp_path):
        # an absurdly small caller-supplied constant falsifies the bound
        spec_path = tmp_path / "azuma.json"
        spec_path.write_text(json.dumps({
            "id": "azuma-bad-c", "theorem": "azuma_tsp", "n": 6,
            "grids": {"t": [0.05]}, "n_rep": 400, "c_const": 1e-6, "master_seed": 3,
        }))
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--spec", str(spec_path), "--format", "csv"])
        assert result.exit_code == 1
        assert "violation_evidence" in result.output

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
