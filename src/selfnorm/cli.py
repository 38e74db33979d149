"""Command-line interface: pure bound evaluation, verification runs, the exact
oracle, and report conversion.

Exit codes: 0 all verdicts pass or are vacuous, 1 violation evidence found,
2 configuration error (printed as "config error:") or an internal fault while
running (printed as "internal error:").
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import NoReturn

import click

from .bounds import clamp_probability, evaluate_bound
from .experiments import (
    SpecValidationError,
    any_violation,
    load_report,
    load_spec,
    render_report,
    run_experiment,
)

SEED_ENV = "SELFNORM_SEED"

_INT_PARAMS = {"n", "d"}


def _config_error(message) -> NoReturn:
    click.echo(f"config error: {message}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Tail bounds for self-normalized martingales and their empirical verification."""


@main.group()
def bounds():
    """Closed-form bound calculators (no simulation)."""


@bounds.command("eval")
@click.argument("kind")
@click.argument("params", nargs=-1)
@click.option("--clamp", is_flag=True, help="Clamp the result into [0, 1].")
def bounds_eval(kind, params, clamp):
    """Evaluate one bound KIND at PARAMS given as name=value pairs.

    Example: selfnorm bounds eval freedman x=1 L=1 a_bnd=0
    """
    kwargs = {}
    for item in params:
        if "=" not in item:
            _config_error(f"parameter {item!r} is not name=value")
        name, raw = item.split("=", 1)
        try:
            kwargs[name] = int(raw) if name in _INT_PARAMS else float(raw)
        except ValueError:
            _config_error(f"parameter {name}: bad number {raw!r}")
    try:
        value = evaluate_bound(kind, **kwargs)
    except (TypeError, ValueError) as exc:
        _config_error(exc)
    if clamp:
        value = clamp_probability(value)
    click.echo(format(value, ".17g"))


def _apply_overrides(raw: dict, seed, reps) -> dict:
    if not isinstance(raw, dict):
        _config_error("spec must be a JSON object")
    raw = dict(raw)
    if seed is not None:
        raw["master_seed"] = seed
    elif "master_seed" not in raw and os.environ.get(SEED_ENV):
        try:
            raw["master_seed"] = int(os.environ[SEED_ENV])
        except ValueError:
            _config_error(f"{SEED_ENV} must be an integer, got {os.environ[SEED_ENV]!r}")
    if reps is not None:
        raw["n_rep"] = reps
    return raw


def _check_writable(path) -> None:
    """Exit 2 unless ``path`` opens for writing; append mode truncates nothing."""
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        _config_error(f"cannot write {path}: {exc.strerror}")


def _run_and_emit(spec_path, seed, reps, fmt, out, jobs, timing, force_mode=None):
    try:
        with open(spec_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        _config_error(exc)
    except json.JSONDecodeError as exc:
        _config_error(f"spec parse failed: {exc}")
    raw = _apply_overrides(raw, seed, reps)
    if force_mode is not None:
        raw["mode"] = force_mode
    try:
        spec = load_spec(raw)
    except SpecValidationError as exc:
        for err in exc.errors:
            click.echo(f"config error: {err}", err=True)
        sys.exit(2)
    if out is not None:
        _check_writable(out)
    try:
        records = run_experiment(spec, jobs=jobs)
    except Exception as exc:
        # the spec passed validation, so this is a fault of the program; exit
        # code 1 is reserved for violation evidence
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(2)
    text = render_report(records, fmt, spec=spec, include_timing=timing)
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
    sys.exit(1 if any_violation(records) else 0)


_verify_options = [
    click.option("--spec", "spec_path", required=True, type=click.Path(exists=False)),
    click.option("--seed", type=click.IntRange(min=0), default=None,
                 help=f"Master seed; falls back to the spec file then ${SEED_ENV}."),
    click.option("--reps", type=click.IntRange(min=100), default=None, help="Override n_rep."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json"),
    click.option("--out", type=click.Path(), default=None, help="Report path (stdout if absent)."),
    click.option("--jobs", type=click.IntRange(min=1), default=1,
                 help="Threads for the grid points and draw-and-reduce blocks of diff "
                      "targets and the stream blocks of regression runs (thm34_tsp runs "
                      "ignore it); output is identical at any value."),
    click.option("--timing", is_flag=True,
                 help="Include wall_ms in the report (breaks byte-identical re-runs)."),
]


def _with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return wrap


@main.command()
@_with_options(_verify_options)
def verify(spec_path, seed, reps, fmt, out, jobs, timing):
    """Run a verification spec and emit a report."""
    _run_and_emit(spec_path, seed, reps, fmt, out, jobs, timing)


@main.command()
@_with_options(_verify_options)
def oracle(spec_path, seed, reps, fmt, out, jobs, timing):
    """Run a spec through the exact sign-type oracle only."""
    _run_and_emit(spec_path, seed, reps, fmt, out, jobs, timing, force_mode="exact_oracle")


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True),
              help="JSON report produced by verify/oracle.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), required=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--timing", is_flag=True, help="Keep wall_ms values if present.")
def report(in_path, fmt, out, timing):
    """Convert a JSON report to CSV (or re-canonicalize JSON)."""
    try:
        spec, records = load_report(in_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _config_error(f"cannot read report: {exc}")
    _check_writable(out)
    Path(out).write_text(render_report(records, fmt, spec=spec, include_timing=timing))
    sys.exit(0)


if __name__ == "__main__":
    main()
