"""Command-line front end.

Exit codes: 0 success, 2 configuration problem (bad files, bad options, an
output path that cannot be written), 3 infeasible space or no feasible
candidate, 4 numerical failure inside the surrogate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import assets
from .driver import (
    BASELINES,
    RunConfig,
    emit_report,
    run_baseline,
    run_eval_bench,
    run_optimization,
)
from .errors import (
    AssetError,
    ConstraintSyntaxError,
    InfeasibleSpaceError,
    InvalidConfigurationError,
    NumericalError,
    UnknownParameterError,
)
from .evaluation import DIRECT, FIXED_CHECKPOINT, RETRIEVAL, SyntheticModel
from .constraints import load_constraints
from .space import ParameterSpace

STRATEGY_ALIASES = {"direct": DIRECT, "fixed": FIXED_CHECKPOINT,
                    "retrieval": RETRIEVAL}

_CONFIG_ERRORS = (InvalidConfigurationError, ConstraintSyntaxError,
                  UnknownParameterError, AssetError, OSError, KeyError,
                  ValueError)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve_inputs(processor, space, constraints, model):
    if processor:
        assets.load_bundle(processor)  # verifies hashes and cross-references
        root = assets.asset_root()
        space = root / f"spaces/{processor}.json"
        model = root / f"models/{processor}.json"
        if processor in assets.CONSTRAINED:
            constraints = root / f"constraints/{processor}.json"
    if not space or not model:
        raise click.UsageError(
            "provide --processor, or both --space and --model")
    return str(space), (str(constraints) if constraints else None), str(model)


@click.group()
def main():
    """Constraint-aware design-space optimization for soft processors."""


def _common_options(fn):
    fn = click.option("--processor", type=click.Choice(assets.PROCESSORS),
                      default=None, help="Use a bundled space/model pair.")(fn)
    fn = click.option("--space", type=click.Path(), default=None)(fn)
    fn = click.option("--constraints", type=click.Path(), default=None)(fn)
    fn = click.option("--model", type=click.Path(), default=None)(fn)
    fn = click.option("--benchmark", default="multiply", show_default=True)(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    return fn


@main.command()
@_common_options
@click.option("--iters", type=int, default=30, show_default=True,
              help="Optimization iterations after the warm start.")
@click.option("--warm-start", "warm_start", type=int, default=10,
              show_default=True)
@click.option("--mode", type=click.Choice(["paper-ratio", "exponent"]),
              default="paper-ratio", show_default=True)
@click.option("--strategy", type=click.Choice(sorted(STRATEGY_ALIASES)),
              default="retrieval", show_default=True)
@click.option("--baseline", type=click.Choice(("none",) + BASELINES),
              default="none", show_default=True)
@click.option("--tdt-limit", type=float, default=2100.0, show_default=True,
              help="Virtual time limit in pre-compression minutes.")
@click.option("--time-compression", type=float, default=1 / 60,
              show_default=True)
@click.option("--max-luts", type=int, default=None,
              help="Override the model file's resource budget.")
@click.option("--out", type=click.Path(), default="out", show_default=True)
def run(processor, space, constraints, model, benchmark, seed, iters,
        warm_start, mode, strategy, baseline, tdt_limit, time_compression,
        max_luts, out):
    """Run one optimization (or baseline) and write report files."""
    try:
        space_f, constraints_f, model_f = _resolve_inputs(
            processor, space, constraints, model)
        rc = RunConfig(
            space_file=space_f, model_file=model_f,
            constraint_file=constraints_f, benchmark=benchmark,
            budget_iterations=iters, tdt_limit_minutes=tdt_limit,
            warm_start_budget=warm_start, seed=seed, acquisition_mode=mode,
            strategy=STRATEGY_ALIASES[strategy], max_luts=max_luts,
            time_compression=time_compression)
        report = run_optimization(rc) if baseline == "none" \
            else run_baseline(rc, baseline)
        paths = emit_report(report, out)
    except InfeasibleSpaceError as exc:
        _fail(3, str(exc))
    except NumericalError as exc:
        _fail(4, str(exc))
    except _CONFIG_ERRORS as exc:
        _fail(2, str(exc))

    idr = "n/a" if report.idr is None else f"{report.idr:.1%}"
    best = "n/a" if report.best_eet_ms is None else f"{report.best_eet_ms:.4f} ms"
    click.echo(f"evaluations: {report.evaluations}  best EET: {best}  "
               f"IDR: {idr}  TDT: {report.tdt_minutes:.2f} min  "
               f"stop: {report.stop_reason}")
    for p in paths:
        click.echo(f"wrote {p}")
    if report.stop_reason == "numerical-failure":
        _fail(4, report.error or "surrogate numerical failure")


@main.command("eval-bench")
@_common_options
@click.option("--configs", "n_configs", type=int, default=10, show_default=True)
@click.option("--time-compression", type=float, default=1 / 60,
              show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Optional JSON output path.")
def eval_bench(processor, space, constraints, model, benchmark, seed,
               n_configs, time_compression, out):
    """Compare direct, fixed-checkpoint, and retrieval evaluation times."""
    try:
        space_f, constraints_f, model_f = _resolve_inputs(
            processor, space, constraints, model)
        rc = RunConfig(space_file=space_f, model_file=model_f,
                       constraint_file=constraints_f, benchmark=benchmark,
                       seed=seed, time_compression=time_compression)
        result = run_eval_bench(rc, n_configs=n_configs)
        if out:
            Path(out).write_text(json.dumps(result, indent=2) + "\n")
    except InfeasibleSpaceError as exc:
        _fail(3, str(exc))
    except _CONFIG_ERRORS as exc:
        _fail(2, str(exc))

    click.echo(f"{'strategy':<18}{'mean':>10}{'min':>10}{'max':>10}  (virtual minutes)")
    for name, stats in result["strategies"].items():
        click.echo(f"{name:<18}{stats['mean_minutes']:>10.3f}"
                   f"{stats['min_minutes']:>10.3f}{stats['max_minutes']:>10.3f}")
    if out:
        click.echo(f"wrote {out}")


@main.command()
@click.option("--space", "space_path", type=click.Path(), required=True)
@click.option("--constraints", "constraints_path", type=click.Path(),
              default=None)
@click.option("--model", "model_path", type=click.Path(), default=None)
def validate(space_path, constraints_path, model_path):
    """Check space, constraint, and model files for consistency."""
    try:
        space = ParameterSpace.load(space_path)
        click.echo(f"space: {len(space.params)} parameters, "
                   f"{space.size()} configurations, encoded dim {space.encoded_dim}")
        if constraints_path:
            tree = load_constraints(constraints_path, space)
            click.echo(f"constraints: parsed, {len(tree.children)} top-level rules")
        if model_path:
            SyntheticModel.load(model_path, space)
            click.echo("model: coefficients cover the space")
    except _CONFIG_ERRORS as exc:
        _fail(2, str(exc))
    click.echo("ok")


if __name__ == "__main__":
    main()
