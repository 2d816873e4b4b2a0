"""Command-line front end: parameter cards, map sampling, experiments.

Every command resolves parameters from exactly one of --kappa/--alpha
(strings are parsed as exact rationals before any float conversion),
seeds all randomness from --seed, and writes deterministic bytes, so a
rerun with the same flags reproduces the output file exactly.

Exit codes: 0 success, 2 invalid parameters or usage, 3 budget
exceeded, 4 internal invariant violation.
"""

from __future__ import annotations

import functools
import sys

import click

from . import __version__
from .errors import (
    BudgetExceededError,
    DomainError,
    MisuseError,
    TableOverflowError,
    TripeelError,
)
from .experiments import (
    EXPERIMENTS,
    constants_report,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .params import build_params
from .peeling import hull_to_csv, run_layers, trace_to_csv, trace_to_json
from .rng import RngStream

EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _guard(fn):
    """Translate library errors into the documented exit codes."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceededError as exc:
            click.echo(f"budget exceeded: {exc}", err=True)
            sys.exit(EXIT_BUDGET)
        except (DomainError, MisuseError, TableOverflowError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DOMAIN)
        except TripeelError as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)

    return wrapped


def _emit(text: str, out: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


_param_options = [
    click.option("--kappa", default=None, help="Coupling, exact rational or decimal string (e.g. 9/128)."),
    click.option("--alpha", default=None, help="Fresh-step probability, exact rational or decimal string."),
]


def _with(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return deco


@click.group()
@click.version_option(__version__, prog_name="tripeel")
def cli() -> None:
    """Random infinite planar triangulations built edge by edge."""


@cli.command()
@_with(_param_options)
@click.option("--head", type=int, default=8, show_default=True, help="Rows of each table to include.")
@click.option("--out", default="-", show_default=True, help="Output path, - for stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@_guard
def constants(kappa, alpha, head, out, fmt):
    """Derived constants, table heads, and identity residuals."""
    params = build_params(kappa=kappa, alpha=alpha)
    rep = constants_report(params, head=head)
    _emit(report_to_json(rep) if fmt == "json" else report_to_csv(rep), out)


@cli.command("sample-map")
@_with(_param_options)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--radius", type=int, default=8, show_default=True, help="Hull depth to peel to.")
@click.option("--budget-steps", type=int, default=None, help="Peel step budget.")
@click.option("--budget-vertices", type=int, default=None, help="Vertex budget.")
@click.option("--out", default="-", show_default=True, help="Output path, - for stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@_guard
def sample_map(kappa, alpha, seed, radius, budget_steps, budget_vertices, out, fmt):
    """Peel one map to a hull depth; write its tripeel-trace-v2 trace.

    JSON is one document: meta (with map_digest, a hash of the final
    map's canonical code), step records without arena ids, the hull
    series and the canonical code.  CSV puts the hull series after the
    trace, or with a file path in OUT.hull.csv.  replay_trace reads each
    form and refuses a tripeel-trace-v1 trace.  A budget overrun still
    writes the partial run and exits 3.
    """
    params = build_params(kappa=kappa, alpha=alpha)
    trace = run_layers(
        params,
        radius,
        RngStream(seed),
        record=True,
        max_steps=budget_steps,
        max_vertices=budget_vertices,
    )
    if fmt == "json":
        _emit(trace_to_json(trace), out)
    elif out == "-":
        _emit(trace_to_csv(trace) + hull_to_csv(trace.hull), out)
    else:
        _emit(trace_to_csv(trace), out)
        _emit(hull_to_csv(trace.hull), f"{out}.hull.csv")
    if trace.meta["truncated"]:
        click.echo("budget exhausted before the requested depth; wrote the partial run", err=True)
        sys.exit(EXIT_BUDGET)


# flags applicable per experiment, mapped onto runner keywords
_EXPERIMENT_FLAGS: dict = {
    "volume-growth": {"trials": "trials", "radius": "r_max"},
    "layer-stats": {"trials": "trials"},
    "walk-speed": {"trials": "walks", "steps": "n_steps", "radius": "audit_radius"},
    "inv-degree": {"trials": "trials"},
    "intersection": {"trials": "trials", "steps": "n_steps"},
    "stationarity": {"trials": "trials", "steps": "n_steps", "radius": "radius"},
    "law-equivalence": {"trials": "runs", "steps": "horizon"},
    "enumerate": {},
}


@cli.command()
@click.option(
    "--experiment",
    "name",
    required=True,
    type=click.Choice(sorted(EXPERIMENTS)),
    help="Which experiment to run.",
)
@_with(_param_options)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=None, help="Trial count override.")
@click.option("--steps", type=int, default=None, help="Step count override.")
@click.option("--radius", type=int, default=None, help="Radius/depth override.")
@click.option("--out", default="-", show_default=True, help="Output path, - for stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@_guard
def experiment(name, kappa, alpha, seed, trials, steps, radius, out, fmt):
    """Run a named experiment and write its report."""
    mapping = _EXPERIMENT_FLAGS[name]
    overrides = {}
    for flag, value in (("trials", trials), ("steps", steps), ("radius", radius)):
        if value is None:
            continue
        if flag not in mapping:
            raise DomainError(f"experiment {name!r} does not take --{flag}")
        overrides[mapping[flag]] = value
    if name == "enumerate":
        if kappa is not None or alpha is not None:
            raise DomainError("the enumeration table takes no parameters")
        rep = run_experiment(name, None, None, **overrides)
    else:
        params = build_params(kappa=kappa, alpha=alpha)
        rep = run_experiment(name, params, RngStream(seed), **overrides)
    _emit(report_to_json(rep) if fmt == "json" else report_to_csv(rep), out)


def main() -> None:
    cli(prog_name="tripeel")


if __name__ == "__main__":
    main()
