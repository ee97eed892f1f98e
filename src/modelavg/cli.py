"""Command-line front end: experiment orchestration, CSV emission, SVG plots."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Callable

from . import experiments
from .config import EXPERIMENTS, SETTINGS, RunConfig, echo_config, parse_config
from .errors import ModelAvgError
from .estimators import ESTIMATOR_NAMES
from .model import compute_design_stats, response_stats, solve_normal_equations, write_design_csv
from .resampling import ResamplePlan
from .svgplot import write_line_plot


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip representation
    return str(value)


def write_rows_csv(path, rows: list[dict]) -> None:
    """Write rows as CSV; the first row's keys, in order, are the header."""
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _scenario_from_config(config: RunConfig) -> experiments.Scenario:
    return experiments.make_scenario(
        n=config.n,
        seed=config.seed,
        reps=config.reps,
        alpha=config.alpha,
        beta=config.beta,
        sigma=config.sigma,
        c=config.c,
        a_n=config.a_n,
        k_n=config.k_n,
        pretest_form=config.pretest_form,
        prior_scale=config.prior_scale,
        prior_p_r=config.prior_p_r,
    )


# Legend label and line style of each plotted column, keyed by the column name
# after its prefix; a plot draws the columns its rows have, in this order.
_LEGEND = {
    "bma_bic": ("BMA (BIC weights)", "solid"),
    "ms": ("MS (pretest)", "broken"),
    "ama": ("AMA (adaptive)", "dotted"),
    "u": ("U only", "dotdash"),
    "n_risk": ("n * risk", "solid"),
    "mean_p_r": ("mean weight on R", "solid"),
    "mean_sqrtn_p_r": ("sqrt(n) x mean weight", "broken"),
}


def _execute(config: RunConfig, target: Callable[[str], Path]) -> None:
    echo_config(config, target("resolved_config.txt"))
    workers = config.resolved_workers()
    experiment = config.experiment
    scenario = _scenario_from_config(config)
    if experiment not in ("riskbound", "decay"):
        write_design_csv(scenario.design, target(f"design_n{config.n}.csv"))

    # Each experiment yields its rows, the stem of its output files, and the
    # (column prefix, title, y label) of its plot, or None for no plot.
    if experiment == "figure1a":
        rows = experiments.mse_curve(config.beta_grid, scenario, workers=workers)
        stem, plot = "mse_curve", ("mse_", "Mean squared error by estimator", "MSE")
    elif experiment == "figure1b":
        rows = experiments.ks_ratio_curve(config.beta_grid, scenario, workers=workers)
        stem, plot = "ks_ratio", (
            "ratio_", "KS location ratio between R and U references", "100 * KS_R / (KS_R + KS_U)"
        )
    elif experiment in ("figure2-bootstrap", "figure2-subsample"):
        method = experiment.split("-", 1)[1]
        plan = ResamplePlan(b=config.b, m=config.m if method == "subsample" else None)
        rows = experiments.resampling_error_curve(
            config.beta_grid, scenario, plan, config.datasets_per_beta,
            mode=config.ks_mode, workers=workers,
        )
        stem, plot = f"resamp_error_{method}", (
            "err_", f"{method} approximation error (100 x mean KS distance)",
            "100 * KS(truth, resampling)",
        )
    elif experiment == "riskbound":
        rows = experiments.risk_bound_sweep(config.n_grid, scenario, workers=workers)
        stem, plot = "risk_bound", (
            "", "Normalized risk of the exact-posterior model average", "n * MSE"
        )
    elif experiment == "decay":
        rows = experiments.weight_decay_sweep(config.n_grid, scenario, workers=workers)
        stem, plot = "weight_decay", ("", "Adaptive weight decay", "weight")
    else:  # single
        dataset = experiments.draw_dataset(scenario)
        est, p_r = scenario.pipeline(ESTIMATOR_NAMES).fit(dataset)
        stats = compute_design_stats(dataset.design)
        p1, p2, _ = response_stats(dataset)
        rows = [{
            "alpha_r": est["r"],
            "alpha_u": est["u"],
            "beta_u": solve_normal_equations(
                stats.s11, stats.s22, stats.s12, stats.det, p1, p2
            )[1],
            "ms": est["ms"],
            "bma_exact": est["bma_exact"],
            "bma_bic": est["bma_bic"],
            "ama": est["ama"],
            "w_posterior_r": p_r["bma_exact"],
            "w_bic_r": p_r["bma_bic"],
            "w_adaptive_r": p_r["ama"],
            "n": config.n,
            "seed": config.seed,
        }]
        stem, plot = "single", None

    write_rows_csv(target(f"{stem}.csv"), rows)
    if plot is not None:
        prefix, title, y_label = plot
        x_label = next(iter(rows[0]))
        series = [
            (label, [r[prefix + key] for r in rows], style)
            for key, (label, style) in _LEGEND.items()
            if prefix + key in rows[0]
        ]
        write_line_plot(
            target(f"{stem}.svg"), title=title, x_label=x_label, y_label=y_label,
            x=[r[x_label] for r in rows], series=series,
        )


def run(config: RunConfig) -> int:
    """Run one experiment into ``config.out``; return 0, or 1 on failure.

    Outputs are written under temporary names in ``config.out`` and moved into
    place with ``os.replace`` after the experiment succeeded, so no file is
    ever left truncated under its final name. On any failure, including an
    interrupt (``KeyboardInterrupt``, ``SystemExit``, which then propagates),
    the temporaries and the directories this run created are removed; an
    earlier run's files stay as they were.
    """
    outdir = Path(config.out)
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]  # deepest first
    staged: dict[Path, Path] = {}  # temporary name -> final name

    def target(name: str) -> Path:
        temporary = outdir / f".{name}.{os.getpid()}.tmp"
        staged[temporary] = outdir / name
        return temporary

    try:
        outdir.mkdir(parents=True, exist_ok=True)  # raises if out names a file
        _execute(config, target)
        for temporary, final in staged.items():
            os.replace(temporary, final)
    except BaseException as exc:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
        for directory in created:
            with contextlib.suppress(OSError):  # not empty: someone else wrote there
                directory.rmdir()
        if not isinstance(exc, Exception):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelavg",
        description="Model-averaging simulation laboratory for the two-regressor linear model.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    # "figure2-bootstrap" is the subcommand "figure2" with "--method bootstrap".
    for name in dict.fromkeys(e.partition("-")[0] for e in EXPERIMENTS):
        choices = [e.partition("-")[2] for e in EXPERIMENTS if e.startswith(name + "-")]
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=str, default=None, help="config file (key = value lines)")
        if choices:
            p.add_argument(
                "--method", choices=choices, default=choices[0],
                help=f"resampling engine (default: {choices[0]})",
            )
        for key in SETTINGS:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    experiment = args.experiment
    if "method" in args:
        experiment += "-" + args.method
    overrides = {key: getattr(args, key) for key in SETTINGS if getattr(args, key) is not None}
    try:
        config = parse_config(experiment, config_file=args.config, overrides=overrides)
    except (ModelAvgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
