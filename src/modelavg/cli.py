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
from .model import write_design_csv
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
    scenario = _scenario_from_config(config)
    entry = EXPERIMENTS[config.experiment]
    if entry.design:
        write_design_csv(scenario.design, target(f"design_n{config.n}.csv"))
    rows = entry.rows(config, scenario, config.resolved_workers())
    write_rows_csv(target(f"{entry.stem}.csv"), rows)
    if entry.plot is not None:
        prefix, title, y_label = entry.plot
        x_label = next(iter(rows[0]))
        series = [
            (label, [r[prefix + key] for r in rows], style)
            for key, (label, style) in _LEGEND.items()
            if prefix + key in rows[0]
        ]
        write_line_plot(
            target(f"{entry.stem}.svg"), title=title, x_label=x_label, y_label=y_label,
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
    # The experiment "a-b" is the subcommand "a" with "--method b".
    for name in dict.fromkeys(e.partition("-")[0] for e in EXPERIMENTS):
        choices = [e.partition("-")[2] for e in EXPERIMENTS if e.startswith(name + "-")]
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=str, default=None, help="config file (key = value lines)")
        if choices:
            p.add_argument(
                "--method", choices=choices, default=choices[0],
                help=f"resampling scheme (default: {choices[0]})",
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
