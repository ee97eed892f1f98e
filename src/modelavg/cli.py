"""Command-line front end: experiment orchestration, CSV emission, SVG plots."""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from pathlib import Path
from typing import Callable

from .config import SETTINGS, RunConfig, echo_config, experiment_settings, parse_config
from .errors import ModelAvgError
from .experiments import EXPERIMENTS, LEGEND
from .model import write_design_csv
from .svgplot import write_line_plot


def write_rows_csv(path, rows: list[dict]) -> None:
    """Write rows as CSV; the first row's keys, in order, are the header, and a
    float is written as its shortest round-trip ``repr``."""
    header = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row[col] for col in header] for row in rows)


def _execute(config: RunConfig, target: Callable[[str], Path]) -> None:
    scenario = config.scenario  # before resolved(), so the one parse_config built
    config = config.resolved()
    echo_config(config, target("resolved_config.txt"))
    entry = EXPERIMENTS[config.experiment]
    if "n" in entry.settings:  # an experiment that reads n runs on the run's design
        write_design_csv(scenario.design, target(f"design_n{config.n}.csv"))
    rows = entry.rows(config, scenario, config.resolved_workers())
    write_rows_csv(target(f"{entry.stem}.csv"), rows)
    if entry.plot is not None:
        prefix, title, y_label = entry.plot
        x_label = next(iter(rows[0]))
        series = [
            (label, [r[prefix + key] for r in rows], style)
            for key, (label, style) in LEGEND.items()
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
        experiments = [e for e in EXPERIMENTS if e.partition("-")[0] == name]
        choices = [e.partition("-")[2] for e in experiments if "-" in e]
        p = sub.add_parser(name, help=f"run the {name} experiment",
                           description=f"Run the {name} experiment; it takes these flags only.")
        p.add_argument("--config", type=str, default=None, help="config file (key = value lines)")
        if choices:
            p.add_argument(
                "--method", choices=choices, default=choices[0],
                help=f"resampling scheme (default: {choices[0]})",
            )
        # A setting none of its experiments reads is a hidden flag, so that
        # parse_config refuses it by name rather than argparse by usage.
        for key in SETTINGS:
            reads = any(key in experiment_settings(e) for e in experiments)
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           help=None if reads else argparse.SUPPRESS)
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # with the subcommand's usage, not the top level's
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    experiment = args.experiment
    if "method" in args:
        experiment += "-" + args.method
    overrides = {k: v for k, v in vars(args).items() if k in SETTINGS and v is not None}
    try:
        config = parse_config(experiment, config_file=args.config, overrides=overrides)
    except (ModelAvgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
