#!/usr/bin/env python3
"""sha256 of every CLI output file and library replicate array at one seed.

Runs each entry of the experiment table ``modelavg.experiments.EXPERIMENTS``,
in the table's order, at reference scale into a temporary directory and prints
one ``<sha256>  <experiment>/<file>`` line per output. The ``out = ...`` line
of ``resolved_config.txt`` is left out of its digest, since it names the
temporary directory. A few more runs with non-default flags (``EXTRA_RUNS``)
reach the kernel's other branches: the sigma = 0 limits (in figure1b at
alpha = 0 every centred sample is a point mass, so KS takes its tie path,
and at beta = 0 all of them are exactly 0, so each ratio is 0/0, mapped to
50), bma_exact at a tiny sigma (1e-80), the scaled pretest, a non-default
prior, a figure2-subsample run with more replicates than truth draws, the scaled
pretest on size-m subsamples, bootstrap engine calls
on a ragged last chunk of datasets, bootstrap resamples of n = 3 datasets,
where the engine's redraw loop replaces singular resamples, and Monte Carlo
cells at reps = 4999 at n = 50 and along the n-grid up to 800, whose last
noise block is ragged (414 of 655 rows at n = 50, 39 of 40 at n = 800).
Their lines read ``<experiment>[<flags>]/<file>``. Then it prints one
``<sha256>  library/...`` line per replicate array of the library's resamplers: ``paired_bootstrap`` and ``subsample_distribution`` (m = 20) for
four estimators on the shipped design at sigma = 1 and sigma = 0, and
``mean_model_bootstrap`` with the adaptive weight rule, over three datasets
each with b = 500, and one ``paired_bootstrap`` of ``bma_exact`` at sigma = 0
on a beta = 1e160 dataset, where the RSS gap and p1^2 / s11 overflow (all
weight on U, the one model that interpolates y), a slope beyond the CLI's
magnitude bound. Every generator derives from ``--seed``.

All runs share one process, so most Monte Carlo cells are read from the
memo of :func:`modelavg.experiments.mc_estimator_draws` after their first
draw: figure1b reads figure1a's cells, decay riskbound's, the two figure2
methods each other's truth cells, and the scaled-pretest figure1a run
figure1a's. Equal lines from two checkouts thus also show that a cached
cell gives the floats of a fresh draw.

Two checkouts that print the same lines at the same ``--seed`` and
``--workers`` write byte-identical outputs and replicates. ``--against REV``
makes that comparison: it extracts REV's ``src`` into a temporary directory
(``git archive REV src | tar -x``), reruns this script with that ``src`` on
``PYTHONPATH`` at the same ``--seed`` and ``--workers``, and prints only the
lines that differ (``-`` REV's, ``+`` this tree's), exiting 1 if any do::

    PYTHONPATH=src python scripts/output_digests.py --seed 5050 --against HEAD~1
"""

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from modelavg import PretestConfig, default_tuning, load_reference_design
from modelavg.cli import main
from modelavg.estimators import make_pipeline
from modelavg.experiments import EXPERIMENTS
from modelavg.model import TrueParams, generate_response
from modelavg.resampling import (
    ResamplePlan,
    mean_model_bootstrap,
    paired_bootstrap,
    subsample_distribution,
)
from modelavg.weights import adaptive_weights

# (experiment, extra flags): bma_exact's sigma = 0 limit on the Monte Carlo
# path and on the one-dataset path, figure1b at sigma = 0 and alpha = 0, where
# every sample KS sees is one value repeated and at beta = 0 every estimate is
# exactly alpha (at alpha = 1 U's carries rounding, so no ratio there is 0/0),
# bma_exact at sigma = 1e-80, where 1 + G/u would overflow, a scaled pretest
# with a small c, a non-default prior for bma_exact, two small figure2-subsample
# runs (10 * 50 replicates scored against 200 truth draws, and the scaled
# pretest judged at the subsample's m), a
# small figure2-bootstrap run whose 7 datasets per beta go to the engine in
# chunks of 5 and 2 (b = 3000 against a budget of 2^14 replicates per call), a
# figure2-bootstrap run at n = 3, the one here whose resamples are singular (a
# row drawn three times) and so go through the engine's redraw loop, and Monte
# Carlo cells whose 4999 rows end in a ragged noise block at n = 50 and at
# n = 800 (a short last block must give the floats of a full one).
_SMALL_FIGURE2 = ("--beta-grid", "0,0.3")
EXTRA_RUNS = (
    ("riskbound", ("--sigma", "0")),
    ("figure1b", ("--sigma", "0", "--alpha", "0", "--reps", "40")),
    ("single", ("--sigma", "0")),
    ("single", ("--sigma", "1e-80")),
    ("figure1a", ("--pretest-form", "scaled", "--c", "0.3")),
    ("single", ("--prior-scale", "2", "--prior-p-r", "0.3")),
    ("figure2-subsample", ("--reps", "200", "--b", "50", "--datasets-per-beta", "10",
                           *_SMALL_FIGURE2)),
    ("figure2-subsample", ("--pretest-form", "scaled", "--c", "0.3", "--reps", "500",
                           "--b", "100", "--datasets-per-beta", "5", *_SMALL_FIGURE2)),
    ("figure2-bootstrap", ("--reps", "300", "--b", "3000", "--datasets-per-beta", "7",
                           *_SMALL_FIGURE2)),
    ("figure2-bootstrap", ("--n", "3", "--b", "50", "--datasets-per-beta", "5", "--reps", "200",
                           *_SMALL_FIGURE2)),
    ("figure1a", ("--reps", "4999")),
    ("riskbound", ("--reps", "4999")),
)
LIBRARY_NAMES = ("ms", "bma_exact", "bma_bic", "ama")
LIBRARY_BETAS = (0.0, 0.2, 1.0)  # one dataset each; also the mean-model mu
LIBRARY_B = 500
LIBRARY_M = 20


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "resolved_config.txt":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(b"out = "))
    return hashlib.sha256(data).hexdigest()


def library_samples(seed: int):
    """(label, replicates) for each library resampler call, all drawn from ``seed``."""
    design = load_reference_design()
    tuning = default_tuning(design.n)
    for s, sigma in enumerate((1.0, 0.0)):
        pipes = [make_pipeline(name, sigma, PretestConfig(), tuning) for name in LIBRARY_NAMES]
        for d, beta in enumerate(LIBRARY_BETAS):
            params = TrueParams(alpha=1.0, beta=beta, sigma=sigma)
            ds = generate_response(design, params, np.random.default_rng([seed, s, d]))
            prefix = f"sigma={sigma:g}/dataset{d}"
            for k, (name, pipe) in enumerate(zip(LIBRARY_NAMES, pipes)):
                yield f"{prefix}/bootstrap/{name}", paired_bootstrap(
                    ds, pipe, ResamplePlan(b=LIBRARY_B), np.random.default_rng([seed, s, d, 1, k])
                )
                yield f"{prefix}/subsample/{name}", subsample_distribution(
                    ds, pipe, ResamplePlan(b=LIBRARY_B, m=LIBRARY_M),
                    np.random.default_rng([seed, s, d, 2, k]),
                )
    # The benchmark's mean-model rule: p_u of the adaptive weight at t / sqrt(n).
    root_n = float(np.sqrt(design.n))

    def weight_u(t):
        return adaptive_weights(t / root_n, tuning).p_u

    for d, mu in enumerate(LIBRARY_BETAS):
        y = np.random.default_rng([seed, 2, d]).normal(mu, 1.0, design.n)
        yield f"mean_model/dataset{d}", mean_model_bootstrap(
            y, weight_u, LIBRARY_B, np.random.default_rng([seed, 2, d, 3])
        )
    huge = generate_response(design, TrueParams(alpha=1.0, beta=1e160, sigma=0.0),
                             np.random.default_rng([seed, 3]))
    yield "sigma=0/beta=1e160/bootstrap/bma_exact", paired_bootstrap(
        huge, make_pipeline("bma_exact", 0.0), ResamplePlan(b=LIBRARY_B),
        np.random.default_rng([seed, 3, 1]),
    )


def digest_runs() -> list[tuple[str, tuple[str, ...]]]:
    """(experiment, extra flags) of each CLI run: the table's entries, then ``EXTRA_RUNS``."""
    return [(experiment, ()) for experiment in EXPERIMENTS] + list(EXTRA_RUNS)


def cli_argv(experiment: str, flags, seed: str, workers: str, out) -> list[str]:
    """The ``modelavg.cli.main`` arguments of one run into ``out``."""
    name, _, method = experiment.partition("-")
    return [name, *(["--method", method] if method else []), *flags,
            "--seed", seed, "--workers", workers, "--out", str(out)]


def emit_digests(seed: str, workers: str, emit) -> int:
    """Pass every digest line at ``seed`` and ``workers`` to ``emit``; return the
    CLI runs' exit statuses or-ed together."""
    rc = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, (experiment, flags) in enumerate(digest_runs()):
            label = f"{experiment}[{' '.join(flags)}]" if flags else experiment
            out = Path(tmp) / f"{k}-{experiment}"
            code = main(cli_argv(experiment, flags, seed, workers, out))
            rc |= code
            if code:  # a failed run leaves no files
                continue
            for path in sorted(out.iterdir()):
                emit(f"{digest(path)}  {label}/{path.name}")
    for label, sample in library_samples(int(seed)):
        emit(f"{hashlib.sha256(sample.values.tobytes()).hexdigest()}  library/{label}")
    return rc


def lines_at(rev: str, seed: str, workers: str) -> list[str]:
    """This script's lines on ``rev``'s ``src``, extracted into a temporary directory."""
    repo = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(repo), "archive", rev, "src"], stdout=subprocess.PIPE, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        path = os.pathsep.join(filter(None, [str(Path(tmp) / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, __file__, "--seed", seed, "--workers", workers],
            env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE, text=True,
        )
    if done.returncode:
        sys.exit(f"output_digests.py on {rev}'s src exited with status {done.returncode}")
    return done.stdout.splitlines()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default="5050")
    parser.add_argument("--workers", default="1")
    parser.add_argument("--against", metavar="REV", default=None,
                        help="compare with the lines of REV's src; print only the differences")
    args = parser.parse_args()
    if args.against is None:
        sys.exit(emit_digests(args.seed, args.workers, print))
    ours: list[str] = []
    rc = emit_digests(args.seed, args.workers, ours.append)
    theirs = lines_at(args.against, args.seed, args.workers)
    diff = [line for line in difflib.ndiff(theirs, ours) if line[:1] in "-+"]
    for line in diff:
        print(line)
    print(f"{len(diff)} differing lines against {args.against} "
          f"({len(ours)} lines here, {len(theirs)} there)", file=sys.stderr)
    sys.exit(rc or (1 if diff else 0))
