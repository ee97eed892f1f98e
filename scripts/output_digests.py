#!/usr/bin/env python3
"""sha256 of every CLI output file and library replicate array at one seed.

Runs each entry of the experiment table ``modelavg.experiments.EXPERIMENTS``,
in the table's order, at reference scale into a temporary directory and prints
one ``<sha256>  <experiment>/<file>`` line per output. The ``out = ...`` line
of ``resolved_config.txt`` is left out of its digest, since it names the
temporary directory. A few more runs with non-default flags (``EXTRA_RUNS``)
reach the kernel's other branches and figure2's other scoring: the sigma = 0
limits, the scaled pretest, a non-default prior, pooled KS scoring with more
replicates than truth draws, the scaled pretest on size-m subsamples, and
bootstrap engine calls on a ragged last chunk of datasets. Their lines read
``<experiment>[<flags>]/<file>``. Then it prints one
``<sha256>  library/...`` line per replicate array of the library's
resamplers: ``paired_bootstrap`` and ``subsample_distribution`` (m = 20) for
four estimators on the shipped design at sigma = 1 and sigma = 0, and
``mean_model_bootstrap`` with the adaptive weight rule, over three datasets
each with b = 500. Every generator derives from ``--seed``.

All runs share one process, so most Monte Carlo cells are read from the
memo of :func:`modelavg.experiments.mc_estimator_draws` after their first
draw: figure1b reads figure1a's cells, decay riskbound's, the two figure2
methods each other's truth cells, and the scaled-pretest figure1a run
figure1a's. Equal lines from two checkouts thus also show that a cached
cell gives the floats of a fresh draw.

Two checkouts that print the same lines at the same ``--seed`` and
``--workers`` write byte-identical outputs and replicates; run each with its
own ``src`` on ``PYTHONPATH`` and diff the output.
"""

import argparse
import hashlib
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

# (experiment, extra flags): the sigma = 0 limit with <y,y> on the Monte Carlo
# path and on the one-dataset path, a scaled pretest with a small c, a
# non-default prior for bma_exact, two small figure2-subsample runs (pooled
# scoring of 10 * 50 replicates against 200 truth draws, and the scaled
# pretest judged at the subsample's m), and a small figure2-bootstrap run
# whose 7 datasets per beta go to the engine in chunks of 3, 3 and 1.
_SMALL_FIGURE2 = ("--beta-grid", "0,0.3")
EXTRA_RUNS = (
    ("riskbound", ("--sigma", "0")),
    ("single", ("--sigma", "0")),
    ("figure1a", ("--pretest-form", "scaled", "--c", "0.3")),
    ("single", ("--prior-scale", "2", "--prior-p-r", "0.3")),
    ("figure2-subsample", ("--ks-mode", "pooled", "--reps", "200", "--b", "50",
                           "--datasets-per-beta", "10", *_SMALL_FIGURE2)),
    ("figure2-subsample", ("--pretest-form", "scaled", "--c", "0.3", "--reps", "500",
                           "--b", "100", "--datasets-per-beta", "5", *_SMALL_FIGURE2)),
    ("figure2-bootstrap", ("--reps", "300", "--b", "100", "--datasets-per-beta", "7",
                           *_SMALL_FIGURE2)),
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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default="5050")
    parser.add_argument("--workers", default="1")
    args = parser.parse_args()
    runs = [(experiment, ()) for experiment in EXPERIMENTS] + list(EXTRA_RUNS)
    rc = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, (experiment, flags) in enumerate(runs):
            name, _, method = experiment.partition("-")
            label = f"{experiment}[{' '.join(flags)}]" if flags else experiment
            out = Path(tmp) / f"{k}-{experiment}"
            code = main([
                name, *(["--method", method] if method else []), *flags,
                "--seed", args.seed, "--workers", args.workers, "--out", str(out),
            ])
            rc |= code
            if code:  # a failed run leaves no files
                continue
            for path in sorted(out.iterdir()):
                print(f"{digest(path)}  {label}/{path.name}")
    for label, sample in library_samples(int(args.seed)):
        print(f"{hashlib.sha256(sample.values.tobytes()).hexdigest()}  library/{label}")
    sys.exit(rc)
