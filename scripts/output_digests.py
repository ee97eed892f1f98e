#!/usr/bin/env python3
"""sha256 of every output file of the seven CLI experiments at one seed.

Runs each experiment of ``modelavg.config.EXPERIMENTS`` at reference scale into
a temporary directory and prints one ``<sha256>  <experiment>/<file>`` line per
output. The ``out = ...`` line of ``resolved_config.txt`` is left out of its
digest, since it names the temporary directory. Two checkouts that print the
same lines at the same ``--seed`` and ``--workers`` write byte-identical
outputs; run each with its own ``src`` on ``PYTHONPATH`` and diff the output.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from modelavg.cli import main
from modelavg.config import EXPERIMENTS


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "resolved_config.txt":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(b"out = "))
    return hashlib.sha256(data).hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default="5050")
    parser.add_argument("--workers", default="1")
    args = parser.parse_args()
    rc = 0
    with tempfile.TemporaryDirectory() as tmp:
        for experiment in EXPERIMENTS:
            name, _, method = experiment.partition("-")
            out = Path(tmp) / experiment
            code = main([
                name, *(["--method", method] if method else []),
                "--seed", args.seed, "--workers", args.workers, "--out", str(out),
            ])
            rc |= code
            if code:  # a failed run leaves no files
                continue
            for path in sorted(out.iterdir()):
                print(f"{digest(path)}  {experiment}/{path.name}")
    sys.exit(rc)
