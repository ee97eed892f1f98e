"""Run configuration: plain-text config files, flag overrides, scale defaults.

Precedence, lowest to highest: built-in defaults, the MODELAVG_SEED environment
variable (seed only), the config file, explicit flag overrides. Defaults
reproduce the reference simulation scale: n = 50, 5000 replications,
pretest threshold sqrt(2), subsample size 0.4 n, a_n = (log n)^2.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .experiments import EXPERIMENTS
from .resampling import STREAM_VERSION

SEED_ENV_VAR = "MODELAVG_SEED"
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one experiment run."""

    experiment: str
    n: int = 50
    reps: int = 5000
    seed: int = DEFAULT_SEED
    alpha: float = 1.0
    beta: float = 0.5
    sigma: float = 1.0
    c: float = math.sqrt(2.0)
    pretest_form: str = "t"
    a_n: float | None = None
    k_n: float | None = None
    prior_scale: float = 1.0
    prior_p_r: float = 0.5
    beta_grid: tuple[float, ...] = ()
    b: int = 500
    m: int = 0
    datasets_per_beta: int = 100
    ks_mode: str = "per_dataset"
    n_grid: tuple[int, ...] = (25, 50, 100, 200, 400, 800)
    out: str = "out"
    workers: int = 0

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        # The CPUs this process may run on, which taskset or a container can
        # narrow below the machine's count.
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


def _parse_float_grid(text: str, key: str) -> tuple[float, ...]:
    text = text.strip()
    try:
        if ":" in text:
            lo_s, hi_s, count_s = text.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
            if count < 1:
                raise ValueError
            with np.errstate(invalid="ignore"):  # infinite bounds are refused by _finite
                return tuple(float(v) for v in np.linspace(lo, hi, count))
        values = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"{key}: expected 'lo:hi:count' or a comma list, got {text!r}") from None
    if not values:
        raise ConfigError(f"{key}: grid must be non-empty")
    return values


def _parse_int_grid(text: str, key: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"{key}: expected a comma list of integers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{key}: grid must be non-empty")
    return values


def _parse_optional_float(text: str, key: str) -> float | None:
    if text.strip().lower() in ("none", ""):
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _scalar(kind):
    def parse(text: str, key: str):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}") from None

    return parse


def _finite(parse):
    """``parse``, refusing a nan or an infinity, which every bound check lets pass."""

    def checked(text: str, key: str):
        value = parse(text, key)
        values = value if isinstance(value, tuple) else (value,)
        if any(v is not None and not math.isfinite(v) for v in values):
            raise ConfigError(f"{key}: values must be finite, got {text!r}")
        return value

    return checked


# One parser per field annotation (annotations are strings under
# ``from __future__ import annotations``).
_PARSER_FOR_TYPE = {
    "int": _scalar(int),
    "float": _finite(_scalar(float)),
    "str": _scalar(str),
    "float | None": _finite(_parse_optional_float),
    "tuple[float, ...]": _finite(_parse_float_grid),
    "tuple[int, ...]": _parse_int_grid,
}

# Config key -> parser, one per RunConfig field. Each key is also a CLI flag.
SETTINGS = {
    f.name: _PARSER_FOR_TYPE[f.type] for f in fields(RunConfig) if f.name != "experiment"
}


def _convert(key: str, raw: str):
    if key not in SETTINGS:
        raise ConfigError(f"unknown config key {key!r}")
    return SETTINGS[key](raw, key)


_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path, experiment: str | None = None) -> dict:
    """Parse 'key = value' lines; blank lines are ignored.

    A '#' at the start of a line or after whitespace starts a comment, so
    ``seed = 9  # note`` sets 9 and ``out = runs/#3`` keeps its '#'. Keys and
    values are stripped of surrounding whitespace.

    The two lines :func:`echo_config` adds besides the settings are checked,
    not set: ``experiment`` must name ``experiment`` and ``stream_version``
    must equal ``STREAM_VERSION``, so a resolved config loads back only into
    a run that reproduces it.
    """
    checked = {"experiment": experiment, "stream_version": str(STREAM_VERSION)}
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = _COMMENT.split(line, 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key in checked:
                if raw != checked[key]:
                    raise ConfigError(
                        f"{path}:{lineno}: {key} = {raw}, but this run has {key} = {checked[key]}"
                    )
                continue
            try:
                values[key] = _convert(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def _validate(config: RunConfig) -> None:
    if config.n < 2:
        raise ConfigError(f"n = {config.n} must be >= 2")
    if config.reps < 1:
        raise ConfigError(f"reps = {config.reps} must be >= 1")
    if config.seed < 0:
        raise ConfigError(f"seed = {config.seed} must be >= 0")
    if config.sigma < 0:
        raise ConfigError(f"sigma = {config.sigma} must be >= 0")
    if config.c < 0:
        raise ConfigError(f"c = {config.c} must be >= 0")
    if config.pretest_form not in ("t", "scaled"):
        raise ConfigError(f"pretest_form must be 't' or 'scaled', got {config.pretest_form!r}")
    if config.a_n is not None and config.a_n <= 0:
        raise ConfigError(f"a_n = {config.a_n} must be > 0")
    if config.k_n is not None and config.k_n <= 0:
        raise ConfigError(f"k_n = {config.k_n} must be > 0")
    if config.prior_scale <= 0:
        raise ConfigError(f"prior_scale = {config.prior_scale} must be > 0")
    if not 0 < config.prior_p_r < 1:
        raise ConfigError(f"prior_p_r = {config.prior_p_r} must lie in (0, 1)")
    if not config.beta_grid:
        raise ConfigError("beta_grid must be non-empty")
    if config.b < 1:
        raise ConfigError(f"b = {config.b} must be >= 1")
    if not 2 <= config.m <= config.n:
        # A one-row subsample cannot fit the two-regressor model.
        raise ConfigError(f"m = {config.m} must lie in [2, n = {config.n}]")
    if config.datasets_per_beta < 1:
        raise ConfigError(f"datasets_per_beta = {config.datasets_per_beta} must be >= 1")
    if config.ks_mode not in ("per_dataset", "pooled"):
        raise ConfigError(f"ks_mode must be 'per_dataset' or 'pooled', got {config.ks_mode!r}")
    if not config.n_grid or any(n < 2 for n in config.n_grid):
        raise ConfigError("n_grid must be a non-empty list of integers >= 2")
    if config.workers < 0:
        raise ConfigError(f"workers = {config.workers} must be >= 0")


def parse_config(
    experiment: str,
    config_file=None,
    overrides: Mapping[str, str] | None = None,
    env: Mapping[str, str] | None = None,
) -> RunConfig:
    """Merge defaults, environment seed, config file, and flag overrides."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    env = os.environ if env is None else env
    values: dict = {"experiment": experiment}
    if SEED_ENV_VAR in env:
        try:
            values["seed"] = int(env[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR}: expected an integer, got {env[SEED_ENV_VAR]!r}"
            ) from None
    if config_file is not None:
        values.update(read_config_file(config_file, experiment))
    for key, raw in (overrides or {}).items():
        values[key] = _convert(key, str(raw))
    values.setdefault("beta_grid", EXPERIMENTS[experiment].beta_grid)
    if "m" not in values:
        # Reference scale ties the subsample size to the sample size (0.4 n),
        # but never below the two rows a fit needs.
        values["m"] = max(2, round(0.4 * values.get("n", RunConfig.n)))
    config = RunConfig(**values)
    _validate(config)
    return config


def echo_config(config: RunConfig, path) -> None:
    """Write the fully resolved configuration, one 'key = value' line per field.

    A last line records the resample stream layout the outputs were drawn with.
    Raises ConfigError, naming the key, for a value that
    :func:`read_config_file` would not read back as written: one with leading
    or trailing whitespace, a line break, or a '#' that starts a comment.
    """
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        value = str(value)
        if value != value.strip() or "\n" in value or "\r" in value or _COMMENT.search(value):
            raise ConfigError(f"{f.name}: {value!r} cannot be written to a config file and read back")
        lines.append(f"{f.name} = {value}")
    lines.append(f"stream_version = {STREAM_VERSION}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
