"""Run configuration: plain-text config files, flag overrides, scale defaults.

Precedence, lowest to highest: built-in defaults, the config file, explicit
flag overrides; a run reads nothing else, the environment included. Defaults
reproduce the reference simulation scale: n = 50, 5000 replications,
pretest threshold sqrt(2), subsample size 0.4 n, a_n = (log n)^2.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields, replace
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .estimators import Pipeline
from .experiments import EXPERIMENTS, Scenario, make_scenario
from .model import TrueParams
from .resampling import STREAM_VERSION, ResamplePlan
from .weights import PretestConfig, default_tuning

DEFAULT_SEED = 1729
# The largest |alpha|, |beta|, |beta_grid| value and sigma a run takes: below it every
# square the experiments compute is finite, riskbound's mc_se (a spread of squared
# errors, which overflows at 1e100) too. Library objects take any finite value.
MAGNITUDE_BOUND = 1e50


@dataclass(frozen=True)
class RunConfig:
    """Settings for one experiment run; an unknown experiment raises ConfigError.

    A run reads only its experiment's :func:`experiment_settings`; set in code,
    any other changes no output, and :func:`parse_config` refuses it.

    An empty ``beta_grid`` and a None ``m`` stay unset until :meth:`resolved`
    fills them, so ``dataclasses.replace`` of ``n`` or ``experiment`` moves
    their defaults along.
    """

    experiment: str
    n: int = 50
    reps: int = 5000
    seed: int = DEFAULT_SEED
    alpha: float = 1.0
    beta: float = 0.5
    sigma: float = TrueParams.sigma
    c: float = PretestConfig.c
    pretest_form: str = PretestConfig.form
    a_n: float | None = None
    k_n: float | None = None
    prior_scale: float = Pipeline.prior_scale
    prior_p_r: float = Pipeline.prior_p_r
    beta_grid: tuple[float, ...] = ()
    b: int = 500
    m: int | None = None
    datasets_per_beta: int = 100
    n_grid: tuple[int, ...] = (25, 50, 100, 200, 400, 800)
    out: str = "out"
    workers: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")

    def resolved(self) -> RunConfig:
        """This config with the unset values filled: an empty ``beta_grid`` takes
        the experiment's default grid, and a None ``m`` the reference subsample
        size 0.4 n, never below the two rows a fit needs."""
        return replace(
            self,
            beta_grid=self.beta_grid or EXPERIMENTS[self.experiment].beta_grid,
            m=max(2, round(0.4 * self.n)) if self.m is None else self.m,
        )

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        # The CPUs this process may run on, which taskset or a container can
        # narrow below the machine's count.
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def scenario(self) -> Scenario:
        """The run's :class:`Scenario`: its frozen design and kernel settings."""
        return make_scenario(
            n=self.n, seed=self.seed, reps=self.reps, alpha=self.alpha, beta=self.beta,
            sigma=self.sigma, c=self.c, a_n=self.a_n, k_n=self.k_n,
            pretest_form=self.pretest_form, prior_scale=self.prior_scale,
            prior_p_r=self.prior_p_r,
        )


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
    "int | None": _scalar(int),
    "float": _finite(_scalar(float)),
    "str": _scalar(str),
    "float | None": _finite(_parse_optional_float),
    "tuple[float, ...]": _finite(_parse_float_grid),
    "tuple[int, ...]": _parse_int_grid,
}

# Config key -> parser, one per RunConfig field. Each key is also a CLI flag
# of the subcommands whose experiments take it.
SETTINGS = {
    f.name: _PARSER_FOR_TYPE[f.type] for f in fields(RunConfig) if f.name != "experiment"
}


def experiment_settings(experiment: str) -> tuple[str, ...]:
    """The config keys ``experiment`` takes, in field order: the settings its
    table entry reads, and ``out`` and ``workers``, which every run takes."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    reads = EXPERIMENTS[experiment].settings
    return tuple(key for key in SETTINGS if key in reads or key in ("out", "workers"))


def _convert(key: str, raw: str, experiment: str):
    """``raw`` as the value of ``key``, which ``experiment`` must take."""
    if key not in SETTINGS:
        raise ConfigError(f"unknown config key {key!r}")
    takes = experiment_settings(experiment)
    if key not in takes:
        raise ConfigError(f"{key}: {experiment} does not read this setting; "
                          f"it takes {', '.join(takes)}")
    return SETTINGS[key](raw, key)


_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path, experiment: str) -> dict:
    """Parse 'key = value' lines; blank lines are ignored.

    A '#' at the start of a line or after whitespace starts a comment, so
    ``seed = 9  # note`` sets 9 and ``out = runs/#3`` keeps its '#'. Keys and
    values are stripped of surrounding whitespace.

    The two lines :func:`echo_config` adds besides the settings are checked,
    not set: ``experiment`` must name ``experiment`` and ``stream_version``
    must equal ``STREAM_VERSION``, so a resolved config loads back only into
    a run that reproduces it. A key that ``experiment`` does not take is
    refused, like an unknown one.
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
                values[key] = _convert(key, raw, experiment)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def _validate(config: RunConfig) -> None:
    # numpy's SeedSequence refuses a negative seed without naming it.
    if config.seed < 0:
        raise ConfigError(f"seed = {config.seed} must be >= 0")
    for key in ("alpha", "beta", "sigma", "beta_grid"):
        value = getattr(config, key)
        for v in value if isinstance(value, tuple) else (value,):
            if abs(v) > MAGNITUDE_BOUND:
                raise ConfigError(f"{key}: |{v!r}| must be <= {MAGNITUDE_BOUND:g}")
    # The run's own objects check the settings they take, the scenario's (n
    # first, then the kernel's) before the plan's: m's default follows n. Each
    # n of the grid meets the bound of its cells' tuning.
    try:
        config.scenario()
        ResamplePlan(config.b, config.resolved().m).size(config.n)
        for n in config.n_grid:
            default_tuning(n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.datasets_per_beta < 1:
        raise ConfigError(f"datasets_per_beta = {config.datasets_per_beta} must be >= 1")
    if config.workers < 0:
        raise ConfigError(f"workers = {config.workers} must be >= 0")


def parse_config(
    experiment: str,
    config_file=None,
    overrides: Mapping[str, str] | None = None,
) -> RunConfig:
    """Merge defaults, config file, and flag overrides; a key the experiment
    does not take (:func:`experiment_settings`) is refused."""
    values: dict = {"experiment": experiment}
    if config_file is not None:
        values.update(read_config_file(config_file, experiment))
    for key, raw in (overrides or {}).items():
        values[key] = _convert(key, str(raw), experiment)
    config = RunConfig(**values)
    _validate(config)
    return config


def echo_config(config: RunConfig, path) -> None:
    """Write the :meth:`RunConfig.resolved` configuration: the experiment, then
    one 'key = value' line per setting it takes (:func:`experiment_settings`).

    A last line records the resample stream layout the outputs were drawn with.
    Raises ConfigError, naming the key, for a value that
    :func:`read_config_file` would not read back as written: one with leading
    or trailing whitespace, a line break, or a '#' that starts a comment.
    """
    lines = []
    config = config.resolved()
    for key in ("experiment", *experiment_settings(config.experiment)):
        value = getattr(config, key)
        if isinstance(value, tuple):
            value = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        value = str(value)
        if value != value.strip() or "\n" in value or "\r" in value or _COMMENT.search(value):
            raise ConfigError(f"{key}: {value!r} cannot be written to a config file and read back")
        lines.append(f"{key} = {value}")
    lines.append(f"stream_version = {STREAM_VERSION}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
