"""Spans around calls into each modelavg module, recorded from outside the package.

``experiments``, ``estimators`` and ``cli`` bind their dependencies with
``from .x import y``, so a wrapper only sees the calls made through the name
it replaces. :func:`install` therefore replaces every module-global name a
layer is reached through (``modelavg.experiments.generate_response``,
``modelavg.estimators.bic_weights``, ...), one wrapper per binding.

Spans are kept in memory as ``(id, name, start, end, parent, run_id, error,
attrs)`` and written out when the unit of work ends. A span's self time is its
duration minus the part of it covered by its child spans. Traced runs use one
worker, so all spans lie on one timeline.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

SINGULAR_ERRORS = ("CollinearDesign", "ZeroColumn")

# Per-layer metrics: (name, unit). Counts repeat exactly between runs of the
# same code; *_s are self times in seconds per unit of work.
LAYER_METRICS = (
    ("experiments.resampled_estimates.calls", "count"),
    ("experiments.resampled_estimates.replicates", "count"),
    ("experiments.resampled_estimates.self_s", "s"),
    ("experiments.stream.calls", "count"),
    ("experiments.stream.self_s", "s"),
    ("experiments.ks.calls", "count"),
    ("experiments.ks.points", "count"),
    ("experiments.ks.self_s", "s"),
    ("experiments.batch_estimates.calls", "count"),
    ("experiments.batch_estimates.rows", "count"),
    ("experiments.batch_estimates.self_s", "s"),
    ("experiments.mc_estimator_draws.self_s", "s"),
    ("experiments.sweep.self_s", "s"),
    ("experiments.excluded_datasets", "count"),
    ("model.generate_response.calls", "count"),
    ("model.generate_response.self_s", "s"),
    ("model.compute_design_stats.calls", "count"),
    ("model.compute_design_stats.self_s", "s"),
    ("model.Dataset.rows.calls", "count"),
    ("model.Dataset.rows.self_s", "s"),
    ("estimators.pipeline.calls", "count"),
    ("estimators.pipeline.self_s", "s"),
    ("weights.bic_weights.self_s", "s"),
    ("weights.exact_posterior_weights.self_s", "s"),
    ("weights.adaptive_weights.self_s", "s"),
    ("weights.pretest_select.calls", "count"),
    ("resampling.resample_many.calls", "count"),
    ("resampling.resample_many.replicates", "count"),
    ("resampling.resample_many.self_s", "s"),
    ("resampling.mean_model_bootstrap.calls", "count"),
    ("resampling.mean_model_bootstrap.self_s", "s"),
    ("resampling.attempts", "count"),
    ("resampling.singular_redraws", "count"),
    ("resampling.useful_per_attempt", "ratio"),
    ("config.parse_config.self_s", "s"),
    ("setup.import_s", "s"),
    ("cli.write.calls", "count"),
    ("cli.write.bytes", "B"),
    ("cli.write.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Span name -> (attr summed into a count metric, metric name).
_SUMMED = {
    "experiments.resampled_estimates": ("replicates", "experiments.resampled_estimates.replicates"),
    "experiments.ks": ("points", "experiments.ks.points"),
    "experiments.batch_estimates": ("rows", "experiments.batch_estimates.rows"),
    "resampling.resample_many": ("replicates", "resampling.resample_many.replicates"),
    "cli.write": ("bytes", "cli.write.bytes"),
}


class Tracer:
    """In-memory span recorder; one per traced unit of work."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._next_id = 0
        self._local = threading.local()
        self.missing: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        self._next_id += 1
        span = [self._next_id, name, time.perf_counter(), None,
                stack[-1][0] if stack else None, self.run_id, None, {}]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def traced(self, fn, name: str, attrs=None):
        """``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if attrs is not None:
                span[7].update(attrs(args, kwargs, result))
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.traced(fn, name, attrs))

    def wrap_factory(self, owner, attr: str, name: str) -> None:
        """Wrap the procedures a factory returns (make_multi_pipeline)."""
        factory = getattr(owner, attr, None)
        if factory is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer.traced(factory(*args, **kwargs), name)

        setattr(owner, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": [
                "id", "name", "start", "end", "parent", "run_id", "error", "attrs"
            ], "spans": self.spans}, fh)


def _file_bytes(index: int):
    def attrs(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs.get("path")
        return {"bytes": os.path.getsize(path)}
    return attrs


def install(tracer: Tracer) -> None:
    """Wrap every module-global binding through which a layer is called."""
    from modelavg import cli, config, estimators, experiments, model, resampling, weights

    E, M, S, R, W, C, L = experiments, model, estimators, resampling, weights, config, cli
    t = tracer
    t.wrap(E, "resampled_estimates", "experiments.resampled_estimates",
           lambda a, k, r: {"replicates": (a[2] if len(a) > 2 else k["plan"]).b})
    t.wrap(E, "stream", "experiments.stream")
    t.wrap(E, "_ks_arrays", "experiments.ks",
           lambda a, k, r: {"points": int(a[0].size + a[1].size)})
    t.wrap(E, "batch_estimates", "experiments.batch_estimates",
           lambda a, k, r: {"rows": int((a[3] if len(a) > 3 else k["z"]).shape[0])})
    t.wrap(E, "mc_estimator_draws", "experiments.mc_estimator_draws")
    t.wrap(E, "risk_bound_sweep", "experiments.sweep")
    t.wrap(E, "weight_decay_sweep", "experiments.sweep")
    for owner in (E, M):
        t.wrap(owner, "generate_response", "model.generate_response")
    for owner in (E, M, S, W, L):
        t.wrap(owner, "compute_design_stats", "model.compute_design_stats")
    t.wrap(M.Dataset, "rows", "model.Dataset.rows")
    for owner in (E, S):
        t.wrap_factory(owner, "make_multi_pipeline", "estimators.pipeline")
    for fn in ("bic_weights", "exact_posterior_weights", "adaptive_weights", "pretest_select"):
        t.wrap(S, fn, f"weights.{fn}")
        t.wrap(W, fn, f"weights.{fn}")
    t.wrap(R, "resample_many", "resampling.resample_many",
           lambda a, k, r: {"replicates": (a[2] if len(a) > 2 else k["plan"]).b})
    t.wrap(R, "mean_model_bootstrap", "resampling.mean_model_bootstrap")
    for owner in (C, L):
        t.wrap(owner, "parse_config", "config.parse_config")
    t.wrap(L, "write_rows_csv", "cli.write", _file_bytes(0))
    t.wrap(L, "write_line_plot", "cli.write", _file_bytes(0))
    t.wrap(L, "write_design_csv", "cli.write", _file_bytes(1))
    t.wrap(L, "echo_config", "cli.write", _file_bytes(1))


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s[0]] = (end - start) - covered
    return out


def layer_metrics(spans, work_root: int) -> dict:
    """Per-layer counts and self times of the spans below ``work_root``.

    ``config.parse_config.self_s`` also counts the set-up phase, which is where
    a run parses its configuration first.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    summed = {metric: 0 for _, metric in _SUMMED.values()}
    attempts = redraws = 0
    for s in spans:
        name, chain, parent = s[1], [], s[4]
        while parent is not None:
            chain.append(by_id[parent])
            parent = by_id[parent][4]
        in_work = any(a[0] == work_root for a in chain)
        if in_work or name == "config.parse_config":
            self_s[name] = self_s.get(name, 0.0) + selfs[s[0]]
        if not in_work:
            continue
        calls[name] = calls.get(name, 0) + 1
        if name in _SUMMED:
            key, metric = _SUMMED[name]
            summed[metric] += int(s[7].get(key, 0))
        if any(a[1] == "resampling.resample_many" for a in chain):
            singular = s[6] in SINGULAR_ERRORS
            if name == "estimators.pipeline" or (name == "model.Dataset.rows" and singular):
                attempts += 1
                redraws += singular
    out = dict(summed)
    for metric, _ in LAYER_METRICS:
        if metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".self_s"):
            out[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
    out["resampling.attempts"] = attempts
    out["resampling.singular_redraws"] = redraws
    out["resampling.useful_per_attempt"] = (attempts - redraws) / attempts if attempts else 0.0
    return out
