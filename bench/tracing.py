"""Spans and counts around tempcast's public functions, kept in memory.

``install`` wraps each function listed in ``WRAPPED`` in every tempcast
module namespace that binds it, because modules look names up in their
own globals: ``backtest`` imported ``grid_search`` and ``hw_fit`` at
import time and ``cli`` holds its own copies, so patching the defining
module alone would miss those calls. Methods are wrapped on their class.

A "span" wrapper records (name, start, end, parent) per call; a "count"
wrapper only counts calls, for functions called once per day or per
step, where a span per call would swamp the figure it measures.
``dump`` writes everything once, when the repetition ends; ``layer_metrics``
turns one dump into the per-layer figures of ``metrics.PER_LAYER``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute, kind)
WRAPPED = (
    ("cli", "main", "span"),
    ("ingest", "parse_cdo_csv", "span"),
    ("ingest", "clean", "span"),
    ("ingest", "clean_report", "span"),
    ("ingest", "to_kelvin", "count"),
    ("series", "next_calendar_day", "count"),
    ("series", "TimeSeries.date_at", "span"),
    ("series", "TimeSeries.dates", "span"),
    ("series", "drop_leap_days", "span"),
    ("series", "validate_series", "span"),
    ("series", "split_at_origin", "span"),
    ("series", "rmse", "span"),
    ("models", "init_state", "span"),
    ("models", "hw_update", "count"),
    ("models", "hw_fit", "span"),
    ("models", "hw_forecast", "span"),
    ("models", "persistence_forecast", "span"),
    ("models", "average_forecast", "span"),
    ("tuning", "grid_search", "span"),
    ("tuning", "one_step_rmse", "span"),
    ("backtest", "run_backtest", "span"),
    ("backtest", "run_experiment", "span"),
    ("backtest", "select_origins", "span"),
    ("backtest", "collect_report", "span"),
)

FORECASTERS = ("models.hw_forecast", "models.persistence_forecast", "models.average_forecast")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.ring_bytes = 0
        self._stack: list[int] = []

    def _span_wrapper(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, inspect.signature(fn).bind(*args, **kwargs), result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "tempcast" or key.startswith("tempcast.")
        ]
        for layer, attribute, kind in WRAPPED:
            module = importlib.import_module(f"tempcast.{layer}")
            name = f"{layer}.{attribute.split('.')[-1]}"
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
            else:
                original = getattr(module, attribute)
            if kind == "span":
                wrapper = self._span_wrapper(name, original, _HOOKS.get(name))
            else:
                wrapper = self._count_wrapper(name, original)
            if "." in attribute:
                setattr(owner, method, wrapper)
                continue
            for target in modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "ring_bytes": self.ring_bytes,
                }
            ),
            encoding="utf-8",
        )


def _grid_search_hook(tracer, bound, result):
    n = len(bound.arguments["train"])
    spec = bound.arguments["spec"]
    season = bound.arguments.get("season_length", 365)
    width = len(spec.alpha_grid) * len(spec.beta_grid) * len(spec.gamma_grid)
    tracer.counts["tuning.evaluations"] += result.evaluations
    tracer.counts["tuning.triple_steps"] += result.evaluations * n
    tracer.ring_bytes = max(tracer.ring_bytes, season * width * 8)


def _parse_hook(tracer, bound, result):
    tracer.counts["ingest.rows"] += len(result)


def _clean_report_hook(tracer, bound, result):
    series, stats = result
    tracer.counts["ingest.interpolated_days"] += stats.interpolated_days
    tracer.counts["ingest.days"] += len(series) + stats.leap_days_dropped


_HOOKS = {
    "tuning.grid_search": _grid_search_hook,
    "ingest.parse_cdo_csv": _parse_hook,
    "ingest.clean_report": _clean_report_hook,
}


def layer_metrics(dump: dict) -> dict:
    """Per-layer figures from one traced repetition's dump.

    Self time is a span's duration minus the durations of its direct
    children; calls are spans plus counted calls.
    """
    spans = dump["spans"]
    counts = Counter(dump["counts"])
    duration = [end - start for _, start, end, _ in spans]
    self_time = list(duration)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[index]
    total: Counter = Counter()
    own: Counter = Counter()
    calls = Counter(counts)
    samples: dict[str, list[float]] = {}
    for index, (name, _, _, _) in enumerate(spans):
        total[name] += duration[index]
        own[name] += self_time[index]
        calls[name] += 1
        samples.setdefault(name, []).append(duration[index])

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    experiments = samples.get("backtest.run_experiment", [])
    return {
        "tuning.grid_search.s": total["tuning.grid_search"],
        "tuning.grid_search.calls": calls["tuning.grid_search"],
        "tuning.evaluations": counts["tuning.evaluations"],
        "tuning.triple_steps": counts["tuning.triple_steps"],
        "tuning.ns_per_triple_step": per(
            total["tuning.grid_search"], counts["tuning.triple_steps"], 1e9
        ),
        "tuning.ring_mb_computed": dump["ring_bytes"] / 1e6,
        "models.hw_fit.s": total["models.hw_fit"],
        "models.hw_fit.calls": calls["models.hw_fit"],
        "models.hw_update.calls": calls["models.hw_update"],
        "models.forecast.s": sum(total[name] for name in FORECASTERS),
        "series.next_calendar_day.calls": calls["series.next_calendar_day"],
        "series.date_at.s": total["series.date_at"],
        "series.dates.s": total["series.dates"],
        "series.drop_leap_days.s": total["series.drop_leap_days"],
        "series.validate_series.s": total["series.validate_series"],
        "ingest.parse_cdo_csv.s": total["ingest.parse_cdo_csv"],
        "ingest.parse_cdo_csv.us_per_row": per(
            total["ingest.parse_cdo_csv"], counts["ingest.rows"], 1e6
        ),
        "ingest.clean_report.self_s": own["ingest.clean_report"],
        "ingest.clean_report.us_per_day": per(
            total["ingest.clean_report"], counts["ingest.days"], 1e6
        ),
        "ingest.rows": counts["ingest.rows"],
        "ingest.interpolated_days": counts["ingest.interpolated_days"],
        "backtest.run_experiment.p50_ms": _quantile(experiments, 0.5) * 1e3,
        "backtest.run_experiment.p80_ms": _quantile(experiments, 0.8) * 1e3,
        "backtest.run_experiment.self_s": own["backtest.run_experiment"],
        "backtest.select_origins.s": total["backtest.select_origins"],
        "backtest.collect_report.s": total["backtest.collect_report"],
        "backtest.experiments": calls["backtest.run_experiment"],
        "cli.main.self_s": own["cli.main"],
    }


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
