"""Turning op outcomes and spans into the benchmark's metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .tracing import self_times

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class OpResult:
    """One timed op: its latency and whether its output passed the checks."""

    ms: float
    ok: bool
    note: str = ""


def _quantile(sorted_values: list, q: float) -> float:
    """Linear-interpolation quantile (numpy's default) of sorted data."""
    pos = (len(sorted_values) - 1) * q
    lo = math.floor(pos)
    frac = pos - lo
    a = sorted_values[lo]
    if frac == 0:  # also keeps 0 * inf out when a failed op sits above
        return a
    b = sorted_values[lo + 1]
    return a if a == b else a + frac * (b - a)


def latencies(results: list) -> list:
    """Per-op latency in ms; an op that failed counts as +inf."""
    return sorted(r.ms if r.ok else math.inf for r in results)


def tail(results: list) -> tuple:
    """(percentile, value_ms) of the highest ladder percentile that leaves at
    least TAIL_MIN_BEYOND samples above it; (None, None) when none does."""
    values = latencies(results)
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            return pct, _quantile(values, pct / 100.0)
    return None, None


def p50(results: list) -> float:
    values = latencies(results)
    return _quantile(values, 0.5) if values else math.nan


def latency_metrics(results: list, wall_s: float) -> dict:
    n_ok = sum(r.ok for r in results)
    pct, tail_ms = tail(results)
    return {
        "p50_ms": p50(results),
        "tail_ms": tail_ms,
        "tail_pct": pct,
        "tail_n": len(results),
        "goodput_per_s": n_ok / wall_s if wall_s > 0 else math.nan,
        "ok_share": n_ok / len(results) if results else math.nan,
    }


def parse_number(value) -> Optional[float]:
    """A report number as float; the strings "inf", "-inf" and "nan" are
    accepted as the program writes non-finite values that way. None when
    the value is missing or not numeric."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


# Per-layer metrics read from the spans: metric -> (span name, what).
#   "ms": summed duration; "self_ms": summed self time; "calls": span count;
#   any other string: summed count of that name.
SPAN_METRICS = {
    "io_formats.read.ms": ("io_formats.read", "ms"),
    "io_formats.read.rows": ("io_formats.read", "rows"),
    "io_formats.write.ms": ("io_formats.write", "ms"),
    "measurement.filter.ms": ("measurement.filter", "ms"),
    "measurement.ingest.ms": ("measurement.ingest", "ms"),
    "measurement.ingest.rows_out": ("measurement.ingest", "rows_out"),
    "measurement.window.ms": ("measurement.window", "ms"),
    "measurement.excitation.ms": ("measurement.excitation", "ms"),
    "estimators.assemble.ms": ("estimators.assemble", "ms"),
    "estimators.assemble.rows": ("estimators.assemble", "rows"),
    "estimators.estimate.self_ms": ("estimators.estimate", "self_ms"),
    "estimators.starts": ("estimators.estimate", "starts"),
    "solvers.sdp.ms": ("solvers.sdp", "ms"),
    "solvers.sdp.calls": ("solvers.sdp", "calls"),
    "solvers.sdp.iterations": ("solvers.sdp", "iterations"),
    "solvers.lm.ms": ("solvers.lm", "ms"),
    "solvers.lm.calls": ("solvers.lm", "calls"),
    "solvers.lm.iterations": ("solvers.lm", "iterations"),
    "solvers.lm.rejected_steps": ("solvers.lm", "rejected_steps"),
    "fisher.fim.ms": ("fisher.fim", "ms"),
    "fisher.fim.calls": ("fisher.fim", "calls"),
    "simulation.trial_data.ms": ("simulation.trial_data", "ms"),
    "simulation.drift_scenario.self_ms": ("simulation.drift_scenario", "self_ms"),
}

# Ratio metrics: metric -> (span name, numerator count, denominator count).
# A ratio over zero attempts reads 0.
RATIO_METRICS = {
    "measurement.filter.kept_ratio": ("measurement.filter", "kept", "in"),
    "estimators.starts_converged_ratio": ("estimators.estimate", "starts_converged", "starts"),
}


def layer_metrics(spans: list, root_name: str, untraced_s: float, traced_s: float) -> dict:
    """Per-op layer metrics from the spans of a traced pass.

    Ops are the spans named `root_name` that have no parent. Besides the
    layer table this gives the op's own self time, the smallest share of
    an op's wall time that its child spans cover, and the tracing overhead
    (traced minus untraced wall time of the same ops, over untraced).
    """
    selfs = self_times(spans)
    roots = [i for i, sp in enumerate(spans) if sp.parent is None and sp.name == root_name]
    n_ops = max(len(roots), 1)
    totals: dict = {}
    for sp, self_s in zip(spans, selfs):
        acc = totals.setdefault(sp.name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        acc["ms"] += sp.duration * 1e3
        acc["self_ms"] += self_s * 1e3
        acc["calls"] += 1
        for key, value in sp.counts.items():
            acc[key] = acc.get(key, 0) + value
    out = {}
    for metric, (name, what) in SPAN_METRICS.items():
        out[metric] = totals.get(name, {}).get(what, 0) / n_ops
    for metric, (name, num, den) in RATIO_METRICS.items():
        acc = totals.get(name, {})
        out[metric] = acc.get(num, 0) / acc[den] if acc.get(den) else 0.0
    root_self = sum(selfs[i] for i in roots)
    out["cli.self_ms"] = root_self * 1e3 / n_ops if root_name == "cli.main" else 0.0
    shares = [1.0 - selfs[i] / spans[i].duration for i in roots if spans[i].duration > 0]
    out["trace.span_coverage"] = min(shares) if shares else 0.0
    out["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s if untraced_s > 0 else 0.0
    return out
