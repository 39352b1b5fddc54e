"""Tests of the benchmark's own logic: percentiles, failure accounting,
span self time, the outside-in tracer and the smoke mode of run.py."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.summary import OpResult, latency_metrics, layer_metrics, parse_number, tail
from perfbench.tracing import Span, Tracer, covered, self_times

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def ok_ops(n):
    return [OpResult(ms=float(i + 1), ok=True) for i in range(n)]


@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(n, pct):
    got_pct, value = tail(ok_ops(n))
    assert got_pct == pct
    if pct is None:
        assert value is None
    else:
        assert sum(r.ms > value for r in ok_ops(n)) >= 10


def test_failed_op_counts_as_infinite_latency():
    mostly_ok = ok_ops(85) + [OpResult(ms=1.0, ok=False)] * 15
    m = latency_metrics(mostly_ok, wall_s=2.0)
    assert m["p50_ms"] == 50.5 and (m["tail_pct"], m["tail_ms"]) == (90.0, math.inf)
    assert m["ok_share"] == 0.85 and m["goodput_per_s"] == 42.5

    mostly_failed = ok_ops(9) + [OpResult(ms=1.0, ok=False)] * 11
    m = latency_metrics(mostly_failed, wall_s=1.0)
    assert m["p50_ms"] == math.inf and m["goodput_per_s"] == 9.0


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        Span("op", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 9.5, 0),  # overlaps b: covered once
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 4.5, 2.0, 1.0, 4.0, 1.5])
    assert covered([(1.0, 4.0), (3.0, 5.0), (-1.0, 0.5)], 0.0, 10.0) == pytest.approx(4.5)


def test_layer_metrics_per_op_and_coverage():
    spans = [
        Span("cli.main", 0.0, 1.0, None),
        Span("solvers.sdp", 0.1, 0.5, 0, {"iterations": 10}),
        Span("cli.main", 2.0, 3.0, None),
        Span("solvers.sdp", 2.0, 2.9, 2, {"iterations": 20}),
    ]
    m = layer_metrics(spans, "cli.main", untraced_s=1.6, traced_s=2.0)
    assert m["solvers.sdp.calls"] == 1.0
    assert m["solvers.sdp.iterations"] == 15.0
    assert m["solvers.sdp.ms"] == pytest.approx(650.0)
    assert m["cli.self_ms"] == pytest.approx(350.0)
    assert m["trace.span_coverage"] == pytest.approx(0.4)
    assert m["trace.overhead_share"] == pytest.approx(0.25)
    assert m["solvers.lm.calls"] == 0 and m["measurement.filter.kept_ratio"] == 0.0


def _small_dataset():
    from range_rte.simulation import ScenarioConfig, trial_data

    return trial_data(ScenarioConfig(trials=1), 0)[1]


def test_tracer_wraps_every_namespace_nests_and_restores():
    from range_rte import estimators, measurement

    original = estimators.assemble_qcqp
    debias = measurement.debias_squared
    specs = (
        ("range_rte.estimators", "assemble_qcqp", "estimators.assemble", lambda r, a, k: {"rows": r.B.shape[0]}),
        ("range_rte.measurement", "debias_squared", "measurement.debias", None),
    )
    dataset = _small_dataset()
    with Tracer(specs) as tracer:
        assert estimators.debias_squared is not debias  # the caller's namespace is patched too
        estimators.assemble_qcqp(dataset)
    assert estimators.assemble_qcqp is original and estimators.debias_squared is debias
    assert measurement.debias_squared is debias
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("estimators.assemble", None), ("measurement.debias", 0)]
    assert tracer.spans[0].counts == {"rows": len(dataset)}
    assert tracer.missing == []


def test_missing_wrapped_name_reports_zero_calls():
    specs = (
        ("range_rte.solvers", "no_such_solver", "solvers.sdp", None),
        ("range_rte.no_such_module", "f", "solvers.lm", None),
        ("range_rte.estimators", "NO_SUCH_TABLE[*]", "estimators.estimate", None),
    )
    with Tracer(specs) as tracer:
        idx = tracer.open("cli.main")
        tracer.close(idx)
    assert len(tracer.missing) == 3
    m = layer_metrics(tracer.spans, "cli.main", 1.0, 1.0)
    assert m["solvers.sdp.calls"] == 0 and m["solvers.lm.calls"] == 0 and m["estimators.starts"] == 0


def test_counter_on_changed_result_reads_zero():
    from range_rte import estimators

    specs = (("range_rte.estimators", "assemble_qcqp", "estimators.assemble", lambda r, a, k: {"rows": r.no_such_field}),)
    with Tracer(specs) as tracer:
        estimators.assemble_qcqp(_small_dataset())
    assert tracer.spans[0].counts == {}


@pytest.mark.parametrize(
    "raw, expected",
    [("inf", math.inf), ("-inf", -math.inf), (2, 2.0), (0.5, 0.5), (None, None), ("x", None), (True, None), ([1], None)],
)
def test_parse_number_accepts_non_finite_strings(raw, expected):
    assert parse_number(raw) == expected


def test_parse_number_reads_nan_string():
    assert math.isnan(parse_number("nan"))


def test_benchmark_json_agrees_with_metadata():
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = json.loads((HERE / "metadata.json").read_text(encoding="utf-8"))
    registered = [w for w in meta["workloads"] if w["registered"]]
    assert [{"name": w["name"], "why": w["why"]} for w in registered] == bench["workloads"]
    e2e = [{k: m[k] for k in ("name", "unit", "better", "bound")} for m in meta["end_to_end"] if m["registered"]]
    assert e2e == bench["end_to_end"]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in meta["per_layer"]] == bench["per_layer"]
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


def _sandbox(tmp_path, with_source=True):
    """A checkout-like directory: BENCHMARK.json, perfbench/ and (optionally) src/."""
    os.symlink(HERE, tmp_path / "perfbench")
    os.symlink(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_source:
        os.symlink(REPO / "src", tmp_path / "src")
    return tmp_path


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    root = _sandbox(tmp_path, with_source=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(tmp_path, trace):
    root = _sandbox(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--trace", trace],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True and final["attempted"] >= 6
    meta = json.loads((HERE / "metadata.json").read_text(encoding="utf-8"))
    section = "per_layer" if trace == "1" else "end_to_end"
    names = {m["name"] for m in meta[section]}
    for workload in ("logs", "mc", "drift"):
        assert set(final["metrics"][workload]) == names
    if trace == "1":
        for workload in ("mc", "drift"):
            assert final["metrics"][workload]["trace.span_coverage"] >= 0.9
