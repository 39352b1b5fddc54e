#!/usr/bin/env python3
"""Benchmark of range_rte: end-to-end and per-layer metrics.

Run from the root of a source checkout (the program is imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload mc --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 perfbench/run.py --workload all --smoke

--workload   logs | mc | drift, or `all` to run each in turn in a fresh
             process and print one table
--trace 0    end-to-end metrics, measured with no tracing
--trace 1    per-layer metrics: the ops of an untraced pass are replayed
             with the layers wrapped (tracing.py); the wall-time difference
             of the two passes is the tracing overhead
--smoke      minimal input sizes and two ops per workload, for tests

Everything runs in one process on one thread; BLAS is pinned to one
thread. Lines before the last describe the run and every metric with its
unit and direction; the last line is one JSON object with the keys
correct, attempted, failed and metrics, holding the metrics that
BENCHMARK.json registers (metadata.json says which and why). An op whose
output fails its check counts in `failed`; `correct` is false when an op
raised out of the program's entry point. Work files and a full result
record go to .bench_build/perfbench/.

Every run also checks a noiseless Monte-Carlo cell and, untimed unless the
workload is mc, computes the accuracy metrics, so that each registered
metric exists for each registered workload.

setup_s, p50_ms, tail_ms and goodput_per_s are stated at one nominal
machine speed: each time is scaled by a reference kernel timed just before
and after it (reference.py), which cancels the speed swings of a shared
host. The values as measured are printed as well and recorded as raw.*.

Exit codes: 0 result printed, 2 no program source in this directory or bad
arguments, 3 an output check failed (noiseless Monte-Carlo recovery).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_PIN = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
PROGRAM_ENV = {**BLAS_PIN, "RANGE_RTE_THREADS": "1"}
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
HERE = Path(__file__).resolve().parent
METADATA = json.loads((HERE / "metadata.json").read_text(encoding="utf-8"))
ORDER = ("logs", "mc", "drift")
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import range_rte, range_rte.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def git_commit(root: Path):
    """Commit of the checkout, read from .git without running git; None
    when the directory is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(args, sizes) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pin": BLAS_PIN,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "sizes": sizes.__dict__,
    }


def measure_setup(repeats: int) -> tuple:
    """Median time, in a fresh interpreter each, to import the package and
    its CLI: (at the nominal machine speed, as measured). One unmeasured
    import first fills the bytecode cache."""
    from perfbench import reference

    env = {**os.environ, **PROGRAM_ENV, "PYTHONPATH": str(SRC)}
    raw, scaled = [], []
    before = reference.kernel_ms()
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        after = reference.kernel_ms()
        if i:
            raw.append(float(out.stdout.strip().splitlines()[-1]))
            scaled.append(raw[-1] * reference.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Op:
    """One executed op. `ms` is its wall time as measured, `scaled_ms` the
    same time at the nominal machine speed (reference.py)."""

    index: int
    inputs: object
    output: object
    ms: float
    scaled_ms: float


def run_ops(workload, indices, seconds: float, tracer=None) -> tuple:
    """Run ops in order until their summed wall time reaches `seconds` or
    `indices` runs out; inside a root span of `tracer` when one is given.

    Inputs are prepared, the reference kernel timed and outputs checked
    outside the timed region. Returns (ops, process CPU seconds of the ops).
    """
    from perfbench import reference

    ops, wall, cpu = [], 0.0, 0.0
    before = reference.kernel_ms()
    for i in indices:
        if wall >= seconds:
            break
        inputs = workload.inputs(i)
        span = tracer.open(workload.root_span) if tracer else None
        cpu_start, start = time.process_time(), time.perf_counter()
        output = guarded(workload.run, inputs)
        ms = (time.perf_counter() - start) * 1e3
        cpu += time.process_time() - cpu_start
        if tracer:
            tracer.close(span)
        after = reference.kernel_ms()
        ops.append(Op(i, inputs, output, ms, ms * reference.scale(before, after)))
        before = after
        wall += ms / 1e3
    return ops, cpu


class Crash:
    """An exception that escaped the program's entry point during an op."""

    def __init__(self, exc: BaseException):
        self.note = f"crash: {type(exc).__name__}: {exc}"


def guarded(fn, inputs):
    try:
        return fn(inputs)
    except Exception as exc:  # noqa: BLE001 - a crashing op is counted, the run goes on
        return Crash(exc)


def checked(workload, ops) -> tuple:
    """(results at the nominal speed, results as measured) of `ops`."""
    from perfbench.summary import OpResult

    scaled, raw = [], []
    for op in ops:
        ok, note = (False, op.output.note) if isinstance(op.output, Crash) else workload.check(op.inputs, op.output)
        scaled.append(OpResult(ms=op.scaled_ms, ok=ok, note=note))
        raw.append(OpResult(ms=op.ms, ok=ok, note=note))
    return scaled, raw


def run_one(args) -> int:
    from perfbench import workloads as wl
    from perfbench.summary import latency_metrics, layer_metrics
    from perfbench.tracing import Tracer

    sizes = wl.Sizes.smoke() if args.smoke else wl.Sizes()
    WORK.mkdir(parents=True, exist_ok=True)
    work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args, sizes)
    indices = range(sizes.smoke_ops) if sizes.smoke_ops else range(10**9)
    seconds = math.inf if sizes.smoke_ops else args.seconds

    metrics: dict = {}
    if not args.trace:
        metrics["setup_s"], metrics["raw.setup_s"] = measure_setup(sizes.setup_repeats)

    noiseless = wl.noiseless_check(args.seed, sizes.noiseless_trials)
    if not noiseless["ok"]:
        print(f"output check failed: noiseless Monte-Carlo cell {noiseless}", file=sys.stderr)
        return 3

    workload = wl.WORKLOADS[args.workload](args.seed, str(work_dir), sizes)
    workload.setup()
    workload.warmup()

    if not args.trace:
        ops, cpu = run_ops(workload, indices, seconds)
        results, raw = checked(workload, ops)
        metrics.update(latency_metrics(results, sum(op.scaled_ms for op in ops) / 1e3))
        wall = sum(op.ms for op in ops) / 1e3
        metrics.update({"raw." + k: v for k, v in latency_metrics(raw, wall).items()})
        metrics["loop_cpu_share"] = cpu / wall
        metrics.update(wl.flagged_share(args.seed, sizes.flagged_per_kind))
        mc_outputs = [op.output for op in ops] if args.workload == "mc" else []
        metrics.update(wl.accuracy(args.seed, sizes.accuracy_trials, mc_outputs))
        if args.workload == "drift":
            metrics["traj_rmse_m"] = workload.traj_rmse([op.inputs for op in ops])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        ops, _ = run_ops(workload, indices, seconds / 2.0)
        results, _ = checked(workload, ops)
        with Tracer() as tracer:
            traced, _ = run_ops(workload, [op.index for op in ops], math.inf, tracer)
        tracer.write_spans(str(work_dir / "spans.jsonl"))
        results += checked(workload, traced)[0]
        untraced_s = sum(op.scaled_ms for op in ops) / 1e3
        traced_s = sum(op.scaled_ms for op in traced) / 1e3
        metrics.update(layer_metrics(tracer.spans, workload.root_span, untraced_s, traced_s))
        metrics["trace.ops"] = len(traced)
        metrics["trace.missing"] = tracer.missing

    env["ops"] = len(results)
    failed = sum(not r.ok for r in results)
    crashed = sum(r.note.startswith("crash:") for r in results)
    notes = sorted({r.note for r in results if r.note})
    record = {
        "env": env,
        "noiseless": noiseless,
        "metrics": metrics,
        "correct": crashed == 0,
        "attempted": len(results),
        "failed": failed,
        "failure_notes": notes,
    }
    (work_dir / "result.json").write_text(json.dumps(record, indent=2, default=_json_default) + "\n", encoding="utf-8")

    section = "per_layer" if args.trace else "end_to_end"
    print("env " + json.dumps(env, default=_json_default))
    print(f"noiseless check: max error {noiseless['max_err_t_m']:.3g} m, {noiseless['max_err_theta_rad']:.3g} rad (limit {wl.NOISELESS_TOL:g})")
    if not args.trace:
        print(
            f"as measured on this host: setup {_fmt(metrics['raw.setup_s'])} s, p50 {_fmt(metrics['raw.p50_ms'])} ms, "
            f"goodput {_fmt(metrics['raw.goodput_per_s'])}/s; process CPU / wall {metrics['loop_cpu_share']:.3f}"
        )
    if notes:
        print(f"failed ops: {failed} of {len(results)}; " + "; ".join(notes[:5]))
    for line in describe(metrics, section, args.workload):
        print(line)
    final = {
        "correct": record["correct"],
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": _finite_or_none(metrics.get(m["name"])), "unit": m["unit"]}
            for m in METADATA[section]
            if m.get("registered", True)
        },
    }
    print(json.dumps(final))
    return 0


def _finite_or_none(value):
    if isinstance(value, (int, float)) and math.isfinite(value):
        return value
    return None


def _json_default(obj):
    return str(obj)


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.6g}"
    return str(value)


def describe(metrics: dict, section: str, workload: str) -> list:
    """One line per metric: name, value, unit, direction, and the tail's
    percentile and sample count where that applies."""
    lines = []
    for m in METADATA[section]:
        value = metrics.get(m["name"])
        applies = workload in m.get("applies_to", ORDER)
        extra = ""
        if m["name"] == "tail_ms":
            pct = metrics.get("tail_pct")
            extra = f"  (p{pct:g} of {metrics.get('tail_n')} ops)" if pct else f"  (no ladder percentile has 10 of {metrics.get('tail_n')} ops beyond it)"
        shown = _fmt(value) if applies else "n/a"
        lines.append(f"{m['name']:<36} {shown:>14} {m['unit']:<6} {m['better']} is better{extra}")
    return lines


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    table, total, failed, correct = {}, 0, 0, True
    for name in ORDER:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        record = json.loads((WORK / f"{name}-seed{args.seed}-trace{args.trace}" / "result.json").read_text(encoding="utf-8"))
        table[name] = record["metrics"]
        correct = correct and record["correct"]
        total += record["attempted"]
        failed += record["failed"]
    section = "per_layer" if args.trace else "end_to_end"
    print("== all workloads")
    print(f"{'metric':<36} " + " ".join(f"{n:>12}" for n in ORDER) + "  unit    better")
    for m in METADATA[section]:
        cells = [_fmt(table[n].get(m["name"])) if n in m.get("applies_to", ORDER) else "n/a" for n in ORDER]
        print(f"{m['name']:<36} " + " ".join(f"{c:>12}" for c in cells) + f"  {m['unit']:<7} {m['better']}")
    metrics = {n: {m["name"]: _finite_or_none(table[n].get(m["name"])) for m in METADATA[section]} for n in ORDER}
    print(json.dumps({"correct": correct, "attempted": total, "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=ORDER + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "range_rte" / "__init__.py").is_file():
        print(f"no program source: {SRC / 'range_rte'} not found; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update(PROGRAM_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE.parent))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
