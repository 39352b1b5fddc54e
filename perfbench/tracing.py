"""Outside-in span tracer for the range_rte layers.

The tracer never edits the program. It replaces public functions of the
`range_rte` modules, in every module namespace that holds them, with thin
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Spans stay in memory until `write_spans`.

A wrapped name that the program no longer has is recorded as missing and
reports zero calls, so the benchmark keeps running across refactors that
delete a layer (the SDP solver, the random restarts, ...).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional


def _rows(result, args, kwargs):
    return {"rows": len(result)}


def _filter_counts(result, args, kwargs):
    ranges = args[0] if args else kwargs["ranges"]
    return {"in": len(ranges), "kept": len(result)}


def _ingest_counts(result, args, kwargs):
    return {"rows_out": len(result[0])}


def _assemble_counts(result, args, kwargs):
    return {"rows": int(result.B.shape[0])}


def _estimate_counts(result, args, kwargs):
    solver = result.solver
    return {"starts": int(solver.get("restarts", 0)), "starts_converged": int(solver.get("restarts_converged", 0))}


def _sdp_counts(result, args, kwargs):
    return {"iterations": int(result[2].iterations)}


def _lm_counts(result, args, kwargs):
    return {"iterations": int(result.iterations), "rejected_steps": int(result.evals - result.iterations)}


# (defining module, attribute path, span name, counter). An attribute path
# "A.b" wraps a method of class A; "D[*]" wraps every value of dict D.
LAYER_SPECS: tuple = (
    ("range_rte.io_formats", "read_odometry_csv", "io_formats.read", _rows),
    ("range_rte.io_formats", "read_ranges_csv", "io_formats.read", _rows),
    ("range_rte.io_formats", "load_config", "io_formats.config", None),
    ("range_rte.io_formats", "jsonable", "io_formats.write", None),
    ("range_rte.io_formats", "dump_json", "io_formats.write", None),
    ("range_rte.io_formats", "write_odometry_csv", "io_formats.write", None),
    ("range_rte.io_formats", "write_ranges_csv", "io_formats.write", None),
    ("range_rte.measurement", "sliding_outlier_filter", "measurement.filter", _filter_counts),
    ("range_rte.measurement", "ingest_logs", "measurement.ingest", _ingest_counts),
    ("range_rte.measurement", "SyncedDataset.window", "measurement.window", None),
    ("range_rte.measurement", "motion_excitation_check", "measurement.excitation", None),
    ("range_rte.estimators", "assemble_qcqp", "estimators.assemble", _assemble_counts),
    ("range_rte.estimators", "ESTIMATORS[*]", "estimators.estimate", _estimate_counts),
    ("range_rte.estimators", "sliding_window_estimate", "estimators.sliding_window", None),
    ("range_rte.estimators", "align_target_trajectory", "estimators.align", None),
    ("range_rte.solvers", "sdp_solve", "solvers.sdp", _sdp_counts),
    ("range_rte.solvers", "lm_minimize", "solvers.lm", _lm_counts),
    ("range_rte.fisher", "fim", "fisher.fim", None),
    ("range_rte.fisher", "singularity_report", "fisher.flags", None),
    ("range_rte.fisher", "confidence_intervals", "fisher.ci", None),
    ("range_rte.simulation", "trial_data", "simulation.trial_data", None),
    ("range_rte.simulation", "drift_scenario", "simulation.drift_scenario", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [sp.duration - covered(children.get(i, ()), sp.start, sp.end) for i, sp in enumerate(spans)]


class Tracer:
    """Records spans around calls into the program's layers.

    `install` patches the layers, `restore` undoes every patch; use the
    tracer as a context manager to pair them.
    """

    def __init__(self, specs=LAYER_SPECS):
        self.specs = specs
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    def _wrap(self, fn, name: str, counter):
        active = [False]
        tracer = self

        def wrapper(*args, **kwargs):
            if active[0]:  # recursive call: stays inside the open span
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            active[0] = True
            try:
                result = fn(*args, **kwargs)
            finally:
                active[0] = False
                tracer.close(idx)
            if counter is not None:
                try:
                    tracer.spans[idx].counts = counter(result, args, kwargs)
                except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                    pass  # the layer changed shape: its counts read as zero
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, container, key, value, is_dict: bool) -> None:
        old = container[key] if is_dict else getattr(container, key)
        self._patches.append((container, key, old, is_dict))
        if is_dict:
            container[key] = value
        else:
            setattr(container, key, value)

    def install(self) -> "Tracer":
        namespaces = [m for n, m in list(sys.modules.items()) if n == "range_rte" or n.startswith("range_rte.")]
        for module_name, path, name, counter in self.specs:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            if path.endswith("[*]"):
                table = getattr(module, path[:-3], None)
                if not isinstance(table, dict):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                for key, fn in list(table.items()):
                    self._set(table, key, self._wrap(fn, name, counter), is_dict=True)
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(fn, name, counter)
            if owner_path:  # a method: patch the class only
                self._set(owner, attr, wrapper, is_dict=False)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._set(ns, key, wrapper, is_dict=False)
        return self

    def restore(self) -> None:
        while self._patches:
            container, key, old, is_dict = self._patches.pop()
            if is_dict:
                container[key] = old
            else:
                setattr(container, key, old)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def write_spans(self, path: str) -> None:
        """One JSON object per line: name, start/end (s), parent index, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": i, "name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent, "counts": sp.counts})
                    + "\n"
                )
