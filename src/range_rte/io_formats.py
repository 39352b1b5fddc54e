"""File formats: CSV logs, JSON configs and reports.

Odometry CSV: header ``t,px,py,pz,qx,qy,qz,qw`` (seconds, meters,
quaternion scalar-last). Range CSV: header ``t,d``. UTF-8, '.' decimal,
LF newlines; blank lines are skipped. Each file is read in one pass into
a log array (`measurement.ODOMETRY_DTYPE` or `RANGE_DTYPE`, one row per
data line) and checked as a whole: a malformed line, a non-finite value,
a quaternion off unit norm, odometry stamps that are not strictly
increasing or a range that is not positive raise ParseError naming the
file and the first bad line. Floats are written with repr so files
round-trip bit-exactly; all writes are atomic (temp file + rename).

JSON reports and configs keep every number numeric: NaN is written as
null, and +/-inf as the JSON extension numbers Infinity/-Infinity, which
Python's json module writes and reads back as floats. Python floats and
numpy floating scalars and arrays are encoded alike. A report is one
compact line with sorted keys; `python -m json.tool report.json`
pretty-prints it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile

import numpy as np

from .measurement import ODOMETRY_DTYPE, RANGE_DTYPE, odometry_problem, range_problem

ODOM_HEADER = ["t", "px", "py", "pz", "qx", "qy", "qz", "qw"]
RANGE_HEADER = ["t", "d"]


class ParseError(ValueError):
    """Malformed input file or config."""


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path: str, header: list, log: np.ndarray) -> None:
    values = np.ascontiguousarray(log).view(float).reshape(len(log), len(header))
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in values.tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_table(path: str, header: list, dtype: np.dtype, problem) -> np.ndarray:
    """Log array of a CSV file with `header`, checked by `problem`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None or [h.strip() for h in head] != header:
                raise ParseError(f"{path}: expected header {','.join(header)}")
            lines, values = [], []
            for ln, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
                try:
                    values.extend(map(float, row))
                except ValueError as exc:
                    raise ParseError(f"{path}:{ln}: {exc}") from None
                lines.append(ln)
    except ParseError:
        raise
    except (OSError, ValueError) as exc:  # unreadable, or not UTF-8
        raise ParseError(f"{path}: {exc}") from exc
    log = np.array(values).view(dtype)
    found = problem(log)
    if found is not None:
        raise ParseError(f"{path}:{lines[found[0]]}: {found[1]}")
    return log


def write_odometry_csv(path: str, odom: np.ndarray) -> None:
    """Write an odometry log (`measurement.odometry_log`)."""
    _write_table(path, ODOM_HEADER, odom)


def read_odometry_csv(path: str) -> np.ndarray:
    """Odometry log of a CSV file; len() of the result is its row count."""
    return _read_table(path, ODOM_HEADER, ODOMETRY_DTYPE, odometry_problem)


def write_ranges_csv(path: str, ranges: np.ndarray) -> None:
    """Write a range log (`measurement.range_log`)."""
    _write_table(path, RANGE_HEADER, ranges)


def read_ranges_csv(path: str) -> np.ndarray:
    """Range log of a CSV file; len() of the result is its row count."""
    return _read_table(path, RANGE_HEADER, RANGE_DTYPE, range_problem)


def load_config(path: str, defaults: dict) -> dict:
    """Strict config loader: keys not in `defaults` are rejected, defaults filled in."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ParseError(f"{path}: unknown config keys: {sorted(unknown)}")
    cfg = dict(defaults)
    cfg.update(raw)
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def dump_json(path: str, obj) -> None:
    """Write `obj` as a report: converted by `jsonable`, then encoded on
    one line with sorted keys. With no indent, json's C encoder runs."""
    atomic_write_text(path, json.dumps(jsonable(obj), sort_keys=True) + "\n")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps.

    Floats become Python floats, NaN becomes None and +/-inf stays a float
    (see the module docstring).
    """
    if type(obj) is float:  # most leaves of a report
        return None if obj != obj else obj
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return None if obj != obj else obj
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj
