"""Command-line entry points and their options.

  estimate   one-shot transform estimate from odometry + range CSV logs
             (--odom-a, --odom-b, --ranges, --config, --out)
  simulate   Monte-Carlo evaluation cells (--config, --out-dir, which
             receives results.csv and summary.json)
  fim        information analysis of CSV logs at a given transform
             (--odom-a, --odom-b, --ranges, --config, --theta, --out)
  drift      sliding-window drift-correction scenario (--config, --out)

Every other setting is a key of the command's JSON config, loaded by
`_config` over one defaults table: ESTIMATE_DEFAULTS (`estimate`, `fim`),
SIM_DEFAULTS (`simulate`) or DRIFT_DEFAULTS (`drift`). The `simulate` and
`drift` defaults are those of their config objects,
`simulation.ScenarioConfig` and `simulation.DriftConfig`, each field
under its key of SIM_FIELDS or DRIFT_FIELDS; the estimator and lever-arm
keys default as `estimate`'s. A key's suffix names its unit (_m, _rad,
_s, _hz).

Exit codes: 0 success, 2 parse/config error or an output that cannot be
written, 3 insufficient data (no range covered by both odometry logs or
left after the outlier gate) or a singular configuration
(`fisher.FimArrays.singular` at the estimate), 4 solver failure
(`DegenerateSolutionError`).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import io_formats as iof
from .estimators import DegenerateSolutionError, ESTIMATORS
from .fisher import (
    DET_SUBSET_CAP,
    ExpansionTooLargeError,
    FimArrays,
    InsufficientDataError,
    SingularGeometryError,
    confidence_intervals,
    det_fim_geometric,
    fim,
    singularity_flags,
)
from .geometry import LeverArm, Transform4DoF
from .measurement import NoOverlapError, ingest_logs, odometry_log, range_log, range_rate_outliers
from .simulation import DriftConfig, ScenarioConfig, drift_scenario, monte_carlo_run, trial_data, trial_dataset

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_SOLVER = 4

OUTLIER_MODES = ("odometry", "none")

ESTIMATE_DEFAULTS = {
    "sigma_r_m": 0.1,
    "estimator": "qcqp",
    "lever_arm_a_m": [0.0, 0.0, 0.0],
    "lever_arm_b_m": [0.0, 0.0, 0.0],
    # d0 constrains ||t|| in the `sdp` relaxation only; `qcqp` and `nls`
    # fit it, and the FIM counts it, as one more range between the frame
    # origins, unless it is the first range itself
    "d0_m": None,
    # "odometry" rejects the synced ranges that break the odometry-bounded
    # range rate (measurement.range_rate_outliers); "none" keeps them all
    "outlier_mode": "odometry",
}

# The config key of each field of `ScenarioConfig` (`simulate`) and of
# `DriftConfig` (`drift`); ScenarioConfig.lever_arms is read from the two
# lever-arm keys (`_lever_arms`). A key's default is its field's.
SIM_FIELDS = {"d0_m": "d0", "radius_m": "D", "n_poses": "n_poses", "sigma_r_m": "sigma_r", "sigma_o_m": "sigma_o",
              "trials": "trials", "seed": "seed"}
# sigma_t_m and sigma_theta_rad: random-walk intensities of the true transform, per sqrt(second)
DRIFT_FIELDS = {"d0_m": "d0", "sigma_r_m": "sigma_r", "sigma_o_m": "sigma_o", "seed": "seed", "sigma_t_m": "sigma_t",
                "sigma_theta_rad": "sigma_theta", "duration_s": "duration", "window": "window", "rate_hz": "rate",
                "stride": "stride"}


def _field_defaults(config_type, fields: dict) -> dict:
    """The default of each field of `fields` under its config key."""
    defaults = {f.name: f.default for f in dataclasses.fields(config_type)}
    return {key: defaults[name] for key, name in fields.items()}


SIM_DEFAULTS = {
    **_field_defaults(ScenarioConfig, SIM_FIELDS),
    **{key: ESTIMATE_DEFAULTS[key] for key in ("estimator", "lever_arm_a_m", "lever_arm_b_m")},
    "emit_logs": False,
    "cells": None,
}
DRIFT_DEFAULTS = {**_field_defaults(DriftConfig, DRIFT_FIELDS), "estimator": ESTIMATE_DEFAULTS["estimator"]}
# the keys a simulate cell may set
CELL_KEYS = {*SIM_FIELDS, "estimator"}


NUMBER = ((int, float), "a number")
# The JSON type of a config value, as (the types json.load gives it, its
# name), by the type of its key's default; a number is never a bool,
# whose type is bool. A key whose default is null also takes null
VALUE_TYPES = {bool: ((bool,), "a boolean"), int: NUMBER, float: NUMBER, str: ((str,), "a string"),
               list: ((list,), "a list of numbers")}
NULL_DEFAULT_TYPES = {"d0_m": NUMBER, "stride": ((int,), "an integer"), "cells": ((list,), "a list")}
CHOICES = {"estimator": tuple(sorted(ESTIMATORS)), "outlier_mode": OUTLIER_MODES}


def _check_values(values: dict, defaults: dict, where) -> None:
    """Raise ParseError naming `where` and the key unless each value has
    its JSON type (VALUE_TYPES) or, for a key of CHOICES, is one of its
    names. Each simulate cell must be an object of CELL_KEYS, whose
    values are checked the same way."""
    for key, value in values.items():
        default = defaults[key]
        if key in CHOICES:
            if not (type(value) is str and value in CHOICES[key]):
                raise iof.ParseError(f"{where}: {key} must be one of {list(CHOICES[key])}, got {value!r}")
            continue
        types, name = NULL_DEFAULT_TYPES[key] if default is None else VALUE_TYPES[type(default)]
        ok = type(value) in types or default is None and value is None
        if type(default) is list:  # a lever arm
            ok = ok and all(type(v) in NUMBER[0] for v in value)
        if not ok:
            raise iof.ParseError(f"{where}: {key} must be {name}, got {value!r}")
    for i, cell in enumerate(values.get("cells") or ()):
        if type(cell) is not dict or set(cell) - CELL_KEYS:
            raise iof.ParseError(f"{where}: cells[{i}] must be an object of keys in {sorted(CELL_KEYS)}, got {cell!r}")
        _check_values(cell, defaults, f"{where}: cells[{i}]")


def _information_payload(info: FimArrays, T: Transform4DoF) -> dict:
    """kappa, std_errors, flags and ci95 of a FIM of one at T, the flags
    those of `fisher.singularity_flags`. std_errors and ci95 are None
    where the FIM is not invertible."""
    invertible = info.invertible.tolist()[0]
    return {
        "kappa": info.kappa.tolist()[0],
        "std_errors": info.std_errors[0] if invertible else None,
        "flags": dataclasses.asdict(singularity_flags(info)),
        "ci95": confidence_intervals(T.as_vector()[None], info)[0] if invertible else None,
    }


def _config(path, defaults: dict) -> dict:
    """The config at path over `defaults` (a key not in them fails), or
    the defaults when path is None, checked by `_check_values`."""
    cfg = iof.load_config(path, defaults) if path else dict(defaults)
    _check_values(cfg, defaults, path)
    return cfg


def _lever_arms(cfg: dict) -> tuple[LeverArm, LeverArm]:
    """The host and target lever arms of a config."""
    return tuple(LeverArm(np.asarray(cfg[key], dtype=float)) for key in ("lever_arm_a_m", "lever_arm_b_m"))


def _scenario_from_config(cfg: dict) -> ScenarioConfig:
    return ScenarioConfig(**{name: cfg[key] for key, name in SIM_FIELDS.items()}, lever_arms=_lever_arms(cfg))


def _ingest(args, cfg: dict):
    """Read the three CSV logs of args and sync them as `cfg` says: lever
    arms, sigma_r_m and d0_m. Returns (ranges read, dataset, uncovered dropped)."""
    odom_a = iof.read_odometry_csv(args.odom_a)
    odom_b = iof.read_odometry_csv(args.odom_b)
    ranges = iof.read_ranges_csv(args.ranges)
    arm_a, arm_b = _lever_arms(cfg)
    dataset, n_dropped = ingest_logs(
        odom_a, odom_b, ranges, arm_a=arm_a, arm_b=arm_b, sigma_r=cfg["sigma_r_m"], d0=cfg["d0_m"]
    )
    return len(ranges), dataset, n_dropped


def cmd_estimate(args) -> int:
    cfg = _config(args.config, ESTIMATE_DEFAULTS)
    n_ranges, dataset, n_dropped = _ingest(args, cfg)
    n_outliers = 0
    if cfg["outlier_mode"] == "odometry":
        outliers = range_rate_outliers(dataset)
        n_outliers = int(outliers.sum())
        if n_outliers == len(dataset):
            raise InsufficientDataError(f"the outlier gate rejected all {n_outliers} ranges: none is left to fit")
        # a d0 read off a rejected first range goes with it
        dataset = dataset.select(~outliers, keep_d0=cfg["d0_m"] is not None or not outliers[0])

    report = {
        "command": "estimate",
        "config": cfg,
        "config_hash": iof.config_hash(cfg),
        "counts": {
            "ranges_in": n_ranges,
            "outliers_rejected": n_outliers,
            "uncovered_dropped": n_dropped,
            "used": len(dataset),
        },
    }
    est = ESTIMATORS[cfg["estimator"]](dataset)
    report["estimate"] = {"t_m": est.theta_hat.t, "theta_rad": est.theta_hat.theta}
    report.update(_information_payload(est.fim, est.theta_hat))
    report["solver"] = est.solver
    iof.dump_json(args.out, report)
    if est.flags.configuration_singular:
        return EXIT_SINGULAR
    return EXIT_OK


def _expand_cells(cfg: dict) -> list[dict]:
    base = {k: cfg[k] for k in CELL_KEYS}
    return [{**base, **overrides} for overrides in cfg["cells"] or [{}]]


def _emit_trial_logs(out_dir, cell_idx, trial, estimator, truth, dataset):
    """Write antenna-frame logs reproducing this trial's dataset, its truth
    (t, theta) and the config that runs `estimator` on the logs.

    The odometry logs carry the (noisy) antenna positions directly with
    identity attitude at the range stamps, so re-ingestion with zero lever
    arms takes every position as it is and reproduces the in-process
    dataset bit for bit.
    """
    logs = os.path.join(out_dir, "logs")
    os.makedirs(logs, exist_ok=True)
    stem = os.path.join(logs, f"cell{cell_idx:02d}_trial{trial:03d}")
    iof.write_odometry_csv(stem + "_odom_a.csv", odometry_log(dataset.t, dataset.pa))
    iof.write_odometry_csv(stem + "_odom_b.csv", odometry_log(dataset.t, dataset.pb))
    iof.write_ranges_csv(stem + "_ranges.csv", range_log(dataset.t, dataset.d))
    estimate_cfg = dict(ESTIMATE_DEFAULTS)
    estimate_cfg["sigma_r_m"] = dataset.sigma_r
    estimate_cfg["estimator"] = estimator
    # Exact reproduction of the in-process path, which rejects no outliers
    # and takes d0 from the simulation (the noisy first positions are off
    # the origin, so ingest would drop it).
    estimate_cfg["d0_m"] = dataset.d0
    estimate_cfg["outlier_mode"] = "none"
    iof.dump_json(stem + "_estimate_config.json", estimate_cfg)
    iof.dump_json(stem + "_truth.json", {"t_m": truth[0], "theta_rad": truth[1], "d0_m": dataset.d0})


def cmd_simulate(args) -> int:
    cfg = _config(args.config, SIM_DEFAULTS)
    chash = iof.config_hash(cfg)
    cells = _expand_cells(cfg)
    # every cell's scenario is checked, and every cell run, before anything is written
    scenarios = [_scenario_from_config({**cfg, **cell}) for cell in cells]
    runs = [monte_carlo_run(scen, estimator=cell["estimator"]) for cell, scen in zip(cells, scenarios)]

    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    rows = ["cell,trial,e_t,e_theta,crlb_t,crlb_theta,solve_ms,status"]
    summary_cells = []
    for ci, (cell, scen, stats) in enumerate(zip(cells, scenarios, runs)):
        ok = np.isfinite(stats.e_t)
        for trial in range(scen.trials):
            rows.append(
                f"{ci},{trial},{_csv_num(stats.e_t[trial])},{_csv_num(stats.e_theta[trial])},"
                f"{_csv_num(stats.crlb_t[trial])},{_csv_num(stats.crlb_theta[trial])},"
                f"{float(stats.solve_ms[trial])!r},{'ok' if ok[trial] else 'failed'}"
            )
        summary_cells.append(
            {
                "cell": ci,
                "params": cell,
                "rmse_t": stats.rmse_t,
                "rmse_theta": stats.rmse_theta,
                "mse_t": stats.mse_t,
                "mse_theta": stats.mse_theta,
                "crlb_t_mean": stats.crlb_t_mean,
                "crlb_theta_mean": stats.crlb_theta_mean,
                "failures": len(stats.failures),
                "failure_messages": stats.failures,
            }
        )
        if cfg["emit_logs"]:
            (t, theta), trials = trial_data(scen, range(scen.trials))
            for i in range(scen.trials):
                _emit_trial_logs(out_dir, ci, i, cell["estimator"], (t[i], theta[i]), trial_dataset(trials, i))

    iof.atomic_write_text(os.path.join(out_dir, "results.csv"), "\n".join(rows) + "\n")
    iof.dump_json(
        os.path.join(out_dir, "summary.json"),
        {"command": "simulate", "config": cfg, "config_hash": chash, "seed": cfg["seed"], "cells": summary_cells},
    )
    return EXIT_OK


def _csv_num(x) -> str:
    x = float(x)
    return "nan" if math.isnan(x) else repr(x)


def cmd_fim(args) -> int:
    theta = Transform4DoF(t=np.array(args.theta[:3], dtype=float), theta=float(args.theta[3]))
    cfg = _config(args.config, ESTIMATE_DEFAULTS)
    _, dataset, _ = _ingest(args, cfg)
    stack = dataset.stack()
    info = fim(theta.t[None], np.array([theta.theta]), stack.pa, stack.pb, stack.sigma_r)
    payload = {
        "command": "fim",
        "config": cfg,
        "config_hash": iof.config_hash(cfg),
        "k": len(dataset),
        "theta": {"t_m": theta.t, "theta_rad": theta.theta},
        "F": info.F[0],
        "rank": info.rank[0],
        "crlb_t": info.crlb_t[0],
        "crlb_theta": info.crlb_theta[0],
        "det_direct": info.det_f[0],
        **_information_payload(info, theta),
    }
    payload.pop("std_errors")  # the fim report gives the bounds as crlb_t, crlb_theta and ci95
    try:
        payload["det_geometric"] = det_fim_geometric(theta, dataset)
    except InsufficientDataError:
        payload["note"] = "fewer than 4 range rows: determinant decomposition unavailable"
        payload.pop("det_direct")
    except ExpansionTooLargeError:
        payload["note"] = f"more than {DET_SUBSET_CAP} range rows: determinant decomposition not evaluated"
    iof.dump_json(args.out, payload)
    return EXIT_OK


def cmd_drift(args) -> int:
    cfg = _config(args.config, DRIFT_DEFAULTS)
    drift = DriftConfig(**{name: cfg[key] for key, name in DRIFT_FIELDS.items()})
    result = drift_scenario(drift, estimator=cfg["estimator"])
    track = result.windows
    windows = []
    columns = (track.t_end, track.skipped, track.kappa, track.estimate, track.cost)
    for i, (t_end, skipped, kappa, estimate, cost) in enumerate(zip(*(c.tolist() for c in columns))):
        # every window carries its kappa, which says why a skipped one was skipped
        entry = {"index": i, "t_end_s": t_end, "status": "skipped" if skipped else "estimated", "kappa": kappa}
        if not skipped:
            entry["t_m"], entry["theta_rad"], entry["cost"] = estimate[:3], estimate[3], cost
        windows.append(entry)
    payload = {
        "command": "drift",
        "config": cfg,
        "config_hash": iof.config_hash(cfg),
        "seed": cfg["seed"],
        "nc_rmse_m": result.nc_rmse,
        "corrected_rmse_m": result.corrected_rmse,
        "improvement_ratio": (result.corrected_rmse / result.nc_rmse) if result.nc_rmse else None,
        "n_windows": len(track),
        "n_skipped": int(track.skipped.sum()),
        "windows": windows,
    }
    iof.dump_json(args.out, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: an option has one spelling, so
    # `simulate --out` is an error, not `--out-dir`
    p = argparse.ArgumentParser(prog="range-rte", description=__doc__, allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)
    # the CSV logs that `estimate` and `fim` read
    logs = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    for option in ("--odom-a", "--odom-b", "--ranges"):
        logs.add_argument(option, required=True)

    pe = sub.add_parser("estimate", parents=[logs], allow_abbrev=False, help="estimate the transform from CSV logs")
    pe.add_argument("--config")
    pe.add_argument("--out", default="report.json")
    pe.set_defaults(func=cmd_estimate)

    ps = sub.add_parser("simulate", allow_abbrev=False, help="Monte-Carlo evaluation")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out-dir")
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fim", parents=[logs], allow_abbrev=False, help="information analysis at a given transform")
    # an `estimate` config, such as the <stem>_estimate_config.json that
    # `simulate` emits beside a trial's logs: its lever arms, sigma_r_m and
    # d0_m apply to the logs (the estimator and outlier keys do not apply
    # to an information analysis)
    pf.add_argument("--config")
    pf.add_argument("--theta", type=float, nargs=4, required=True, metavar=("TX", "TY", "TZ", "YAW"))
    pf.add_argument("--out", default="fim.json")
    pf.set_defaults(func=cmd_fim)

    pd = sub.add_parser("drift", allow_abbrev=False, help="sliding-window drift correction scenario")
    pd.add_argument("--config", required=True)
    pd.add_argument("--out", default="drift_report.json")
    pd.set_defaults(func=cmd_drift)
    return p


# built once per process: building costs ~1.4 ms, more than a parse
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (NoOverlapError, InsufficientDataError, SingularGeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except DegenerateSolutionError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:  # iof.ParseError, a config value that a constructor rejects, or a write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
