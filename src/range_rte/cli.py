"""Command-line entry points.

Subcommands:
  estimate   one-shot transform estimate from odometry + range CSV logs
  simulate   Monte-Carlo evaluation cells from a JSON config
  fim        information analysis of a dataset at a given transform
  drift      sliding-window drift-correction scenario

Every command loads its JSON config through `_config`, which allows the
keys of one defaults table and fills in the rest from it: ESTIMATE_DEFAULTS
(`estimate`, `fim` on logs), SIM_DEFAULTS (`simulate`, `fim --scenario`)
or DRIFT_DEFAULTS (`drift`). A key's suffix names its unit (_m, _rad, _s,
_hz).

Exit codes: 0 success, 2 parse/config error, 3 insufficient data (no
range covered by both odometry logs or left after the outlier gate) or a
singular configuration (`fisher.FimArrays.singular` at the estimate), 4
solver failure (`DegenerateSolutionError`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .measurement import (
    NoOverlapError,
    ingest_logs,
    odometry_log,
    range_log,
    range_rate_outliers,
)
from .simulation import (
    DriftConfig,
    ScenarioConfig,
    drift_scenario,
    monte_carlo_run,
    trial_data,
)

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

SIM_DEFAULTS = {
    "d0_m": 3.0,
    "radius_m": 1.0,
    "n_poses": 20,
    "sigma_r_m": 0.1,
    "sigma_o_m": 0.001,
    "trials": 100,
    "seed": 0,
    "estimator": "qcqp",
    "lever_arm_a_m": [0.0, 0.0, 0.0],
    "lever_arm_b_m": [0.0, 0.0, 0.0],
    "emit_logs": False,
    "cells": None,
}

DRIFT_DEFAULTS = {
    "d0_m": 15.0,
    "sigma_r_m": 0.1,
    "sigma_o_m": 0.001,
    "seed": 0,
    "estimator": "qcqp",
    # random-walk intensities of the true transform, per sqrt(second)
    "sigma_t_m": 0.1,
    "sigma_theta_rad": 0.1,
    "duration_s": 600.0,
    "window": 50,
    "rate_hz": 25.0,
    "stride": None,
}

CELL_KEYS = {"d0_m", "radius_m", "n_poses", "sigma_r_m", "sigma_o_m", "trials", "estimator", "seed"}


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


def _config(path, defaults: dict, args) -> dict:
    """The config at path over `defaults` (a key not in them fails), or
    the defaults when path is None. --seed and --estimator of args, where
    the command has them, override the config's keys, and the estimator
    named is checked. (A simulate cell's own estimator is checked by
    `monte_carlo_run`.)"""
    cfg = iof.load_config(path, set(defaults), defaults) if path else dict(defaults)
    if "seed" in cfg and getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "estimator", None):
        cfg["estimator"] = args.estimator
    if cfg["estimator"] not in ESTIMATORS:
        raise iof.ParseError(f"unknown estimator {cfg['estimator']!r}")
    return cfg


def _lever_arms(cfg: dict) -> tuple[LeverArm, LeverArm]:
    """The host and target lever arms of a config."""
    return tuple(LeverArm(np.asarray(cfg[key], dtype=float)) for key in ("lever_arm_a_m", "lever_arm_b_m"))


def _scenario_from_config(cfg: dict) -> ScenarioConfig:
    return ScenarioConfig(
        d0=cfg["d0_m"],
        D=cfg["radius_m"],
        n_poses=cfg["n_poses"],
        sigma_r=cfg["sigma_r_m"],
        sigma_o=cfg["sigma_o_m"],
        trials=cfg["trials"],
        seed=cfg["seed"],
        lever_arms=_lever_arms(cfg),
    )


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
    cfg = _config(args.config, ESTIMATE_DEFAULTS, args)
    if cfg["outlier_mode"] not in OUTLIER_MODES:
        raise iof.ParseError(f"unknown outlier_mode {cfg['outlier_mode']!r}; expected one of {OUTLIER_MODES}")

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
    cells = cfg.get("cells")
    if not cells:
        return [base]
    out = []
    for i, overrides in enumerate(cells):
        if not isinstance(overrides, dict):
            raise iof.ParseError(f"cells[{i}] must be an object")
        unknown = set(overrides) - CELL_KEYS
        if unknown:
            raise iof.ParseError(f"cells[{i}]: unknown keys {sorted(unknown)}")
        cell = dict(base)
        cell.update(overrides)
        out.append(cell)
    return out


def _emit_trial_logs(out_dir, cell_idx, trial, cfg_cell, T_true, dataset):
    """Write antenna-frame logs reproducing this trial's dataset.

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
    estimate_cfg["sigma_r_m"] = max(cfg_cell["sigma_r_m"], 1e-9)
    estimate_cfg["estimator"] = cfg_cell["estimator"]
    # Exact reproduction of the in-process path, which rejects no outliers
    # and takes d0 from the simulation (the noisy first positions are off
    # the origin, so ingest would drop it).
    estimate_cfg["d0_m"] = dataset.d0
    estimate_cfg["outlier_mode"] = "none"
    iof.dump_json(stem + "_estimate_config.json", estimate_cfg)
    iof.dump_json(stem + "_truth.json", {"t_m": T_true.t, "theta_rad": T_true.theta, "d0_m": dataset.d0})


def cmd_simulate(args) -> int:
    cfg = _config(args.config, SIM_DEFAULTS, args)
    chash = iof.config_hash(cfg)

    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    results_path = args.results or os.path.join(out_dir, "results.csv")
    summary_path = args.summary or os.path.join(out_dir, "summary.json")

    cells = _expand_cells(cfg)
    rows = ["cell,trial,e_t,e_theta,crlb_t,crlb_theta,solve_ms,status"]
    summary_cells = []
    for ci, cell in enumerate(cells):
        scen = _scenario_from_config({**cfg, **cell})
        stats = monte_carlo_run(scen, estimator=cell["estimator"])
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
            for trial in range(scen.trials):
                T_true, dataset = trial_data(scen, trial)
                _emit_trial_logs(out_dir, ci, trial, {**cfg, **cell}, T_true, dataset)

    iof.atomic_write_text(results_path, "\n".join(rows) + "\n")
    iof.dump_json(
        summary_path,
        {"command": "simulate", "config": cfg, "config_hash": chash, "seed": cfg["seed"], "cells": summary_cells},
    )
    return EXIT_OK


def _csv_num(x) -> str:
    x = float(x)
    return "nan" if math.isnan(x) else repr(x)


def cmd_fim(args) -> int:
    theta = Transform4DoF(t=np.array(args.theta[:3], dtype=float), theta=float(args.theta[3]))
    if args.scenario:
        if args.config:
            raise iof.ParseError("--config applies to --odom-a/--odom-b/--ranges, not to --scenario")
        cfg = _config(args.scenario, SIM_DEFAULTS, args)
        _, dataset = trial_data(_scenario_from_config(cfg), 0)
    else:
        if not (args.odom_a and args.odom_b and args.ranges):
            raise iof.ParseError("either --scenario or --odom-a/--odom-b/--ranges required")
        cfg = _config(args.config, ESTIMATE_DEFAULTS, args)
        _, dataset, _ = _ingest(args, cfg)

    stack = dataset.stack()
    info = fim(theta.t[None], np.array([theta.theta]), stack.pa, stack.pb, stack.sigma_r)
    payload = {
        "command": "fim",
        "source": "scenario" if args.scenario else "logs",
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
    cfg = _config(args.config, DRIFT_DEFAULTS, args)
    drift = DriftConfig(
        d0=cfg["d0_m"],
        sigma_r=cfg["sigma_r_m"],
        sigma_o=cfg["sigma_o_m"],
        seed=cfg["seed"],
        sigma_t=cfg["sigma_t_m"],
        sigma_theta=cfg["sigma_theta_rad"],
        duration=cfg["duration_s"],
        window=cfg["window"],
        rate=cfg["rate_hz"],
        stride=cfg["stride"],
    )
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
    p = argparse.ArgumentParser(prog="range-rte", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="estimate the transform from CSV logs")
    pe.add_argument("--odom-a", required=True)
    pe.add_argument("--odom-b", required=True)
    pe.add_argument("--ranges", required=True)
    pe.add_argument("--config")
    pe.add_argument("--estimator", choices=sorted(ESTIMATORS))
    pe.add_argument("--out", default="report.json")
    pe.set_defaults(func=cmd_estimate)

    ps = sub.add_parser("simulate", help="Monte-Carlo evaluation")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out-dir")
    ps.add_argument("--results")
    ps.add_argument("--summary")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--estimator", choices=sorted(ESTIMATORS))
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fim", help="information analysis at a given transform")
    pf.add_argument("--odom-a")
    pf.add_argument("--odom-b")
    pf.add_argument("--ranges")
    # an `estimate` config: its lever arms, sigma_r_m and d0_m apply to
    # the logs (the estimator and outlier keys do not apply to an
    # information analysis)
    pf.add_argument("--config")
    pf.add_argument("--scenario")
    pf.add_argument("--seed", type=int)
    pf.add_argument("--theta", type=float, nargs=4, required=True, metavar=("TX", "TY", "TZ", "YAW"))
    pf.add_argument("--out", default="fim.json")
    pf.set_defaults(func=cmd_fim)

    pd = sub.add_parser("drift", help="sliding-window drift correction scenario")
    pd.add_argument("--config", required=True)
    pd.add_argument("--seed", type=int)
    pd.add_argument("--estimator", choices=sorted(ESTIMATORS))
    pd.add_argument("--out", default="drift_report.json")
    pd.set_defaults(func=cmd_drift)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs ~1.4 ms, more than parsing; in-process
    # callers run main() once per command
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoOverlapError, InsufficientDataError, SingularGeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except DegenerateSolutionError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:  # iof.ParseError, or a config value that a constructor rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
