"""Command-line entry points.

Subcommands:
  estimate   one-shot transform estimate from odometry + range CSV logs
  simulate   Monte-Carlo evaluation cells from a JSON config
  fim        information analysis of a dataset at a given transform
  drift      sliding-window drift-correction scenario

Exit codes: 0 success, 2 parse/config error, 3 insufficient or singular
data, 4 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import io_formats as iof
from .estimators import DegenerateSolutionError, ESTIMATORS, HeadingUndefinedError
from .fisher import (
    DEFAULT_KAPPA_THRESHOLD,
    DET_SUBSET_CAP,
    ExpansionTooLargeError,
    FimReport,
    InsufficientDataError,
    SingularGeometryError,
    confidence_intervals,
    det_fim_geometric,
    fim,
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
    "use_first_range_as_d0": True,
    # "odometry" rejects the synced ranges that break the odometry-bounded
    # range rate (measurement.range_rate_outliers); "none" keeps them all
    "outlier_mode": "odometry",
    # the configuration is singular when kappa of the FIM at the estimate
    # exceeds this (exit 3)
    "kappa_threshold": DEFAULT_KAPPA_THRESHOLD,
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
    "record_timing": True,
    "emit_logs": False,
    "cells": None,
}

DRIFT_DEFAULTS = {
    "d0_m": 15.0,
    "sigma_r_m": 0.1,
    "sigma_o_m": 0.001,
    "seed": 0,
    "estimator": "qcqp",
    "sigma_t_m": 0.1,
    "sigma_theta_rad": None,
    "sigma_theta_deg": None,
    "duration_s": 600.0,
    "window": 50,
    "rate_hz": 25.0,
    "stride": None,
}

CELL_KEYS = {"d0_m", "radius_m", "n_poses", "sigma_r_m", "sigma_o_m", "trials", "estimator", "seed"}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _flags_payload(rep: FimReport, kappa_threshold: float) -> dict:
    """The report's flags, the configuration tested at kappa_threshold."""
    return {
        "configuration_singular": rep.kappa > kappa_threshold,
        "per_param_unobservable": list(rep.flags.per_param_unobservable),
        "kappa_threshold": kappa_threshold,
    }


def _ci95(T: Transform4DoF, rep: FimReport):
    """`confidence_intervals`, or None when the FIM is singular."""
    return None if rep.std_errors is None else confidence_intervals(T, rep)


def _scenario_from_config(cfg: dict) -> ScenarioConfig:
    return ScenarioConfig(
        d0=cfg["d0_m"],
        D=cfg["radius_m"],
        n_poses=cfg["n_poses"],
        sigma_r=cfg["sigma_r_m"],
        sigma_o=cfg["sigma_o_m"],
        trials=cfg["trials"],
        seed=cfg["seed"],
        lever_arms=(
            LeverArm(np.asarray(cfg["lever_arm_a_m"], dtype=float)),
            LeverArm(np.asarray(cfg["lever_arm_b_m"], dtype=float)),
        ),
    )


def _estimate_config(path) -> dict:
    """The `estimate` config at path (unknown keys fail), or the defaults."""
    return iof.load_config(path, set(ESTIMATE_DEFAULTS), ESTIMATE_DEFAULTS) if path else dict(ESTIMATE_DEFAULTS)


def _ingest(args, cfg: dict):
    """Read the three CSV logs of args and sync them as `cfg` says: lever
    arms, sigma_r_m and the d0 keys. Returns (ranges read, dataset, uncovered dropped)."""
    odom_a = iof.read_odometry_csv(args.odom_a)
    odom_b = iof.read_odometry_csv(args.odom_b)
    ranges = iof.read_ranges_csv(args.ranges)
    dataset, n_dropped = ingest_logs(
        odom_a,
        odom_b,
        ranges,
        arm_a=LeverArm(np.asarray(cfg["lever_arm_a_m"], dtype=float)),
        arm_b=LeverArm(np.asarray(cfg["lever_arm_b_m"], dtype=float)),
        sigma_r=cfg["sigma_r_m"],
        d0=cfg["d0_m"],
        use_first_range_as_d0=cfg["use_first_range_as_d0"],
    )
    return len(ranges), dataset, n_dropped


def cmd_estimate(args) -> int:
    cfg = _estimate_config(args.config)
    if args.estimator:
        cfg["estimator"] = args.estimator
    if cfg["estimator"] not in ESTIMATORS:
        raise CliError(f"unknown estimator {cfg['estimator']!r}", EXIT_PARSE)
    if cfg["outlier_mode"] not in OUTLIER_MODES:
        raise CliError(f"unknown outlier_mode {cfg['outlier_mode']!r}; expected one of {OUTLIER_MODES}", EXIT_PARSE)

    n_ranges, dataset, n_dropped = _ingest(args, cfg)
    n_outliers = 0
    if cfg["outlier_mode"] == "odometry":
        outliers = range_rate_outliers(dataset)
        n_outliers = int(outliers.sum())
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
    report["std_errors"] = est.fim.std_errors
    report["kappa"] = est.fim.kappa
    report["flags"] = _flags_payload(est.fim, cfg["kappa_threshold"])
    report["solver"] = est.solver
    report["ci95"] = _ci95(est.theta_hat, est.fim)
    iof.dump_json(args.out, report)
    if report["flags"]["configuration_singular"]:
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
    cfg = iof.load_config(args.config, set(SIM_DEFAULTS), SIM_DEFAULTS)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.estimator:
        cfg["estimator"] = args.estimator
    chash = iof.config_hash(cfg)

    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    results_path = args.results or os.path.join(out_dir, "results.csv")
    summary_path = args.summary or os.path.join(out_dir, "summary.json")

    cells = _expand_cells(cfg)
    rows = ["cell,trial,e_t,e_theta,crlb_t,crlb_theta,solve_ms,status"]
    summary_cells = []
    for ci, cell in enumerate(cells):
        if cell["estimator"] not in ESTIMATORS:
            raise CliError(f"unknown estimator {cell['estimator']!r}", EXIT_PARSE)
        scen = _scenario_from_config({**cfg, **cell})
        stats = monte_carlo_run(scen, estimator=cell["estimator"])
        ok = np.isfinite(stats.e_t)
        for trial in range(scen.trials):
            ms = repr(float(stats.solve_ms[trial])) if cfg["record_timing"] else ""
            rows.append(
                f"{ci},{trial},{_csv_num(stats.e_t[trial])},{_csv_num(stats.e_theta[trial])},"
                f"{_csv_num(stats.crlb_t[trial])},{_csv_num(stats.crlb_theta[trial])},"
                f"{ms},{'ok' if ok[trial] else 'failed'}"
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
    if x is None:
        return "nan"
    x = float(x)
    return "nan" if math.isnan(x) else repr(x)


def cmd_fim(args) -> int:
    theta = Transform4DoF(t=np.array(args.theta[:3], dtype=float), theta=float(args.theta[3]))
    kappa_threshold = DEFAULT_KAPPA_THRESHOLD
    if args.scenario:
        if args.config:
            raise CliError("--config applies to --odom-a/--odom-b/--ranges, not to --scenario", EXIT_PARSE)
        cfg = iof.load_config(args.scenario, set(SIM_DEFAULTS), SIM_DEFAULTS)
        if args.seed is not None:
            cfg["seed"] = args.seed
        scen = _scenario_from_config(cfg)
        _, dataset = trial_data(scen, 0)
        meta = {"source": "scenario", "config": cfg, "config_hash": iof.config_hash(cfg)}
    else:
        if not (args.odom_a and args.odom_b and args.ranges):
            raise CliError("either --scenario or --odom-a/--odom-b/--ranges required", EXIT_PARSE)
        cfg = _estimate_config(args.config)
        if args.sigma_r is not None:
            cfg["sigma_r_m"] = args.sigma_r
        _, dataset, _ = _ingest(args, cfg)
        kappa_threshold = cfg["kappa_threshold"]
        meta = {"source": "logs", "config": cfg, "config_hash": iof.config_hash(cfg)}

    rep = fim(theta, dataset)
    payload = {
        "command": "fim",
        **meta,
        "k": len(dataset),
        "theta": {"t_m": theta.t, "theta_rad": theta.theta},
        "F": rep.F,
        "kappa": rep.kappa,
        "rank": rep.rank,
        "crlb_t": rep.crlb_t,
        "crlb_theta": rep.crlb_theta,
        "det_direct": rep.det_f,
        "flags": _flags_payload(rep, kappa_threshold),
    }
    try:
        payload["det_geometric"] = det_fim_geometric(theta, dataset)
    except InsufficientDataError:
        payload["note"] = "fewer than 4 range rows: determinant decomposition unavailable"
        payload.pop("det_direct")
    except ExpansionTooLargeError:
        payload["note"] = f"more than {DET_SUBSET_CAP} range rows: determinant decomposition not evaluated"
    payload["ci95"] = _ci95(theta, rep)
    iof.dump_json(args.out, payload)
    return EXIT_OK


def cmd_drift(args) -> int:
    cfg = iof.load_config(args.config, set(DRIFT_DEFAULTS), DRIFT_DEFAULTS)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.estimator:
        cfg["estimator"] = args.estimator
    if cfg["estimator"] not in ESTIMATORS:
        raise CliError(f"unknown estimator {cfg['estimator']!r}", EXIT_PARSE)
    if cfg["sigma_theta_rad"] is not None and cfg["sigma_theta_deg"] is not None:
        raise iof.ParseError("specify only one of sigma_theta_rad / sigma_theta_deg")
    if cfg["sigma_theta_deg"] is not None:
        sigma_theta = math.radians(cfg["sigma_theta_deg"])
    else:
        sigma_theta = cfg["sigma_theta_rad"] if cfg["sigma_theta_rad"] is not None else 0.1

    drift = DriftConfig(
        sigma_t=cfg["sigma_t_m"],
        sigma_theta=sigma_theta,
        duration=cfg["duration_s"],
        window=cfg["window"],
        rate=cfg["rate_hz"],
        stride=cfg["stride"],
    )
    scen = ScenarioConfig(
        d0=cfg["d0_m"],
        n_poses=1,
        sigma_r=cfg["sigma_r_m"],
        sigma_o=cfg["sigma_o_m"],
        trials=1,
        seed=cfg["seed"],
        drift=drift,
    )
    result = drift_scenario(scen, estimator=cfg["estimator"])
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
        "n_skipped": result.n_skipped,
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
    # an `estimate` config: its lever arms, sigma_r_m, d0 keys and
    # kappa_threshold apply to the logs (the estimator and outlier keys
    # do not apply to an information analysis)
    pf.add_argument("--config")
    pf.add_argument("--sigma-r", type=float, help="overrides the config's sigma_r_m (default 0.1)")
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
    except iof.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NoOverlapError, InsufficientDataError, SingularGeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DegenerateSolutionError, HeadingUndefinedError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
