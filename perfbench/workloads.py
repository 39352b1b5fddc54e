"""Seeded inputs, ops and output checks of the benchmark's workloads.

Every input is derived from the run's seed through `derive`, so one seed
always gives the same inputs. The program only ever sees the generated
inputs (CSV logs, JSON configs, scenario parameters).

Workloads (why each one exists is recorded in metadata.json):
  logs   one op = `range_rte.cli.main(["estimate", ...])` on one CSV log set
  mc     one op = `simulation.monte_carlo_run` on one trial of the default cell
  drift  one op = `range_rte.cli.main(["drift", ...])` over a 120 s stream
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .summary import parse_number

# Default Monte-Carlo cell of the paper tables (cli.SIM_DEFAULTS at the time
# the benchmark was defined); fixed here so a change of defaults cannot
# silently change the workload.
MC_CELL = dict(d0=3.0, D=1.0, n_poses=20, sigma_r=0.1, sigma_o=0.001)
DRIFT_DURATION_S = 120.0
LOGS_ERROR_MULTIPLE = 5.0  # a logs op is correct when |t_hat - t| <= this * sqrt(CRLB_t)
NOISELESS_TOL = 1e-9


def derive(seed: int, *path: int) -> int:
    """Independent 63-bit seed for the input at `path` of run seed `seed`."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)
    return int(state[0]) >> 1


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run; `smoke()` gives the minimal ones."""

    logs_sets: int = 8
    logs_ranges: int = 2000
    drift_duration_s: float = DRIFT_DURATION_S
    accuracy_trials: int = 400
    flagged_per_kind: int = 5
    noiseless_trials: int = 10
    setup_repeats: int = 5
    smoke_ops: int = 0  # > 0: run exactly this many ops instead of a timed loop

    @staticmethod
    def smoke() -> "Sizes":
        return Sizes(
            logs_sets=1,
            logs_ranges=200,
            drift_duration_s=12.0,
            accuracy_trials=3,
            flagged_per_kind=1,
            noiseless_trials=2,
            setup_repeats=1,
            smoke_ops=2,
        )


def _read_report(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------- mc


def mc_config(seed: int, trials: int = 1, **overrides):
    from range_rte.simulation import ScenarioConfig

    return ScenarioConfig(**{**MC_CELL, **overrides}, trials=trials, seed=seed)


class McWorkload:
    """One op is one trial of the default cell, run as `monte_carlo_run`."""

    name = "mc"
    root_span = "simulation.monte_carlo_run"

    def __init__(self, seed: int, work_dir: str, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        self.run(mc_config(derive(self.seed, 9)))

    def inputs(self, i: int):
        return mc_config(derive(self.seed, 10, i))

    def run(self, cfg):
        from range_rte import simulation

        return simulation.monte_carlo_run(cfg, estimator="qcqp")

    def check(self, cfg, stats) -> tuple:
        if stats.failures:
            return False, str(stats.failures[0])
        if not (math.isfinite(float(stats.e_t[0])) and math.isfinite(float(stats.e_theta[0]))):
            return False, "non-finite error"
        return True, ""


def accuracy(seed: int, n_trials: int, done: list) -> dict:
    """RMSE over the first `n_trials` mc ops against the mean CRLB.

    rmse_*_over_crlb divide the RMSE by the root of the mean bound, as the
    paper tables do. nrmse_theta is the RMS of each trial's heading error
    over that trial's own sqrt(CRLB); it measures the same efficiency with
    far less seed-to-seed spread, because a few trials with a weak bound
    no longer dominate it.

    `done` holds outputs of mc ops already run (op i at index i); the rest
    are run here, untimed. A failed or crashed trial is left out of the
    RMSE, as monte_carlo_run does, and counted in `accuracy_failures`.
    """
    mc = McWorkload(seed, "", Sizes())
    rows = np.full((n_trials, 4), np.nan)  # e_t, e_theta, crlb_t, crlb_theta
    for i in range(n_trials):
        stats = done[i] if i < len(done) else None
        if stats is None:
            try:
                stats = mc.run(mc.inputs(i))
            except Exception:  # noqa: BLE001 - a crashed trial counts as failed
                continue
        if hasattr(stats, "e_t"):
            rows[i] = stats.e_t[0], stats.e_theta[0], stats.crlb_t_mean, stats.crlb_theta_mean
    e_t, e_th, crlb_t, crlb_th = rows.T
    ok = np.isfinite(e_t) & np.isfinite(e_th)
    if not ok.any():
        return {"rmse_t_over_crlb": math.nan, "rmse_theta_over_crlb": math.nan, "nrmse_theta": math.nan,
                "accuracy_trials": n_trials, "accuracy_failures": n_trials}
    rmse_t = math.sqrt(float(np.mean(e_t[ok] ** 2)))
    rmse_th = math.sqrt(float(np.mean(e_th[ok] ** 2)))
    return {
        "rmse_t_over_crlb": rmse_t / math.sqrt(float(np.nanmean(crlb_t))),
        "rmse_theta_over_crlb": rmse_th / math.sqrt(float(np.nanmean(crlb_th))),
        "nrmse_theta": math.sqrt(float(np.nanmean(e_th[ok] ** 2 / crlb_th[ok]))),
        "accuracy_trials": n_trials,
        "accuracy_failures": int((~ok).sum()),
    }


def flagged_share(seed: int, per_kind: int) -> dict:
    """Share of degenerate-scenario runs that `qcqp` flags as singular."""
    from range_rte.estimators import ESTIMATORS
    from range_rte.simulation import SCENARIO_KINDS, singular_scenario

    flagged, missed = 0, []
    for k, kind in enumerate(SCENARIO_KINDS):
        for j in range(per_kind):
            rng = np.random.default_rng(derive(seed, 30, k, j))
            _, dataset = singular_scenario(kind, mc_config(0), rng)
            try:
                hit = bool(ESTIMATORS["qcqp"](dataset).flags.configuration_singular)
            except Exception as exc:  # noqa: BLE001 - an estimator error is a miss, not a crash
                hit = False
                missed.append(f"{kind}#{j}: {type(exc).__name__}")
            else:
                if not hit:
                    missed.append(f"{kind}#{j}")
            flagged += hit
    total = len(SCENARIO_KINDS) * per_kind
    return {"flagged_share": flagged / total, "flagged_missed": missed}


def noiseless_check(seed: int, trials: int) -> dict:
    """Noiseless default cell: the truth must come back to NOISELESS_TOL."""
    from range_rte import simulation

    stats = simulation.monte_carlo_run(mc_config(derive(seed, 40), trials=trials, sigma_r=0.0, sigma_o=0.0))
    worst_t = float(np.max(stats.e_t))
    worst_th = float(np.max(stats.e_theta))
    ok = not stats.failures and worst_t <= NOISELESS_TOL and worst_th <= NOISELESS_TOL
    return {"ok": bool(ok), "max_err_t_m": worst_t, "max_err_theta_rad": worst_th, "failures": len(stats.failures)}


# ---------------------------------------------------------------- drift


class DriftWorkload:
    """One op is one `drift` command over a simulated stream."""

    name = "drift"
    root_span = "cli.main"

    def __init__(self, seed: int, work_dir: str, sizes: Sizes):
        self.seed = seed
        self.dir = os.path.join(work_dir, "drift")
        self.sizes = sizes

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)

    def _argv(self, tag: str, seed: int, duration: float) -> list:
        cfg = os.path.join(self.dir, f"config_{tag}.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"duration_s": duration, "seed": seed}, fh)
        return ["drift", "--config", cfg, "--out", os.path.join(self.dir, f"report_{tag}.json")]

    def warmup(self) -> None:
        self.run(self._argv("warmup", derive(self.seed, 19), 12.0))

    def inputs(self, i: int):
        return self._argv(str(i), derive(self.seed, 20, i), self.sizes.drift_duration_s)

    def run(self, argv):
        from range_rte import cli

        return cli.main(argv)

    def check(self, argv, rc) -> tuple:
        if rc != 0:
            return False, f"exit {rc}"
        rmse = _corrected_rmse(argv)
        if not math.isfinite(rmse):
            return False, "no finite corrected_rmse_m in the report"
        return True, ""

    def traj_rmse(self, argvs: list) -> float:
        """Median corrected trajectory RMSE over the ops that produced one."""
        values = [v for v in map(_corrected_rmse, argvs) if math.isfinite(v)]
        return float(np.median(values)) if values else math.nan


def _corrected_rmse(argv) -> float:
    report = _read_report(argv[-1])
    value = parse_number(report.get("corrected_rmse_m")) if isinstance(report, dict) else None
    return math.nan if value is None else value


# ---------------------------------------------------------------- logs


def _yaw_matrices(yaw):
    c, s = np.cos(yaw), np.sin(yaw)
    R = np.zeros((len(yaw), 3, 3))
    R[:, 0, 0], R[:, 0, 1], R[:, 1, 0], R[:, 1, 1], R[:, 2, 2] = c, -s, s, c, 1.0
    return R


def _sinuous_agent(rng):
    """Closure t -> (positions (n, 3), yaw (n,)) of a 3-D sinuous path.

    Each axis sums a slow sweep and a faster wiggle so the last 4 s of any
    log still excite every axis; the path does not pass the origin at t = 0.
    """
    slow_amp = rng.uniform([2.0, 2.0, 0.5], [5.0, 5.0, 1.0])
    fast_amp = rng.uniform([0.8, 0.8, 0.6], [1.5, 1.5, 1.0])
    slow_f = rng.uniform(0.03, 0.08, 3)
    fast_f = rng.uniform(0.2, 0.35, 3)
    phase = rng.uniform(0.0, 2.0 * math.pi, (2, 3))
    centre = rng.uniform(1.0, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
    yaw0, yaw_amp = rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 1.5)
    yaw_f, yaw_phase = rng.uniform(0.05, 0.15), rng.uniform(0.0, 2.0 * math.pi)

    def at(t):
        w = 2.0 * math.pi * np.asarray(t, dtype=float)[:, None]
        p = centre + slow_amp * np.sin(slow_f * w + phase[0]) + fast_amp * np.sin(fast_f * w + phase[1])
        return p, yaw0 + yaw_amp * np.sin(yaw_f * w[:, 0] + yaw_phase)

    return at


def _lever_arm(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform(0.1, 0.2)


def crlb_t(t, theta, pa, pb, sigma_r) -> float:
    """Translation CRLB (trace of the 3x3 block) of ranges at the truth."""
    C = _yaw_matrices(np.array([theta]))[0]
    cpb = pb @ C.T
    w = t + cpb - pa
    u = w / np.linalg.norm(w, axis=1)[:, None]
    phi = np.cross(np.array([0.0, 0.0, 1.0]), cpb)
    J = np.column_stack([u, np.einsum("ij,ij->i", phi, u)])
    F = J.T @ J / sigma_r**2
    return float(np.trace(np.linalg.inv(F)[:3, :3]))


def _fmt_rows(rows) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in rows)


def write_log_set(directory: str, rng, n_ranges: int, sigma_r: float = 0.1) -> dict:
    """Write one seeded log set; return its truth and the CLI arguments.

    Ranges at 25 Hz, odometry of both agents at 50 Hz, yaw-only attitude,
    lever arms of 0.1-0.2 m given in the config, range noise sigma_r and
    NLOS spikes of +0.5..3 m on 1 % of the ranges.
    """
    os.makedirs(directory, exist_ok=True)
    agent_a, agent_b = _sinuous_agent(rng), _sinuous_agent(rng)
    arm_a, arm_b = _lever_arm(rng), _lever_arm(rng)
    direction = rng.standard_normal(3)
    t_true = direction / np.linalg.norm(direction) * rng.uniform(5.0, 12.0)
    theta = float(rng.uniform(-math.pi, math.pi))

    duration = n_ranges / 25.0
    t_odom = np.arange(int(duration * 50.0) + 3) / 50.0
    t_rng = 0.013 + np.arange(n_ranges) / 25.0  # between odometry stamps
    paths = {}
    for tag, agent in (("a", agent_a), ("b", agent_b)):
        p, yaw = agent(t_odom)
        q = np.column_stack([np.zeros((len(yaw), 2)), np.sin(0.5 * yaw), np.cos(0.5 * yaw)])
        path = os.path.join(directory, f"odom_{tag}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,px,py,pz,qx,qy,qz,qw\n" + _fmt_rows(np.column_stack([t_odom, p, q])) + "\n")
        paths[tag] = path
    pa_pos, pa_yaw = agent_a(t_rng)
    pb_pos, pb_yaw = agent_b(t_rng)
    pa = pa_pos + _yaw_matrices(pa_yaw) @ arm_a
    pb = pb_pos + _yaw_matrices(pb_yaw) @ arm_b
    C = _yaw_matrices(np.array([theta]))[0]
    d = np.linalg.norm(t_true + pb @ C.T - pa, axis=1) + sigma_r * rng.standard_normal(n_ranges)
    nlos = rng.choice(n_ranges, size=max(1, n_ranges // 100), replace=False)
    d[nlos] += rng.uniform(0.5, 3.0, len(nlos))
    ranges = os.path.join(directory, "ranges.csv")
    with open(ranges, "w", encoding="utf-8") as fh:
        fh.write("t,d\n" + _fmt_rows(np.column_stack([t_rng, d])) + "\n")
    config = os.path.join(directory, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"lever_arm_a_m": arm_a.tolist(), "lever_arm_b_m": arm_b.tolist()}, fh)
    clean = np.setdiff1d(np.arange(n_ranges), nlos)
    return {
        "t": t_true,
        "theta": theta,
        "crlb_t": crlb_t(t_true, theta, pa[clean], pb[clean], sigma_r),
        "argv": ["estimate", "--odom-a", paths["a"], "--odom-b", paths["b"], "--ranges", ranges, "--config", config],
    }


class LogsWorkload:
    """One op is one `estimate` command on one seeded CSV log set."""

    name = "logs"
    root_span = "cli.main"

    def __init__(self, seed: int, work_dir: str, sizes: Sizes):
        self.seed = seed
        self.dir = os.path.join(work_dir, "logs")
        self.sizes = sizes
        self.sets: list = []

    def setup(self) -> None:
        self.sets = [
            write_log_set(os.path.join(self.dir, f"set{j}"), np.random.default_rng(derive(self.seed, 50, j)), self.sizes.logs_ranges)
            for j in range(self.sizes.logs_sets)
        ]

    def warmup(self) -> None:
        self.run(self.inputs("warmup"))

    def inputs(self, i):
        j = 0 if i == "warmup" else i % len(self.sets)
        return self.sets[j]["argv"] + ["--out", os.path.join(self.dir, f"report_{i}.json")], self.sets[j]

    def run(self, inputs):
        from range_rte import cli

        return cli.main(inputs[0])

    def check(self, inputs, rc) -> tuple:
        argv, truth = inputs
        if rc != 0:
            return False, f"exit {rc}"
        report = _read_report(argv[-1])
        estimate = report.get("estimate") if isinstance(report, dict) else None
        t_hat = estimate.get("t_m") if isinstance(estimate, dict) else None
        if not isinstance(t_hat, list) or len(t_hat) != 3:
            return False, "report has no estimate"
        t_hat = [parse_number(v) for v in t_hat]
        if None in t_hat:
            return False, "non-numeric estimate"
        err = float(np.linalg.norm(np.array(t_hat) - truth["t"]))
        limit = LOGS_ERROR_MULTIPLE * math.sqrt(truth["crlb_t"])
        if not err <= limit:
            return False, f"|t_hat - t| = {err:.4g} m > {limit:.4g} m"
        return True, ""


WORKLOADS = {w.name: w for w in (LogsWorkload, McWorkload, DriftWorkload)}
