import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from failing_problems import DIVERGED, fail_marked_problems
from one_problem import dataset_fim, model_ranges, yaw_rotation

from range_rte.cli import DRIFT_DEFAULTS, DRIFT_FIELDS, ESTIMATE_DEFAULTS, SIM_DEFAULTS, SIM_FIELDS, main
from range_rte.estimators import ESTIMATORS
from range_rte.geometry import LeverArm, wrap_angle, yaw_quat
from range_rte.io_formats import (
    ParseError,
    atomic_write_text,
    dump_json,
    jsonable,
    read_odometry_csv,
    read_ranges_csv,
    write_odometry_csv,
    write_ranges_csv,
)
from range_rte.fisher import DEFAULT_KAPPA_THRESHOLD, fim
from range_rte.measurement import LARGEST_RANGE, ingest_logs, odometry_log, range_log
from range_rte.simulation import LARGEST_LENGTH, LARGEST_LEVER_ARM, LARGEST_NOISE, DriftConfig, ScenarioConfig


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def csv_rows(path):
    return [line.split(",") for line in path.read_text().strip().split("\n")]


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def synthetic_logs(tmp_path, n=60, noise=0.0, spike=None, static_host=False, seed=0):
    """Write odometry/range CSVs for a known transform; returns paths + the
    truth as a row [t_x, t_y, t_z, theta]."""
    rng = np.random.default_rng(seed)
    T = np.array([2.0, -1.0, 0.5, 0.8])
    t_axis = np.arange(n) * 0.1
    if static_host:
        pa = np.zeros((n, 3))
    else:
        pa = np.cumsum(rng.normal(0.0, 0.25, size=(n, 3)), axis=0)
    pb = np.cumsum(rng.normal(0.0, 0.25, size=(n, 3)), axis=0)
    d = model_ranges(T, pa, pb)
    d = d + rng.normal(0.0, noise, size=n) if noise > 0 else d
    if spike is not None:
        idx, magnitude = spike
        d = d.copy()
        d[idx] += magnitude
    odom_a = odometry_log(t_axis, pa, yaw_quat(0.0))
    odom_b = odometry_log(t_axis, pb, yaw_quat(0.0))
    pa_path = str(tmp_path / "odom_a.csv")
    pb_path = str(tmp_path / "odom_b.csv")
    r_path = str(tmp_path / "ranges.csv")
    write_odometry_csv(pa_path, odom_a)
    write_odometry_csv(pb_path, odom_b)
    write_ranges_csv(r_path, range_log(t_axis, d))
    return pa_path, pb_path, r_path, T


class TestEstimateCommand:
    def test_noiseless_logs_recover_truth(self, tmp_path):
        pa, pb, ranges, T = synthetic_logs(tmp_path, seed=1)
        out = str(tmp_path / "report.json")
        cfg = write_json(
            tmp_path / "cfg.json",
            {"sigma_r_m": 1e-6},
        )
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out])
        assert rc == 0
        rep = read_json(out)
        assert np.linalg.norm(np.array(rep["estimate"]["t_m"]) - T[:3]) < 1e-6
        assert abs(rep["estimate"]["theta_rad"] - T[3]) < 1e-6
        assert rep["counts"]["used"] == 60

    def test_spike_rejected_and_counted(self, tmp_path):
        pa, pb, ranges, T = synthetic_logs(tmp_path, noise=0.02, spike=(40, 10.0), seed=2)
        out = str(tmp_path / "report.json")
        cfg = write_json(tmp_path / "cfg.json", {"sigma_r_m": 0.02})
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out])
        assert rc == 0
        rep = read_json(out)
        assert rep["counts"]["outliers_rejected"] == 1

    def test_counts_add_up_with_gate_and_uncovered_ranges(self, tmp_path):
        pa, pb, ranges, T = synthetic_logs(tmp_path, noise=0.02, spike=(25, 5.0), seed=2)
        extra = np.concatenate([read_ranges_csv(ranges), range_log([100.0], [3.0])])  # past the odometry
        write_ranges_csv(ranges, extra)
        out = str(tmp_path / "report.json")
        cfg = write_json(tmp_path / "cfg.json", {"sigma_r_m": 0.02})
        assert main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out]) == 0
        counts = read_json(out)["counts"]
        assert (counts["outliers_rejected"], counts["uncovered_dropped"]) == (1, 1)
        assert counts["ranges_in"] == counts["outliers_rejected"] + counts["uncovered_dropped"] + counts["used"]

    def test_static_host_exits_singular_with_flags(self, tmp_path):
        pa, pb, ranges, T = synthetic_logs(tmp_path, static_host=True, seed=3)
        out = str(tmp_path / "report.json")
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--out", out])
        assert rc == 3
        rep = read_json(out)
        assert any(rep["flags"]["per_param_unobservable"])
        assert rep["std_errors"] is None and rep["ci95"] is None

    @staticmethod
    def _static_pair_at_origins(tmp_path):
        # both agents parked at their frame origins: the ranges fix ||t|| only
        n = 60
        t_axis = np.arange(n) * 0.1
        odom = odometry_log(t_axis, np.zeros((n, 3)), yaw_quat(0.0))
        pa, pb, ranges = (str(tmp_path / name) for name in ("odom_a.csv", "odom_b.csv", "ranges.csv"))
        write_odometry_csv(pa, odom)
        write_odometry_csv(pb, odom)
        write_ranges_csv(ranges, range_log(t_axis, 3.0))
        return pa, pb, ranges

    def test_static_pair_at_origins_exits_singular_with_flags(self, tmp_path):
        pa, pb, ranges = self._static_pair_at_origins(tmp_path)
        out = str(tmp_path / "report.json")
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--out", out])
        assert rc == 3
        rep = read_json(out)
        assert any(rep["flags"]["per_param_unobservable"])
        assert rep["std_errors"] is None and rep["ci95"] is None

    def test_static_pair_at_origins_exits_singular_with_nls(self, tmp_path, capsys):
        # nls stays at its zero start, where every modelled range is zero and
        # the FIM is undefined: singular data, not a bad config
        pa, pb, ranges = self._static_pair_at_origins(tmp_path)
        cfg = write_json(tmp_path / "cfg.json", {"estimator": "nls"})
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg,
                   "--out", str(tmp_path / "report.json")])
        assert rc == 3
        assert "zero range" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["qcqp", "sdp", "nls"])
    @pytest.mark.parametrize("d0", [None, 1.0])
    def test_gate_rejecting_every_range_exits_insufficient_data(self, tmp_path, capsys, estimator, d0):
        # two static agents at their origins whose ranges, 1 m then 5 m, break the
        # range-rate bound with each other: the gate rejects both. With nothing
        # left to fit, every estimator exits 3 with the gate's message, with or
        # without a d0 (each once failed in its own way: exit 2, 3 or 4)
        odom = odometry_log([0.0, 1.0], np.zeros((2, 3)), yaw_quat(0.0))
        pa, pb, ranges = (str(tmp_path / name) for name in ("odom_a.csv", "odom_b.csv", "ranges.csv"))
        write_odometry_csv(pa, odom)
        write_odometry_csv(pb, odom)
        write_ranges_csv(ranges, range_log([0.0, 1.0], [1.0, 5.0]))
        cfg = write_json(tmp_path / "cfg.json", {"d0_m": d0, "estimator": estimator})
        out = str(tmp_path / "report.json")
        assert main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out]) == 3
        assert capsys.readouterr().err.strip() == "error: the outlier gate rejected all 2 ranges: none is left to fit"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("estimator", ["qcqp", "sdp", "nls"])
    def test_d0_whose_square_overflows_exits_parse_error(self, tmp_path, capsys, estimator):
        # 1e200 m: d0^2 overflows. Each estimator once failed in its own way
        # (sdp an uncaught OverflowError, qcqp no finite grid cost, nls a zero
        # range); the dataset rejects it, past measurement.LARGEST_RANGE,
        # before any of them runs
        pa, pb, ranges, _ = synthetic_logs(tmp_path, noise=0.02, seed=5)
        cfg = write_json(tmp_path / "cfg.json", {"d0_m": 1e200, "estimator": estimator})
        out = str(tmp_path / "report.json")
        assert main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "d0 must be positive and finite, at most 1e+09 m, when present; got 1e+200" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("estimator", ["qcqp", "sdp", "nls"])
    @pytest.mark.parametrize("where", ["range", "d0"])
    def test_range_whose_debias_variance_overflows_exits_parse_error(self, tmp_path, capsys, estimator, where):
        # 1e154 m: its square is finite, but the term 4 d^2 of its debias
        # variance overflows. Such a range once passed every check and got
        # weight 0 in qcqp and sdp, while nls returned a zero estimate; the
        # input is now rejected, past measurement.LARGEST_RANGE, before any
        # estimator runs
        pa, pb, ranges, _ = synthetic_logs(tmp_path, noise=0.02, seed=5)
        cfg = {"estimator": estimator}
        if where == "range":
            lines = open(ranges).read().splitlines()
            lines[11] = lines[11].split(",")[0] + ",1e154"  # line 12 of the file
            open(ranges, "w").write("\n".join(lines) + "\n")
        else:
            cfg["d0_m"] = 1e154
        out = str(tmp_path / "report.json")
        cfg = write_json(tmp_path / "cfg.json", cfg)
        assert main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert ("ranges.csv:12: measured range" if where == "range" else "got 1e+154") in err and "at most 1e+09 m" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("estimator", ["qcqp", "sdp", "nls"])
    @pytest.mark.parametrize("where", ["odometry", "lever_arm"])
    def test_far_antenna_exits_parse_error(self, tmp_path, capsys, estimator, where):
        # an antenna 2e9 m out, past measurement.LARGEST_RANGE, through a
        # logged position or a lever arm: the dataset rejects it before any
        # estimator runs
        pa, pb, ranges, _ = synthetic_logs(tmp_path, noise=0.02, seed=5)
        cfg = {"estimator": estimator}
        if where == "odometry":
            lines = open(pb).read().splitlines()
            fields = lines[5].split(",")
            fields[1] = "2e9"
            lines[5] = ",".join(fields)
            open(pb, "w").write("\n".join(lines) + "\n")
        else:
            cfg["lever_arm_b_m"] = [0.0, 0.0, -2e9]
        out = str(tmp_path / "report.json")
        cfg = write_json(tmp_path / "cfg.json", cfg)
        assert main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out]) == 2
        assert "antenna positions must be finite, at most 1e+09 m per coordinate" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_explicit_d0_other_than_first_range_is_fitted(self, tmp_path):
        # the first antenna positions are off the frame origins, so no d0 is
        # read off the logs; a supplied one is one more range to fit
        pa, pb, ranges, T = synthetic_logs(tmp_path, noise=0.02, seed=5)
        estimates = {}
        for name, d0 in (("free", None), ("short", 0.5 * float(np.linalg.norm(T[:3])))):
            cfg = write_json(tmp_path / f"{name}.json", {"sigma_r_m": 0.02, "d0_m": d0})
            out = str(tmp_path / f"{name}.json.out")
            assert main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out]) == 0
            estimates[name] = read_json(out)["estimate"]
        # the short d0 pulls ||t|| down
        assert np.linalg.norm(estimates["short"]["t_m"]) < np.linalg.norm(estimates["free"]["t_m"])

    def test_unsolved_sdp_relaxation_exits_solver_failure(self, tmp_path, monkeypatch, capsys):
        from range_rte import estimators

        monkeypatch.setattr(estimators, "SDP_MAX_ITER", 3)
        pa, pb, ranges, _ = synthetic_logs(tmp_path, noise=0.02, seed=4)
        cfg = write_json(tmp_path / "cfg.json", {"estimator": "sdp"})
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg,
                   "--out", str(tmp_path / "report.json")])
        assert rc == 4
        assert "max_iter" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,header\n1,2,3\n")
        rc = main(["estimate", "--odom-a", str(bad), "--odom-b", str(bad), "--ranges", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_kappa_threshold_key_rejected(self, tmp_path):
        # FimArrays.singular is the one singular verdict; a config that
        # still sets a threshold for it fails loudly, in estimate and in fim
        pa, pb, ranges, T = synthetic_logs(tmp_path, noise=0.05, seed=1)
        out = str(tmp_path / "report.json")
        cfg = write_json(tmp_path / "cfg.json", {"kappa_threshold": 1.0})
        logs = ["--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out]
        assert main(["estimate", *logs]) == 2
        assert main(["fim", *logs, "--theta", *[str(v) for v in T]]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("singular", [False, True])
    def test_report_flags_are_the_estimate_flags(self, tmp_path, estimator, singular):
        # the report writes the SingularityFlags that the estimator records,
        # on emitted regular logs (exit 0) and on singular ones, a target that
        # barely moves and no odometry noise (exit 3)
        scenario = {"trials": 1, "n_poses": 20, "seed": 3, "emit_logs": True}
        if singular:
            scenario.update(radius_m=1e-9, sigma_o_m=0.0)
        assert main(["simulate", "--config", write_json(tmp_path / "sim.json", scenario), "--out-dir", str(tmp_path)]) == 0
        stem = tmp_path / "logs" / "cell00_trial000"
        paths = [f"{stem}_{name}.csv" for name in ("odom_a", "odom_b", "ranges")]
        out = str(tmp_path / "report.json")
        cfg = {**read_json(f"{stem}_estimate_config.json"), "estimator": estimator}
        rc = main(["estimate", "--odom-a", paths[0], "--odom-b", paths[1], "--ranges", paths[2],
                   "--config", write_json(tmp_path / "cfg.json", cfg), "--out", out])
        logs = read_odometry_csv(paths[0]), read_odometry_csv(paths[1]), read_ranges_csv(paths[2])
        est = ESTIMATORS[estimator](ingest_logs(*logs, sigma_r=cfg["sigma_r_m"], d0=cfg["d0_m"])[0])
        assert rc == (3 if singular else 0) == (3 if est.flags.configuration_singular else 0)
        assert read_json(out)["flags"] == json.loads(json.dumps(dataclasses.asdict(est.flags)))

    @pytest.mark.parametrize(
        "extra", [{"outlier_mode": "absolute"}, {"outlier_mode": "increase"}, {"outlier_mode": "gate"},
                  {"outlier_window": 20}, {"outlier_threshold_m2": 0.005},
                  {"excitation_var_m2": 0.05}, {"excitation_n": 100},
                  # the first range is d0 whenever both first antennas sit at their frame origins
                  {"use_first_range_as_d0": True}, {"use_first_range_as_d0": False}]
    )
    def test_removed_or_unknown_outlier_options_rejected(self, tmp_path, extra):
        pa, pb, ranges, _ = synthetic_logs(tmp_path, seed=4)
        cfg = write_json(tmp_path / "cfg.json", extra)
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_outlier_mode_none_keeps_every_range(self, tmp_path):
        pa, pb, ranges, _ = synthetic_logs(tmp_path, noise=0.02, spike=(40, 10.0), seed=2)
        out = str(tmp_path / "report.json")
        cfg = write_json(tmp_path / "cfg.json", {"sigma_r_m": 0.02, "outlier_mode": "none"})
        assert main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", out]) == 0
        counts = read_json(out)["counts"]
        assert (counts["outliers_rejected"], counts["used"]) == (0, 60)

    def test_unknown_config_key_rejected(self, tmp_path):
        pa, pb, ranges, _ = synthetic_logs(tmp_path, seed=4)
        cfg = write_json(tmp_path / "cfg.json", {"sigma_r": 0.1})  # wrong key name
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", cfg, "--out", str(tmp_path / "r.json")])
        assert rc == 2


class TestSimulateCommand:
    def test_single_trial_deterministic_row(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"trials": 1, "n_poses": 15, "seed": 5})
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out-dir", str(d1)]) == 0
        assert main(["simulate", "--config", cfg, "--out-dir", str(d2)]) == 0
        # every column but solve_ms, the wall time, is the same
        (h1, *rows1), (h2, *rows2) = (csv_rows(d / "results.csv") for d in (d1, d2))
        timing = h1.index("solve_ms")
        assert h1 == h2 and len(rows1) == len(rows2) == 1
        assert [r[:timing] + r[timing + 1 :] for r in rows1] == [r[:timing] + r[timing + 1 :] for r in rows2]
        assert float(rows1[0][timing]) >= 0.0

    def test_sweep_produces_blocks(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "trials": 2,
                "n_poses": 12,
                "seed": 6,
                "estimator": "sdp",
                "cells": [{"d0_m": d0, "radius_m": 2.0} for d0 in (1, 2, 5, 10, 20, 50)],
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        summary = read_json(out / "summary.json")
        assert len(summary["cells"]) == 6
        rows = (out / "results.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 6 * 2

    def test_nls_hard_cell_records_failures_but_exits_zero(self, tmp_path, monkeypatch):
        import range_rte.estimators
        from range_rte.cli import SIM_DEFAULTS, _scenario_from_config
        from range_rte.io_formats import load_config
        from range_rte.simulation import trial_data

        cfg = write_json(
            tmp_path / "cfg.json",
            {"trials": 5, "n_poses": 15, "seed": 7, "estimator": "nls", "d0_m": 50.0, "radius_m": 20.0},
        )
        # Whether NLS from a zero start settles in a poor minimum on this
        # cell depends on the draw, so the failure is injected: the point
        # stage of the cell's stack records an error for trial 2's problem,
        # whatever the thread count.
        scen = _scenario_from_config(load_config(cfg, SIM_DEFAULTS))
        _, doomed = trial_data(scen, 2)
        nls = range_rte.estimators.ESTIMATORS["nls"]

        def flaky_nls(stack, *args, **kwargs):
            estimates, scalars, errors = nls(stack, *args, **kwargs)
            for i in np.flatnonzero((stack.d == doomed.d).all(axis=1)).tolist():
                estimates[i] = math.nan
                errors[i] = FloatingPointError("injected divergence")
            return estimates, scalars, errors

        monkeypatch.setitem(range_rte.estimators.ESTIMATORS, "nls", flaky_nls)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        cell = read_json(out / "summary.json")["cells"][0]
        rows = [r.split(",") for r in (out / "results.csv").read_text().strip().split("\n")[1:]]
        assert [r[-1] for r in rows] == ["ok", "ok", "failed", "ok", "ok"]
        assert cell["failures"] == 1
        assert "trial 2" in cell["failure_messages"][0]
        # poor outcomes are recorded, not dropped: the summary is over every ok row
        e_t = np.array([float(r[2]) for r in rows if r[-1] == "ok"])
        assert cell["rmse_t"] == pytest.approx(math.sqrt(np.mean(e_t**2)), rel=1e-12)

    def test_cell_that_raises_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # every cell runs before the output directory is made: a failure past
        # the config checks, here in the second cell, once left the directory
        # and the first cell's logs behind
        import range_rte.estimators

        def broken(stack, *starts):
            raise ValueError("injected failure")

        monkeypatch.setitem(range_rte.estimators.ESTIMATORS, "sdp", broken)
        rc, out = run_command("simulate", {"emit_logs": True, "cells": [{"estimator": "qcqp"}, {"estimator": "sdp"}]},
                              (), tmp_path)
        assert rc == 2 and "injected failure" in capsys.readouterr().err
        assert not out.exists()

    def test_roundtrip_reproduces_estimate_bitwise(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"trials": 1, "n_poses": 20, "seed": 8, "sigma_r_m": 0.1, "sigma_o_m": 0.001, "emit_logs": True},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        results = (out / "results.csv").read_text().strip().split("\n")[1].split(",")
        e_t_inprocess = float(results[2])
        stem = out / "logs" / "cell00_trial000"
        report = str(tmp_path / "rep.json")
        rc = main(
            [
                "estimate",
                "--odom-a", f"{stem}_odom_a.csv",
                "--odom-b", f"{stem}_odom_b.csv",
                "--ranges", f"{stem}_ranges.csv",
                "--config", f"{stem}_estimate_config.json",
                "--out", report,
            ]
        )
        assert rc == 0
        # the emitted config sets every key of an estimate config, and the replay passes it
        emitted = read_json(f"{stem}_estimate_config.json")
        assert set(emitted) == set(ESTIMATE_DEFAULTS)
        rep = read_json(report)
        assert rep["flags"]["configuration_singular"] is False
        assert rep["flags"]["kappa_threshold"] == DEFAULT_KAPPA_THRESHOLD
        truth = read_json(f"{stem}_truth.json")
        e_t_replayed = float(np.linalg.norm(np.array(rep["estimate"]["t_m"]) - np.array(truth["t_m"])))
        assert e_t_replayed == e_t_inprocess  # bit-for-bit reproduction

    def test_roundtrip_bitwise_past_filter_window(self, tmp_path):
        # 40 poses: more than the 20-sample outlier window of the emitted config
        cfg = write_json(
            tmp_path / "cfg.json",
            {"trials": 1, "n_poses": 40, "seed": 8, "sigma_r_m": 0.1, "sigma_o_m": 0.001, "emit_logs": True},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        e_t_inprocess = float((out / "results.csv").read_text().strip().split("\n")[1].split(",")[2])
        stem = out / "logs" / "cell00_trial000"
        report = str(tmp_path / "rep.json")
        rc = main(["estimate", "--odom-a", f"{stem}_odom_a.csv", "--odom-b", f"{stem}_odom_b.csv",
                   "--ranges", f"{stem}_ranges.csv", "--config", f"{stem}_estimate_config.json", "--out", report])
        assert rc == 0
        rep = read_json(report)
        truth = read_json(f"{stem}_truth.json")
        assert rep["counts"]["used"] == 40
        assert float(np.linalg.norm(np.array(rep["estimate"]["t_m"]) - np.array(truth["t_m"]))) == e_t_inprocess

    def test_reports_carry_config_hash_and_seed(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"trials": 1, "n_poses": 12, "seed": 9})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        summary = read_json(out / "summary.json")
        assert summary["seed"] == 9
        assert len(summary["config_hash"]) == 16

    def test_threads_key_rejected(self, tmp_path):
        # the thread pool is gone; an old config that still sets it fails loudly
        cfg = write_json(tmp_path / "cfg.json", {"trials": 1, "threads": 2})
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2

    def test_record_timing_key_rejected(self, tmp_path):
        # solve_ms is always written; a config that still switches it fails loudly
        cfg = write_json(tmp_path / "cfg.json", {"trials": 1, "record_timing": False})
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"trials": 1.5, "n_poses": 5},
            {"trials": True},
            {"trials": 2, "n_poses": 2.0},
            {"trials": 1, "n_poses": 0},
            {"trials": 1, "seed": -1},
            {"trials": 1, "seed": 2**64},
            {"trials": 1, "seed": 1.0},
            {"trials": 1, "cells": [{"trials": 0.5}]},
        ],
    )
    def test_bad_integer_rejected(self, tmp_path, bad):
        cfg = write_json(tmp_path / "cfg.json", bad)
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "results.csv").exists()


class TestFimCommand:
    def test_three_samples_note_and_no_det(self, tmp_path):
        pa, pb, ranges, T = synthetic_logs(tmp_path, n=3, seed=10)
        out = str(tmp_path / "fim.json")
        rc = main(["fim", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges,
                   "--theta", *[str(v) for v in T], "--out", out])
        assert rc == 0
        rep = read_json(out)
        assert "note" in rep and "det_geometric" not in rep

    @staticmethod
    def _emitted_logs(tmp_path, scenario):
        """`fim`'s log options and config for trial 0 of a simulated
        scenario, and its truth as --theta values."""
        sim = write_json(tmp_path / "sim.json", {**scenario, "trials": 1, "emit_logs": True})
        assert main(["simulate", "--config", sim, "--out-dir", str(tmp_path)]) == 0
        stem = tmp_path / "logs" / "cell00_trial000"
        truth = read_json(f"{stem}_truth.json")
        logs = ["--odom-a", f"{stem}_odom_a.csv", "--odom-b", f"{stem}_odom_b.csv", "--ranges", f"{stem}_ranges.csv",
                "--config", f"{stem}_estimate_config.json"]
        return logs, [str(v) for v in [*truth["t_m"], truth["theta_rad"]]]

    def test_observable_scenario_det_equivalence(self, tmp_path):
        # evaluated at the scenario's own truth
        logs, theta = self._emitted_logs(tmp_path, {"n_poses": 10, "seed": 11})
        out = str(tmp_path / "fim.json")
        rc = main(["fim", *logs, "--theta", *theta, "--out", out])
        assert rc == 0
        rep = read_json(out)
        assert rep["det_geometric"] == pytest.approx(rep["det_direct"], rel=1e-8)
        assert rep["ci95"] is not None and len(rep["ci95"]) == 4

    def test_above_cap_note_and_no_det_geometric(self, tmp_path):
        # above DET_SUBSET_CAP rows the expansion is omitted with a note, as
        # below 4 rows; det_direct stays
        from range_rte.fisher import DET_SUBSET_CAP

        logs, _ = self._emitted_logs(tmp_path, {"n_poses": DET_SUBSET_CAP + 1, "seed": 3})
        out = str(tmp_path / "fim.json")
        rc = main(["fim", *logs, "--theta", "3.0", "0.5", "0.2", "0.4", "--out", out])
        assert rc == 0
        rep = read_json(out)
        assert rep["k"] == DET_SUBSET_CAP + 1
        assert "note" in rep and "det_geometric" not in rep and rep["det_direct"] > 0.0

    def test_config_lever_arms_reach_the_fim(self, tmp_path):
        # turning agents with antennas off their body origins: fim's F is
        # the information of the logs synced with the config's lever arms
        rng = np.random.default_rng(13)
        n = 30
        t_axis = np.arange(n) * 0.1
        arms = {"lever_arm_a_m": [0.3, -0.2, 0.1], "lever_arm_b_m": [-0.25, 0.4, 0.05]}
        logs = []
        for name in ("a", "b"):
            yaw = np.cumsum(rng.normal(0.0, 0.3, n))
            q = np.column_stack([np.zeros((n, 2)), np.sin(0.5 * yaw), np.cos(0.5 * yaw)])
            logs.append(odometry_log(t_axis, np.cumsum(rng.normal(0.0, 0.3, (n, 3)), axis=0), q))
            write_odometry_csv(str(tmp_path / f"{name}.csv"), logs[-1])
        ranges = range_log(t_axis, rng.uniform(2.0, 5.0, n))
        write_ranges_csv(str(tmp_path / "r.csv"), ranges)
        cfg = write_json(tmp_path / "cfg.json", {**arms, "sigma_r_m": 0.05})
        # fim takes the heading wrapped into [-pi, pi), as every transform row holds it
        T = np.append([2.0, -1.0, 0.5], wrap_angle(0.8))
        out = str(tmp_path / "fim.json")
        rc = main(["fim", "--odom-a", str(tmp_path / "a.csv"), "--odom-b", str(tmp_path / "b.csv"),
                   "--ranges", str(tmp_path / "r.csv"), "--config", cfg,
                   "--theta", *[str(v) for v in T], "--out", out])
        assert rc == 0
        rep = read_json(out)
        arm_a, arm_b = LeverArm(arms["lever_arm_a_m"]), LeverArm(arms["lever_arm_b_m"])
        want = dataset_fim(T, ingest_logs(*logs, ranges, arm_a=arm_a, arm_b=arm_b, sigma_r=0.05)[0]).F[0]
        np.testing.assert_array_equal(np.array(rep["F"]), want)
        assert not np.allclose(want, dataset_fim(T, ingest_logs(*logs, ranges, sigma_r=0.05)[0]).F[0])

    @pytest.mark.parametrize("turns", [1, -3])
    def test_heading_is_wrapped(self, tmp_path, turns):
        # a --theta heading whole turns from the truth's, either way, is wrapped
        # into [-pi, pi) before it enters the report and the information
        logs, truth = self._emitted_logs(tmp_path, {"n_poses": 10, "seed": 11})
        t, heading = [float(v) for v in truth[:3]], float(truth[3]) + turns * 2.0 * math.pi
        out = str(tmp_path / "fim.json")
        assert main(["fim", *logs, "--theta", *map(repr, t), repr(heading), "--out", out]) == 0
        rep = read_json(out)
        wrapped = float(wrap_angle(heading))
        assert rep["theta"]["theta_rad"] == wrapped and -math.pi <= wrapped < math.pi
        assert wrapped == pytest.approx(float(truth[3]), abs=1e-12)
        paths = logs[1::2][:3]
        cfg = read_json(logs[-1])
        logged = read_odometry_csv(paths[0]), read_odometry_csv(paths[1]), read_ranges_csv(paths[2])
        stack = ingest_logs(*logged, sigma_r=cfg["sigma_r_m"], d0=cfg["d0_m"])[0].stack()
        want = fim(np.array([t]), np.array([wrapped]), stack.pa, stack.pb, stack.sigma_r).F[0]
        assert np.array(rep["F"]).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "theta, message",
        [
            (["nan", "2.0", "0.5", "0.3"], "translation must be finite"),
            (["1.0", "2.0", "0.5", "inf"], "heading must be finite"),
            # a translation past measurement.LARGEST_RANGE: 1e160 once exited 1 on a
            # floating-point warning in the range model, and 1e200 wrote an all-zero F
            (["1e160", "2.0", "0.5", "0.3"], "--theta translation components must be at most 1e+09 m"),
            (["1.0", "1e200", "0.5", "0.3"], "--theta translation components must be at most 1e+09 m"),
            (["1.0", "2.0", repr(math.nextafter(LARGEST_RANGE, math.inf)), "0.3"], "--theta translation components must be"),
        ],
    )
    def test_non_finite_theta_exits_parse_error(self, tmp_path, capsys, emitted_logs, theta, message):
        out = tmp_path / "fim.json"
        assert main(["fim", *emitted_logs, "--theta", *theta, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_unknown_key_rejected(self, tmp_path):
        pa, pb, ranges, T = synthetic_logs(tmp_path, n=10, seed=14)
        theta = [str(v) for v in T]
        bad = write_json(tmp_path / "bad.json", {"lever_arm_c_m": [0.0, 0.0, 0.0]})
        out = str(tmp_path / "fim.json")
        assert main(["fim", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--config", bad,
                     "--theta", *theta, "--out", out]) == 2

    def test_sigma_r_option_removed(self, tmp_path):
        # the range noise of logs is the config's sigma_r_m, with no second knob
        pa, pb, ranges, T = synthetic_logs(tmp_path, n=10, seed=14)
        with pytest.raises(SystemExit) as exc:
            main(["fim", "--odom-a", pa, "--odom-b", pb, "--ranges", ranges, "--sigma-r", "0.05",
                  "--theta", *[str(v) for v in T], "--out", str(tmp_path / "fim.json")])
        assert exc.value.code == 2

    def test_parallel_scenario_flagged(self, tmp_path):
        # build parallel-motion logs directly
        rng = np.random.default_rng(12)
        n = 12
        v = np.array([0.2, 0.1, 0.05])
        pa = np.arange(n)[:, None] * v
        T = np.array([3.0, 0.0, 0.0, 0.4])
        pb = (pa + np.array([2.0, 1.0, 0.0]) - T[:3]) @ yaw_rotation(T[3])
        d = model_ranges(T, pa, pb)
        t_axis = np.arange(n) * 0.1
        write_odometry_csv(str(tmp_path / "a.csv"), odometry_log(t_axis, pa))
        write_odometry_csv(str(tmp_path / "b.csv"), odometry_log(t_axis, pb))
        write_ranges_csv(str(tmp_path / "r.csv"), range_log(t_axis, d))
        out = str(tmp_path / "fim.json")
        rc = main(["fim", "--odom-a", str(tmp_path / "a.csv"), "--odom-b", str(tmp_path / "b.csv"),
                   "--ranges", str(tmp_path / "r.csv"), "--theta", *[str(v) for v in T], "--out", out])
        assert rc == 0
        rep = read_json(out)
        assert rep["flags"]["configuration_singular"] is True
        assert rep["crlb_t"] is None and rep["crlb_theta"] is None and rep["ci95"] is None
        assert rep["det_geometric"] <= 1e-6 * max(1.0, rep["kappa"])
        assert '"inf"' not in (tmp_path / "fim.json").read_text()


class TestDriftCommand:
    def test_zero_drift(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            # noiseless target odometry, so the uncorrected track is exact;
            # the estimator is the drift default (qcqp): without d0 the
            # bare SDP relaxation is not tight on these windows
            {"sigma_t_m": 0.0, "sigma_theta_rad": 0.0, "sigma_o_m": 0.0, "duration_s": 30.0, "window": 50, "rate_hz": 10.0, "seed": 13},
        )
        out = str(tmp_path / "drift.json")
        assert main(["drift", "--config", cfg, "--out", out]) == 0
        rep = read_json(out)
        assert rep["nc_rmse_m"] < 1e-9
        assert rep["corrected_rmse_m"] < 0.5

    def test_drift_improvement_and_window_status(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"sigma_t_m": 0.05, "sigma_theta_rad": math.radians(0.05), "duration_s": 60.0, "window": 50, "rate_hz": 10.0, "seed": 14},
        )
        out = str(tmp_path / "drift.json")
        assert main(["drift", "--config", cfg, "--out", out]) == 0
        rep = read_json(out)
        assert rep["corrected_rmse_m"] < rep["nc_rmse_m"]
        statuses = {w["status"] for w in rep["windows"]}
        assert statuses <= {"estimated", "skipped"}

    @pytest.mark.parametrize("extra", [{"radius_m": 2.0}, {"sigma_theta": 0.1}, {"sigma_theta_deg": 5.0}])
    def test_removed_or_unknown_keys_rejected(self, tmp_path, extra):
        # radius_m never reached the drift scenario, and the heading walk is
        # set in radians only; a config that still sets either fails loudly
        cfg = write_json(tmp_path / "cfg.json", {"duration_s": 10.0, **extra})
        assert main(["drift", "--config", cfg, "--out", str(tmp_path / "d.json")]) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"duration_s": 12.0, "stride": -5},
            {"duration_s": 1.0},  # 25 samples, fewer than one 50-sample window
            {"stride": 0},
            {"window": 50.5},
            {"rate_hz": 0},
            {"duration_s": -5},
            {"rate_hz": 1e200, "duration_s": 1e200},  # each finite, their product not
        ],
    )
    def test_config_without_a_window_rejected(self, tmp_path, bad):
        cfg = write_json(tmp_path / "cfg.json", bad)
        assert main(["drift", "--config", cfg, "--out", str(tmp_path / "d.json")]) == 2
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"duration_s": 12.0, "sigma_t_m": -0.1, "sigma_theta_rad": -0.1, "seed": 3},
            {"duration_s": 12.0, "sigma_t_m": -0.1},
            {"duration_s": 12.0, "sigma_theta_rad": -0.1},
            {"duration_s": 12.0, "sigma_t_m": math.inf},
            {"duration_s": 12.0, "sigma_theta_rad": math.nan},
            {"duration_s": 12.0, "sigma_theta_rad": None},  # no hidden default behind null
        ],
    )
    def test_negative_or_non_finite_walk_rejected(self, tmp_path, bad):
        cfg = write_json(tmp_path / "cfg.json", bad)
        assert main(["drift", "--config", cfg, "--out", str(tmp_path / "d.json")]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_bad_seed_rejected(self, tmp_path, seed):
        cfg = write_json(tmp_path / "cfg.json", {"duration_s": 12.0, "seed": seed})
        assert main(["drift", "--config", cfg, "--out", str(tmp_path / "d.json")]) == 2
        assert not (tmp_path / "d.json").exists()

    def test_every_window_carries_its_kappa(self, tmp_path):
        from range_rte.estimators import WINDOW_KAPPA_LIMIT

        cfg = write_json(tmp_path / "cfg.json", {"duration_s": 20.0, "rate_hz": 25.0, "seed": 3})
        out = str(tmp_path / "drift.json")
        assert main(["drift", "--config", cfg, "--out", out]) == 0
        windows = read_json(out)["windows"]
        skipped = [w for w in windows if w["status"] == "skipped"]
        assert skipped and len(skipped) < len(windows)
        assert all(w["kappa"] > WINDOW_KAPPA_LIMIT and "t_m" not in w for w in skipped)
        assert all(w["kappa"] <= WINDOW_KAPPA_LIMIT for w in windows if w["status"] == "estimated")

    def test_degenerate_window_exits_solver_failure(self, tmp_path, monkeypatch, capsys):
        # one window whose refinement diverges (injected through a marked
        # range, see failing_problems): the stacked pass fails the run as a
        # window-by-window loop would, with its message
        import dataclasses

        from range_rte import simulation
        from range_rte.estimators import DegenerateSolutionError, _information

        real = simulation.sliding_window_estimate
        spoilt = []

        def spoil_third_window(stream, **kwargs):
            d = stream.d.copy()
            d[120] = DIVERGED
            spoilt.append(dataclasses.replace(stream, d=d))
            return real(spoilt[0], **kwargs)

        fail_marked_problems(monkeypatch)
        monkeypatch.setattr(simulation, "sliding_window_estimate", spoil_third_window)
        cfg = write_json(tmp_path / "cfg.json", {"duration_s": 12.0, "seed": 3})
        with np.errstate(all="ignore"):
            rc = main(["drift", "--config", cfg, "--out", str(tmp_path / "d.json")])
            window = spoilt[0].windows([100], 50)
            with pytest.raises(DegenerateSolutionError) as one:
                _information(ESTIMATORS["qcqp"](window), window)  # raises the window's error
        assert rc == 4
        assert capsys.readouterr().err.strip() == f"solver failure: {one.value}"


@pytest.fixture(scope="module")
def emitted_logs(tmp_path_factory):
    """The log options of trial 1 of a simulated two-trial cell."""
    out = tmp_path_factory.mktemp("emitted")
    sim = write_json(out / "sim.json", {"trials": 2, "n_poses": 20, "seed": 3, "emit_logs": True})
    assert main(["simulate", "--config", sim, "--out-dir", str(out)]) == 0
    stem = out / "logs" / "cell00_trial001"
    return ["--odom-a", f"{stem}_odom_a.csv", "--odom-b", f"{stem}_odom_b.csv", "--ranges", f"{stem}_ranges.csv"]


def run_command(command, cfg, logs, tmp_path, out_dir=None, extra=()):
    """Exit code and output path (in out_dir, or else tmp_path) of
    `command` run with the config `cfg` (over the base a command needs to
    run), for estimate and fim on the logs, and with the extra arguments."""
    base = {"simulate": {"trials": 1}, "drift": {"duration_s": 12.0}}.get(command, {})
    config = write_json(tmp_path / "cfg.json", {**base, **cfg})
    out = (out_dir or tmp_path) / "out"
    argv = {
        "estimate": [*logs, "--out", str(out)],
        "fim": [*logs, "--theta", "1.0", "2.0", "0.5", "0.3", "--out", str(out)],
        "simulate": ["--out-dir", str(out)],
        "drift": ["--out", str(out)],
    }[command]
    return main([command, "--config", config, *argv, *extra]), out


def test_removed_options_rejected(tmp_path, capsys, emitted_logs):
    # every setting is a config key: the options that repeated one
    # (--estimator, --seed) or set nothing (--results, --summary,
    # --scenario) are gone, and each exits 2 as an unknown option, writing
    # nothing; so does a prefix of an option, which once ran as the option
    # it abbreviates (--config, --out-dir and --out), `simulate --out` as
    # the directory of results.csv
    removed = [
        *[(command, ["--estimator", "nls"]) for command in ("estimate", "simulate", "drift")],
        *[(command, ["--seed", "1"]) for command in ("simulate", "fim", "drift")],
        ("simulate", ["--results", str(tmp_path / "results.csv")]),
        ("simulate", ["--summary", str(tmp_path / "summary.json")]),
        ("fim", ["--scenario", write_json(tmp_path / "scenario.json", {"trials": 1})]),
        ("estimate", ["--conf", write_json(tmp_path / "estimate.json", {})]),
        ("simulate", ["--out", str(tmp_path / "d1")]),
        ("fim", ["--ou", str(tmp_path / "fim.json")]),
        ("drift", ["--o", str(tmp_path / "drift.json")]),
    ]
    for command, extra in removed:
        with pytest.raises(SystemExit) as exc:
            run_command(command, {}, emitted_logs, tmp_path, extra=extra)
        assert exc.value.code == 2, (command, extra)
        assert f"error: unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "estimate.json", "scenario.json"]


class TestBadInputFiles:
    """A malformed log or config exits 2 through `main`, naming the file and
    the line (the header is line 1) or the key, and writes no report."""

    def _fails(self, capsys, argv, out):
        assert main(argv) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @staticmethod
    def _fim_argv(logs, out):
        return ["fim", *logs, "--theta", "1.0", "2.0", "0.5", "0.3", "--out", str(out)]

    def test_blank_lines_are_skipped(self, tmp_path, emitted_logs):
        padded = list(emitted_logs)
        for i in (1, 3, 5):
            lines = open(emitted_logs[i]).read().splitlines()
            path = tmp_path / os.path.basename(emitted_logs[i])
            path.write_text("\n".join([lines[0], "", *lines[1:3], "", "", *lines[3:], ""]) + "\n")
            padded[i] = str(path)
        reports = []
        for k, logs in enumerate((emitted_logs, padded)):
            out = tmp_path / f"fim{k}.json"
            assert main(self._fim_argv(logs, out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "option, content, message",
        [
            ("--ranges", b"t,d\n0.5,3.0,1.0\n", ":2: expected 2 fields, got 3"),
            ("--odom-b", b"t,px,py,pz,qx,qy,qz,qw\n0.0,0.0,0.0\n", ":2: expected 8 fields, got 3"),
            # a blank line still counts as a line
            ("--ranges", b"t,d\n0.5,3.0\n\n1.5,three\n", ":4: could not convert string to float: 'three'"),
            ("--odom-a", b"t,px,py,pz,qx,qy,qz,qw\n0.0,0.0,0.0,x,0.0,0.0,0.0,1.0\n", ":2: could not convert string to float: 'x'"),
            ("--ranges", b"t,d\n0.5,3.0\n1.5,\xff\n", ": 'utf-8' codec can't decode byte 0xff"),
            ("--ranges", None, ": [Errno 2] No such file or directory"),
        ],
    )
    def test_malformed_or_unreadable_log(self, tmp_path, capsys, emitted_logs, option, content, message):
        bad = tmp_path / "bad.csv"
        if content is not None:
            bad.write_bytes(content)
        logs = list(emitted_logs)
        logs[logs.index(option) + 1] = str(bad)
        out = tmp_path / "r.json"
        for argv in (["estimate", *logs, "--out", str(out)], self._fim_argv(logs, out)):
            assert f"error: {bad}{message}" in self._fails(capsys, argv, out)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json\n", "Expecting value: line 1 column 1 (char 0)"),
            ("[1, 2]\n", "config must be a JSON object"),
        ],
    )
    @pytest.mark.parametrize("command", ["estimate", "simulate", "drift"])
    def test_config_that_is_not_a_json_object(self, tmp_path, capsys, emitted_logs, command, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        extra = {"estimate": [*emitted_logs, "--out"], "simulate": ["--out-dir"], "drift": ["--out"]}[command]
        err = self._fails(capsys, [command, "--config", str(cfg), *extra, str(out)], out)
        assert f"error: {cfg}: {message}" in err


class TestAtomicWrite:
    def test_failed_replace_leaves_the_old_report_and_no_temp_file(self, tmp_path, monkeypatch):
        report = tmp_path / "report.json"
        report.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write_text(str(report), "new\n")
        assert report.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestConfigValues:
    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            # each once exited 1 with a traceback
            ("estimate", {"sigma_r_m": "0.1"}, "sigma_r_m"),
            ("estimate", {"sigma_r_m": None}, "sigma_r_m"),
            ("estimate", {"d0_m": "3"}, "d0_m"),
            ("estimate", {"estimator": ["qcqp"]}, "estimator"),
            ("simulate", {"cells": 5}, "cells"),
            ("simulate", {"radius_m": "1"}, "radius_m"),
            ("simulate", {"estimator": ["qcqp"]}, "estimator"),
            ("simulate", {"cells": [{"estimator": ["qcqp"]}]}, "cells[0]: estimator"),
            ("drift", {"estimator": {}}, "estimator"),
            # each once exited 0, run as another value: true as 1, "no" as true
            ("estimate", {"d0_m": True}, "d0_m"),
            ("simulate", {"d0_m": True}, "d0_m"),
            ("drift", {"d0_m": True}, "d0_m"),
            ("simulate", {"radius_m": True}, "radius_m"),
            # a walk needs a ball of positive radius
            ("simulate", {"radius_m": 0}, "D"),
            ("simulate", {"radius_m": -1}, "D"),
            # and a length that synthesis represents: Infinity once failed on its
            # ranges, 1e300 ran with every walk parked at its origin, and d0 1e160
            # overflowed; each once left its output directory behind
            ("simulate", {"radius_m": math.inf}, "D"),
            ("simulate", {"radius_m": 1e300}, "D"),
            ("simulate", {"radius_m": math.nextafter(LARGEST_LENGTH, math.inf)}, "D"),
            ("simulate", {"d0_m": 1e160}, "d0"),
            ("simulate", {"d0_m": math.nextafter(LARGEST_LENGTH, math.inf)}, "d0"),
            ("drift", {"d0_m": 1e160}, "d0"),
            ("drift", {"d0_m": math.nextafter(LARGEST_LENGTH, math.inf)}, "d0"),
            # and noise levels and lever arms that synthesis represents: sigma_r_m
            # 1e300 once failed on its ranges, naming no key, sigma_o_m 1e300 and
            # a lever arm component 1e160 overflowed; each simulate case left
            # its output directory behind
            ("simulate", {"sigma_r_m": 1e300}, "sigma_r"),
            ("simulate", {"sigma_r_m": math.nextafter(LARGEST_NOISE, math.inf)}, "sigma_r"),
            ("simulate", {"sigma_o_m": 1e300}, "sigma_o"),
            ("simulate", {"sigma_o_m": math.nextafter(LARGEST_NOISE, math.inf)}, "sigma_o"),
            ("simulate", {"lever_arm_a_m": [1e160, 0.0, 0.0]}, "lever_arms[0]"),
            ("simulate", {"lever_arm_b_m": [0.0, 0.0, -math.nextafter(LARGEST_LEVER_ARM, math.inf)]}, "lever_arms[1]"),
            ("drift", {"sigma_r_m": 1e300}, "sigma_r"),
            ("drift", {"sigma_o_m": math.nextafter(LARGEST_NOISE, math.inf)}, "sigma_o"),
            # a sigma_r_m whose squared-distance variances overflow: 1e100 once
            # exited 1 on a floating-point warning (qcqp, sdp) or ran with every
            # weight 0, and 1e160 (estimate) exited 1 on an OverflowError
            ("simulate", {"sigma_r_m": 1e100, "estimator": "qcqp"}, "sigma_r"),
            ("drift", {"sigma_r_m": 1e100, "estimator": "qcqp"}, "sigma_r"),
            ("estimate", {"sigma_r_m": 1e160, "estimator": "sdp"}, "sigma_r"),
            # a sigma_r_m past measurement.LARGEST_RANGE: 1e40 and 1e50 once
            # exited 1 on an OverflowError in fim (sigma_r^8), 1e160 in nls
            # (sigma_r^2); the logs' dataset now rejects each
            ("fim", {"sigma_r_m": 1e40}, "sigma_r"),
            ("fim", {"sigma_r_m": 1e50}, "sigma_r"),
            ("estimate", {"sigma_r_m": 1e160, "estimator": "nls"}, "sigma_r"),
            ("estimate", {"sigma_r_m": math.nextafter(LARGEST_RANGE, math.inf)}, "sigma_r"),
            ("fim", {"sigma_r_m": math.nextafter(LARGEST_RANGE, math.inf)}, "sigma_r"),
            # and a d0 past it: 1e10 m against ~5 m ranges once exited 0 (qcqp), 4 (sdp) or 3 (nls)
            ("estimate", {"d0_m": 1e10, "estimator": "sdp"}, "d0"),
            ("simulate", {"sigma_r_m": True}, "sigma_r_m"),
            ("drift", {"sigma_t_m": True}, "sigma_t_m"),
            ("simulate", {"emit_logs": "no"}, "emit_logs"),
            ("estimate", {"lever_arm_a_m": [True, 0.0, 0.0]}, "lever_arm_a_m"),
            # -0.1 once ran floored at 1e-9 m; Infinity exited 4 (estimate) or 0 (fim)
            ("estimate", {"sigma_r_m": -0.1}, "sigma_r"),
            ("estimate", {"sigma_r_m": math.inf}, "sigma_r"),
            ("fim", {"sigma_r_m": -0.1}, "sigma_r"),
            ("fim", {"sigma_r_m": math.inf}, "sigma_r"),
            # a cell that is not an object of CELL_KEYS
            ("simulate", {"cells": [5]}, "cells[0]"),
            ("simulate", {"cells": [{"estimator": "nls"}, [{"estimator": "sdp"}]]}, "cells[1]"),
            ("simulate", {"cells": [{"radius": 1.0}]}, "cells[0]"),
            ("simulate", {"cells": [{"emit_logs": True}]}, "cells[0]"),
        ],
    )
    def test_mistyped_or_out_of_range_value_exits_parse_error(self, tmp_path, capsys, emitted_logs, command, cfg, key):
        rc, out = run_command(command, cfg, emitted_logs, tmp_path)
        assert rc == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "drift"])
    def test_unwritable_output_exits_parse_error(self, tmp_path, capsys, emitted_logs, command):
        # once exited 1 with a traceback; the message names the missing directory
        rc, _ = run_command(command, {}, emitted_logs, tmp_path, out_dir=tmp_path / "missing")
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing'}")


any_float = st.floats(allow_nan=True, allow_infinity=True)
report_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.text(max_size=5),
    any_float,
    any_float.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(any_float, max_size=4).map(np.array),
    st.lists(st.lists(any_float, min_size=2, max_size=2), min_size=1, max_size=3).map(np.array),
)
report_payloads = st.dictionaries(
    st.text(max_size=5),
    st.recursive(
        report_leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=5), children, max_size=4),
        ),
        max_leaves=20,
    ),
    max_size=6,
)


class TestConfigMaps:
    """Each setting of `simulate` and `drift` is one field of its config
    object, under one config key whose default is the field's."""

    @pytest.mark.parametrize(
        "config_type, fields, defaults, unkeyed",
        [(ScenarioConfig, SIM_FIELDS, SIM_DEFAULTS, {"lever_arms"}), (DriftConfig, DRIFT_FIELDS, DRIFT_DEFAULTS, set())],
        ids=["simulate", "drift"],
    )
    def test_every_field_has_one_key_with_its_default(self, config_type, fields, defaults, unkeyed):
        names = [f.name for f in dataclasses.fields(config_type)]
        assert sorted(fields.values()) == sorted(set(names) - unkeyed)
        default = config_type()
        for key, name in fields.items():
            value = getattr(default, name)
            assert defaults[key] == value and type(defaults[key]) is type(value), key


class TestJsonEncoding:
    def test_non_finite_floats_encode_alike(self):
        values = [math.inf, -math.inf, math.nan, 1.5]
        expected = [math.inf, -math.inf, None, 1.5]
        assert jsonable(values) == expected
        assert jsonable([np.float64(v) for v in values]) == expected
        assert jsonable(np.array(values)) == expected
        assert jsonable({"k": np.float32(np.inf), "n": np.int64(3), "b": np.bool_(True)}) == {"k": math.inf, "n": 3, "b": True}

    def test_infinity_round_trips_as_a_number(self):
        text = json.dumps(jsonable({"kappa": np.float64(np.inf), "x": [float("-inf"), np.nan]}))
        assert "inf" not in text.replace("Infinity", "")
        assert json.loads(text) == {"kappa": math.inf, "x": [-math.inf, None]}

    @settings(max_examples=200, deadline=None)
    @given(payload=report_payloads)
    def test_written_report_loads_as_the_indented_encoding(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("report") / "r.json"
        dump_json(str(path), payload)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\n" not in text[:-1]  # one compact line

        def sorted_object(pairs):
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            return dict(pairs)

        def no_nan(token):
            assert token != "NaN"
            return float(token)

        loaded = json.loads(text, object_pairs_hook=sorted_object, parse_constant=no_nan)
        assert loaded == json.loads(json.dumps(jsonable(payload), indent=2, sort_keys=True))


def write_odometry_text(path, rows):
    """Odometry CSV from raw rows (t, px, py, pz, qx, qy, qz, qw), unchecked."""
    lines = ["t,px,py,pz,qx,qy,qz,qw"] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestBadOdometryRejected:
    """Odometry that cannot be interpolated fails at read time, naming the
    file and its first bad line (the header is line 1), and exits 2."""

    def _check(self, tmp_path, rows, line, reason):
        odom = write_odometry_text(tmp_path / "odom_bad.csv", rows)
        with pytest.raises(ParseError, match=rf"odom_bad\.csv:{line}: .*{reason}"):
            read_odometry_csv(odom)
        ranges = str(tmp_path / "ranges.csv")
        write_ranges_csv(ranges, range_log([0.5, 1.5, 2.5], 3.0))
        rc = main(["estimate", "--odom-a", odom, "--odom-b", odom, "--ranges", ranges, "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_unsorted_stamps(self, tmp_path):
        # once interpolated silently: ranges at 0.5/1.5/2.5 s came back at x = 2.5/22.5/27.5
        rows = [[t, x, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0] for t, x in zip([0.0, 2.0, 1.0, 3.0], [0.0, 10.0, 20.0, 30.0])]
        self._check(tmp_path, rows, 4, "strictly increasing")

    def test_duplicate_stamps(self, tmp_path):
        rows = [[t, t, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0] for t in [0.0, 1.0, 2.0, 2.0, 3.0]]
        self._check(tmp_path, rows, 5, "strictly increasing")

    def test_nan_quaternion(self, tmp_path):
        rows = [[t, t, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0] for t in [0.0, 1.0, 2.0, 3.0]]
        rows[2][4] = math.nan
        self._check(tmp_path, rows, 4, "quaternion norm")


class TestBadRangesRejected:
    @pytest.mark.parametrize("stamps, line", [([1.0, 0.5, 2.0], 3), ([0.5, 1.0, 1.0, 2.0], 4)])
    def test_unsorted_stamps_name_file_and_line(self, tmp_path, capsys, stamps, line):
        # once failed only after ingest, naming neither the file nor the line
        pa, pb, _, _ = synthetic_logs(tmp_path, seed=1)
        ranges = tmp_path / "ranges_bad.csv"
        ranges.write_text("t,d\n" + "".join(f"{t!r},3.0\n" for t in stamps))
        with pytest.raises(ParseError, match=rf"ranges_bad\.csv:{line}: timestamps must be strictly increasing"):
            read_ranges_csv(str(ranges))
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", str(ranges), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"ranges_bad.csv:{line}: timestamps must be strictly increasing" in err

    @pytest.mark.parametrize("outlier_mode", ["odometry", "none"])
    @pytest.mark.parametrize("estimator", ["qcqp", "sdp"])
    def test_infinite_range_names_file_and_line(self, tmp_path, capsys, outlier_mode, estimator):
        # once read as data: the default gate then dropped it as an outlier,
        # and without the gate the estimate ended in a solver failure (exit 4)
        pa, pb, ranges, _ = synthetic_logs(tmp_path, seed=1)
        lines = open(ranges).read().splitlines()
        lines[5] = lines[5].split(",")[0] + ",inf"  # line 6: the header is line 1
        bad = tmp_path / "ranges_bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"ranges_bad\.csv:6: measured range must be positive and finite"):
            read_ranges_csv(str(bad))
        cfg = write_json(tmp_path / "cfg.json", {"outlier_mode": outlier_mode, "estimator": estimator})
        out = str(tmp_path / "r.json")
        rc = main(["estimate", "--odom-a", pa, "--odom-b", pb, "--ranges", str(bad), "--config", cfg, "--out", out])
        assert rc == 2
        assert "ranges_bad.csv:6: measured range must be positive and finite" in capsys.readouterr().err


class TestTimeShiftInvariance:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), shift=st.floats(-5000.0, 5000.0))
    @example(seed=5093, shift=1.0)
    def test_common_time_shift_leaves_estimate_unchanged(self, seed, shift):
        """Shifting the stamps of all three logs by one offset re-rounds each
        stamp, which moves the synced positions by ~1e-13 m at most. The
        estimate can move more, within the refinement's stopping band: it
        stops once a step lowers the cost by less than ftol = 1e-14 of it,
        and near the optimum a cost excess dC (the cost is a chi-square sum)
        sits sqrt(dC) standard errors away, so two runs may stop up to
        ~sqrt(1e-14 * 150) ~ 1e-6 standard errors apart (6.3e-7 was the
        largest seen over 150 inputs). They must agree to 1e-5."""
        rng = np.random.default_rng(seed)
        n = 120
        T = np.append(rng.uniform(-5.0, 5.0, 3), rng.uniform(-math.pi, math.pi))
        t_odom = 0.1 * np.arange(n)
        q = [yaw_quat(y) for y in rng.uniform(-math.pi, math.pi, n)]
        pa, pb = np.cumsum(rng.normal(0.0, 0.25, (2, n, 3)), axis=1)
        odom_a, odom_b = odometry_log(t_odom, pa, q), odometry_log(t_odom, pb, q[::-1])
        t_rng = 0.037 + 0.08 * np.arange(n - 2)  # between odometry stamps
        arm_a, arm_b = LeverArm([0.1, -0.05, 0.02]), LeverArm([-0.12, 0.0, 0.07])
        ds, _ = ingest_logs(odom_a, odom_b, range_log(t_rng, 1.0), arm_a, arm_b)
        d = model_ranges(T, ds.pa, ds.pb) + 0.05 * rng.standard_normal(len(ds))
        cfg = {"sigma_r_m": 0.05, "lever_arm_a_m": arm_a.r.tolist(), "lever_arm_b_m": arm_b.r.tolist()}
        reports = []
        with tempfile.TemporaryDirectory() as tmp:
            for k, dt in enumerate((0.0, shift)):
                paths = [os.path.join(tmp, f"{name}{k}.csv") for name in ("a", "b", "r")]
                write_odometry_csv(paths[0], odometry_log(t_odom + dt, pa, q))
                write_odometry_csv(paths[1], odometry_log(t_odom + dt, pb, q[::-1]))
                write_ranges_csv(paths[2], range_log(t_rng + dt, d))
                out = os.path.join(tmp, f"rep{k}.json")
                cfg_path = write_json(os.path.join(tmp, "cfg.json"), cfg)
                rc = main(["estimate", "--odom-a", paths[0], "--odom-b", paths[1], "--ranges", paths[2],
                           "--config", cfg_path, "--out", out])
                reports.append((rc, read_json(out)))
        (rc0, rep0), (rc1, rep1) = reports
        assert rc0 == rc1 == 0
        assert rep0["counts"] == rep1["counts"]
        std_errors = np.array(rep0["std_errors"])
        dt = np.abs(np.array(rep0["estimate"]["t_m"]) - rep1["estimate"]["t_m"])
        dtheta = abs(float(wrap_angle(rep0["estimate"]["theta_rad"] - rep1["estimate"]["theta_rad"])))
        assert np.all(np.append(dt, dtheta) <= 1e-5 * std_errors)


class TestCsvFormats:
    def test_odometry_roundtrip_bits(self, tmp_path):
        rng = np.random.default_rng(15)
        poses = odometry_log(
            np.sort(rng.uniform(0, 10, 5)), rng.normal(size=(5, 3)), [yaw_quat(y) for y in rng.uniform(-3, 3, 5)]
        )
        path = str(tmp_path / "odom.csv")
        write_odometry_csv(path, poses)
        back = read_odometry_csv(path)
        assert len(back) == len(poses)
        assert np.array_equal(poses["t"], back["t"])
        assert np.array_equal(poses["p"], back["p"])
        assert np.array_equal(poses["q"], back["q"])

    def test_ranges_roundtrip_bits(self, tmp_path):
        rng = np.random.default_rng(16)
        ranges = range_log(np.arange(7.0), rng.uniform(1, 9, 7))
        path = str(tmp_path / "r.csv")
        write_ranges_csv(path, ranges)
        back = read_ranges_csv(path)
        assert len(back) == len(ranges)
        assert np.array_equal(ranges["t"], back["t"]) and np.array_equal(ranges["d"], back["d"])
