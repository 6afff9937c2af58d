import argparse
import json
import math
import os

import numpy as np
import pytest

from suniv.experiments import (
    _FLAGS,
    ExperimentFailure,
    SelectedParams,
    StabilityConfig,
    SweepConfig,
    _build_parser,
    _finite,
    deconvolution_sweep_config,
    denoising_sweep_config,
    main,
    n_sweep_config,
    oracle_check,
    rate_sweep_N,
    rate_sweep_sigma,
    replay_instance,
    select_parameters,
    stability_suite,
)
from suniv.forward_model import Grid
from suniv.sunet import preset_wavelet_thresholding, save_net


class TestSelectParameters:
    def test_sigma_limited_instance(self):
        sel = select_parameters(s=1, beta=0, sigma=0.1, N=1e12, d=1)
        assert sel.J == 3
        assert sel.r == 3.0 and sel.R == 3.0
        assert sel.S_prescribed == 37
        assert sel.M_prescribed == 19 and sel.M == 10
        assert sel.S_filter == 20
        assert sel.kappa_tau == pytest.approx(0.1 * math.log(1e12), rel=1e-12)
        assert sel.C_psi_L2 == 1.0
        assert sel.C_psi_Hr == 512.0
        assert sel.rho == pytest.approx(7.863, rel=1e-3)
        assert sel.gamma == pytest.approx(3.0, rel=1e-12)
        assert sel.regime == "oversampled"

    def test_sample_limited_instance(self):
        sel = select_parameters(s=1, beta=0, sigma=0.01, N=256, d=1)
        assert sel.J == 2
        assert sel.r == 2.0 and sel.R == 2.0
        assert sel.S_prescribed == 25
        assert sel.kappa_tau == pytest.approx(0.01 * math.log(256), rel=1e-12)
        assert sel.rho == pytest.approx(34.97, rel=1e-3)
        assert sel.gamma == pytest.approx(0.30103, rel=1e-4)
        assert sel.regime == "undersampled"

    def test_two_dimensional_smoothing_instance(self):
        sel = select_parameters(s=2, beta=2, sigma=0.5, N=4096, d=2)
        assert sel.J == 1
        assert sel.r == 2.0 and sel.R == 4.0
        assert sel.S_prescribed == 2401
        assert sel.M_prescribed == 25 and sel.M == 10
        assert sel.S_filter == 400
        assert sel.kappa_tau == pytest.approx(0.5 * 4.0 * math.log(4096), rel=1e-12)
        assert sel.C_psi_L2 == 4.0 and sel.C_psi_Hr == 16.0
        assert sel.rho == pytest.approx(126.8, rel=1e-3)
        assert sel.regime == "oversampled"
        assert any("capped" in note for note in sel.notes)

    def test_zero_beta_simplifications(self):
        sel = select_parameters(s=1.5, beta=0, sigma=0.2, N=100, d=1, a1=2.0)
        assert sel.kappa_tau == pytest.approx(0.2 * math.log(100), rel=1e-12)
        assert sel.C_psi_L2 == 0.5

    def test_sigma_one_is_indeterminate(self):
        sel = select_parameters(s=1, beta=0, sigma=1.0, N=100, d=1)
        assert sel.gamma is None
        assert sel.regime == "indeterminate"

    def test_depth_floor(self):
        sel = select_parameters(s=1, beta=0, sigma=1.5, N=4, d=1)
        assert sel.J == 1
        assert any("floored" in note for note in sel.notes)

    @pytest.mark.parametrize("kwargs", [
        {"s": 0}, {"s": -1}, {"sigma": 0}, {"sigma": -0.1},
        {"N": 1}, {"N": 0.5}, {"beta": -0.5}, {"a1": 0}, {"d": 3},
    ])
    def test_invalid_inputs(self, kwargs):
        base = {"s": 1, "beta": 0, "sigma": 0.1, "N": 100, "d": 1, "a1": 1.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            select_parameters(**base)

    @pytest.mark.parametrize("name", ["s", "beta", "sigma", "N", "a1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs(self, name, value):
        base = {"s": 1, "beta": 0, "sigma": 0.1, "N": 100, "d": 1, "a1": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must"):
            select_parameters(**base)

    def test_to_dict_round_trips_through_json(self):
        sel = select_parameters(s=1, beta=2, sigma=0.25, N=64, d=1)
        d = json.loads(json.dumps(sel.to_dict()))
        assert d["J"] >= 1
        assert isinstance(d["notes"], list) and d["notes"]
        assert d["regime"] in ("oversampled", "undersampled", "indeterminate")


class TestSweepConfigs:
    def test_denoising_defaults(self):
        cfg = denoising_sweep_config()
        assert cfg.operator == "identity" and cfg.estimator == "preset"
        assert cfg.grid_n == 256 and cfg.M == 3 and cfg.prior_depth == 5
        assert len(cfg.sigmas) == 7 and cfg.sigmas[0] == 0.25

    def test_deconvolution_defaults(self):
        cfg = deconvolution_sweep_config()
        assert cfg.operator == "sobolev" and cfg.op_L == 1
        assert cfg.grid_n == 512 and cfg.M == 7
        assert cfg.prior_L == 16.0 and cfg.prior_depth == 2 and cfg.prior_M == 7

    def test_n_sweep_defaults(self):
        cfg = n_sweep_config()
        assert cfg.estimator == "trained" and cfg.J_override == 3
        assert cfg.Ns == (8, 32, 128) and cfg.sigma == 0.25
        assert cfg.M == 2 and cfg.prior_M == 2
        assert cfg.grid_n == 32 and cfg.train_rho_frac == 0.02

    def test_overrides(self):
        cfg = denoising_sweep_config(trials=10, seed=5, sigmas=[0.5, 0.25, 0.125, 0.0625])
        assert cfg.trials == 10 and cfg.seed == 5
        assert cfg.sigmas == (0.5, 0.25, 0.125, 0.0625)

    @pytest.mark.parametrize("kwargs", [
        {"operator": "fourier"}, {"estimator": "bayes"}, {"trials": 1},
        {"sigmas": (0.5, -0.1, 0.2, 0.1)}, {"Ns": (1, 8)}, {"J_cap": 0},
        {"J_override": 0}, {"sigma": 0.0}, {"select_N": 1.0},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"sigma": math.nan}, {"sigma": math.inf}, {"sigmas": (0.5, math.nan, 0.2, 0.1)},
        {"sigmas": (math.inf, 0.5, 0.2, 0.1)}, {"select_N": math.nan}, {"select_N": math.inf},
    ])
    def test_non_finite_configs(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SweepConfig(**kwargs)


def tiny_sigma_cfg(**overrides):
    base = dict(grid_n=64, prior_depth=3, J_cap=4, trials=6,
                sigmas=(0.25, 0.125, 0.0625, 0.03125))
    base.update(overrides)
    return denoising_sweep_config(**base)


class TestRateSweepSigma:
    @pytest.mark.parametrize("sigmas", [(0.25,), (0.25, 0.125), (0.5, 0.25, 0.125)])
    def test_too_few_points(self, sigmas):
        with pytest.raises(ExperimentFailure):
            rate_sweep_sigma(tiny_sigma_cfg(sigmas=sigmas))

    def test_small_preset_sweep(self):
        res = rate_sweep_sigma(tiny_sigma_cfg())
        assert res.axis == "sigma" and len(res.points) == 4
        assert all(r > 0 for r in res.risks)
        assert all(se > 0 for se in res.std_errors)
        assert res.slope is not None and res.slope_ci[0] < res.slope < res.slope_ci[1]
        assert res.theoretical_exponent == pytest.approx(4.0 / 3.0)
        for p in res.points:
            assert p["selected"]["J"] >= 1
            assert p["J"] <= 4
            assert p["selected"]["kappa_tau"] > 0
            assert isinstance(p["selected"]["notes"], list)

    def test_deterministic_across_runs(self):
        a = rate_sweep_sigma(tiny_sigma_cfg())
        b = rate_sweep_sigma(tiny_sigma_cfg())
        assert a.risks == b.risks and a.slope == b.slope

    def test_trained_estimator_records_history(self):
        cfg = tiny_sigma_cfg(estimator="trained", trials=4, N=8,
                             train_epochs=3, prior_depth=2, J_cap=3)
        res = rate_sweep_sigma(cfg)
        assert all("train_epochs_run" in p for p in res.points)
        assert all(p["train_rho"] > 0 for p in res.points)

    def test_csv_and_dict(self, tmp_path):
        res = rate_sweep_sigma(tiny_sigma_cfg())
        path = tmp_path / "sweep.csv"
        res.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("sigma,risk,std_error,J,M,")
        assert len(lines) == 5
        d = json.loads(json.dumps(res.to_dict()))
        assert d["axis"] == "sigma" and len(d["points"]) == 4


class TestRateSweepN:
    def test_single_size_rejected(self):
        with pytest.raises(ExperimentFailure):
            rate_sweep_N(n_sweep_config(Ns=(8,)))

    def test_small_trained_sweep(self):
        cfg = n_sweep_config(Ns=(8, 24), trials=8, train_epochs=40)
        res = rate_sweep_N(cfg)
        assert res.axis == "N" and res.values == (8, 24)
        assert res.endpoint_within_2se is True
        assert res.preset_risk is not None and res.preset_risk > 0
        assert res.trained_vs_preset_ratio == res.risks[-1] / res.preset_risk
        assert res.slope is None
        assert any("slope omitted" in n for n in res.notes)
        for p in res.points:
            assert p["train_stopped"] in ("target_reached", "epochs_exhausted", "step_underflow")

    def test_slope_with_four_preset_points(self):
        cfg = n_sweep_config(estimator="preset", Ns=(8, 16, 32, 64), trials=5)
        res = rate_sweep_N(cfg)
        assert res.slope is not None and res.slope_stderr >= 0
        assert res.theoretical_exponent == pytest.approx(-1.0 / 3.5)
        assert res.monotone_2se in (True, False)

    def test_points_sorted_by_size(self):
        cfg = n_sweep_config(estimator="preset", Ns=(32, 8, 16), trials=5)
        res = rate_sweep_N(cfg)
        assert res.values == (8, 16, 32)


class TestStabilitySuite:
    def small_cfg(self, **overrides):
        base = dict(size_trials=12, perturb_trials=12, distance_trials=8,
                    risk_bound_instances=4, risk_bound_draws=10)
        base.update(overrides)
        return StabilityConfig(**base)

    def test_zero_trials_pass(self):
        cfg = self.small_cfg(size_trials=0, perturb_trials=0,
                             distance_trials=0, risk_bound_instances=0)
        report = stability_suite(cfg)
        assert report["all_pass"]
        for fam in report["families"].values():
            assert fam["trials"] == 0 and fam["pass"]
            assert fam["worst_instance"] is None

    def test_small_run_all_pass(self):
        report = stability_suite(self.small_cfg())
        assert report["format"] == "suniv-stability-report-v1"
        assert report["all_pass"]
        for name, fam in report["families"].items():
            assert fam["passes"] == fam["trials"], name
            inst = fam["worst_instance"]
            assert inst["format"] == "suniv-stability-instance-v1"
            assert inst["family"] == name
            assert fam["worst_margin"] == inst["rhs"] - inst["lhs"]

    def test_report_is_deterministic(self):
        a = stability_suite(self.small_cfg())
        b = stability_suite(self.small_cfg())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_replay_reproduces_sides(self):
        report = stability_suite(self.small_cfg())
        for fam in report["families"].values():
            result = replay_instance(fam["worst_instance"])
            assert result["matches_record"]
            assert result["pass"]

    def test_replay_detects_tampering(self):
        report = stability_suite(self.small_cfg(size_trials=3))
        record = dict(report["families"]["size"]["worst_instance"])
        record["lhs"] = record["lhs"] + 1.0
        assert not replay_instance(record)["matches_record"]

    def test_replay_rejects_foreign_records(self):
        with pytest.raises(ValueError):
            replay_instance({"format": "something-else"})

    @pytest.mark.parametrize("kwargs", [
        {"size_trials": -1}, {"risk_bound_draws": 1}, {"J": 1},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            StabilityConfig(**kwargs)


class TestOracleCheck:
    def test_default_passes(self):
        report = oracle_check(seed=3, roundtrip_trials=20, oracle_trials=12)
        assert report["pass"]
        assert report["roundtrip"]["max_rel_error"] <= 1e-10
        assert report["threshold_oracle"]["max_rel_error"] <= 1e-10

    def test_zero_trials(self):
        report = oracle_check(seed=0, roundtrip_trials=0, oracle_trials=0)
        assert report["pass"]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestCli:
    def test_params_example(self, tmp_path, capsys):
        code = main(["params", "--s", "1", "--beta", "0", "--d", "1",
                     "--sigma", "0.1", "--n", "1e12", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "params.json")
        assert payload["J"] == 3
        assert '"J": 3' in capsys.readouterr().out

    def test_params_missing_flags(self, capsys):
        assert main(["params", "--s", "1"]) == 2
        assert "--beta" in capsys.readouterr().err

    def test_params_invalid_value(self, capsys):
        code = main(["params", "--s", "-1", "--beta", "0", "--sigma", "0.1", "--n", "100"])
        assert code == 2

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert main(["params", "--nope", "1"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 1.0, "beta": 0.0, "sigma": 0.1, "n": 1e12}))
        code = main(["params", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert read_json(tmp_path / "params.json")["J"] == 3

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 1.0, "beta": 0.0, "sigma": 0.1, "n": 1e12}))
        code = main(["params", "--config", str(cfg), "--sigma", "0.01",
                     "--out", str(tmp_path)])
        assert code == 0
        assert read_json(tmp_path / "params.json")["J"] == 5

    def test_missing_config_file(self, capsys):
        assert main(["params", "--config", "/nonexistent.json"]) == 2
        assert "config" in capsys.readouterr().err

    def test_gen_data_train_eval_chain(self, tmp_path):
        data_dir = tmp_path / "data"
        code = main(["gen-data", "--n-samples", "8", "--grid-n", "32",
                     "--sigma", "0.25", "--out", str(data_dir)])
        assert code == 0
        meta = read_json(data_dir / "gen_data.json")
        assert meta["n_samples"] == 8 and meta["operator"]["kind"] == "identity"

        train_dir = tmp_path / "run"
        code = main(["train", "--data", str(data_dir / "training_set.json"),
                     "--epochs", "2", "--m", "2", "--out", str(train_dir)])
        assert code == 0
        summary = read_json(train_dir / "train_summary.json")
        assert summary["stopped_reason"] in ("target_reached", "epochs_exhausted")
        assert "selected" in summary and summary["selected"]["J"] == summary["J"]
        history = (train_dir / "train_history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,risk,step_size,wall_clock"
        assert len(history) == summary["epochs_run"] + 2

        code = main(["eval", "--model", str(train_dir / "model.json"),
                     "--sigma", "0.25", "--trials", "6", "--out", str(train_dir)])
        assert code == 0
        ev = read_json(train_dir / "eval.json")
        assert ev["risk_mean"] > 0 and ev["risk_std_error"] > 0

    def test_train_random_init(self, tmp_path):
        code = main(["train", "--init", "random", "--n-samples", "6",
                     "--grid-n", "32", "--epochs", "3", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "train_summary.json")
        assert summary["init"] == "random" and summary["epochs_run"] <= 3

    def test_eval_requires_model(self, capsys):
        assert main(["eval"]) == 2

    def test_gen_data_byte_identical(self, tmp_path):
        # JSON and .npz training sets
        for extra, data in (([], "training_set.json"), (["--binary"], "training_set.npz")):
            dirs = [tmp_path / data / "a", tmp_path / data / "b"]
            for d in dirs:
                code = main(["gen-data", "--seed", "7", "--n-samples", "4",
                             "--grid-n", "32", "--out", str(d), *extra])
                assert code == 0
            for name in (data, "gen_data.json"):
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_sweep_sigma_cli_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        args = ["sweep-sigma", "--seed", "3", "--grid-n", "64", "--prior-depth", "3",
                "--j-cap", "4", "--trials", "4",
                "--sigmas", "0.25", "0.125", "0.0625", "0.03125"]
        for d in dirs:
            assert main(args + ["--out", str(d)]) == 0
        for name in ("sweep_sigma.json", "sweep_sigma.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        payload = read_json(dirs[0] / "sweep_sigma.json")
        assert payload["result"]["points"][0]["selected"]["J"] >= 1
        assert payload["elapsed_seconds"] == 0.0

    def test_sweep_sigma_too_short_fails(self, tmp_path, capsys):
        code = main(["sweep-sigma", "--sigmas", "0.25", "--trials", "4",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "4 noise levels" in capsys.readouterr().err

    def test_stability_cli_and_replay(self, tmp_path, capsys):
        code = main(["stability", "--size-trials", "6", "--perturb-trials", "6",
                     "--distance-trials", "4", "--risk-bound-instances", "2",
                     "--risk-bound-draws", "8", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "all pass: yes" in out
        report = read_json(tmp_path / "stability.json")
        assert report["all_pass"]

        record = report["families"]["distance"]["worst_instance"]
        rec_path = tmp_path / "instance.json"
        rec_path.write_text(json.dumps(record))
        code = main(["stability", "--replay", str(rec_path), "--out", str(tmp_path)])
        assert code == 0
        assert read_json(tmp_path / "replay.json")["matches_record"]

    def test_oracle_check_cli(self, tmp_path):
        code = main(["oracle-check", "--roundtrip-trials", "10",
                     "--oracle-trials", "6", "--out", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "oracle_check.json")
        assert report["pass"]

    def test_timing_flag_fills_elapsed(self, tmp_path):
        code = main(["gen-data", "--n-samples", "4", "--grid-n", "32",
                     "--timing", "--out", str(tmp_path)])
        assert code == 0
        assert read_json(tmp_path / "gen_data.json")["elapsed_seconds"] > 0

    @pytest.mark.parametrize("args", [["--seed", "5"], ["--out", "elsewhere"], ["--timing"],
                                      ["--boundary=zero"], ["--config", "cfg.json"]])
    def test_flags_before_subcommand_rejected(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        assert main([*args, "gen-data", "--n-samples", "2", "--grid-n", "16"]) == 2
        flag = args[0].split("=")[0]
        assert f"error: put flags after the subcommand (got {flag})" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_matches_explicit_flags(self, tmp_path):
        flags = {"seed": 3, "grid_n": 32, "prior-depth": 3, "j_cap": 2, "trials": 2,
                 "preset": "denoising", "sigmas": [0.5, 0.25, 0.125, 0.0625],
                 "estimator": "preset", "timing": False, "batch": None}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        assert main(["sweep-sigma", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        argv = ["sweep-sigma", "--seed", "3", "--grid-n", "32", "--prior-depth", "3",
                "--j-cap", "2", "--trials", "2", "--preset", "denoising",
                "--sigmas", "0.5", "0.25", "0.125", "0.0625", "--estimator", "preset",
                "--out", str(tmp_path / "b")]
        assert main(argv) == 0
        for name in ("sweep_sigma.json", "sweep_sigma.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# The parser's flags at the commit before the flag table:
# (subcommand, flag, default, type, choices, nargs, required).  Float flags
# were type float, now the finite-only float type.  The required ones were
# checked by hand in the command functions, with the same exit code 2.
PINNED_FLAGS = [
    ('params', '--seed', 0, 'int', None, None, False),
    ('params', '--config', None, None, None, None, False),
    ('params', '--out', '.', None, None, None, False),
    ('params', '--boundary', 'periodic', None, ('zero', 'periodic'), None, False),
    ('params', '--timing', False, None, None, 0, False),
    ('params', '--s', None, 'float', None, None, True),
    ('params', '--beta', None, 'float', None, None, True),
    ('params', '--sigma', None, 'float', None, None, True),
    ('params', '--n', None, 'float', None, None, True),
    ('params', '--d', 1, 'int', (1, 2), None, False),
    ('params', '--a1', 1.0, 'float', None, None, False),
    ('gen-data', '--seed', 0, 'int', None, None, False),
    ('gen-data', '--config', None, None, None, None, False),
    ('gen-data', '--out', '.', None, None, None, False),
    ('gen-data', '--boundary', 'periodic', None, ('zero', 'periodic'), None, False),
    ('gen-data', '--timing', False, None, None, 0, False),
    ('gen-data', '--operator', 'identity', None, ('identity', 'sobolev'), None, False),
    ('gen-data', '--op-l', 1, 'int', None, None, False),
    ('gen-data', '--sigma', 0.25, 'float', None, None, False),
    ('gen-data', '--d', 1, 'int', (1, 2), None, False),
    ('gen-data', '--grid-n', 64, 'int', None, None, False),
    ('gen-data', '--s', 1.0, 'float', None, None, False),
    ('gen-data', '--prior-l', 1.0, 'float', None, None, False),
    ('gen-data', '--prior-depth', 2, 'int', None, None, False),
    ('gen-data', '--prior-m', 3, 'int', None, None, False),
    ('gen-data', '--n-samples', 64, 'int', None, None, False),
    ('gen-data', '--binary', False, None, None, 0, False),
    ('train', '--seed', 0, 'int', None, None, False),
    ('train', '--config', None, None, None, None, False),
    ('train', '--out', '.', None, None, None, False),
    ('train', '--boundary', 'periodic', None, ('zero', 'periodic'), None, False),
    ('train', '--timing', False, None, None, 0, False),
    ('train', '--operator', 'identity', None, ('identity', 'sobolev'), None, False),
    ('train', '--op-l', 1, 'int', None, None, False),
    ('train', '--sigma', 0.25, 'float', None, None, False),
    ('train', '--d', 1, 'int', (1, 2), None, False),
    ('train', '--grid-n', 64, 'int', None, None, False),
    ('train', '--s', 1.0, 'float', None, None, False),
    ('train', '--prior-l', 1.0, 'float', None, None, False),
    ('train', '--prior-depth', 2, 'int', None, None, False),
    ('train', '--prior-m', 3, 'int', None, None, False),
    ('train', '--data', None, None, None, None, False),
    ('train', '--n-samples', 64, 'int', None, None, False),
    ('train', '--init', 'preset', None, ('preset', 'random'), None, False),
    ('train', '--m', 3, 'int', None, None, False),
    ('train', '--j', None, 'int', None, None, False),
    ('train', '--epochs', 100, 'int', None, None, False),
    ('train', '--step', 0.5, 'float', None, None, False),
    ('train', '--batch', None, 'int', None, None, False),
    ('train', '--rho-frac', 0.05, 'float', None, None, False),
    ('train', '--jitter', 0.0, 'float', None, None, False),
    ('eval', '--seed', 0, 'int', None, None, False),
    ('eval', '--config', None, None, None, None, False),
    ('eval', '--out', '.', None, None, None, False),
    ('eval', '--boundary', 'periodic', None, ('zero', 'periodic'), None, False),
    ('eval', '--timing', False, None, None, 0, False),
    ('eval', '--operator', 'identity', None, ('identity', 'sobolev'), None, False),
    ('eval', '--op-l', 1, 'int', None, None, False),
    ('eval', '--sigma', 0.25, 'float', None, None, False),
    ('eval', '--d', 1, 'int', (1, 2), None, False),
    ('eval', '--grid-n', 64, 'int', None, None, False),
    ('eval', '--s', 1.0, 'float', None, None, False),
    ('eval', '--prior-l', 1.0, 'float', None, None, False),
    ('eval', '--prior-depth', 2, 'int', None, None, False),
    ('eval', '--prior-m', 3, 'int', None, None, False),
    ('eval', '--model', None, None, None, None, True),
    ('eval', '--trials', 100, 'int', None, None, False),
    ('sweep-sigma', '--seed', 0, 'int', None, None, False),
    ('sweep-sigma', '--config', None, None, None, None, False),
    ('sweep-sigma', '--out', '.', None, None, None, False),
    ('sweep-sigma', '--boundary', 'periodic', None, ('zero', 'periodic'), None, False),
    ('sweep-sigma', '--timing', False, None, None, 0, False),
    ('sweep-sigma', '--preset', 'denoising', None, ('denoising', 'deconvolution'), None, False),
    ('sweep-sigma', '--operator', None, None, ('identity', 'sobolev'), None, False),
    ('sweep-sigma', '--op-l', None, 'int', None, None, False),
    ('sweep-sigma', '--s', None, 'float', None, None, False),
    ('sweep-sigma', '--d', None, 'int', (1, 2), None, False),
    ('sweep-sigma', '--grid-n', None, 'int', None, None, False),
    ('sweep-sigma', '--prior-l', None, 'float', None, None, False),
    ('sweep-sigma', '--prior-depth', None, 'int', None, None, False),
    ('sweep-sigma', '--prior-m', None, 'int', None, None, False),
    ('sweep-sigma', '--m', None, 'int', None, None, False),
    ('sweep-sigma', '--j', None, 'int', None, None, False),
    ('sweep-sigma', '--j-cap', None, 'int', None, None, False),
    ('sweep-sigma', '--trials', None, 'int', None, None, False),
    ('sweep-sigma', '--estimator', None, None, ('preset', 'trained'), None, False),
    ('sweep-sigma', '--epochs', None, 'int', None, None, False),
    ('sweep-sigma', '--step', None, 'float', None, None, False),
    ('sweep-sigma', '--batch', None, 'int', None, None, False),
    ('sweep-sigma', '--rho-frac', None, 'float', None, None, False),
    ('sweep-sigma', '--sigmas', None, 'float', None, '+', False),
    ('sweep-sigma', '--select-n', None, 'float', None, None, False),
    ('sweep-sigma', '--n-train', None, 'int', None, None, False),
    ('sweep-n', '--seed', 0, 'int', None, None, False),
    ('sweep-n', '--config', None, None, None, None, False),
    ('sweep-n', '--out', '.', None, None, None, False),
    ('sweep-n', '--boundary', 'periodic', None, ('zero', 'periodic'), None, False),
    ('sweep-n', '--timing', False, None, None, 0, False),
    ('sweep-n', '--operator', None, None, ('identity', 'sobolev'), None, False),
    ('sweep-n', '--op-l', None, 'int', None, None, False),
    ('sweep-n', '--s', None, 'float', None, None, False),
    ('sweep-n', '--d', None, 'int', (1, 2), None, False),
    ('sweep-n', '--grid-n', None, 'int', None, None, False),
    ('sweep-n', '--prior-l', None, 'float', None, None, False),
    ('sweep-n', '--prior-depth', None, 'int', None, None, False),
    ('sweep-n', '--prior-m', None, 'int', None, None, False),
    ('sweep-n', '--m', None, 'int', None, None, False),
    ('sweep-n', '--j', None, 'int', None, None, False),
    ('sweep-n', '--j-cap', None, 'int', None, None, False),
    ('sweep-n', '--trials', None, 'int', None, None, False),
    ('sweep-n', '--estimator', None, None, ('preset', 'trained'), None, False),
    ('sweep-n', '--epochs', None, 'int', None, None, False),
    ('sweep-n', '--step', None, 'float', None, None, False),
    ('sweep-n', '--batch', None, 'int', None, None, False),
    ('sweep-n', '--rho-frac', None, 'float', None, None, False),
    ('sweep-n', '--n-list', None, 'int', None, '+', False),
    ('sweep-n', '--sigma', None, 'float', None, None, False),
    ('stability', '--seed', 0, 'int', None, None, False),
    ('stability', '--config', None, None, None, None, False),
    ('stability', '--out', '.', None, None, None, False),
    ('stability', '--boundary', 'periodic', None, ('zero', 'periodic'), None, False),
    ('stability', '--timing', False, None, None, 0, False),
    ('stability', '--size-trials', None, 'int', None, None, False),
    ('stability', '--perturb-trials', None, 'int', None, None, False),
    ('stability', '--distance-trials', None, 'int', None, None, False),
    ('stability', '--risk-bound-instances', None, 'int', None, None, False),
    ('stability', '--risk-bound-draws', None, 'int', None, None, False),
    ('stability', '--j', None, 'int', None, None, False),
    ('stability', '--dim', None, 'int', (1, 2), None, False),
    ('stability', '--grid-n', None, 'int', None, None, False),
    ('stability', '--replay', None, None, None, None, False),
    ('oracle-check', '--seed', 0, 'int', None, None, False),
    ('oracle-check', '--config', None, None, None, None, False),
    ('oracle-check', '--out', '.', None, None, None, False),
    ('oracle-check', '--boundary', 'periodic', None, ('zero', 'periodic'), None, False),
    ('oracle-check', '--timing', False, None, None, 0, False),
    ('oracle-check', '--roundtrip-trials', 40, 'int', None, None, False),
    ('oracle-check', '--oracle-trials', 20, 'int', None, None, False),
]


def _parser_flags():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    types = {None: None, int: "int", _finite: "float"}
    return [(cmd, a.option_strings[0], a.default, types[a.type], a.choices, a.nargs, a.required)
            for cmd, p in sub.choices.items() for a in p._actions if a.dest != "help"]


def test_parser_flags_pinned():
    """No flag is renamed, dropped, added or re-defaulted by the flag table."""
    flags = _parser_flags()
    assert len(flags) == len(set(flags)) == 138
    assert sorted(flags, key=repr) == sorted(PINNED_FLAGS, key=repr)


def test_one_row_per_flag():
    names = [f.name for f in _FLAGS]
    assert len(names) == len(set(names)) == 46


# Cheap valid flags for each subcommand, so that a bad value that got past the
# checks would still finish quickly instead of running a default experiment.
_CHEAP = {
    "params": {"--s": "1", "--beta": "0", "--sigma": "0.1", "--n": "100"},
    "gen-data": {"--n-samples": "2", "--grid-n": "16"},
    "train": {"--n-samples": "2", "--grid-n": "16", "--epochs": "1", "--m": "1"},
    "eval": {"--model": "MODEL", "--trials": "2"},
    "sweep-sigma": {"--trials": "2", "--grid-n": "32", "--prior-depth": "3", "--j-cap": "2",
                    "--sigmas": ["0.5", "0.25", "0.125", "0.0625"]},
    "sweep-n": {"--trials": "2", "--n-list": ["2", "3"], "--epochs": "1"},
    "stability": {"--size-trials": "0", "--perturb-trials": "0", "--distance-trials": "0",
                  "--risk-bound-instances": "0"},
    "oracle-check": {"--roundtrip-trials": "0", "--oracle-trials": "0"},
}


def _bad_value_cases():
    """(subcommand, flag, argv tokens, --config object or None) for every numeric flag."""
    cases = []
    for cmd in _CHEAP:
        for f in _FLAGS:
            if cmd not in f.cmds or f.type not in (int, _finite):
                continue
            dest = f.name[2:].replace("-", "_")
            if f.type is _finite:
                cases += [(cmd, f.name, [f.name, bad], None) for bad in ("nan", "inf")]
            wrong = 5 if f.nargs else (2.5 if f.type is int else [0.5])
            cases.append((cmd, f.name, [], {dest: wrong}))
            cases.append((cmd, f.name, [], {dest + "_x": 1}))
        cases.append((cmd, "--seed", [], {"seed": True}))
        cases.append((cmd, "--out", [], {"out": {"dir": "x"}}))
    return cases


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_net(preset_wavelet_thresholding(1, 2, np.zeros(2), Grid(1, 16)), path)
    return str(path)


@pytest.mark.parametrize("cmd,flag,args,config", _bad_value_cases(),
                         ids=lambda v: json.dumps(v) if isinstance(v, (list, dict)) else str(v))
def test_bad_flag_value_is_usage_error(tmp_path, capsys, model_file, cmd, flag, args, config):
    """nan and inf on the command line, and a --config value of the wrong type or
    under an unknown key, exit 2 with an error and write nothing."""
    argv = [cmd, "--out", str(tmp_path / "out")]
    for name, value in _CHEAP[cmd].items():
        if name[2:].replace("-", "_") not in (config or {}):
            value = model_file if value == "MODEL" else value
            argv += [name, *value] if isinstance(value, list) else [name, value]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    if config is None:
        assert f"argument {flag}: not a finite number" in err
    else:
        assert "cfg.json" in err and repr(next(iter(config))) in err
    assert not (tmp_path / "out").exists()


class TestCliBadData:
    """Missing or corrupt input files exit with the usage code 2, no traceback."""

    def _gen(self, tmp_path, *extra):
        code = main(["gen-data", "--n-samples", "4", "--grid-n", "32",
                     "--out", str(tmp_path / "data"), *extra])
        assert code == 0
        return tmp_path / "data"

    def _train(self, tmp_path, path, init="preset"):
        return main(["train", "--data", str(path), "--init", init, "--epochs", "1",
                     "--m", "2", "--out", str(tmp_path / "run")])

    @pytest.mark.parametrize("field", ["Y", "F"])
    @pytest.mark.parametrize("init", ["preset", "random"])
    def test_non_finite_values(self, tmp_path, capsys, field, init):
        path = self._gen(tmp_path) / "training_set.json"
        doc = read_json(path)
        doc[field][1][3] = float("nan")
        path.write_text(json.dumps(doc))
        assert self._train(tmp_path, path, init) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_truncated_archive(self, tmp_path, capsys):
        path = self._gen(tmp_path, "--binary") / "training_set.npz"
        path.write_bytes(path.read_bytes()[:-8])
        assert self._train(tmp_path, path) == 2
        assert str(path) in capsys.readouterr().err

    def test_json_named_npz(self, tmp_path, capsys):
        """The old format: a JSON document under the archive's name."""
        data = self._gen(tmp_path)
        path = data / "training_set.npz"
        path.write_bytes((data / "training_set.json").read_bytes())
        assert self._train(tmp_path, path) == 2
        assert str(path) in capsys.readouterr().err

    def test_archive_shape_mismatch(self, tmp_path, capsys):
        path = self._gen(tmp_path, "--binary") / "training_set.npz"
        with np.load(path, allow_pickle=False) as archive:
            entries = dict(archive)
        entries["Y"] = entries["Y"][:3]
        np.savez(path, **entries)
        assert self._train(tmp_path, path) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["Y", "F"])
    def test_json_shape_mismatch(self, tmp_path, capsys, field):
        path = self._gen(tmp_path) / "training_set.json"
        doc = read_json(path)
        doc[field] = doc[field][:3]
        path.write_text(json.dumps(doc))
        assert self._train(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert "training_set.json" in err and field in err

    @pytest.mark.parametrize("command,flag", [("train", "--data"), ("eval", "--model"),
                                              ("stability", "--replay")])
    def test_missing_input_file(self, tmp_path, capsys, command, flag):
        path = tmp_path / "nope.json"
        assert main([command, flag, str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("command,flag", [("train", "--data"), ("eval", "--model"),
                                              ("stability", "--replay")])
    def test_json_syntax_error(self, tmp_path, capsys, command, flag):
        path = tmp_path / "broken.json"
        path.write_text('{"format": ')
        assert main([command, flag, str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    def test_training_set_missing_key(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"format": "suniv-training-set-v1"}))
        assert self._train(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'grid'" in err

    def test_non_finite_net_parameter(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        save_net(preset_wavelet_thresholding(1, 2, np.zeros(2), Grid(1, 16)), path)
        doc = read_json(path)
        doc["taus"][0] = float("nan")
        path.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(path), "--out", str(tmp_path / "run")]) == 2
        assert "taus must be finite" in capsys.readouterr().err

    def test_net_missing_key(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "suniv-sunet-v1"}))
        assert main(["eval", "--model", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'J'" in err

    def test_replay_record_missing_key(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"format": "suniv-stability-instance-v1"}))
        assert main(["stability", "--replay", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "stability instance record" in err and "'family'" in err
