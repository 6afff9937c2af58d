"""Tests for training: empirical risk, projected descent, Monte Carlo risk."""

import numpy as np
import pytest

from suniv.forward_model import (
    Grid,
    PriorParams,
    identity_operator,
    make_rng,
    make_training_set,
    prior_second_moment,
    quadrature_norm,
    sample_prior,
    sobolev_operator,
    vaguelette,
)
from suniv.sunet import (
    calibrate_thresholds,
    check_class_membership,
    forward,
    preset_wavelet_thresholding,
    preset_wvd,
    random_feasible_net,
)
from suniv.training import (
    NumericalFailure,
    TrainConfig,
    TrainHistory,
    risk_bound_check,
    empirical_risk,
    noise_level_stds,
    reference_preset,
    test_risk,
    train_erm,
)

GRID = Grid(1, 64)
OP = identity_operator(GRID)


def haar_prior(J_max=2):
    """Prior whose draws lie in the Haar V_{J_max+1} span on the grid."""
    return PriorParams(s=1.0, L=1.0, J_max=J_max, M=1)


def noisy_data(sigma=0.5, N=32, seed=11):
    prior = PriorParams(s=1.0, L=1.0, J_max=2)
    return make_training_set(OP, prior, sigma, N, make_rng(seed, (1,)))


def zero_output_net():
    net = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
    net.psi = np.zeros(GRID.shape)
    return net


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.step_size > 0 and cfg.rho == 0.0 and cfg.jitter == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_size": 0.0},
            {"step_size": -1.0},
            {"rho": -0.1},
            {"halving_factor": 0.0},
            {"halving_factor": 1.0},
            {"max_epochs": -1},
            {"batch_size": 0},
            {"jitter": -1e-9},
            {"step_size": float("nan")},
            {"step_size": float("inf")},
            {"rho": float("nan")},
            {"rho": float("inf")},
            {"jitter": float("nan")},
            {"jitter": float("inf")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestEmpiricalRisk:
    def test_exact_reconstruction_noiseless(self):
        data = make_training_set(OP, haar_prior(), 0.0, 1, make_rng(3, (0,)))
        net = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        assert empirical_risk(net, data) <= 1e-18

    def test_zero_net_gives_signal_energy(self):
        data = noisy_data()
        risk = empirical_risk(zero_output_net(), data)
        energy = sum(
            quadrature_norm(data.F[i], GRID) ** 2 for i in range(data.n_samples))
        np.testing.assert_allclose(risk, energy, rtol=1e-12)

    def test_universal_thresholds_beat_zero_thresholds(self):
        data = noisy_data(sigma=0.5)
        plain = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        tuned = reference_preset(plain, data)
        assert empirical_risk(tuned, data) < empirical_risk(plain, data)

    def test_grid_mismatch_rejected(self):
        data = noisy_data()
        net = preset_wavelet_thresholding(1, 3, np.zeros(3), Grid(1, 128))
        with pytest.raises(ValueError):
            empirical_risk(net, data)


class TestReferencePreset:
    def test_identity_data_gives_thresholding_preset(self):
        data = noisy_data(sigma=0.5)
        net = preset_wavelet_thresholding(2, 3, np.zeros(3), GRID)
        ref = reference_preset(net, data)
        direct = preset_wavelet_thresholding(2, 3, ref.taus, GRID)
        assert np.array_equal(ref.psi, direct.psi)
        assert np.all(ref.taus > 0) and np.all(np.diff(ref.taus) > 0)
        stds, _ = noise_level_stds(ref, 0.5)
        mults = np.sqrt(2.0 * np.arange(1, 4) * np.log(2.0))
        np.testing.assert_allclose(ref.taus, stds * mults, rtol=1e-12)

    def test_identity_noise_stds_are_flat(self):
        net = preset_wavelet_thresholding(2, 3, np.zeros(3), GRID)
        stds, smooth = noise_level_stds(net, 2.0)
        np.testing.assert_allclose(stds, 2.0, rtol=0.05)
        np.testing.assert_allclose(smooth, 2.0, rtol=1e-9)
        fine = preset_wavelet_thresholding(2, 3, np.zeros(3), Grid(1, 1024))
        stds_fine, _ = noise_level_stds(fine, 2.0)
        assert np.max(np.abs(stds_fine - 2.0)) < np.max(np.abs(stds - 2.0))

    def test_noise_stds_scale_linearly_in_sigma(self):
        sop = sobolev_operator(GRID, 1)
        net = preset_wvd(sop, 3, 3, np.zeros(3))
        one, sm_one = noise_level_stds(net, 1.0)
        four, sm_four = noise_level_stds(net, 4.0)
        np.testing.assert_allclose(four, 4.0 * one, rtol=1e-12)
        np.testing.assert_allclose(sm_four, 4.0 * sm_one, rtol=1e-12)

    def test_noise_stds_match_monte_carlo(self):
        sop = sobolev_operator(GRID, 1)
        net = preset_wvd(sop, 3, 2, np.zeros(2))
        stds, _ = noise_level_stds(net, 1.0)
        rng = make_rng(17)
        draws = np.empty((400, 2))
        for t in range(400):
            noise = GRID.h ** -0.5 * rng.standard_normal(GRID.shape)
            _, tr = forward(net, noise)
            draws[t] = [float(np.mean(tr.d[j][0].values ** 2)) for j in range(2)]
        measured = np.sqrt(draws.mean(axis=0))
        np.testing.assert_allclose(measured, stds, rtol=0.15)

    def test_operator_data_gives_vaguelette_preset(self):
        sop = sobolev_operator(GRID, 1)
        prior = PriorParams(s=1.0, L=1.0, J_max=2)
        data = make_training_set(sop, prior, 0.25, 4, make_rng(21, (0,)))
        net = preset_wvd(sop, 2, 3, np.zeros(3))
        ref = reference_preset(net, data)
        np.testing.assert_allclose(ref.psi, vaguelette(sop, 2, 3), atol=1e-12)
        stds, _ = noise_level_stds(ref, 0.25)
        np.testing.assert_allclose(
            ref.taus[1], stds[1] * np.sqrt(4.0 * np.log(2.0)), rtol=1e-12)


class TestTrainErm:
    def test_noiseless_preset_init_returns_immediately(self):
        data = make_training_set(OP, haar_prior(), 0.0, 1, make_rng(3, (0,)))
        init = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        net, hist = train_erm(init, data, cfg=TrainConfig(max_epochs=10))
        assert hist.epochs == 0
        assert hist.stopped_reason == "target_reached"
        for got, want in zip(net.alpha + net.a, init.alpha + init.a):
            assert np.array_equal(got.values, want.values)
        assert np.array_equal(net.taus, init.taus)

    def test_suboptimal_thresholds_improve(self):
        data = noisy_data(sigma=0.5)
        init = preset_wavelet_thresholding(1, 3, np.full(3, 5.0), GRID)
        net, hist = train_erm(
            init, data, cfg=TrainConfig(step_size=0.5, max_epochs=40))
        assert hist.risks[-1] <= hist.risks[0]
        assert empirical_risk(net, data) == hist.best_risks[-1]
        assert all(b <= a for a, b in zip(hist.best_risks, hist.best_risks[1:]))
        assert len(hist.risks) == hist.epochs + 1

    def test_random_init_approaches_preset(self):
        data = noisy_data(sigma=0.5)
        init = random_feasible_net(make_rng(5, (0,)), 3, 1, GRID)
        init = calibrate_thresholds(init, data.Y[0], make_rng(5, (1,)), 0.1, 0.4)
        ref_risk = empirical_risk(reference_preset(init, data), data)
        cfg = TrainConfig(step_size=0.5, max_epochs=200, rho=0.05 * ref_risk)
        net, hist = train_erm(init, data, cfg=cfg)
        assert hist.stopped_reason == "target_reached"
        assert hist.best_risks[-1] <= 1.05 * ref_risk
        assert check_class_membership(net)["pass"]

    def test_minibatch_monotone_best(self):
        data = noisy_data(sigma=0.5)
        init = random_feasible_net(make_rng(6, (0,)), 3, 1, GRID)
        init = calibrate_thresholds(init, data.Y[0], make_rng(6, (1,)), 0.1, 0.4)
        cfg = TrainConfig(step_size=0.3, max_epochs=25, batch_size=8, seed=2)
        net, hist = train_erm(init, data, cfg=cfg)
        assert all(b <= a for a, b in zip(hist.best_risks, hist.best_risks[1:]))
        assert hist.best_risks[-1] < hist.risks[0]
        assert hist.projections == 1 + 25 * 4
        assert empirical_risk(net, data) == hist.best_risks[-1]

    def test_jitter_runs(self):
        data = noisy_data(sigma=0.5, N=4)
        init = preset_wavelet_thresholding(1, 3, np.full(3, 0.5), GRID)
        cfg = TrainConfig(step_size=0.25, max_epochs=3, jitter=1e-9)
        net, hist = train_erm(init, data, cfg=cfg)
        assert hist.risks[-1] <= hist.risks[0]

    def test_nan_raises_numerical_failure(self):
        # the data are checked up front, so a non-finite gradient can only
        # come from the net itself
        data = noisy_data(sigma=0.5, N=4)
        init = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        init.psi[3] = np.nan
        with pytest.raises(NumericalFailure) as err:
            train_erm(init, data, cfg=TrainConfig(max_epochs=5))
        assert err.value.epoch == 1

    @pytest.mark.parametrize("field", ["Y", "F"])
    def test_non_finite_data_rejected(self, field):
        data = noisy_data(sigma=0.5, N=4)
        getattr(data, field)[1][5] = np.inf
        init = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        with pytest.raises(ValueError, match="non-finite"):
            train_erm(init, data, cfg=TrainConfig(max_epochs=5))

    def test_zero_epochs_returns_projected_init(self):
        data = noisy_data(sigma=0.5, N=4)
        init = random_feasible_net(make_rng(8, (0,)), 3, 1, GRID)
        net, hist = train_erm(init, data, cfg=TrainConfig(max_epochs=0))
        assert hist.epochs == 0
        assert hist.stopped_reason == "epochs_exhausted"
        assert empirical_risk(net, data) == hist.risks[0]

    def test_missing_class_params_rejected(self):
        data = noisy_data(sigma=0.5, N=2)
        init = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        init.class_params = None
        with pytest.raises(ValueError):
            train_erm(init, data)

    def test_grid_mismatch_rejected(self):
        data = noisy_data(sigma=0.5, N=2)
        init = preset_wavelet_thresholding(1, 3, np.zeros(3), Grid(1, 128))
        with pytest.raises(ValueError):
            train_erm(init, data)


class TestHistoryCsv:
    def test_round_trip_rows(self, tmp_path):
        hist = TrainHistory()
        hist.append(4.0, 4.0, 0.5, 0.25)
        hist.append(3.0, 3.0, 0.5, 0.125)
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,risk,step_size,wall_clock"
        assert lines[1] == "0,4.0,0.5,0.25"
        assert lines[2] == "1,3.0,0.5,0.125"

    def test_timing_suppressed(self, tmp_path):
        hist = TrainHistory()
        hist.append(4.0, 4.0, 0.5, 0.25)
        path = tmp_path / "hist.csv"
        hist.to_csv(path, timing=False)
        assert path.read_text().strip().split("\n")[1] == "0,4.0,0.5,0.0"

    def test_real_run_export(self, tmp_path):
        data = noisy_data(sigma=0.5, N=4)
        init = preset_wavelet_thresholding(1, 3, np.full(3, 2.0), GRID)
        _, hist = train_erm(init, data, cfg=TrainConfig(max_epochs=5))
        path = tmp_path / "run.csv"
        hist.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(hist.risks) + 1
        first = lines[1].split(",")
        assert float(first[1]) == hist.risks[0]


class TestTestRisk:
    def test_noiseless_preset_is_exact(self):
        net = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        mean, se = test_risk(net, OP, haar_prior(), 0.0, 50, make_rng(9, (0,)))
        assert mean <= 1e-16

    def test_zero_net_matches_prior_moment(self):
        mean, se = test_risk(
            zero_output_net(), OP, haar_prior(), 0.0, 400, make_rng(9, (1,)))
        assert abs(mean - prior_second_moment(haar_prior(), 1)) <= 3 * se

    def test_standard_error_scaling(self):
        net = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        _, se_small = test_risk(net, OP, haar_prior(), 0.5, 200, make_rng(9, (2,)))
        _, se_big = test_risk(net, OP, haar_prior(), 0.5, 800, make_rng(9, (3,)))
        assert 1.4 <= se_small / se_big <= 3.0

    def test_too_few_trials_rejected(self):
        net = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        with pytest.raises(ValueError):
            test_risk(net, OP, haar_prior(), 0.5, 1, make_rng(9, (4,)))

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        net = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        with pytest.raises(ValueError, match="sigma"):
            test_risk(net, OP, haar_prior(), sigma, 4, make_rng(9, (5,)))


class TestClaim2:
    def test_identity_preset_within_bound(self):
        net = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        f = sample_prior(haar_prior(), GRID, make_rng(4, (0,)))
        for sigma in (0.1, 1.0):
            rep = risk_bound_check(net, OP, f, sigma, 100, make_rng(4, (1,)))
            assert rep["pass"]
            assert rep["lhs_mean"] <= rep["rhs"] + 3 * rep["lhs_se"]

    def test_vaguelette_net_within_bound(self):
        sop = sobolev_operator(GRID, 1)
        net = preset_wvd(sop, 2, 3, np.zeros(3))
        f = sample_prior(haar_prior(), GRID, make_rng(4, (2,)))
        rep = risk_bound_check(net, sop, f, 0.1, 100, make_rng(4, (3,)))
        assert rep["pass"]
        assert rep["margin"] > 0

    def test_random_net_within_bound(self):
        net = random_feasible_net(make_rng(12, (0,)), 3, 1, GRID)
        f = sample_prior(haar_prior(), GRID, make_rng(12, (1,)))
        rep = risk_bound_check(net, OP, f, 1.0, 60, make_rng(12, (2,)))
        assert rep["pass"]

    def test_too_few_trials_rejected(self):
        net = preset_wavelet_thresholding(1, 3, np.zeros(3), GRID)
        with pytest.raises(ValueError):
            risk_bound_check(net, OP, np.zeros(GRID.shape), 0.1, 1, make_rng(0))
