"""Acceptance suite: end-to-end numerical contracts of the package.

Each test prints one summary line (visible with ``pytest -s``, captured
otherwise) and then asserts exactly the bound it printed, plus a wall-clock
budget.  Trial counts, tolerances and budgets are documented in the README;
they are deliberately generous so the suite stays green on modest hardware
while still catching real regressions.
"""

import math
import time

import numpy as np
import pytest

from suniv.experiments import (
    StabilityConfig,
    deconvolution_sweep_config,
    denoising_sweep_config,
    main,
    n_sweep_config,
    rate_sweep_N,
    rate_sweep_sigma,
    select_parameters,
    stability_suite,
)
from suniv.forward_model import (
    Grid,
    PriorParams,
    add_white_noise,
    grid_analysis,
    grid_synthesis,
    identity_operator,
    make_rng,
    make_training_set,
    quadrature_norm,
    sample_prior,
    sobolev_operator,
    vaguelette_biorthogonality_error,
)
from suniv.sunet import (
    backward,
    calibrate_thresholds,
    forward,
    preset_wavelet_thresholding,
    random_feasible_net,
    verify_perturbation_bounds,
)
from suniv.tensor_ops import DTensor, l2_norm
from suniv.training import TrainConfig, empirical_risk, train_erm, universal_preset
from suniv.wavelets import (
    _analysis,
    _reflected,
    daubechies_filters,
    dwt_forward,
    dwt_inverse,
    sample_father_wavelet,
    wavelet_threshold_oracle,
)


def report(label, ok, detail, elapsed, budget=None):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {verdict} ({detail}, {elapsed:.1f}s)")
    assert ok, f"{label}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"


def test_transform_roundtrip_is_exact():
    # analysis followed by synthesis reproduces random signals to float
    # precision across filter orders, depths and both dimensions
    t0 = time.perf_counter()
    rng = make_rng(2026, (0xACC, 1))
    worst = 0.0
    for t in range(100):
        M = 1 + t % 5
        dim = 1 if t % 2 else 2
        J = 1 + t % 8 if dim == 1 else 1 + t % 4
        bank = daubechies_filters(M, dim)
        x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
        back = dwt_inverse(dwt_forward(x.copy(), bank, J), bank)
        worst = max(worst, float(np.max(np.abs(back.values - x.values))) / l2_norm(x))
    report("transform roundtrip", worst <= 1e-10,
           f"worst rel err {worst:.2e} over 100 signals", time.perf_counter() - t0, 10)


def test_preset_net_matches_threshold_oracle():
    # the thresholding preset reproduces direct coefficient shrinkage, both
    # on coefficient inputs and through the grid analysis/synthesis layers
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(100):
        rng = make_rng(4000 + t)
        dim = 1 if t % 3 else 2
        M = 1 + t % 5 if dim == 1 else 1 + t % 3
        J = 1 + t % 6 if dim == 1 else 1 + t % 3
        taus = rng.uniform(0.0, 0.6, J)
        bank = daubechies_filters(M, dim)
        if t % 2:
            net = preset_wavelet_thresholding(M, J, taus, Grid(dim, 2 ** J))
            x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
            _, trace = forward(net, x)
            oracle = wavelet_threshold_oracle(x.copy(), bank, taus)
            err = float(np.max(np.abs(trace.s_bar[J].values - oracle.values)))
            worst = max(worst, err / (1.0 + l2_norm(x)))
        else:
            grid = Grid(dim, 2 ** (J + 2) if dim == 1 else 2 ** (J + 1))
            net = preset_wavelet_thresholding(M, J, taus, grid)
            g = rng.standard_normal(grid.shape)
            out, trace = forward(net, g)
            oracle = wavelet_threshold_oracle(trace.s[J].copy(), bank, taus)
            expected = grid_synthesis(oracle.values, net.phi, J, grid)
            err = quadrature_norm(out - expected, grid)
            worst = max(worst, err / (1.0 + quadrature_norm(expected, grid)))
    report("threshold-oracle equivalence", worst <= 1e-10,
           f"worst rel err {worst:.2e} over 100 instances", time.perf_counter() - t0, 30)


def _loss(net, x, target):
    out, _ = forward(net, x)
    return 0.5 * quadrature_norm(out - target, net.grid) ** 2


def _kink_gap(net, x):
    """Smallest distance of any detail coefficient to its threshold."""
    _, trace = forward(net, x)
    gap = np.inf
    for j in range(net.J):
        for t in trace.d[j]:
            gap = min(gap, float(np.min(np.abs(np.abs(t.values) - net.taus[j]))))
    return gap


def test_backward_matches_finite_differences():
    # analytic gradients of every parameter group against central
    # differences on 50 random feasible nets; inputs re-drawn when a detail
    # coefficient sits too close to a threshold kink for the stencil
    t0 = time.perf_counter()
    eps = 1e-6
    worst = 0.0
    for t in range(50):
        rng = make_rng(3000 + t)
        J = 2 + t % 3
        grid = Grid(1, 64)
        net = random_feasible_net(rng, J, 1, grid, "periodic" if t % 2 else "zero")
        grid_input = t % 2 == 0
        for _ in range(8):
            if grid_input:
                x = rng.standard_normal(grid.n)
            else:
                x = DTensor(rng.standard_normal(2 ** J), 0)
            calibrate_thresholds(net, x, rng)
            if _kink_gap(net, x) > 1e-4:
                break
        target = rng.standard_normal(grid.shape)
        out, trace = forward(net, x)
        grads = backward(net, trace, out - target)
        gscale = max(
            max(np.max(np.abs(f.values)) for f in grads.alpha + grads.a),
            max(np.max(np.abs(f.values)) for lv in grads.beta + grads.b for f in lv),
            np.max(np.abs(grads.taus)),
            np.max(np.abs(grads.psi)),
        )
        entries = []
        for name in ("alpha", "a"):
            for j in range(J):
                for pos in np.ndindex(*getattr(net, name)[j].shape):
                    entries.append((name, j, None, pos, getattr(grads, name)[j].values[pos]))
        for name in ("beta", "b"):
            for j in range(J):
                for pos in np.ndindex(*getattr(net, name)[j][0].shape):
                    entries.append((name, j, 0, pos, getattr(grads, name)[j][0].values[pos]))
        for j in range(J):
            entries.append(("tau", j, None, None, grads.taus[j]))
        if grid_input:
            for pos in ((0,), (13,), (40,), (63,)):
                entries.append(("psi", None, None, pos, grads.psi[pos]))

        for name, j, e, pos, analytic in entries:
            def bumped(h):
                n2 = net.copy()
                if name in ("alpha", "a"):
                    getattr(n2, name)[j].values[pos] += h
                elif name in ("beta", "b"):
                    getattr(n2, name)[j][e].values[pos] += h
                elif name == "tau":
                    n2.taus = n2.taus.copy()
                    n2.taus[j] += h
                else:
                    n2.psi = n2.psi.copy()
                    n2.psi[pos] += h
                return n2

            num = (_loss(bumped(eps), x, target) - _loss(bumped(-eps), x, target)) / (2 * eps)
            rel = abs(num - analytic) / max(abs(num), abs(analytic), 0.1 * gscale)
            worst = max(worst, rel)
    report("gradient check", worst <= 1e-5,
           f"worst rel err {worst:.2e} over 50 nets", time.perf_counter() - t0, 60)


def _run_family(family, **counts):
    base = dict(size_trials=0, perturb_trials=0, distance_trials=0, risk_bound_instances=0)
    base.update(counts)
    rep = stability_suite(StabilityConfig(seed=2026, **base))
    return rep["families"][family]


def test_size_bounds_hold_on_random_nets():
    t0 = time.perf_counter()
    fam = _run_family("size", size_trials=500)
    report("size bounds", fam["passes"] == fam["trials"] == 500,
           f"{fam['passes']}/{fam['trials']} pass, worst margin {fam['worst_margin']:.3g}",
           time.perf_counter() - t0, 60)


def test_perturbation_bounds_hold_and_scale():
    t0 = time.perf_counter()
    fam = _run_family("perturbation", perturb_trials=500)
    counts_ok = fam["passes"] == fam["trials"] == 500

    # the bound constant for smooth-path filters exceeds the detail-path
    # one by exactly 1 + 2^d k at level k (same perturbation, same input)
    ratio_ok = True
    for dim in (1, 2):
        rng = make_rng(2026, (0xACC, 5, dim))
        J = 3
        grid = Grid(dim, 32 if dim == 1 else 16)
        net = random_feasible_net(rng, J, dim, grid, "periodic")
        x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
        calibrate_thresholds(net, x, rng)
        delta = DTensor(rng.standard_normal((3,) * dim) * 0.3, int(rng.integers(-2, 1)))
        for k in range(J):
            _, rhs_a, _ = verify_perturbation_bounds(net, ("a", k), delta, x)
            _, rhs_b, _ = verify_perturbation_bounds(net, ("b", k, 0), delta, x)
            want = 1.0 + 2.0 ** dim * k
            ratio_ok &= abs(rhs_a / rhs_b - want) <= 1e-12 * want
    report("perturbation bounds", counts_ok and ratio_ok,
           f"{fam['passes']}/{fam['trials']} pass, worst margin {fam['worst_margin']:.3g}, "
           f"level ratios exact: {ratio_ok}", time.perf_counter() - t0, 120)


def test_distance_bound_holds_on_net_pairs():
    t0 = time.perf_counter()
    fam = _run_family("distance", distance_trials=200)
    report("distance bound", fam["passes"] == fam["trials"] == 200,
           f"{fam['passes']}/{fam['trials']} pass, worst margin {fam['worst_margin']:.3g}",
           time.perf_counter() - t0, 60)


def test_risk_bound_holds_monte_carlo():
    t0 = time.perf_counter()
    fam = _run_family("risk_bound", risk_bound_instances=100, risk_bound_draws=40)
    report("risk bound", fam["passes"] == fam["trials"] == 100,
           f"{fam['passes']}/{fam['trials']} instances within bound + 3 SE",
           time.perf_counter() - t0, 120)


def test_vaguelette_biorthogonality_converges():
    # the quadrature defect of the vaguelette pairing shrinks by at least
    # 1.6x per grid doubling for smoothing operators of order 2 and 4
    t0 = time.perf_counter()
    worst_ratio = np.inf
    details = []
    for L, M, J in ((1, 2, 3), (1, 3, 4), (2, 2, 3), (2, 3, 4)):
        errs = [vaguelette_biorthogonality_error(sobolev_operator(Grid(1, n), L), M, J)
                for n in (256, 512, 1024, 2048)]
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        worst_ratio = min(worst_ratio, min(ratios))
        details.append(f"L={L},M={M}: min x{min(ratios):.2f}")
    report("vaguelette convergence", worst_ratio >= 1.6,
           "; ".join(details), time.perf_counter() - t0, 60)


def test_prior_level_variances_match():
    # draw 10^4 prior samples, push them back through grid analysis and the
    # wavelet transform, and compare per-level variances with the formula;
    # draws go in chunks, each equal to as many single draws (test_batched)
    t0 = time.perf_counter()
    prior = PriorParams(s=1.0, L=1.0, J_max=5, M=3)
    grid = Grid(1, 1024)
    top = prior.J_max + 1
    phi = sample_father_wavelet(prior.M, top, grid.n, 1)
    filters = [_reflected(daubechies_filters(prior.M, 1))] * top
    rng = make_rng(2026, (0xACC, 9))
    sums = np.zeros(top + 1)
    counts = np.zeros(top + 1)
    for _ in range(20):
        s_top = grid_analysis(sample_prior(prior, grid, rng, size=500), phi, top, grid)
        ss, ds = _analysis((s_top, (0,)), filters, True)
        for j, v in enumerate([ss[0][0]] + [dets[0][0] for dets in ds]):
            sums[j] += float(np.sum(v ** 2))
            counts[j] += v.size
    var = sums / counts
    target = np.array([prior.L ** 2]
                      + [prior.L ** 2 * 2.0 ** (j * (1 - 2.0 * prior.s)) for j in range(top)])
    worst = float(np.max(np.abs(var / target - 1.0)))
    report("prior calibration", worst <= 0.05,
           f"worst level deviation {worst:.2%} over 10^4 draws", time.perf_counter() - t0, 30)


def test_noise_inner_product_variance_matches():
    # quadrature inner products of the discretized noise with unit-norm test
    # functions must have variance sigma^2
    t0 = time.perf_counter()
    grid = Grid(1, 128)
    sigma = 0.7
    rng = make_rng(2026, (0xACC, 10))
    x = grid.points()
    us = [np.ones(grid.n),
          np.sqrt(2.0) * np.sin(2 * np.pi * x),
          np.sqrt(2.0) * np.cos(6 * np.pi * x)]
    for _ in range(2):
        u = rng.standard_normal(grid.n)
        us.append(u / quadrature_norm(u, grid))
    draws = 10_000
    ips = np.empty((len(us), draws))
    for t in range(draws):
        noise = add_white_noise(np.zeros(grid.n), sigma, grid, rng)
        for i, u in enumerate(us):
            ips[i, t] = grid.h * float(u @ noise)
    worst = float(np.max(np.abs(ips.var(axis=1, ddof=1) / sigma ** 2 - 1.0)))
    report("noise calibration", worst <= 0.05,
           f"worst variance deviation {worst:.2%} over 10^4 draws", time.perf_counter() - t0, 30)


def test_denoising_rate_slope():
    t0 = time.perf_counter()
    res = rate_sweep_sigma(denoising_sweep_config())
    ok = 1.0 <= res.slope <= 1.7 and all(np.isfinite(res.risks))
    report("denoising rate", ok,
           f"slope {res.slope:.3f} (theory {res.theoretical_exponent:.3f}), "
           f"CI ({res.slope_ci[0]:.2f}, {res.slope_ci[1]:.2f})",
           time.perf_counter() - t0, 600)


def test_deconvolution_rate_slope():
    t0 = time.perf_counter()
    res = rate_sweep_sigma(deconvolution_sweep_config())
    ok = 0.35 <= res.slope <= 0.85 and all(np.isfinite(res.risks))
    report("deconvolution rate", ok,
           f"slope {res.slope:.3f} (theory {res.theoretical_exponent:.3f}), "
           f"CI ({res.slope_ci[0]:.2f}, {res.slope_ci[1]:.2f})",
           time.perf_counter() - t0, 600)


def test_training_reaches_preset_risk():
    # projected gradient descent from a random feasible start must land
    # within 5% of the universal-threshold preset on the training set, and
    # the retained best risk may never increase
    t0 = time.perf_counter()
    grid = Grid(1, 64)
    J, M = 3, 2
    op = identity_operator(grid)
    prior = PriorParams(s=1.0, L=1.0, J_max=3, M=M)
    rng = make_rng(2026, (0xACC, 13))
    data = make_training_set(op, prior, 0.25, 64, rng)
    preset_risk = empirical_risk(universal_preset(op, M, J, data.sigma), data)

    init = random_feasible_net(rng, J, 1, grid, "periodic")
    calibrate_thresholds(init, data.Y[0], rng, low=0.1, high=0.4)
    cfg = TrainConfig(step_size=0.5, max_epochs=400, rho=0.05 * preset_risk)
    net, hist = train_erm(init, data, cfg=cfg)

    risk = empirical_risk(net, data)
    ratio = risk / preset_risk
    monotone = bool(np.all(np.diff(hist.best_risks) <= 0))
    ok = ratio <= 1.05 * (1 + 1e-12) and monotone
    report("training sanity", ok,
           f"trained/preset {ratio:.4f}, best-risk monotone: {monotone}, "
           f"{len(hist.risks) - 1} epochs ({hist.stopped_reason})",
           time.perf_counter() - t0, 300)


def test_risk_does_not_grow_with_training_size():
    t0 = time.perf_counter()
    res = rate_sweep_N(n_sweep_config())
    pooled = math.hypot(res.std_errors[0], res.std_errors[-1])
    ok = (res.endpoint_within_2se is True
          and res.risks[-1] <= res.risks[0] + 2 * pooled)
    report("sample-size monotonicity", ok,
           f"risk {res.risks[0]:.3f} @ N={res.values[0]} -> {res.risks[-1]:.3f} "
           f"@ N={res.values[-1]}, 2 pooled SE {2 * pooled:.3f}",
           time.perf_counter() - t0, 900)


def test_parameter_selection_hand_values():
    t0 = time.perf_counter()
    a = select_parameters(s=1, beta=0, sigma=0.1, N=1e12, d=1)
    b = select_parameters(s=1, beta=0, sigma=0.01, N=256, d=1)
    c = select_parameters(s=2, beta=2, sigma=0.5, N=4096, d=2)
    ok = (
        a.J == 3 and a.r == 3.0 and a.S_prescribed == 37 and a.M == 10
        and a.S_filter == 20 and a.C_psi_Hr == 512.0
        and a.kappa_tau == pytest.approx(0.1 * math.log(1e12), rel=1e-12)
        and a.rho == pytest.approx(7.863, rel=1e-3)
        and a.gamma == pytest.approx(3.0, rel=1e-12)
        and a.regime == "oversampled"
        and b.J == 2 and b.S_prescribed == 25
        and b.rho == pytest.approx(34.97, rel=1e-3)
        and b.regime == "undersampled"
        and c.J == 1 and c.R == 4.0 and c.S_prescribed == 2401
        and c.M_prescribed == 25 and c.M == 10 and c.S_filter == 400
        and c.kappa_tau == pytest.approx(2.0 * math.log(4096), rel=1e-12)
        and c.C_psi_L2 == 4.0 and c.C_psi_Hr == 16.0
        and c.rho == pytest.approx(126.8, rel=1e-3)
    )
    report("parameter selection", ok,
           f"J = {a.J}/{b.J}/{c.J} on the three reference inputs",
           time.perf_counter() - t0, 1)


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    # every subcommand, run twice with the same seed into fresh directories,
    # must write byte-identical files
    t0 = time.perf_counter()

    shared = tmp_path / "shared-model"
    shared.mkdir()
    rc = main(["train", "--grid-n", "32", "--n-samples", "8", "--prior-depth", "2",
               "--epochs", "2", "--m", "2", "--j", "2", "--seed", "3",
               "--out", str(shared)])
    assert rc == 0
    model = shared / "model.json"

    commands = {
        "params": ["params", "--s", "1", "--beta", "0", "--sigma", "0.1", "--n", "1e12"],
        "gen-data": ["gen-data", "--grid-n", "32", "--n-samples", "8",
                     "--prior-depth", "2", "--seed", "3"],
        "train": ["train", "--grid-n", "32", "--n-samples", "8", "--prior-depth", "2",
                  "--epochs", "2", "--m", "2", "--j", "2", "--init", "random", "--seed", "3"],
        "eval": ["eval", "--model", str(model), "--trials", "5", "--grid-n", "32",
                 "--prior-depth", "2", "--seed", "3"],
        "sweep-sigma": ["sweep-sigma", "--sigmas", "0.25", "0.125", "0.0625", "0.03125",
                        "--trials", "3", "--grid-n", "64", "--prior-depth", "2",
                        "--j-cap", "3", "--seed", "3"],
        "sweep-n": ["sweep-n", "--n-list", "4", "8", "--estimator", "preset",
                    "--trials", "6", "--seed", "3"],
        "stability": ["stability", "--size-trials", "6", "--perturb-trials", "6",
                      "--distance-trials", "4", "--risk-bound-instances", "2",
                      "--risk-bound-draws", "4", "--grid-n", "32", "--seed", "3"],
        "oracle-check": ["oracle-check", "--roundtrip-trials", "6",
                         "--oracle-trials", "4", "--seed", "3"],
    }
    mismatches = []
    for name, args in commands.items():
        trees = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            out.mkdir()
            rc = main(args + ["--out", str(out)])
            assert rc == 0, f"{name} run {run} exited {rc}"
            trees.append(_tree_bytes(out))
        if trees[0].keys() != trees[1].keys() or any(
                trees[0][k] != trees[1][k] for k in trees[0]):
            mismatches.append(name)
    capsys.readouterr()
    report("cli determinism", not mismatches,
           f"{len(commands)} subcommands byte-identical across reruns"
           + (f"; mismatches: {mismatches}" if mismatches else ""),
           time.perf_counter() - t0)
