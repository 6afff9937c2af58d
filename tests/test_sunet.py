"""Tests for the network: forward/backward, projection, presets, bounds."""

import json

import numpy as np
import pytest

from suniv.forward_model import (
    Grid,
    apply,
    grid_analysis,
    grid_synthesis,
    identity_operator,
    make_rng,
    quadrature_norm,
    sample_prior,
    sobolev_operator,
    PriorParams,
)
from suniv.sunet import (
    Gradients,
    NetClassParams,
    SUNet,
    backward,
    calibrate_thresholds,
    check_class_membership,
    first_layer,
    forward,
    load_net,
    net_from_dict,
    net_to_dict,
    preset_wavelet_thresholding,
    preset_wvd,
    project_constraints,
    random_feasible_net,
    save_net,
    verify_net_distance_bound,
    verify_perturbation_bounds,
    verify_size_bounds,
)
from suniv.tensor_ops import DTensor, down_conv, dt_add, l2_norm, up_conv
from suniv.wavelets import (
    daubechies_filters,
    dwt_forward,
    dwt_inverse,
    sample_father_wavelet,
    soft_threshold,
    wavelet_threshold_oracle,
)


def calibrated_random_net(seed, J, dim, n, boundary, x=None):
    rng = make_rng(seed)
    net = random_feasible_net(rng, J, dim, Grid(dim, n), boundary)
    if x is None:
        x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
    calibrate_thresholds(net, x, rng)
    return net, x, rng


def reference_forward(net, x):
    """The forward pass level by level from the public primitives.

    Returns (output, s, d, s_bar, d_bar) with the trace indexing of
    `ForwardTrace`; every level uses its own filters, so a wrong level
    wiring shows up here where the same-filter presets cannot see it.
    """
    J, periodic = net.J, net.boundary == "periodic"
    if not isinstance(x, DTensor):
        x = DTensor(grid_analysis(x, net.psi, J, net.grid), 0)
    s, d = [None] * J + [x], [None] * J
    for j in range(J - 1, -1, -1):
        s[j] = down_conv(net.alpha[j], s[j + 1], periodic)
        d[j] = [down_conv(f, s[j + 1], periodic) for f in net.beta[j]]
    d_bar = [[DTensor(soft_threshold(t.values, net.taus[j]), t.lo) for t in d[j]]
             for j in range(J)]
    s_bar = [s[0]]
    for j in range(J):
        acc = up_conv(net.a[j], s_bar[j], periodic)
        for f, t in zip(net.b[j], d_bar[j]):
            acc = dt_add(acc, up_conv(f, t, periodic))
        s_bar.append(acc)
    # fold the top window onto the 2^J coefficient torus, entry by entry
    n = 2 ** J
    coeffs = np.zeros((n,) * net.dim)
    for pos in np.ndindex(*s_bar[J].shape):
        coeffs[tuple((p + lo) % n for p, lo in zip(pos, s_bar[J].lo))] += s_bar[J].values[pos]
    return grid_synthesis(coeffs, net.phi, J, net.grid), s, d, s_bar, d_bar


class TestFirstLayer:
    def test_constant_against_haar_father(self):
        grid = Grid(1, 256)
        J = 3
        psi = sample_father_wavelet(1, J, grid.n)
        out = first_layer(np.full(grid.n, 2.5), psi, J, grid)
        assert out.shape == (2 ** J,)
        np.testing.assert_allclose(out.values, 2.5 * 2.0 ** (-J / 2), atol=1e-12)

    def test_zero_signal(self):
        grid = Grid(1, 64)
        out = first_layer(np.zeros(64), np.ones(64), 2, grid)
        assert not out.values.any()

    def test_father_translate_gives_delta(self):
        grid = Grid(1, 2048)
        J, M, k0 = 2, 3, 1
        psi = sample_father_wavelet(M, J, grid.n)
        g = np.roll(psi, k0 * grid.n // 2 ** J)
        out = first_layer(g, psi, J, grid)
        expected = np.zeros(2 ** J)
        expected[k0] = 1.0
        np.testing.assert_allclose(out.values, expected, atol=2e-3)

    def test_incompatible_resolution(self):
        grid = Grid(1, 8)
        with pytest.raises(ValueError):
            first_layer(np.zeros(8), np.zeros(8), 4, grid)


class TestForward:
    @pytest.mark.parametrize("M,J,dim", [(1, 3, 1), (2, 4, 1), (5, 6, 1), (2, 2, 2)])
    def test_zero_threshold_identity_on_coefficients(self, M, J, dim):
        n = 2 ** J if dim == 1 else 2 ** J
        grid = Grid(dim, max(n, 2 ** J))
        net = preset_wavelet_thresholding(M, J, np.zeros(J), grid)
        rng = make_rng(11)
        x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
        _, trace = forward(net, x)
        err = np.max(np.abs(trace.s_bar[J].values - x.values))
        assert err <= 1e-10 * (1.0 + l2_norm(x))

    @pytest.mark.parametrize("M,J,dim", [(1, 4, 1), (3, 5, 1), (5, 6, 1), (2, 3, 2)])
    def test_matches_threshold_oracle(self, M, J, dim):
        grid = Grid(dim, 2 ** J)
        rng = make_rng(13)
        taus = rng.uniform(0.05, 0.6, J)
        net = preset_wavelet_thresholding(M, J, taus, grid)
        bank = daubechies_filters(M, dim)
        x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
        _, trace = forward(net, x)
        oracle = wavelet_threshold_oracle(x.copy(), bank, taus)
        err = np.max(np.abs(trace.s_bar[J].values - oracle.values))
        assert err <= 1e-10 * (1.0 + l2_norm(x))

    def test_oracle_match_on_grid_output(self):
        grid = Grid(1, 128)
        J, M = 3, 2
        rng = make_rng(17)
        taus = rng.uniform(0.0, 0.02, J)
        net = preset_wavelet_thresholding(M, J, taus, grid)
        g = rng.standard_normal(grid.n)
        out, trace = forward(net, g)
        bank = daubechies_filters(M, 1)
        oracle = wavelet_threshold_oracle(trace.s[J].copy(), bank, taus)
        from suniv.forward_model import grid_synthesis
        expected = grid_synthesis(oracle.values, net.phi, J, grid)
        assert quadrature_norm(out - expected, grid) <= 1e-10

    def test_all_zero_filters(self):
        net, x, _ = calibrated_random_net(3, 3, 1, 64, "zero")
        for group in (net.alpha, net.a):
            for f in group:
                f.values[:] = 0.0
        for group in (net.beta, net.b):
            for level in group:
                for f in level:
                    f.values[:] = 0.0
        out, _ = forward(net, x)
        assert not out.any()

    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_additive_when_details_stay_dead(self, boundary):
        # with all detail coefficients strictly inside the dead zone for both
        # inputs and their sum, only the linear smooth path contributes
        rng = make_rng(23)
        grid = Grid(1, 64)
        net = random_feasible_net(rng, 3, 1, grid, boundary)
        x1 = DTensor(rng.standard_normal(8), 0)
        x2 = DTensor(rng.standard_normal(8), 0)
        x12 = DTensor(x1.values + x2.values, 0)
        peak = np.zeros(net.J)
        for x in (x1, x2, x12):
            _, tr = forward(net, x)
            for j in range(net.J):
                peak[j] = max(peak[j], max(np.max(np.abs(t.values)) for t in tr.d[j]))
        net.taus = 2.0 * peak + 1.0
        net.class_params = None
        out1, _ = forward(net, x1)
        out2, _ = forward(net, x2)
        out12, _ = forward(net, x12)
        assert np.max(np.abs(out12 - out1 - out2)) <= 1e-10

    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    @pytest.mark.parametrize("dim,n,J", [(1, 64, 3), (2, 16, 2)])
    @pytest.mark.parametrize("kind", ["grid", "coefficients"])
    def test_matches_per_level_reference(self, boundary, dim, n, J, kind):
        for trial in range(3):
            rng = make_rng(31, (dim, boundary == "periodic", kind == "grid", trial))
            net = random_feasible_net(rng, J, dim, Grid(dim, n), boundary)
            if kind == "grid":
                x = rng.standard_normal(net.grid.shape)
            else:
                x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
            calibrate_thresholds(net, x, rng)
            out, trace = forward(net, x)
            want_out, s, d, s_bar, d_bar = reference_forward(net, x)
            np.testing.assert_allclose(out, want_out, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want_out)))
            pairs = list(zip(trace.s + trace.s_bar, s + s_bar, strict=True))
            for got, want in zip(trace.d + trace.d_bar, d + d_bar, strict=True):
                pairs += zip(got, want, strict=True)
            for got, want in pairs:
                assert got.lo == want.lo
                np.testing.assert_allclose(got.values, want.values, rtol=1e-12,
                                           atol=1e-12 * max(1.0, np.max(np.abs(want.values))))

    def test_input_validation(self):
        net, _, rng = calibrated_random_net(5, 3, 1, 64, "periodic")
        with pytest.raises(ValueError):
            forward(net, DTensor(np.zeros(4), 0))
        with pytest.raises(ValueError):
            forward(net, DTensor(np.zeros(8), 1))
        with pytest.raises(ValueError):
            forward(net, np.zeros(32))

    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_boundary_modes_differ_when_details_active(self, boundary):
        net, x, _ = calibrated_random_net(29, 3, 1, 64, boundary)
        other = net.copy()
        other.boundary = "zero" if boundary == "periodic" else "periodic"
        out1, _ = forward(net, x)
        out2, _ = forward(other, x)
        assert np.max(np.abs(out1 - out2)) > 1e-8


def loss_of(net, x, target):
    out, _ = forward(net, x)
    return 0.5 * quadrature_norm(out - target, net.grid) ** 2


def fd_check(net, x, target, entries, eps=1e-6):
    """Worst floored relative error between analytic and central-FD grads."""
    out, trace = forward(net, x)
    grads = backward(net, trace, out - target)
    gscale = max(
        max(np.max(np.abs(f.values)) for f in grads.alpha + grads.a),
        max(np.max(np.abs(f.values)) for lv in grads.beta + grads.b for f in lv),
        np.max(np.abs(grads.taus)),
        np.max(np.abs(grads.psi)),
    )
    worst = 0.0
    for setter, analytic in entries(net, grads):
        plus = net.copy()
        setter(plus, eps)
        minus = net.copy()
        setter(minus, -eps)
        num = (loss_of(plus, x, target) - loss_of(minus, x, target)) / (2 * eps)
        rel = abs(num - analytic) / max(abs(num), abs(analytic), 0.1 * gscale)
        worst = max(worst, rel)
    return worst


def all_entries(net, grads):
    for name in ("alpha", "a"):
        for j in range(net.J):
            for pos in np.ndindex(*getattr(net, name)[j].shape):
                yield (
                    lambda n2, h, name=name, j=j, pos=pos: getattr(n2, name)[j]
                    .values.__setitem__(pos, getattr(n2, name)[j].values[pos] + h),
                    getattr(grads, name)[j].values[pos],
                )
    for name in ("beta", "b"):
        for j in range(net.J):
            for e in range(net.n_detail):
                for pos in np.ndindex(*getattr(net, name)[j][e].shape):
                    yield (
                        lambda n2, h, name=name, j=j, e=e, pos=pos: getattr(n2, name)[j][e]
                        .values.__setitem__(pos, getattr(n2, name)[j][e].values[pos] + h),
                        getattr(grads, name)[j][e].values[pos],
                    )
    for j in range(net.J):
        yield (
            lambda n2, h, j=j: n2.taus.__setitem__(j, n2.taus[j] + h),
            grads.taus[j],
        )


class TestBackward:
    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_finite_differences_coefficient_input(self, boundary, dim):
        seed = 100 + dim
        n, J = (64, 3) if dim == 1 else (16, 2)
        net, x, rng = calibrated_random_net(seed, J, dim, n, boundary)
        target = rng.standard_normal(net.grid.shape)
        assert fd_check(net, x, target, all_entries) <= 1e-5

    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_finite_differences_grid_input_with_psi(self, boundary):
        rng = make_rng(37)
        grid = Grid(1, 64)
        net = random_feasible_net(rng, 3, 1, grid, boundary)
        g = rng.standard_normal(grid.n)
        calibrate_thresholds(net, g, rng)
        target = rng.standard_normal(grid.n)

        def entries(net_, grads):
            yield from all_entries(net_, grads)
            for pos in [(0,), (5,), (31,), (63,)]:
                yield (
                    lambda n2, h, pos=pos: n2.psi.__setitem__(pos, n2.psi[pos] + h),
                    grads.psi[pos],
                )

        assert fd_check(net, g, target, entries) <= 1e-5

    def test_zero_residual_zero_gradients(self):
        net, x, _ = calibrated_random_net(41, 3, 1, 64, "zero")
        _, trace = forward(net, x)
        grads = backward(net, trace, np.zeros(net.grid.shape))
        assert not grads.taus.any() and not grads.psi.any()
        for f in grads.alpha + grads.a:
            assert not f.values.any()
        for lv in grads.beta + grads.b:
            for f in lv:
                assert not f.values.any()

    def test_tau_gradient_formula(self):
        # d loss / d tau_j = -sum over active entries of sign(d) * upstream
        net, x, rng = calibrated_random_net(43, 3, 1, 64, "periodic")
        target = rng.standard_normal(net.grid.shape)
        out, trace = forward(net, x)
        grads = backward(net, trace, out - target)
        eps = 1e-6
        for j in range(net.J):
            plus = net.copy()
            plus.taus[j] += eps
            minus = net.copy()
            minus.taus[j] -= eps
            num = (loss_of(plus, x, target) - loss_of(minus, x, target)) / (2 * eps)
            assert num == pytest.approx(grads.taus[j], rel=1e-4, abs=1e-8)

    def test_threshold_increase_shrinks_details(self):
        net, x, _ = calibrated_random_net(47, 3, 1, 64, "periodic")
        _, tr0 = forward(net, x)
        bigger = net.copy()
        bigger.taus = net.taus + 0.1
        _, tr1 = forward(bigger, x)
        for j in range(net.J):
            for e in range(net.n_detail):
                assert np.all(np.abs(tr1.d_bar[j][e].values)
                              <= np.abs(tr0.d_bar[j][e].values) + 1e-15)

    def test_trace_mismatch_rejected(self):
        net, x, _ = calibrated_random_net(53, 3, 1, 64, "periodic")
        other, y, _ = calibrated_random_net(54, 2, 1, 64, "periodic")
        _, trace = forward(other, y)
        with pytest.raises(ValueError):
            backward(net, trace, np.zeros(net.grid.shape))
        _, trace = forward(net, x)
        with pytest.raises(ValueError):
            backward(net, trace, np.zeros(32))


class TestProjection:
    def make_params(self):
        return NetClassParams(r=1, R=1, S_filter=3, kappa_tau=1.0,
                              C_psi_L2=2.0, C_psi_Hr=1e9)

    def test_feasible_net_unchanged_bitwise(self):
        net, _, _ = calibrated_random_net(61, 3, 1, 64, "periodic")
        out = project_constraints(net)
        assert np.array_equal(out.taus, net.taus)
        assert np.array_equal(out.psi, net.psi)
        for f, g in zip(net.alpha + net.a, out.alpha + out.a):
            assert np.array_equal(f.values, g.values)
        for lf, lg in zip(net.beta + net.b, out.beta + out.b):
            for f, g in zip(lf, lg):
                assert np.array_equal(f.values, g.values)

    def test_idempotent_on_infeasible_net(self):
        rng = make_rng(67)
        net = random_feasible_net(rng, 2, 1, Grid(1, 32), "periodic")
        net.alpha[0] = DTensor(rng.standard_normal(6) * 3.0, -1)
        net.taus = np.array([-0.3, 2.5])
        net.psi = net.psi * 7.0
        params = self.make_params()
        once = project_constraints(net, params)
        twice = project_constraints(once, params)
        assert np.array_equal(once.taus, twice.taus)
        assert np.array_equal(once.psi, twice.psi)
        for f, g in zip(once.alpha + once.a, twice.alpha + twice.a):
            assert np.array_equal(f.values, g.values)
        report = check_class_membership(once, params)
        assert report["pass"], report["violations"]

    def test_radial_rescale(self):
        net, _, _ = calibrated_random_net(71, 2, 1, 32, "periodic")
        direction = net.alpha[0].values / l2_norm(net.alpha[0])
        net.alpha[0] = DTensor(direction * 2.0, net.alpha[0].lo)
        out = project_constraints(net, self.make_params())
        assert l2_norm(out.alpha[0]) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(
            out.alpha[0].values / l2_norm(out.alpha[0]), direction, atol=1e-12)

    def test_threshold_clamp(self):
        net, _, _ = calibrated_random_net(73, 2, 1, 32, "periodic")
        net.taus = np.array([-0.3, 4.0])
        out = project_constraints(net, self.make_params())
        np.testing.assert_allclose(out.taus, [0.0, 1.0])

    def test_support_truncation_keeps_largest_ties_lowest_index(self):
        net, _, _ = calibrated_random_net(79, 2, 1, 32, "periodic")
        net.alpha[0] = DTensor(np.array([0.5, -2.0, 2.0, 0.1, -0.5]) / 10.0, -2)
        params = self.make_params()  # S_filter = 3
        out = project_constraints(net, params)
        np.testing.assert_array_equal(
            out.alpha[0].values, np.array([0.5, -2.0, 2.0, 0.0, 0.0]) / 10.0)

    def test_psi_rescale(self):
        net, _, _ = calibrated_random_net(83, 2, 1, 32, "periodic")
        net.psi = net.psi * 9.0
        out = project_constraints(net, self.make_params())
        assert quadrature_norm(out.psi, net.grid) == pytest.approx(2.0, rel=1e-9)

    def test_phi_untouched(self):
        net, _, _ = calibrated_random_net(89, 2, 1, 32, "periodic")
        net.psi = net.psi * 9.0
        out = project_constraints(net, self.make_params())
        assert np.array_equal(out.phi, net.phi)

    def test_membership_reports_violations(self):
        net, _, _ = calibrated_random_net(97, 2, 1, 32, "periodic")
        net.taus = np.array([5.0, -1.0])
        net.psi = net.psi * 50.0
        report = check_class_membership(net, self.make_params())
        assert not report["pass"]
        assert any("tau" in v for v in report["violations"])
        assert any("psi" in v for v in report["violations"])


class TestPresets:
    @pytest.mark.parametrize("M,J,dim,n", [(1, 3, 1, 64), (2, 4, 1, 1024), (3, 3, 2, 64)])
    def test_wavelet_preset_in_class(self, M, J, dim, n):
        grid = Grid(dim, n)
        net = preset_wavelet_thresholding(M, J, np.full(J, 0.2), grid)
        report = check_class_membership(net)
        assert report["pass"], report["violations"]
        for _, _, _, f in net.filters():
            assert l2_norm(f) == pytest.approx(1.0, abs=1e-12)
        # the psi cap is the unit continuum norm floored by the measured
        # quadrature norm, which converges to 1 from above under refinement
        measured = quadrature_norm(net.psi, grid)
        assert net.class_params.C_psi_L2 == max(1.0, measured)
        assert measured == pytest.approx(1.0, rel=1e-2)
        if M == 1:
            assert net.class_params.C_psi_L2 == pytest.approx(1.0, abs=1e-12)

    def test_wvd_identity_equals_wavelet_preset(self):
        grid = Grid(1, 64)
        taus = np.array([0.1, 0.2, 0.3])
        net1 = preset_wavelet_thresholding(2, 3, taus, grid)
        net2 = preset_wvd(identity_operator(grid), 2, 3, taus, boundary="periodic")
        assert np.array_equal(net1.psi, net2.psi)
        assert np.array_equal(net1.phi, net2.phi)
        assert net1.class_params == net2.class_params
        for f, g in zip(net1.alpha + net1.a, net2.alpha + net2.a):
            assert np.array_equal(f.values, g.values) and f.lo == g.lo

    def test_wvd_analysis_of_blurred_signal(self):
        # first_layer(T f, vaguelette) should recover <f, phi_{J,k}>
        errs = []
        for n in (512, 1024):
            grid = Grid(1, n)
            op = sobolev_operator(grid, 1)
            net = preset_wvd(op, 3, 3, np.zeros(3))
            rng = make_rng(101)
            f = sample_prior(PriorParams(2.0, 1.0, 4), grid, rng)
            lhs = first_layer(apply(op, f), net.psi, 3, grid).values
            rhs = first_layer(f, net.phi, 3, grid).values
            errs.append(np.max(np.abs(lhs - rhs)))
        assert errs[0] < 2e-3
        assert errs[1] < errs[0]

    def test_wvd_noiseless_deconvolution(self):
        grid = Grid(1, 1024)
        J, M = 3, 3
        op = sobolev_operator(grid, 1)
        net = preset_wvd(op, M, J, np.zeros(J))
        rng = make_rng(103)
        f = sample_prior(PriorParams(2.0, 1.0, 2), grid, rng)
        out, _ = forward(net, apply(op, f))
        # compare against the depth-J projection of f
        proj = first_layer(f, net.phi, J, grid)
        from suniv.forward_model import grid_synthesis
        expected = grid_synthesis(proj.values, net.phi, J, grid)
        rel = quadrature_norm(out - expected, grid) / quadrature_norm(expected, grid)
        assert rel < 2e-3

    def test_wvd_taus_length_checked(self):
        grid = Grid(1, 64)
        with pytest.raises(ValueError):
            preset_wvd(identity_operator(grid), 2, 3, np.zeros(2))


class TestSizeBounds:
    def test_zero_input(self):
        net, _, _ = calibrated_random_net(107, 3, 1, 64, "zero")
        x = DTensor(np.zeros(8), 0)
        _, trace = forward(net, x)
        report = verify_size_bounds(net, trace, 0.0)
        assert report["all_pass"]
        assert all(c["lhs"] == 0.0 for c in report["checks"])

    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_random_trials(self, boundary):
        failures = 0
        for trial in range(40):
            rng = make_rng(109, (trial,))
            dim = 1 if trial % 3 else 2
            J = 3 if dim == 1 else 2
            n = 64 if dim == 1 else 16
            net = random_feasible_net(rng, J, dim, Grid(dim, n), boundary)
            x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
            calibrate_thresholds(net, x, rng)
            _, trace = forward(net, x)
            c_max = float(np.max(np.abs(trace.s[J].values)))
            if not verify_size_bounds(net, trace, c_max)["all_pass"]:
                failures += 1
        assert failures == 0

    def test_thresholding_shrinks_with_equality_at_zero_tau(self):
        net, x, _ = calibrated_random_net(113, 3, 1, 64, "periodic")
        net.taus = np.zeros(net.J)
        _, trace = forward(net, x)
        for j in range(net.J):
            for e in range(net.n_detail):
                assert l2_norm(trace.d_bar[j][e]) == pytest.approx(
                    l2_norm(trace.d[j][e]), abs=1e-12)


class TestPerturbationBounds:
    def test_zero_delta(self):
        net, x, _ = calibrated_random_net(127, 3, 1, 64, "periodic")
        delta = DTensor(np.zeros(3), -1)
        lhs, rhs, ok = verify_perturbation_bounds(net, ("beta", 1, 0), delta, x)
        assert lhs == 0.0 and rhs == 0.0 and ok

    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_random_trials_all_targets(self, boundary):
        results = []
        for trial in range(30):
            rng = make_rng(131, (trial,))
            net = random_feasible_net(rng, 3, 1, Grid(1, 64), boundary)
            g = rng.standard_normal(64)
            calibrate_thresholds(net, g, rng)
            kind = ("alpha", "a", "beta", "b", "tau", "psi")[trial % 6]
            j = int(rng.integers(0, net.J))
            if kind in ("alpha", "a"):
                target = (kind, j)
                delta = DTensor(rng.standard_normal(3) * 0.3, int(rng.integers(-2, 1)))
            elif kind in ("beta", "b"):
                target = (kind, j, 0)
                delta = DTensor(rng.standard_normal(3) * 0.3, int(rng.integers(-2, 1)))
            elif kind == "tau":
                target = ("tau", j)
                delta = float(rng.uniform(0.0, net.taus[j] + 0.2))
            else:
                target = ("psi",)
                delta = rng.standard_normal(64) * 0.1
            lhs, rhs, ok = verify_perturbation_bounds(net, target, delta, g)
            results.append(ok)
        assert all(results)

    def test_smooth_vs_detail_rhs_ratio(self):
        # equal-norm perturbations on a^{(k)} and b^{(k),e} give rhs ratio 1 + 2^d k
        net, x, rng = calibrated_random_net(137, 3, 1, 64, "periodic")
        delta = DTensor(rng.standard_normal(3) * 0.2, -1)
        for k in range(net.J):
            _, rhs_a, _ = verify_perturbation_bounds(net, ("a", k), delta, x)
            _, rhs_b, _ = verify_perturbation_bounds(net, ("b", k, 0), delta, x)
            assert rhs_a / rhs_b == pytest.approx(1.0 + 2.0 ** net.dim * k, rel=1e-12)

    def test_negative_threshold_rejected(self):
        net, x, _ = calibrated_random_net(139, 3, 1, 64, "periodic")
        with pytest.raises(ValueError):
            verify_perturbation_bounds(net, ("tau", 0), -(net.taus[0] + 1.0), x)

    def test_unknown_selector(self):
        net, x, _ = calibrated_random_net(149, 3, 1, 64, "periodic")
        with pytest.raises(ValueError):
            verify_perturbation_bounds(net, ("phi", 0), 0.0, x)

    def test_psi_requires_grid_input(self):
        net, x, _ = calibrated_random_net(151, 3, 1, 64, "periodic")
        with pytest.raises(ValueError):
            verify_perturbation_bounds(net, ("psi",), np.zeros(64), x)


class TestNetDistanceBound:
    def test_equal_nets(self):
        net, x, _ = calibrated_random_net(157, 3, 1, 64, "periodic")
        lhs, rhs, ok = verify_net_distance_bound(net, net.copy(), x)
        assert lhs == 0.0 and rhs == 0.0 and ok

    def test_single_filter_matches_perturbation_case(self):
        net, x, rng = calibrated_random_net(163, 3, 1, 64, "periodic")
        delta = DTensor(rng.standard_normal(3) * 0.25, 0)
        other = net.copy()
        from suniv.tensor_ops import dt_add
        other.a[1] = dt_add(other.a[1], delta)
        lhs1, rhs1, _ = verify_net_distance_bound(net, other, x)
        lhs2, rhs2, _ = verify_perturbation_bounds(net, ("a", 1), delta, x)
        assert lhs1 == pytest.approx(lhs2, rel=1e-12)
        assert rhs1 == pytest.approx(rhs2, rel=1e-12)

    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_random_pairs(self, boundary):
        ok_count = 0
        trials = 20
        for trial in range(trials):
            rng = make_rng(167, (trial,))
            grid = Grid(1, 64)
            f_net = random_feasible_net(rng, 3, 1, grid, boundary)
            g_net = random_feasible_net(rng, 3, 1, grid, boundary)
            g_net.phi = f_net.phi.copy()
            x = rng.standard_normal(64)
            calibrate_thresholds(f_net, x, rng)
            calibrate_thresholds(g_net, x, rng)
            _, _, ok = verify_net_distance_bound(f_net, g_net, x)
            ok_count += ok
        assert ok_count == trials

    def test_architecture_mismatch(self):
        net1, x, _ = calibrated_random_net(173, 3, 1, 64, "periodic")
        net2, _, _ = calibrated_random_net(174, 2, 1, 64, "periodic")
        with pytest.raises(ValueError):
            verify_net_distance_bound(net1, net2, x)


class TestSerialization:
    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_roundtrip_bit_exact(self, boundary, tmp_path):
        net, _, _ = calibrated_random_net(179, 3, 1, 64, boundary)
        path = tmp_path / "net.json"
        save_net(net, path)
        back = load_net(path)
        assert back.J == net.J and back.dim == net.dim
        assert back.boundary == net.boundary and back.M == net.M
        assert np.array_equal(back.taus, net.taus)
        assert np.array_equal(back.psi, net.psi)
        assert np.array_equal(back.phi, net.phi)
        assert back.class_params == net.class_params
        for f, g in zip(net.alpha + net.a, back.alpha + back.a):
            assert np.array_equal(f.values, g.values) and f.lo == g.lo
        for lf, lg in zip(net.beta + net.b, back.beta + back.b):
            for f, g in zip(lf, lg):
                assert np.array_equal(f.values, g.values) and f.lo == g.lo

    def test_reserialization_is_stable(self, tmp_path):
        net, _, _ = calibrated_random_net(181, 2, 2, 16, "periodic")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_net(net, p1)
        save_net(load_net(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_guard(self):
        with pytest.raises(ValueError):
            net_from_dict({"format": "something-else"})


class TestValidation:
    def test_constructor_rejects_bad_shapes(self):
        grid = Grid(1, 64)
        net = preset_wavelet_thresholding(2, 3, np.zeros(3), grid)
        with pytest.raises(ValueError):
            SUNet(J=0, dim=1, alpha=[], beta=[], a=[], b=[], taus=np.zeros(0),
                  psi=net.psi, phi=net.phi, grid=grid)
        with pytest.raises(ValueError):
            SUNet(J=3, dim=1, alpha=net.alpha, beta=net.beta, a=net.a, b=net.b,
                  taus=np.zeros(2), psi=net.psi, phi=net.phi, grid=grid)
        with pytest.raises(ValueError):
            SUNet(J=3, dim=1, alpha=net.alpha, beta=net.beta, a=net.a, b=net.b,
                  taus=np.zeros(3), psi=net.psi[:32], phi=net.phi, grid=grid)
        with pytest.raises(ValueError):
            SUNet(J=3, dim=1, alpha=net.alpha, beta=net.beta, a=net.a, b=net.b,
                  taus=np.zeros(3), psi=net.psi, phi=net.phi, grid=grid,
                  boundary="reflect")

    @pytest.mark.parametrize("part", ["alpha", "b", "taus", "psi", "phi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_constructor_rejects_non_finite(self, part, value):
        net = preset_wavelet_thresholding(2, 3, np.full(3, 0.1), Grid(1, 64))
        fields = {"alpha": net.alpha, "beta": net.beta, "a": net.a, "b": net.b,
                  "taus": net.taus.copy(), "psi": net.psi.copy(), "phi": net.phi.copy()}
        if part in ("alpha", "b"):
            f = net.alpha[1] if part == "alpha" else net.b[0][0]
            f.values[0] = value
        else:
            fields[part][0] = value
        with pytest.raises(ValueError, match=f"{part}.*finite"):
            SUNet(J=3, dim=1, grid=net.grid, **fields)

    def test_load_net_rejects_non_finite(self, tmp_path):
        path = tmp_path / "model.json"
        save_net(preset_wavelet_thresholding(1, 2, np.zeros(2), Grid(1, 16)), path)
        doc = json.loads(path.read_text())
        doc["taus"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="taus must be finite"):
            load_net(path)

    def test_membership_reports_non_finite_filter(self):
        net = preset_wavelet_thresholding(2, 3, np.full(3, 0.1), Grid(1, 64))
        net.beta[2][0].values[1] = np.nan
        report = check_class_membership(net)
        assert not report["pass"]
        assert report["violations"] == ["beta[2][0]: l2 norm nan exceeds 1"]

    def test_membership_reports_non_finite_psi(self):
        net = preset_wavelet_thresholding(2, 3, np.full(3, 0.1), Grid(1, 64))
        net.psi[5] = np.nan
        with np.errstate(invalid="ignore"):
            report = check_class_membership(net)
        assert not report["pass"]
        assert any(v.startswith("psi L2 norm") for v in report["violations"])

    def test_class_params_validation(self):
        with pytest.raises(ValueError):
            NetClassParams(r=0, R=1, S_filter=4, kappa_tau=1, C_psi_L2=1, C_psi_Hr=1)
        with pytest.raises(ValueError):
            NetClassParams(r=1, R=1, S_filter=4, kappa_tau=-1, C_psi_L2=1, C_psi_Hr=1)
