"""Tests for operators, noise calibration, the prior, and serialization."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from suniv.forward_model import (
    Grid,
    PriorParams,
    SingularOperatorError,
    add_white_noise,
    apply,
    custom_operator,
    grid_analysis,
    grid_synthesis,
    identity_operator,
    load_training_set,
    make_rng,
    make_training_set,
    operator_from_descriptor,
    prior_second_moment,
    quadrature_inner,
    quadrature_norm,
    sample_prior,
    save_training_set,
    sobolev_norm,
    sobolev_operator,
    vaguelette,
    vaguelette_biorthogonality_error,
)
from suniv.wavelets import sample_father_wavelet


class TestGrid:
    def test_properties(self):
        g = Grid(1, 256)
        assert g.h == pytest.approx(1 / 256)
        assert g.shape == (256,)
        assert g.max_level == 8
        g2 = Grid(2, 16)
        assert g2.size == 256
        assert g2.points()[0].shape == (16, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 16)
        with pytest.raises(ValueError):
            Grid(1, 24)
        with pytest.raises(ValueError):
            Grid(1, 1)


class TestOperators:
    def test_identity_apply(self):
        rng = np.random.default_rng(0)
        grid = Grid(1, 64)
        f = rng.standard_normal(64)
        assert_allclose(apply(identity_operator(grid), f), f, atol=1e-12)

    def test_constant_invariant_under_sobolev(self):
        grid = Grid(1, 128)
        op = sobolev_operator(grid, 2)
        f = 3.5 * np.ones(128)
        assert_allclose(apply(op, f), f, atol=1e-12)

    @pytest.mark.parametrize("L", [1, 2])
    def test_cosine_eigenfunction(self, L):
        grid = Grid(1, 256)
        op = sobolev_operator(grid, L)
        x = grid.points()
        f = np.cos(2 * math.pi * x)
        lam = (1.0 + 4.0 * math.pi ** 2) ** (-L)
        assert_allclose(apply(op, f), lam * f, atol=1e-12)

    def test_sobolev_constants(self):
        op = sobolev_operator(Grid(2, 32), 1)
        assert op.beta == 2.0
        assert op.a1 == pytest.approx(1.0)
        assert op.a2 == pytest.approx(1.0)
        assert op.C_T == pytest.approx(1.0)

    def test_self_adjoint_under_quadrature(self):
        rng = np.random.default_rng(1)
        grid = Grid(1, 64)
        op = sobolev_operator(grid, 1)
        f, g = rng.standard_normal(64), rng.standard_normal(64)
        assert quadrature_inner(apply(op, f), g, grid) == pytest.approx(
            quadrature_inner(f, apply(op, g), grid), rel=1e-12)

    def test_sobolev_norm_reduces_to_quadrature_at_r0(self):
        rng = np.random.default_rng(5)
        for grid in (Grid(1, 128), Grid(2, 16)):
            f = rng.standard_normal(grid.shape)
            assert sobolev_norm(f, grid, 0.0) == pytest.approx(
                quadrature_norm(f, grid), rel=1e-12)

    def test_sobolev_norm_cosine(self):
        # cos(2 pi x) has c_{+-1} = 1/2, so ||f||_{H^r}^2 = (1 + 4 pi^2)^r / 2
        grid = Grid(1, 256)
        f = np.cos(2.0 * math.pi * grid.points())
        for r in (0.0, 1.0, 2.5):
            expected = math.sqrt((1.0 + 4.0 * math.pi ** 2) ** r / 2.0)
            assert sobolev_norm(f, grid, r) == pytest.approx(expected, rel=1e-12)

    def test_custom_symbol_constants(self):
        grid = Grid(1, 64)
        k = np.fft.fftfreq(64) * 64
        xi2 = (2 * math.pi * k) ** 2
        sym = 2.0 * (1.0 + xi2) ** (-0.5)
        op = custom_operator(grid, sym, beta=1.0)
        assert op.a1 == pytest.approx(2.0, rel=1e-12)
        assert op.a2 == pytest.approx(2.0, rel=1e-12)
        assert op.C_T == pytest.approx(2.0, rel=1e-12)

    def test_singular_symbol_rejected(self):
        grid = Grid(1, 32)
        sym = np.ones(32)
        sym[5] = 0.0
        sym[(32 - 5) % 32] = 0.0
        with pytest.raises(SingularOperatorError):
            custom_operator(grid, sym, beta=0.0)

    def test_odd_symbol_rejected(self):
        grid = Grid(1, 32)
        k = np.fft.fftfreq(32) * 32
        with pytest.raises(ValueError, match="even"):
            custom_operator(grid, 2.0 + np.sin(k), beta=0.0)

    def test_descriptor_roundtrip(self):
        grid = Grid(1, 64)
        for op in (identity_operator(grid), sobolev_operator(grid, 2)):
            op2 = operator_from_descriptor(op.descriptor(), grid)
            assert_allclose(op2.symbol, op.symbol, atol=1e-15)


class TestVaguelette:
    def test_identity_gives_father(self):
        grid = Grid(1, 256)
        psi = vaguelette(identity_operator(grid), 3, 2)
        assert_allclose(psi, sample_father_wavelet(3, 2, 256), atol=1e-10)

    def test_defining_property_in_fourier(self):
        # T* psi equals the scaled father exactly on the grid
        grid = Grid(1, 512)
        op = sobolev_operator(grid, 1)
        psi = vaguelette(op, 2, 3)
        back = apply(op, psi)
        assert_allclose(back, sample_father_wavelet(2, 3, 512), atol=1e-10)

    def test_norm_within_envelope_bound(self):
        # |psi_hat(k)| <= (1 + |xi_k|^2)^{beta/2} |phi_hat_J(k)| / a1 pointwise,
        # so the quadrature norm of psi is bounded by the discrete H^beta norm
        # of the scaled father divided by a1.  The sobolev operator saturates
        # the envelope, a non-constant symbol sits strictly inside it.
        grid = Grid(1, 1024)
        from suniv.forward_model import _xi_squared

        bumpy = (1.0 + 0.5 * np.cos(np.sqrt(_xi_squared(grid)))) / (1.0 + _xi_squared(grid))
        for op in (sobolev_operator(grid, 1), custom_operator(grid, bumpy, 2.0)):
            for J in (2, 3):
                psi = vaguelette(op, 3, J)
                phi_j = sample_father_wavelet(3, J, grid.n)
                bound = (1.0 + 1e-9) * sobolev_norm(phi_j, grid, op.beta) / op.a1
                assert quadrature_norm(psi, grid) <= bound

    def test_biorthogonality_error_small_and_shrinking(self):
        errs = []
        for n in (256, 512):
            op = sobolev_operator(Grid(1, n), 1)
            errs.append(vaguelette_biorthogonality_error(op, 2, 3))
        assert errs[0] < 0.05
        assert errs[1] < errs[0]


class TestNoise:
    def test_unit_norm_inner_product_variance(self):
        grid = Grid(1, 128)
        rng = make_rng(7)
        u = rng.standard_normal(128)
        u /= quadrature_norm(u, grid)
        sigma = 0.7
        draws = np.array([
            quadrature_inner(add_white_noise(np.zeros(128), sigma, grid, rng), u, grid)
            for _ in range(4000)
        ])
        assert np.var(draws) == pytest.approx(sigma ** 2, rel=0.1)

    def test_zero_sigma_is_identity(self):
        grid = Grid(2, 16)
        f = np.ones(grid.shape)
        rng = make_rng(0)
        assert_allclose(add_white_noise(f, 0.0, grid, rng), f, atol=1e-15)


class TestPrior:
    def test_grid_too_coarse_raises(self):
        with pytest.raises(ValueError, match="2\\^"):
            sample_prior(PriorParams(1.0, 1.0, J_max=5), Grid(1, 32), make_rng(0))

    @pytest.mark.parametrize("s,L", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0),
                                     (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_bad_smoothness_or_amplitude_rejected(self, s, L):
        with pytest.raises(ValueError, match="s and L"):
            PriorParams(s, L, J_max=2)

    def test_level_variance_smoke(self):
        # variance of recovered level-2 coefficients matches the law
        grid = Grid(1, 512)
        prior = PriorParams(s=1.0, L=1.0, J_max=4, M=3)
        rng = make_rng(11)
        from suniv.tensor_ops import DTensor
        from suniv.wavelets import daubechies_filters, dwt_forward

        bank = daubechies_filters(3, 1)
        top = prior.J_max + 1
        phi = sample_father_wavelet(3, top, 512)
        vals = []
        for _ in range(600):
            f = sample_prior(prior, grid, rng)
            s_top = grid_analysis(f, phi, top, grid)
            co = dwt_forward(DTensor(s_top), bank, top)
            vals.extend(co.details[2][0].values.tolist())
        want = 2.0 ** (2 * (1 - 2.0))
        assert np.var(np.asarray(vals)) == pytest.approx(want, rel=0.1)

    def test_cached_pieces_are_read_only(self):
        from suniv.forward_model import _prior_pieces

        (hr, grs), phi = _prior_pieces(3, 5, 512, 1)
        assert _prior_pieces(3, 5, 512, 1)[1] is phi
        assert np.array_equal(phi, sample_father_wavelet(3, 5, 512))
        for a in [phi, hr.values] + [g.values for g in grs]:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_second_moment_formula(self):
        prior = PriorParams(s=1.0, L=2.0, J_max=3)
        # 4 * (1 + sum_j 2^j * 2^-j) = 4 * (1 + 4)
        assert prior_second_moment(prior, 1) == pytest.approx(20.0)

    def test_empirical_second_moment(self):
        grid = Grid(1, 512)
        prior = PriorParams(s=1.0, L=1.0, J_max=3, M=4)
        rng = make_rng(3)
        vals = [quadrature_norm(sample_prior(prior, grid, rng), grid) ** 2
                for _ in range(800)]
        want = prior_second_moment(prior, 1)
        se = np.std(vals) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - want) < 3 * se + 0.02 * want


class TestSynthesisAnalysis:
    def test_synthesis_places_shifted_father(self):
        grid = Grid(1, 64)
        J = 2
        phi = sample_father_wavelet(2, J, 64)
        c = np.zeros(4)
        c[1] = 1.0
        out = grid_synthesis(c, phi, J, grid)
        assert_allclose(out, np.roll(phi, 16), atol=1e-12)

    def test_analysis_adjoint_consistency(self):
        rng = np.random.default_rng(9)
        grid = Grid(1, 128)
        J = 3
        phi = sample_father_wavelet(3, J, 128)
        g = rng.standard_normal(128)
        c = rng.standard_normal(8)
        # <g, synth(c)> = <analysis(g), c> (quadrature vs plain sums)
        lhs = quadrature_inner(g, grid_synthesis(c, phi, J, grid), grid)
        rhs = float(np.sum(grid_analysis(g, phi, J, grid) * c))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_2d_analysis_shape(self):
        grid = Grid(2, 32)
        phi = sample_father_wavelet(2, 2, 32, dim=2)
        out = grid_analysis(np.ones(grid.shape), phi, 2, grid)
        assert out.shape == (4, 4)


class TestTrainingSet:
    def test_shapes_and_noise_energy(self):
        grid = Grid(1, 128)
        op = identity_operator(grid)
        prior = PriorParams(1.0, 1.0, J_max=3)
        sigma = 0.5
        ts = make_training_set(op, prior, sigma, 64, make_rng(5))
        assert ts.Y.shape == (64, 128)
        energies = [quadrature_norm(ts.Y[i] - ts.F[i], grid) ** 2
                    for i in range(ts.n_samples)]
        want = sigma ** 2 * grid.size  # E ||noise||_quad^2 = sigma^2 n^d
        assert np.mean(energies) == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize("sigma", [-0.5, math.nan, math.inf])
    def test_bad_sigma_rejected(self, sigma):
        grid = Grid(1, 32)
        with pytest.raises(ValueError, match="sigma"):
            make_training_set(identity_operator(grid), PriorParams(1.0, 1.0, 2), sigma, 3,
                              make_rng(1))

    @pytest.mark.parametrize("field", ["Y", "F"])
    def test_load_rejects_non_finite(self, tmp_path, field):
        grid = Grid(1, 32)
        ts = make_training_set(identity_operator(grid), PriorParams(1.0, 1.0, 2), 0.1, 3,
                               make_rng(1))
        getattr(ts, field)[1, 4] = math.inf
        save_training_set(ts, tmp_path / "ts.npz")
        with pytest.raises(ValueError, match=f"{field} holds non-finite"):
            load_training_set(tmp_path / "ts.npz")

    def test_json_roundtrip_bit_exact(self, tmp_path):
        grid = Grid(1, 32)
        ts = make_training_set(identity_operator(grid), PriorParams(1.0, 1.0, 2),
                               0.3, 3, make_rng(1))
        ts.seed = 1
        p = tmp_path / "ts.json"
        save_training_set(ts, p)
        ts2 = load_training_set(p)
        assert np.array_equal(ts2.Y, ts.Y)
        assert np.array_equal(ts2.F, ts.F)
        assert ts2.sigma == ts.sigma
        assert ts2.op_desc == ts.op_desc

    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16)])
    def test_npz_roundtrip(self, tmp_path, dim, n):
        grid = Grid(dim, n)
        ts = make_training_set(sobolev_operator(grid, 1), PriorParams(1.0, 1.0, 2),
                               0.1, 3, make_rng(2))
        p = tmp_path / "ts.npz"
        save_training_set(ts, p)
        with np.load(p, allow_pickle=False) as archive:
            assert sorted(archive.files) == ["F", "Y", "header"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ts.npz"]
        ts2 = load_training_set(p)
        assert np.array_equal(ts2.Y, ts.Y)
        assert np.array_equal(ts2.F, ts.F)
        assert ts2.sigma == ts.sigma and ts2.op_desc == ts.op_desc


class TestRng:
    def test_streams_reproducible_and_distinct(self):
        a = make_rng(42, (3,)).standard_normal(4)
        b = make_rng(42, (3,)).standard_normal(4)
        c = make_rng(42, (4,)).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_counter_based_bit_generator(self):
        assert make_rng(0).bit_generator.__class__.__name__ == "Philox"
