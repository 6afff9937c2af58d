"""Unit tests for index-aware tensors and strided convolutions.

The convolutions are checked against brute-force enumeration oracles that
iterate over every (filter tap, signal entry) pair with pure dict
bookkeeping, independently of the gather tables of the kernel.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from suniv.tensor_ops import (
    DTensor,
    down_conv,
    up_conv,
    tensor_product,
    l2_norm,
    reflect,
    dt_add,
    _sum_windows,
)

RT2 = np.sqrt(2.0)


def restrict(a, lo, hi):
    """Entries of ``a`` on the window [lo, hi], zero-padded where undefined.

    Built on `_sum_windows`: add ``a`` to zeros on the window, then cut the
    union back to the window.
    """
    lo = (lo,) * a.dim if isinstance(lo, int) else tuple(lo)
    hi = (hi,) * a.dim if isinstance(hi, int) else tuple(hi)
    zeros = np.zeros(tuple(h - l + 1 for l, h in zip(lo, hi)))
    values, u_lo = _sum_windows([(zeros, lo), (a.values, a.lo)])
    return DTensor(values[tuple(slice(l - u, h - u + 1) for l, h, u in zip(lo, hi, u_lo))], lo)


def _indices(t):
    return itertools.product(*(range(l, h + 1) for l, h in zip(t.lo, t.hi)))


def naive_down(gamma, a, periodic=False):
    """Enumeration oracle for down_conv."""
    if periodic:
        n = a.shape
        out = np.zeros(tuple(m // 2 for m in n))
        for k in itertools.product(*(range(m // 2) for m in n)):
            s = 0.0
            for l in _indices(gamma):
                m = tuple((2 * ki - li) % ni for ki, li, ni in zip(k, l, n))
                s += gamma[l] * a.values[m]
            out[k] = s
        return DTensor(out, (0,) * a.dim)
    terms = {}
    for l in _indices(gamma):
        for m in _indices(a):
            if all((mi + li) % 2 == 0 for mi, li in zip(m, l)):
                k = tuple((mi + li) // 2 for mi, li in zip(m, l))
                terms[k] = terms.get(k, 0.0) + gamma[l] * a[m]
    lo = tuple(min(k[ax] for k in terms) for ax in range(a.dim))
    hi = tuple(max(k[ax] for k in terms) for ax in range(a.dim))
    out = np.zeros(tuple(h - l + 1 for l, h in zip(lo, hi)))
    for k, v in terms.items():
        out[tuple(ki - li for ki, li in zip(k, lo))] = v
    return DTensor(out, lo)


def naive_up(gamma, a, periodic=False):
    """Enumeration oracle for up_conv."""
    if periodic:
        n = a.shape
        out = np.zeros(tuple(2 * m for m in n))
        for l in _indices(gamma):
            for m in itertools.product(*(range(mi) for mi in n)):
                k = tuple((2 * mi - li) % (2 * ni) for mi, li, ni in zip(m, l, n))
                out[k] += gamma[l] * a.values[m]
        return DTensor(out, (0,) * a.dim)
    seen = {}
    for l in _indices(gamma):
        for m in _indices(a):
            k = tuple(2 * mi - li for mi, li in zip(m, l))
            seen[k] = seen.get(k, 0.0) + gamma[l] * a[m]
    lo = tuple(min(k[ax] for k in seen) for ax in range(a.dim))
    hi = tuple(max(k[ax] for k in seen) for ax in range(a.dim))
    out = np.zeros(tuple(h - l + 1 for l, h in zip(lo, hi)))
    for k, v in seen.items():
        out[tuple(ki - li for ki, li in zip(k, lo))] = v
    return DTensor(out, lo)


def random_dtensor(rng, dim, max_side=9, lo_range=(-4, 4)):
    shape = tuple(int(rng.integers(1, max_side + 1)) for _ in range(dim))
    lo = tuple(int(rng.integers(*lo_range)) for _ in range(dim))
    return DTensor(rng.standard_normal(shape), lo)


class TestDTensor:
    def test_bounds_and_access(self):
        t = DTensor([[1.0, 2.0], [3.0, 4.0]], lo=(-1, 5))
        assert t.dim == 2
        assert t.lo == (-1, 5)
        assert t.hi == (0, 6)
        assert t[(-1, 6)] == 2.0
        assert t[(0, 5)] == 3.0
        with pytest.raises(IndexError):
            t[(1, 5)]

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            DTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            DTensor(np.zeros((0,)))

    def test_dict_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        t = random_dtensor(rng, 2)
        u = DTensor.from_dict(t.to_dict())
        assert u.lo == t.lo
        assert np.array_equal(u.values, t.values)

    def test_l2_norm(self):
        t = DTensor([3.0, 4.0], lo=-7)
        assert l2_norm(t) == pytest.approx(5.0, abs=1e-15)


class TestDownConv:
    def test_frozen_haar_example(self):
        gamma = DTensor([1 / RT2, 1 / RT2], lo=0)
        a = DTensor([1.0, 2.0, 3.0, 4.0], lo=0)
        out = down_conv(gamma, a)
        assert out.lo == (0,)
        assert_allclose(out.values, np.array([1.0, 5.0, 4.0]) / RT2, atol=1e-12)

    def test_frozen_periodic_haar(self):
        gamma = DTensor([1 / RT2, 1 / RT2], lo=0)
        a = DTensor([1.0, 2.0, 3.0, 4.0], lo=0)
        out = down_conv(gamma, a, periodic=True)
        # k=0: a[0]/rt2 + a[-1 mod 4]/rt2 ; k=1: a[2]/rt2 + a[1]/rt2
        assert_allclose(out.values, np.array([5.0, 5.0]) / RT2, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_enumeration_oracle(self, dim):
        rng = np.random.default_rng(42)
        for _ in range(60):
            gamma = random_dtensor(rng, dim, max_side=5)
            a = random_dtensor(rng, dim, max_side=9)
            got = down_conv(gamma, a)
            want = naive_down(gamma, a)
            assert got.lo == want.lo
            assert_allclose(got.values, want.values, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_enumeration_oracle_periodic(self, dim):
        rng = np.random.default_rng(43)
        for _ in range(40):
            gamma = random_dtensor(rng, dim, max_side=5)
            shape = tuple(int(2 * rng.integers(1, 7)) for _ in range(dim))
            a = DTensor(rng.standard_normal(shape))
            got = down_conv(gamma, a, periodic=True)
            want = naive_down(gamma, a, periodic=True)
            assert got.lo == want.lo
            assert_allclose(got.values, want.values, atol=1e-12)

    def test_periodic_requires_even_and_origin(self):
        gamma = DTensor([1.0])
        with pytest.raises(ValueError):
            down_conv(gamma, DTensor([1.0, 2.0, 3.0]), periodic=True)
        with pytest.raises(ValueError):
            down_conv(gamma, DTensor([1.0, 2.0], lo=1), periodic=True)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        gamma = random_dtensor(rng, 1, max_side=4)
        a = DTensor(rng.standard_normal(8), lo=-2)
        b = DTensor(rng.standard_normal(8), lo=-2)
        lhs = down_conv(gamma, DTensor(2.0 * a.values - 3.0 * b.values, a.lo))
        rhs = 2.0 * down_conv(gamma, a).values - 3.0 * down_conv(gamma, b).values
        assert_allclose(lhs.values, rhs, atol=1e-12)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_norm_contraction_on_random_inputs(self, periodic):
        # statistical version of the Cauchy-Schwarz chain used by the size
        # bounds; it is not a worst-case operator-norm fact (adversarial
        # inputs can exceed it), but for generic inputs of moderate length
        # the downsampled convolution does not expand the product of norms
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            gamma = random_dtensor(rng, dim, max_side=5)
            side = 64 if dim == 1 else 16
            lo = 0 if periodic else tuple(int(rng.integers(-4, 4)) for _ in range(dim))
            a = DTensor(rng.standard_normal((side,) * dim), lo)
            out = down_conv(gamma, a, periodic=periodic)
            assert l2_norm(out) <= l2_norm(gamma) * l2_norm(a)


class TestUpConv:
    def test_frozen_delta_insertion(self):
        gamma = DTensor([1.0], lo=0)
        a = DTensor([5.0, 7.0], lo=0)
        out = up_conv(gamma, a)
        assert out.lo == (0,)
        assert_allclose(out.values, [5.0, 0.0, 7.0], atol=1e-15)

    def test_frozen_haar_singleton(self):
        gamma = DTensor([1 / RT2, 1 / RT2], lo=0)
        a = DTensor([3.0], lo=0)
        out = up_conv(gamma, a)
        assert out.lo == (-1,)
        assert_allclose(out.values, np.array([3.0, 3.0]) / RT2, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_enumeration_oracle(self, dim):
        rng = np.random.default_rng(44)
        for _ in range(60):
            gamma = random_dtensor(rng, dim, max_side=5)
            a = random_dtensor(rng, dim, max_side=7)
            got = up_conv(gamma, a)
            want = naive_up(gamma, a)
            assert got.lo == want.lo
            assert_allclose(got.values, want.values, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_enumeration_oracle_periodic(self, dim):
        rng = np.random.default_rng(45)
        for _ in range(40):
            gamma = random_dtensor(rng, dim, max_side=5)
            shape = tuple(int(rng.integers(1, 9)) for _ in range(dim))
            a = DTensor(rng.standard_normal(shape))
            got = up_conv(gamma, a, periodic=True)
            want = naive_up(gamma, a, periodic=True)
            assert got.lo == want.lo
            assert_allclose(got.values, want.values, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_adjoint_of_down_conv_periodic(self, dim):
        # <down_conv(g, a), b> = <a, up_conv(g, b)> with matching periods
        rng = np.random.default_rng(46)
        for _ in range(40):
            gamma = random_dtensor(rng, dim, max_side=5)
            shape = tuple(int(2 * rng.integers(1, 9)) for _ in range(dim))
            a = DTensor(rng.standard_normal(shape))
            b = DTensor(rng.standard_normal(tuple(m // 2 for m in shape)))
            lhs = np.sum(down_conv(gamma, a, periodic=True).values * b.values)
            rhs = np.sum(a.values * up_conv(gamma, b, periodic=True).values)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_adjoint_of_down_conv_zero_extension(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            gamma = random_dtensor(rng, 1, max_side=5)
            a = random_dtensor(rng, 1, max_side=9)
            d = down_conv(gamma, a)
            b = DTensor(rng.standard_normal(d.shape), d.lo)
            lhs = np.sum(d.values * b.values)
            u = restrict(up_conv(gamma, b), a.lo, a.hi)
            rhs = np.sum(a.values * u.values)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestHelpers:
    def test_tensor_product(self):
        u = DTensor([1.0, 2.0], lo=-1)
        v = DTensor([3.0, 4.0, 5.0], lo=2)
        t = tensor_product(u, v)
        assert t.lo == (-1, 2)
        assert_allclose(t.values, [[3, 4, 5], [6, 8, 10]])

    def test_reflect(self):
        t = DTensor([1.0, 2.0, 3.0], lo=0)
        r = reflect(t)
        assert r.lo == (-2,)
        assert r[(-2,)] == 3.0 and r[(0,)] == 1.0
        t2 = DTensor([[1.0, 2.0], [3.0, 4.0]], lo=(0, -1))
        r2 = reflect(t2)
        assert r2.lo == (-1, 0)
        assert r2[(0, 0)] == 2.0 and r2[(-1, 1)] == 3.0

    def test_restrict_pads_with_zeros(self):
        t = DTensor([1.0, 2.0], lo=0)
        r = restrict(t, -1, 2)
        assert r.lo == (-1,)
        assert_allclose(r.values, [0.0, 1.0, 2.0, 0.0])
        # and cuts what lies outside the window, per axis in 2-d
        t2 = DTensor([[1.0, 2.0], [3.0, 4.0]], lo=(0, 1))
        r2 = restrict(t2, (1, 0), (2, 1))
        assert_allclose(r2.values, [[0.0, 3.0], [0.0, 0.0]])

    def test_dt_add_union_ranges(self):
        a = DTensor([1.0, 1.0], lo=0)
        b = DTensor([1.0, 1.0], lo=1)
        c = dt_add(a, b)
        assert c.lo == (0,)
        assert_allclose(c.values, [1.0, 2.0, 1.0])
