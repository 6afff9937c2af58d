"""Seeded fuzz tests of the batch-aware core against per-sample references.

The private primitives `_conv` (one cascade level; `_down`/`_up` are its
one-filter calls) and `_tap_sums`, and the batch functions
`_forward_batch`/`_backward_batch` carry every forward and backward pass;
the public per-sample API calls them with a batch of one.  The same holds
for the cascades `_analysis`/`_synthesis` behind `dwt_forward`/`dwt_inverse`
(and behind the network's passes), and for the batched prior draws behind
`make_training_set` and `test_risk`.  The gather kernel behind the
primitives is held, bit for bit, to a copy of the loop over taps it
replaced.  Each trial owns a `make_rng` stream, as in the other randomized
suites.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from suniv import training
from suniv.forward_model import (
    Grid,
    PriorParams,
    add_white_noise,
    apply,
    identity_operator,
    make_rng,
    make_training_set,
    quadrature_norm,
    sample_prior,
    sobolev_operator,
)
from suniv.sunet import (
    _backward_batch,
    _forward_batch,
    backward,
    calibrate_thresholds,
    forward,
    random_feasible_net,
)
from suniv.tensor_ops import (
    DTensor,
    _conv,
    _down,
    _sum_windows,
    _TableCache,
    _tap_sums,
    _up,
    down_conv,
    up_conv,
)
from suniv.training import TrainConfig, empirical_risk, risk_bound_check, test_risk, train_erm
from suniv.wavelets import (
    _analysis,
    _reflected,
    _synthesis,
    daubechies_filters,
    dwt_forward,
    dwt_inverse,
)

BOUNDARIES = ["periodic", "zero"]
TOL = 1e-12
B = 5


def random_filter(rng, dim):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(dim))
    lo = tuple(int(rng.integers(-3, 3)) for _ in range(dim))
    return DTensor(rng.standard_normal(shape), lo)


def random_signal(rng, dim, periodic, batch=B):
    """Batched values and logical origin; periodic periods are even."""
    if periodic:
        shape = tuple(int(2 * rng.integers(1, 6)) for _ in range(dim))
        lo = (0,) * dim
    else:
        shape = tuple(int(rng.integers(1, 9)) for _ in range(dim))
        lo = tuple(int(rng.integers(-4, 4)) for _ in range(dim))
    return rng.standard_normal((batch,) + shape), lo


def entries(values, lo):
    """{logical index: value} for every entry of an unbatched window."""
    return {tuple(p + l for p, l in zip(pos, lo)): values[pos]
            for pos in np.ndindex(*values.shape)}


def tap_sum_reference(gamma, small, small_lo, big, big_lo, periodic):
    """sum_b sum_k small_b[k] big_b[2k - l] per tap l, by enumeration."""
    out = np.zeros(gamma.shape)
    n = big.shape[1:]
    for b in range(small.shape[0]):
        big_at = entries(big[b], big_lo)
        for k, v in entries(small[b], small_lo).items():
            for pos in np.ndindex(*gamma.shape):
                l = tuple(p + g for p, g in zip(pos, gamma.lo))
                m = tuple(2 * ki - li for ki, li in zip(k, l))
                if periodic:
                    m = tuple(mi % ni for mi, ni in zip(m, n))
                out[pos] += v * big_at.get(m, 0.0)
    return out


def _tap_windows(g_lo, g_shape, in_lo, in_shape, out_lo, out_shape, periodic):
    """(tap, dst, src) index triples for y[k] += gamma[l] x[2k - l], per tap.

    The per-tap slices the convolutions were built on before the gather
    tables; kept as the reference the kernel must reproduce bit for bit.
    """
    d = len(g_shape)
    ks = [2 * np.arange(m) for m in out_shape]
    out = []
    for tap in np.ndindex(*g_shape):
        l = [t + gl for t, gl in zip(tap, g_lo)]
        if periodic:
            idx = [np.mod(k - li, n) for k, li, n in zip(ks, l, in_shape)]
            src = np.ix_(*idx) if d == 2 else tuple(idx)
            out.append((tap, (Ellipsis,), (Ellipsis,) + src))
            continue
        dst, src = [Ellipsis], [Ellipsis]
        for ax in range(d):
            k0 = max(out_lo[ax], -(-(in_lo[ax] + l[ax]) // 2))
            k1 = min(out_lo[ax] + out_shape[ax] - 1,
                     (in_lo[ax] + in_shape[ax] - 1 + l[ax]) // 2)
            if k0 > k1:
                break
            dst.append(slice(k0 - out_lo[ax], k1 - out_lo[ax] + 1))
            j0 = 2 * k0 - l[ax] - in_lo[ax]
            src.append(slice(j0, j0 + 2 * (k1 - k0) + 1, 2))
        else:
            out.append((tap, tuple(dst), tuple(src)))
    return out


def tap_loop(gamma, values, lo, periodic, window, up):
    """down (or up) convolution onto ``window`` by a loop over taps, adding to zeros."""
    n = values.shape[1:]
    out = np.zeros(values.shape[:1] + window[1])
    if up:
        for tap, dst, src in _tap_windows(gamma.lo, gamma.shape, *window, tuple(lo), n, periodic):
            if gamma.values[tap] != 0.0:
                out[src] += gamma.values[tap] * values[dst]
    else:
        for tap, dst, src in _tap_windows(gamma.lo, gamma.shape, tuple(lo), n, *window, periodic):
            if gamma.values[tap] != 0.0:
                out[dst] += gamma.values[tap] * values[src]
    return out


def tap_loop_sums(gamma, small, small_lo, big, big_lo, periodic):
    """`_tap_sums` by a loop over taps, one vdot each."""
    out = np.zeros(gamma.shape)
    for tap, dst, src in _tap_windows(gamma.lo, gamma.shape, tuple(big_lo), big.shape[1:],
                                      tuple(small_lo), small.shape[1:], periodic):
        out[tap] = np.vdot(small[dst], big[src])
    return out


def kernel_filter(rng, dim):
    """A filter of 1-14 taps per axis."""
    shape = tuple(int(rng.choice([1, 2, 3, 7, 14])) for _ in range(dim))
    g_lo = tuple(int(rng.integers(-9, 4)) for _ in range(dim))
    return DTensor(rng.standard_normal(shape), g_lo)


def kernel_input(rng, dim, periodic, batch):
    """A signal; periods go down to 2, below the filter length."""
    if periodic:
        n = tuple(int(rng.choice([2, 2, 4, 6])) for _ in range(dim))
        return rng.standard_normal((batch,) + n), (0,) * dim
    return random_signal(rng, dim, periodic, batch)


def kernel_window(rng, dim, periodic):
    """None, or a pinned zero-mode window: empty, one entry, or past every defined term."""
    if periodic or rng.random() < 0.5:
        return None
    return (tuple(int(rng.integers(-12, 6)) for _ in range(dim)),
            tuple(int(rng.choice([0, 1, 2, 5, 11])) for _ in range(dim)))


def kernel_case(rng, dim, periodic):
    """A filter, a signal and an optional pinned zero-mode window."""
    gamma = kernel_filter(rng, dim)
    batch = int(rng.choice([1, B]))
    x, lo = kernel_input(rng, dim, periodic, batch)
    return gamma, x, lo, kernel_window(rng, dim, periodic)


def assert_same(got, want):
    """Bit for bit, down to the sign of zero."""
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_gather_kernel_matches_tap_loop(boundary, dim):
    periodic = boundary == "periodic"
    for trial in range(60):
        rng = make_rng(315, (dim, periodic, trial))
        gamma, x, lo, window = kernel_case(rng, dim, periodic)
        y, y_lo = _down(gamma, x, lo, periodic, window)
        assert_same(y, tap_loop(gamma, x, lo, periodic, (y_lo, y.shape[1:]), up=False))
        G = rng.standard_normal(y.shape)
        _close(_tap_sums(gamma, G, y_lo, x, lo, periodic).values,
               tap_loop_sums(gamma, G, y_lo, x, lo, periodic))

        u, u_lo = _up(gamma, x, lo, periodic, window)
        assert_same(u, tap_loop(gamma, x, lo, periodic, (u_lo, u.shape[1:]), up=True))
        G = rng.standard_normal(u.shape)
        _close(_tap_sums(gamma, x, lo, G, u_lo, periodic).values,
               tap_loop_sums(gamma, x, lo, G, u_lo, periodic))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_level_kernel_matches_per_filter_tap_loops(boundary, dim):
    # one `_conv` call per cascade level: F filters of different supports
    # down from one input, or up from one input each and summed in filter order
    periodic = boundary == "periodic"
    for trial in range(40):
        rng = make_rng(316, (dim, periodic, trial))
        gammas = [kernel_filter(rng, dim) for _ in range(int(rng.choice([2, 4])))]
        batch = int(rng.choice([1, B]))
        x, lo = kernel_input(rng, dim, periodic, batch)
        windows = [kernel_window(rng, dim, periodic) for _ in gammas]
        for g, w, (y, y_lo) in zip(gammas, windows, _conv(gammas, (x, lo), periodic, windows),
                                   strict=True):
            one, one_lo = _down(g, x, lo, periodic, w)
            assert y_lo == one_lo and y.shape == one.shape
            assert_same(y, tap_loop(g, x, lo, periodic, (y_lo, y.shape[1:]), up=False))

        if periodic:
            xs = [(rng.standard_normal(x.shape), lo) for _ in gammas]
        else:
            xs = [random_signal(rng, dim, periodic, batch) for _ in gammas]
        window = kernel_window(rng, dim, periodic)
        parts = []
        for g, (v, v_lo) in zip(gammas, xs):
            one, one_lo = _up(g, v, v_lo, periodic, window)
            parts.append((tap_loop(g, v, v_lo, periodic, (one_lo, one.shape[1:]), up=True),
                          one_lo))
        want, want_lo = _sum_windows(parts)
        u, u_lo = _conv(gammas, xs, periodic, window, up=True)
        assert u_lo == want_lo
        assert_same(u, want)


def test_table_cache_is_bounded_in_bytes():
    cache = _TableCache()
    cache.max_bytes = 3000
    keys = [((-3, -1), (4, 2), (0, 0), (n, 4), None, True, up)
            for n in (2, 4, 8, 16) for up in (0, 1)]
    for key in keys:
        idx, _ = cache(*key)
        assert not idx.flags.writeable
        assert cache(*key)[0] is idx  # a hit returns the cached table
        held = sum(t[0].nbytes for t in cache.values())
        assert cache.held == held and (held <= 3000 or len(cache) == 1)
    # least recently used out first: the newest key stays, the oldest went
    assert keys[-1] in cache and keys[0] not in cache


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_up_is_adjoint_of_down(boundary, dim):
    periodic = boundary == "periodic"
    for trial in range(30):
        rng = make_rng(301, (dim, periodic, trial))
        gamma = random_filter(rng, dim)
        x, x_lo = random_signal(rng, dim, periodic)
        dx, d_lo = _down(gamma, x, x_lo, periodic)
        y = rng.standard_normal(dx.shape)
        ux, u_lo = _up(gamma, y, d_lo, periodic, (x_lo, x.shape[1:]))
        assert u_lo == x_lo and ux.shape == x.shape
        lhs = np.sum(dx * y, axis=tuple(range(1, dx.ndim)))
        rhs = np.sum(x * ux, axis=tuple(range(1, x.ndim)))
        assert_allclose(lhs, rhs, rtol=TOL, atol=TOL * np.max(np.abs(lhs)))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_convolutions_are_linear_in_the_filter(boundary, dim):
    periodic = boundary == "periodic"
    for trial in range(20):
        rng = make_rng(307, (dim, periodic, trial))
        g1 = random_filter(rng, dim)
        g2 = DTensor(rng.standard_normal(g1.shape), g1.lo)
        a, b = rng.standard_normal(2)
        mix = DTensor(a * g1.values + b * g2.values, g1.lo)
        x, lo = random_signal(rng, dim, periodic)
        for conv in (_down, _up):
            got, got_lo = conv(mix, x, lo, periodic)
            (y1, lo1), (y2, lo2) = conv(g1, x, lo, periodic), conv(g2, x, lo, periodic)
            assert got_lo == lo1 == lo2
            want = a * y1 + b * y2
            assert_allclose(got, want, rtol=TOL, atol=TOL * np.max(np.abs(want)))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_batched_convolutions_match_per_sample(boundary, dim):
    periodic = boundary == "periodic"
    for trial in range(30):
        rng = make_rng(302, (dim, periodic, trial))
        gamma = random_filter(rng, dim)
        x, lo = random_signal(rng, dim, periodic)
        for batched, single in ((_down, down_conv), (_up, up_conv)):
            out, out_lo = batched(gamma, x, lo, periodic)
            for b in range(B):
                want = single(gamma, DTensor(x[b], lo), periodic=periodic)
                assert out_lo == want.lo
                assert np.array_equal(out[b], want.values)


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_filter_gradients_match_explicit_sums(boundary, dim):
    periodic = boundary == "periodic"
    for trial in range(20):
        rng = make_rng(303, (dim, periodic, trial))
        gamma = random_filter(rng, dim)
        x, x_lo = random_signal(rng, dim, periodic)
        # down: d/d gamma_l of <G, down(gamma, x)> = sum_k G_k x_{2k-l}
        y, y_lo = _down(gamma, x, x_lo, periodic)
        G = rng.standard_normal(y.shape)
        got = _tap_sums(gamma, G, y_lo, x, x_lo, periodic)
        assert got.lo == gamma.lo
        want = tap_sum_reference(gamma, G, y_lo, x, x_lo, periodic)
        assert_allclose(got.values, want, rtol=TOL, atol=TOL * np.max(np.abs(want)))
        # up: d/d gamma_l of <G, up(gamma, x)> = sum_m x_m G_{2m-l}
        u, u_lo = _up(gamma, x, x_lo, periodic)
        G = rng.standard_normal(u.shape)
        got = _tap_sums(gamma, x, x_lo, G, u_lo, periodic)
        want = tap_sum_reference(gamma, x, x_lo, G, u_lo, periodic)
        assert_allclose(got.values, want, rtol=TOL, atol=TOL * np.max(np.abs(want)))


def _flat_trace(trace):
    """Trace entries in one fixed order as (values, lo), DTensors or pairs."""
    items = list(trace.s) + list(trace.s_bar)
    items += [t for lv in trace.d + trace.d_bar for t in lv]
    return [(t.values, t.lo) if isinstance(t, DTensor) else t for t in items]


def _flat_grads(g):
    arrays = [f.values for f in g.alpha + g.a]
    arrays += [f.values for lv in g.beta + g.b for f in lv]
    return arrays + [g.taus, g.psi]


def _close(got, want):
    assert_allclose(got, want, rtol=TOL, atol=TOL * max(1.0, float(np.max(np.abs(want)))))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim,n,J", [(1, 64, 3), (2, 16, 2)])
@pytest.mark.parametrize("kind", ["grid", "coefficients"])
def test_batched_forward_backward_match_per_sample(boundary, dim, n, J, kind):
    for trial in range(4):
        rng = make_rng(304, (dim, boundary == "periodic", kind == "grid", trial))
        grid = Grid(dim, n)
        net = random_feasible_net(rng, J, dim, grid, boundary)
        shape = grid.shape if kind == "grid" else (2 ** J,) * dim
        X = rng.standard_normal((B,) + shape)
        calibrate_thresholds(net, X[0] if kind == "grid" else DTensor(X[0], 0), rng)
        T = rng.standard_normal((B,) + grid.shape)

        out, trace = _forward_batch(net, X, coefficients=kind == "coefficients")
        weight = float(rng.uniform(0.5, 2.0))
        grads = _backward_batch(net, trace, out - T, weight)
        summed = None
        for b in range(B):
            x = X[b] if kind == "grid" else DTensor(X[b], 0)
            out_b, trace_b = forward(net, x)
            _close(out[b], out_b)
            for (v, lo), (vb, lob) in zip(_flat_trace(trace), _flat_trace(trace_b)):
                assert lo == lob
                _close(v[b], vb)
            g_b = [weight * a for a in _flat_grads(backward(net, trace_b, out_b - T[b]))]
            summed = g_b if summed is None else [s + a for s, a in zip(summed, g_b)]
        for got, want in zip(_flat_grads(grads), summed):
            _close(got, want)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_batched_risks_match_per_sample_sums(boundary):
    grid = Grid(1, 64)
    op = sobolev_operator(grid, 1)
    prior = PriorParams(s=1.0, L=1.0, J_max=3, M=2)
    for trial in range(3):
        rng = make_rng(305, (boundary == "periodic", trial))
        net = random_feasible_net(rng, 3, 1, grid, boundary)
        data = make_training_set(op, prior, 0.2, 7, rng)
        calibrate_thresholds(net, data.Y[0], rng)

        want = sum(quadrature_norm(forward(net, y)[0] - f, grid) ** 2
                   for y, f in zip(data.Y, data.F))
        assert empirical_risk(net, data) == pytest.approx(want, rel=TOL)

        mean, se = test_risk(net, op, prior, 0.2, 6, make_rng(305, (9, trial)))
        replay = make_rng(305, (9, trial))
        errs = []
        for _ in range(6):
            f = sample_prior(prior, grid, replay)
            y = add_white_noise(apply(op, f), 0.2, grid, replay)
            errs.append(quadrature_norm(forward(net, y)[0] - f, grid) ** 2)
        assert mean == pytest.approx(np.mean(errs), rel=TOL)
        assert se == pytest.approx(np.std(errs, ddof=1) / np.sqrt(6), rel=TOL)


def test_forward_rejects_non_finite_input():
    grid = Grid(1, 32)
    net = random_feasible_net(make_rng(306), 2, 1, grid)
    for bad in (np.nan, np.inf, -np.inf):
        g = np.zeros(grid.shape)
        g[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, g)
        c = np.zeros(4)
        c[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, DTensor(c, 0))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_batched_inverse_dwt_matches_per_sample(boundary, dim):
    periodic = boundary == "periodic"
    for trial in range(6):
        rng = make_rng(308, (dim, periodic, trial))
        bank = daubechies_filters(int(rng.integers(1, 5)), dim)
        levels = int(rng.integers(1, 4))
        shape = (2 ** (levels + int(rng.integers(0, 2))),) * dim
        coeffs = [dwt_forward(DTensor(rng.standard_normal(shape)), bank, levels, periodic)
                  for _ in range(B)]
        # same shape in, so every sample's windows sit at the same origins
        coarse = (np.stack([c.coarse.values for c in coeffs]), coeffs[0].coarse.lo)
        details = [[(np.stack([c.details[j][e].values for c in coeffs]),
                     coeffs[0].details[j][e].lo) for e in range(bank.n_detail)]
                   for j in range(levels)]
        got, lo = _synthesis(coarse, details, [_reflected(bank)] * levels, periodic)[-1]
        for b, c in enumerate(coeffs):
            want = dwt_inverse(c, bank)
            assert lo == want.lo
            _close(got[b], want.values)


def _inner(levels_a, levels_b):
    """Per-sample sum of <a, b> over matching (values, lo) pairs."""
    return sum(np.sum(a * b, axis=tuple(range(1, a.ndim)))
               for (a, _), (b, _) in zip(levels_a, levels_b))


def random_cascade(rng, dim, periodic):
    """Distinct filters (2..4 taps per axis) for 1..3 levels, and an input level."""
    J = int(rng.integers(1, 4))

    def rf():
        shape = tuple(int(rng.integers(2, 5)) for _ in range(dim))
        return DTensor(rng.standard_normal(shape), tuple(int(rng.integers(-3, 2)) for _ in range(dim)))

    filters = [(rf(), [rf() for _ in range(2 ** dim - 1)]) for _ in range(J)]
    if periodic:
        shape, lo = tuple(int(2 ** J * rng.integers(1, 4)) for _ in range(dim)), (0,) * dim
    else:
        shape = tuple(int(rng.integers(2, 12)) for _ in range(dim))
        lo = tuple(int(rng.integers(-4, 4)) for _ in range(dim))
    return filters, (rng.standard_normal((B,) + shape), lo)


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_synthesis_is_adjoint_of_analysis(boundary, dim):
    periodic = boundary == "periodic"
    for trial in range(12):
        rng = make_rng(313, (dim, periodic, trial))
        filters, x = random_cascade(rng, dim, periodic)
        # <analysis(x), y> = <x, synthesis(y)>, synthesis pinned to the analysis windows
        ss, ds = _analysis(x, filters, periodic)
        y0 = (rng.standard_normal(ss[0][0].shape), ss[0][1])
        yd = [[(rng.standard_normal(v.shape), lo) for v, lo in dets] for dets in ds]
        back = _synthesis(y0, yd, filters, periodic, ss)
        assert back[-1][1] == x[1] and back[-1][0].shape == x[0].shape
        lhs = _inner([ss[0]] + sum(ds, []), [y0] + sum(yd, []))
        rhs = _inner([x], back[-1:])
        assert_allclose(lhs, rhs, rtol=TOL, atol=TOL * np.max(np.abs(lhs)))
        # and the other way round, as the backward pass runs the expanding path
        levels = _synthesis(y0, yd, filters, periodic)
        z = (rng.standard_normal(levels[-1][0].shape), levels[-1][1])
        zs, zd = _analysis(z, filters, periodic, (levels, yd))
        lhs = _inner(levels[-1:], [z])
        rhs = _inner([y0] + sum(yd, []), [zs[0]] + sum(zd, []))
        assert_allclose(lhs, rhs, rtol=TOL, atol=TOL * np.max(np.abs(lhs)))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_batched_analysis_matches_dwt_forward(boundary, dim):
    periodic = boundary == "periodic"
    for trial in range(6):
        rng = make_rng(314, (dim, periodic, trial))
        bank = daubechies_filters(int(rng.integers(1, 5)), dim)
        levels = int(rng.integers(1, 4))
        lo = (0,) * dim if periodic else tuple(int(rng.integers(-3, 3)) for _ in range(dim))
        x = rng.standard_normal((B,) + (2 ** (levels + int(rng.integers(0, 2))),) * dim)
        ss, ds = _analysis((x, lo), [_reflected(bank)] * levels, periodic)
        for b in range(B):
            want = dwt_forward(DTensor(x[b], lo), bank, levels, periodic)
            got = [(ss[0][0][b], ss[0][1])] + [(v[b], vlo) for dets in ds for v, vlo in dets]
            expected = [want.coarse] + [t for dets in want.details for t in dets]
            for (v, vlo), t in zip(got, expected, strict=True):
                assert vlo == t.lo and np.array_equal(v, t.values)


@pytest.mark.parametrize("dim,n,J_max,M", [(1, 64, 3, 3), (1, 1024, 5, 3), (2, 16, 2, 2)])
def test_sample_prior_size_matches_single_draws(dim, n, J_max, M):
    grid = Grid(dim, n)
    prior = PriorParams(s=1.0, L=1.5, J_max=J_max, M=M)
    got = sample_prior(prior, grid, make_rng(317, (dim, n)), size=B)
    rng = make_rng(317, (dim, n))
    want = np.array([sample_prior(prior, grid, rng) for _ in range(B)])
    assert got.shape == (B,) + grid.shape
    assert_same(got, want)
    with pytest.raises(ValueError, match="size"):
        sample_prior(prior, grid, rng, size=0)


def _replayed_pairs(op, prior, sigma, N, rng):
    """make_training_set's draws, replayed one public call at a time."""
    grid = op.grid
    Y, F = [], []
    for _ in range(N):
        F.append(sample_prior(prior, grid, rng))
        Y.append(add_white_noise(apply(op, F[-1]), sigma, grid, rng))
    return np.array(Y), np.array(F)


@pytest.mark.parametrize("dim,n,J_max,M", [(1, 64, 3, 3), (2, 16, 2, 2)])
@pytest.mark.parametrize("kind", ["identity", "sobolev"])
def test_training_set_matches_per_draw_replay(dim, n, J_max, M, kind):
    grid = Grid(dim, n)
    op = identity_operator(grid) if kind == "identity" else sobolev_operator(grid, 1)
    prior = PriorParams(s=1.0, L=1.5, J_max=J_max, M=M)
    for trial in range(3):
        sigma = 0.1 * (trial + 1)
        data = make_training_set(op, prior, sigma, B, make_rng(309, (dim, trial)))
        Y, F = _replayed_pairs(op, prior, sigma, B, make_rng(309, (dim, trial)))
        _close(data.F, F)
        _close(data.Y, Y)


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_apply_matches_per_sample(dim):
    # add_white_noise takes the same batch axes; risk_bound_check relies on it
    grid = Grid(dim, 16)
    op = sobolev_operator(grid, 1)
    rng = make_rng(310, (dim,))
    f = rng.standard_normal((B, 2) + grid.shape)
    got = apply(op, f)
    for idx in np.ndindex(B, 2):
        _close(got[idx], apply(op, f[idx]))
    # wrong size, wrong size on the last axis only, and too few axes
    for bad in [(B,) + (8,) * dim, (B,) + (16,) * (dim - 1) + (17,), (16,) * (dim - 1)]:
        with pytest.raises(ValueError, match="operator grid"):
            apply(op, np.zeros(bad))
        with pytest.raises(ValueError, match="match grid"):
            add_white_noise(np.zeros(bad), 0.1, grid, rng)


def test_risk_bound_check_matches_per_trial_replay():
    grid = Grid(1, 64)
    op = sobolev_operator(grid, 1)
    prior = PriorParams(s=1.0, L=1.0, J_max=3, M=2)
    for trial in range(3):
        rng = make_rng(311, (trial,))
        net = random_feasible_net(rng, 3, 1, grid)
        f = sample_prior(prior, grid, rng)
        calibrate_thresholds(net, add_white_noise(apply(op, f), 0.2, grid, rng), rng)
        got = risk_bound_check(net, op, f, 0.2, 7, make_rng(311, (9, trial)))
        replay = make_rng(311, (9, trial))
        clean = apply(op, f)
        errs = [quadrature_norm(forward(net, add_white_noise(clean, 0.2, grid, replay))[0] - f,
                                grid) ** 2 for _ in range(7)]
        assert got["lhs_mean"] == pytest.approx(np.mean(errs), rel=TOL)
        assert got["lhs_se"] == pytest.approx(np.std(errs, ddof=1) / np.sqrt(7), rel=TOL)


def test_full_batch_training_reuses_forward_traces(monkeypatch):
    # one forward each for the reference and the initial risk, then one per
    # epoch: the candidate's pass doubles as the next gradient's forward
    grid = Grid(1, 32)
    prior = PriorParams(s=1.0, L=1.0, J_max=3, M=2)
    data = make_training_set(identity_operator(grid), prior, 0.2, 8, make_rng(312, (0,)))
    net = random_feasible_net(make_rng(312, (1,)), 3, 1, grid)
    calibrate_thresholds(net, data.Y[0], make_rng(312, (2,)))
    calls = []
    inner = training._forward_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(training, "_forward_batch", counted)
    _, history = train_erm(net, data, cfg=TrainConfig(step_size=0.5, max_epochs=6))
    assert history.epochs > 0
    assert len(calls) == 2 + history.epochs
