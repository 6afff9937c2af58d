"""Simplified U-net: a wavelet-style encoder/decoder with thresholded skips.

The network maps a function on the periodic unit cube to another one via

  1. an analysis layer: inner products of the input against translates of a
     learnable filter ``psi`` on the dyadic grid at depth ``J``,
  2. a contracting path of ``J`` downsampled convolutions producing a smooth
     channel ``s`` and 2^d - 1 detail channels ``d`` per level,
  3. soft-threshold activations on the detail channels only,
  4. an expanding path of ``J`` upsampled convolutions recombining the
     channels, and
  5. a fixed synthesis layer against translates of the output filter ``phi``
     (a sampled scaled Daubechies father).

All trainable parts carry hand-derived gradients (`backward`), live in a
constrained class (`NetClassParams`, `project_constraints`), and admit
numeric verification of size, perturbation and net-distance bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .forward_model import (
    Grid,
    _read_json,
    grid_analysis,
    grid_synthesis,
    identity_operator,
    quadrature_norm,
    sobolev_norm,
    vaguelette,
)
from .tensor_ops import DTensor, _tap_sums, dt_add, l2_norm
from .wavelets import (
    _analysis,
    _reflected,
    _synthesis,
    daubechies_filters,
    sample_father_wavelet,
    soft_threshold,
)

BOUNDARY_MODES = ("zero", "periodic")

# Feasibility tolerance for the norm constraints: projection rescales only
# when a norm exceeds its cap by more than this, and then aims slightly below
# the cap, so that projecting twice is a bitwise no-op.
_NORM_TOL = 1e-12


@dataclass
class NetClassParams:
    """Constraint constants for the constrained network class.

    ``r`` and ``R`` are smoothness integers (``r`` also weights the Sobolev
    proxy cap on psi), ``S_filter`` caps the number of nonzero filter taps,
    ``kappa_tau`` caps the thresholds, and ``C_psi_L2`` / ``C_psi_Hr`` cap
    the quadrature L2 norm and the discrete H^r norm of psi.
    """

    r: int
    R: int
    S_filter: int
    kappa_tau: float
    C_psi_L2: float
    C_psi_Hr: float

    def __post_init__(self):
        self.r = int(self.r)
        self.R = int(self.R)
        self.S_filter = int(self.S_filter)
        for name in ("r", "R", "S_filter", "kappa_tau", "C_psi_L2", "C_psi_Hr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def to_dict(self):
        return {
            "r": self.r,
            "R": self.R,
            "S_filter": self.S_filter,
            "kappa_tau": float(self.kappa_tau),
            "C_psi_L2": float(self.C_psi_L2),
            "C_psi_Hr": float(self.C_psi_Hr),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["r"], d["R"], d["S_filter"], d["kappa_tau"],
                   d["C_psi_L2"], d["C_psi_Hr"])


@dataclass
class SUNet:
    """Network state: filters, thresholds, analysis/synthesis samples.

    ``alpha[j]`` / ``beta[j][e]`` are the contracting filters producing level
    ``j`` from level ``j+1``; ``a[j]`` / ``b[j][e]`` the expanding filters
    consuming level ``j``.  ``taus[j]`` is the soft threshold applied to the
    level-``j`` detail channels.  ``psi`` and ``phi`` are grid samples; ``phi``
    is fixed (not trained).
    """

    J: int
    dim: int
    alpha: list
    beta: list
    a: list
    b: list
    taus: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    grid: Grid
    boundary: str = "periodic"
    M: int = 1
    class_params: NetClassParams | None = None

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("depth J must be at least 1")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")
        if self.grid.dim != self.dim:
            raise ValueError("grid dimension does not match net dimension")
        if self.grid.n % 2 ** self.J:
            raise ValueError("grid resolution must be divisible by 2^J")
        self.taus = np.asarray(self.taus, dtype=float).reshape(-1)
        if self.taus.shape != (self.J,):
            raise ValueError("taus must have one entry per level")
        self.psi = np.asarray(self.psi, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        for name, arr in (("psi", self.psi), ("phi", self.phi)):
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must be sampled on the grid")
        for name, arr in (("taus", self.taus), ("psi", self.psi), ("phi", self.phi)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        nd = self.n_detail
        for name, filters in (("alpha", self.alpha), ("a", self.a)):
            if len(filters) != self.J:
                raise ValueError(f"{name} must hold J filters")
            for f in filters:
                self._check_filter(name, f)
        for name, groups in (("beta", self.beta), ("b", self.b)):
            if len(groups) != self.J:
                raise ValueError(f"{name} must hold J filter groups")
            for group in groups:
                if len(group) != nd:
                    raise ValueError(f"each {name} level needs {nd} channels")
                for f in group:
                    self._check_filter(name, f)

    def _check_filter(self, name, f):
        if not isinstance(f, DTensor) or f.dim != self.dim:
            raise ValueError(f"{name} filters must be {self.dim}-d DTensors")
        if not np.isfinite(f.values).all():
            raise ValueError(f"{name} filters must be finite")

    @property
    def n_detail(self):
        return 2 ** self.dim - 1

    def filters(self):
        """(name, level, channel-or-None, DTensor) for every discrete filter."""
        for j in range(self.J):
            yield ("alpha", j, None, self.alpha[j])
            yield ("a", j, None, self.a[j])
            for e in range(self.n_detail):
                yield ("beta", j, e, self.beta[j][e])
                yield ("b", j, e, self.b[j][e])

    def copy(self):
        """Copies of the filters, thresholds and samples; the rest is shared.

        The state is valid already, so `__post_init__` does not run again.
        """
        out = object.__new__(type(self))
        out.__dict__.update(
            self.__dict__,
            alpha=[f.copy() for f in self.alpha],
            beta=[[f.copy() for f in g] for g in self.beta],
            a=[f.copy() for f in self.a],
            b=[[f.copy() for f in g] for g in self.b],
            taus=self.taus.copy(),
            psi=self.psi.copy(),
            phi=self.phi.copy(),
        )
        return out


@dataclass
class ForwardTrace:
    """Every intermediate tensor of one forward pass.

    ``s[j]`` for j = 0..J, ``d[j][e]`` and ``d_bar[j][e]`` for j = 0..J-1,
    ``s_bar[j]`` for j = 0..J.  ``g`` keeps the grid input when one was
    given (needed for the psi gradient).
    """

    s: list
    d: list
    s_bar: list
    d_bar: list
    input_kind: str
    g: np.ndarray | None = None


@dataclass
class Gradients:
    """Loss gradients, shaped like the trainable fields of an SUNet."""

    alpha: list
    beta: list
    a: list
    b: list
    taus: np.ndarray
    psi: np.ndarray


def first_layer(signal, psi, J, grid):
    """Analysis coefficients of ``signal`` against dyadic translates of psi.

    Returns the DTensor of quadrature inner products
    h^d sum_i signal(x_i) psi(x_i - k 2^{-J}) for k on the depth-J grid.
    """
    if grid.n % 2 ** J:
        raise ValueError("grid resolution must be divisible by 2^J")
    return DTensor(grid_analysis(signal, psi, J, grid), 0)


def _coefficient_window(J, dim):
    return (0,) * dim, (2 ** J - 1,) * dim


def _wrap_index(lo, shape, n):
    """Index of a window at logical origin ``lo`` on the box [0, n)^d modulo n."""
    idx = [np.arange(l, l + m) % n for l, m in zip(lo, shape)]
    return (Ellipsis,) + (np.ix_(*idx) if len(idx) == 2 else tuple(idx))


def _fold(values, lo, n):
    """Sum a window at logical origin ``lo`` onto the box [0, n)^d modulo n."""
    d = len(lo)
    if not any(lo) and values.shape[-d:] == (n,) * d:  # already the box
        return values + 0.0  # turns -0 into +0, as adding to zeros does
    out = np.zeros(values.shape[:-d] + (n,) * d)
    np.add.at(out, _wrap_index(lo, values.shape[-d:], n), values)
    return out


def _check_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} holds non-finite values")


def _trace_map(trace, fn, g):
    return ForwardTrace(
        [fn(t) for t in trace.s], [[fn(t) for t in lv] for lv in trace.d],
        [fn(t) for t in trace.s_bar], [[fn(t) for t in lv] for lv in trace.d_bar],
        trace.input_kind, g)


def forward(net, x):
    """Run the network; returns (output grid samples, ForwardTrace).

    ``x`` may be grid samples (the analysis layer is applied) or a
    precomputed coefficient DTensor on the depth-J index box (lo = 0,
    2^J entries per axis), which skips the analysis quadrature.  Non-finite
    inputs are rejected.
    """
    if isinstance(x, DTensor):
        lo, hi = _coefficient_window(net.J, net.dim)
        if x.lo != lo or x.hi != hi:
            raise ValueError("coefficient input must cover the depth-J index box")
        values, coefficients = x.values, True
    else:
        values, coefficients = np.asarray(x, dtype=float), False
        if values.shape != net.grid.shape:
            raise ValueError("grid input does not match the net's grid")
    _check_finite(values, "network input")
    out, trace = _forward_batch(net, values[None], coefficients)
    g = None if coefficients else trace.g[0]
    return out[0], _trace_map(trace, lambda t: DTensor(t[0][0], t[1]), g)


def _forward_batch(net, X, coefficients=False):
    """`forward` over the leading axis of X; the trace holds (values, lo) pairs.

    Every trace array carries the batch axis first.  X is grid samples, or
    depth-J coefficients when ``coefficients`` is set; it is not validated.
    """
    J, dim = net.J, net.dim
    periodic = net.boundary == "periodic"
    if coefficients:
        s_top, g = np.array(X, dtype=float), None
    else:
        g = X
        s_top = grid_analysis(g, net.psi, J, net.grid)

    s, d = _analysis((s_top, (0,) * dim), list(zip(net.alpha, net.beta)), periodic)
    d_bar = [[(soft_threshold(v, net.taus[j]), lo) for v, lo in d[j]] for j in range(J)]
    s_bar = _synthesis((s[0][0].copy(), s[0][1]), d_bar, list(zip(net.a, net.b)), periodic)
    coeffs = _fold(*s_bar[J], 2 ** J)
    out = grid_synthesis(coeffs, net.phi, J, net.grid)
    input_kind = "coefficients" if coefficients else "grid"
    return out, ForwardTrace(s, d, s_bar, d_bar, input_kind, g)


def backward(net, trace, residual):
    """Gradients of the squared-error loss 1/2 ||output - target||^2.

    ``residual`` is output - target on the grid.  Gradients are returned for
    every alpha, a, beta, b, tau and for the psi samples (zero when the
    forward pass consumed a coefficient input).  At soft-threshold kinks the
    subgradient value 0 is used.
    """
    if len(trace.s) != net.J + 1 or len(trace.d) != net.J:
        raise ValueError("trace does not match the net's depth")
    if trace.s[net.J].dim != net.dim:
        raise ValueError("trace dimension does not match the net")
    residual = np.asarray(residual, dtype=float)
    if residual.shape != net.grid.shape:
        raise ValueError("residual must be sampled on the grid")
    g = None if trace.g is None else trace.g[None]
    batch = _trace_map(trace, lambda t: (t.values[None], t.lo), g)
    return _backward_batch(net, batch, residual[None])


def _backward_batch(net, trace, R, weight=1.0):
    """Gradients of weight * sum_b 1/2 ||output_b - target_b||^2.

    ``trace`` comes from `_forward_batch` and ``R`` holds the residuals
    output - target, batch axis first.
    """
    J, dim, grid = net.J, net.dim, net.grid
    periodic = net.boundary == "periodic"
    n = 2 ** J

    # synthesis layer: d loss / d coeffs = analysis of the residual with phi
    grad_fold = weight * grid_analysis(R, net.phi, J, grid)
    top, G_lo = trace.s_bar[J]
    G = grad_fold[_wrap_index(G_lo, top.shape[1:], n)]

    # expanding path, top down: the adjoint of `_synthesis` is `_analysis`
    # pinned to the forward windows; G_s[j] is the gradient of s_bar[j]
    G_s, G_dbar = _analysis((G, G_lo), list(zip(net.a, net.b)), periodic,
                            (trace.s_bar, trace.d_bar))
    g_a = [_tap_sums(net.a[j], *trace.s_bar[j], *G_s[j + 1], periodic) for j in range(J)]
    g_b = [[_tap_sums(f, *x, *G_s[j + 1], periodic) for f, x in zip(net.b[j], trace.d_bar[j])]
           for j in range(J)]

    # activations: mask dead zones, accumulate threshold gradients
    g_taus = np.zeros(J)
    G_d = [None] * J
    for j in range(J):
        G_d[j] = []
        for (dv, _), (gv, lo) in zip(trace.d[j], G_dbar[j]):
            active = np.abs(dv) > net.taus[j]
            g_taus[j] -= float(np.sum(np.sign(dv) * active * gv))
            G_d[j].append((active * gv, lo))

    # contracting path, bottom up: the adjoint of `_analysis` is `_synthesis`;
    # G at level 0 is the pass-through gradient
    G_s = _synthesis(G_s[0], G_d, list(zip(net.alpha, net.beta)), periodic, trace.s)
    g_alpha = [_tap_sums(net.alpha[j], *G_s[j], *trace.s[j + 1], periodic) for j in range(J)]
    g_beta = [[_tap_sums(f, *Gd, *trace.s[j + 1], periodic) for f, Gd in zip(net.beta[j], G_d[j])]
              for j in range(J)]

    g_psi = np.zeros(grid.shape)
    if trace.input_kind == "grid":
        # s_k = h^d sum_i g_i psi_{i - k*stride}: correlate g with the
        # upsampled coefficient gradient, summed over the batch
        stride = grid.n // n
        axes = tuple(range(-dim, 0))
        up = np.zeros(trace.g.shape)
        up[(Ellipsis,) + tuple(slice(None, None, stride) for _ in axes)] = G_s[J][0]
        spec = np.sum(np.fft.fftn(trace.g, axes=axes) * np.conj(np.fft.fftn(up, axes=axes)),
                      axis=0)
        g_psi = grid.h ** dim * np.fft.ifftn(spec).real

    return Gradients(g_alpha, g_beta, g_a, g_b, g_taus, g_psi)


def _truncate_support(values, S):
    flat = np.abs(values).ravel()
    if np.count_nonzero(flat) <= S:
        return None
    order = np.argsort(-flat, kind="stable")
    out = np.zeros_like(values).ravel()
    keep = order[:S]
    out[keep] = values.ravel()[keep]
    return out.reshape(values.shape)


def project_constraints(net, params=None):
    """Project the net onto the constrained class; feasible nets pass through.

    Filter supports are truncated to the ``S_filter`` largest-magnitude taps
    (ties keep the lowest flattened index), filter norms and the psi
    quadrature norm are radially rescaled to their caps, thresholds are
    clamped to [0, kappa_tau].  phi is left untouched.  Idempotent.
    """
    params = params or net.class_params
    if params is None:
        raise ValueError("no class parameters given or stored on the net")
    out = net.copy()

    def fix(f):
        truncated = _truncate_support(f.values, params.S_filter)
        if truncated is not None:
            f = DTensor(truncated, f.lo)
        nrm = l2_norm(f)
        if nrm > 1.0 + _NORM_TOL:
            f = DTensor(f.values * ((1.0 - _NORM_TOL) / nrm), f.lo)
        return f

    out.alpha = [fix(f) for f in out.alpha]
    out.a = [fix(f) for f in out.a]
    out.beta = [[fix(f) for f in g] for g in out.beta]
    out.b = [[fix(f) for f in g] for g in out.b]
    out.taus = np.clip(out.taus, 0.0, params.kappa_tau)
    qn = quadrature_norm(out.psi, out.grid)
    if qn > params.C_psi_L2 * (1.0 + _NORM_TOL):
        out.psi = out.psi * (params.C_psi_L2 * (1.0 - _NORM_TOL) / qn)
    out.class_params = params
    return out


def check_class_membership(net, params=None):
    """Report on the class constraints; the Sobolev cap uses a discrete proxy.

    Returns a dict with ``pass`` and a list of human-readable violations.
    The H^r cap is checked against the FFT-based Sobolev norm with 5%
    slack, the exact continuum norm being unavailable.
    """
    params = params or net.class_params
    if params is None:
        raise ValueError("no class parameters given or stored on the net")
    violations = []
    if params.r <= net.dim / 2:
        violations.append(f"r={params.r} must exceed d/2={net.dim / 2}")
    for name, j, e, f in net.filters():
        tag = f"{name}[{j}]" if e is None else f"{name}[{j}][{e}]"
        if np.count_nonzero(f.values) > params.S_filter:
            violations.append(f"{tag}: support exceeds S_filter={params.S_filter}")
        if not l2_norm(f) <= 1.0 + _NORM_TOL:  # NaN fails the test
            violations.append(f"{tag}: l2 norm {l2_norm(f):.6g} exceeds 1")
    for j, t in enumerate(net.taus):
        if not 0.0 <= t <= params.kappa_tau:
            violations.append(f"tau[{j}]={t:.6g} outside [0, {params.kappa_tau:.6g}]")
    qn = quadrature_norm(net.psi, net.grid)
    if not qn <= params.C_psi_L2 * (1.0 + _NORM_TOL):
        violations.append(f"psi L2 norm {qn:.6g} exceeds {params.C_psi_L2:.6g}")
    hr = sobolev_norm(net.psi, net.grid, params.r)
    if not hr <= params.C_psi_Hr * 1.05:
        violations.append(
            f"psi H^r proxy {hr:.6g} exceeds {params.C_psi_Hr:.6g} (with 5% slack)")
    return {"pass": not violations, "violations": violations}


def preset_wavelet_thresholding(M, J, taus, grid, boundary="periodic"):
    """Net whose forward pass is soft wavelet thresholding at depth J.

    Filters are the index-negated Daubechies analysis pair at every level,
    psi = phi = the sampled scaled father, and the attached class constants
    are the measured ones (psi cap exactly 1 for the identity operator).
    """
    return preset_wvd(identity_operator(grid), M, J, taus, boundary=boundary)


def preset_wvd(op, M, J, taus, boundary="periodic"):
    """Net computing the regularized inverse of a smoothing operator.

    Same filters as `preset_wavelet_thresholding`; psi is replaced by the
    vaguelette of ``op``, so the analysis layer of T f yields the wavelet
    coefficients of f.  Class constants are attached from the measured
    norms, floored at the prescribed values 2^{J beta} / a1 (L2) and
    2^{J (beta + r)} / a1 (H^r).
    """
    grid = op.grid
    taus = np.asarray(taus, dtype=float).reshape(-1)
    if taus.shape != (J,):
        raise ValueError("taus must have one entry per level")
    hr, grs = _reflected(daubechies_filters(M, grid.dim))
    psi = vaguelette(op, M, J)
    phi = sample_father_wavelet(M, J, grid.n, grid.dim)

    r = grid.dim // 2 + 1
    beta = float(op.beta)
    R = r + int(round(beta))
    c_l2 = max(2.0 ** (J * beta) / op.a1, quadrature_norm(psi, grid))
    c_hr = max(2.0 ** (J * (beta + r)) / op.a1, sobolev_norm(psi, grid, r))
    params = NetClassParams(
        r=r,
        R=R,
        S_filter=(2 * M) ** grid.dim,
        kappa_tau=max(float(np.max(taus, initial=0.0)), 1.0),
        C_psi_L2=c_l2,
        C_psi_Hr=c_hr,
    )
    return SUNet(
        J=J,
        dim=grid.dim,
        alpha=[hr.copy() for _ in range(J)],
        beta=[[g.copy() for g in grs] for _ in range(J)],
        a=[hr.copy() for _ in range(J)],
        b=[[g.copy() for g in grs] for _ in range(J)],
        taus=taus,
        psi=psi,
        phi=phi,
        grid=grid,
        boundary=boundary,
        M=M,
        class_params=params,
    )


def random_feasible_net(rng, J, dim, grid, boundary="periodic"):
    """Draw a random net satisfying its own attached class constraints.

    Distribution (documented because the randomized bound suites quote it):
    each filter has 2..4 taps per axis at offsets starting in [-2, 0], with
    entries i.i.d. standard normal rescaled to an l2 norm drawn uniformly
    from [0.5, 1.0]; psi is standard normal on the grid rescaled to unit
    quadrature norm; thresholds start at 0 (see `calibrate_thresholds`).
    """
    nd = 2 ** dim - 1

    def rf():
        if dim == 1:
            v = rng.standard_normal(int(rng.integers(2, 5)))
        else:
            t = int(rng.integers(2, 4))
            v = rng.standard_normal((t, t))
        v *= float(rng.uniform(0.5, 1.0)) / np.linalg.norm(v)
        lo = int(rng.integers(-2, 1))
        return DTensor(v, lo if dim == 1 else (lo, lo))

    psi = rng.standard_normal(grid.shape)
    psi /= quadrature_norm(psi, grid)
    phi = sample_father_wavelet(2, J, grid.n, dim)
    net = SUNet(
        J=J,
        dim=dim,
        alpha=[rf() for _ in range(J)],
        beta=[[rf() for _ in range(nd)] for _ in range(J)],
        a=[rf() for _ in range(J)],
        b=[[rf() for _ in range(nd)] for _ in range(J)],
        taus=np.zeros(J),
        psi=psi,
        phi=phi,
        grid=grid,
        boundary=boundary,
        M=2,
        class_params=None,
    )
    s_max = max(np.count_nonzero(f.values) for _, _, _, f in net.filters())
    net.class_params = NetClassParams(
        r=dim // 2 + 1,
        R=dim // 2 + 1,
        S_filter=s_max,
        kappa_tau=1.0,
        C_psi_L2=max(1.0, quadrature_norm(psi, grid)),
        C_psi_Hr=sobolev_norm(psi, grid, dim // 2 + 1),
    )
    return net


def calibrate_thresholds(net, x, rng, low=0.4, high=1.1):
    """Set per-level thresholds relative to the observed detail magnitudes.

    Runs one forward pass and sets tau_j = U(low, high) times the median
    absolute level-j detail coefficient, so both sides of the activation
    are exercised.  Updates kappa_tau to keep the net feasible.
    """
    _, trace = forward(net, x)
    taus = np.zeros(net.J)
    for j in range(net.J):
        sc = float(np.median([np.median(np.abs(t.values)) for t in trace.d[j]]))
        taus[j] = float(rng.uniform(low, high)) * max(sc, 1e-6)
    net.taus = taus
    if net.class_params is not None and taus.max(initial=0.0) > net.class_params.kappa_tau:
        net.class_params = NetClassParams(
            **{**net.class_params.to_dict(), "kappa_tau": float(taus.max()) * 1.5})
    return net


def _report_check(checks, quantity, level, channel, lhs, rhs):
    checks.append({
        "quantity": quantity,
        "level": level,
        "channel": channel,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "pass": bool(lhs <= rhs * (1.0 + 1e-8)),
    })


def verify_size_bounds(net, trace, c_max):
    """Check the per-level norm bounds of every trace tensor.

    With c = 2^{Jd/2} c_max: ||s_j|| <= c, ||d_je|| <= c, ||dbar|| <= ||d||,
    ||sbar_j|| <= (1 + 2^d j) c.  Returns a dict report with margins.
    """
    d, J = net.dim, net.J
    base = 2.0 ** (J * d / 2.0) * float(c_max)
    checks = []
    for j in range(J + 1):
        _report_check(checks, "s", j, None, l2_norm(trace.s[j]), base)
        rhs_bar = (1.0 + 2.0 ** d * j) * base
        _report_check(checks, "s_bar", j, None, l2_norm(trace.s_bar[j]), rhs_bar)
    for j in range(J):
        for e in range(net.n_detail):
            _report_check(checks, "d", j, e, l2_norm(trace.d[j][e]), base)
            _report_check(checks, "d_bar", j, e,
                          l2_norm(trace.d_bar[j][e]), l2_norm(trace.d[j][e]))
    return {"kind": "size", "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


def _max_abs_coefficients(net, x):
    if isinstance(x, DTensor):
        return float(np.max(np.abs(x.values)))
    return float(np.max(np.abs(first_layer(x, net.psi, net.J, net.grid).values)))


def verify_perturbation_bounds(net, target, delta, x):
    """Output change under a single-parameter perturbation vs its bound.

    ``target`` selects the perturbed parameter: ("alpha", j), ("a", j),
    ("beta", j, e), ("b", j, e), ("tau", j) or ("psi",).  ``delta`` is a
    DTensor for filters, a real for thresholds, a grid array for psi.
    Returns (lhs, rhs, pass).  The proof-side input size |<f, psi>| is
    stood in for by the max first-layer coefficient magnitude.
    """
    if isinstance(target, str):
        target = (target,)
    kind = target[0]
    d, J = net.dim, net.J
    pert = net.copy()
    norm_phi = quadrature_norm(net.phi, net.grid)
    scale = 2.0 ** (J * d / 2.0)

    if kind in ("alpha", "a", "beta", "b"):
        j = int(target[1])
        if not 0 <= j < J:
            raise ValueError("filter level out of range")
        if not isinstance(delta, DTensor) or delta.dim != d:
            raise ValueError("filter perturbations must be DTensors")
        if kind in ("alpha", "a"):
            group = getattr(pert, kind)
            group[j] = dt_add(group[j], delta)
            c_k = 1.0 + 2.0 ** d * j
        else:
            e = int(target[2])
            group = getattr(pert, kind)[j]
            if not 0 <= e < net.n_detail:
                raise ValueError("detail channel out of range")
            group[e] = dt_add(group[e], delta)
            c_k = 1.0
        rhs = c_k * l2_norm(delta) * norm_phi * scale * _max_abs_coefficients(net, x)
    elif kind == "tau":
        j = int(target[1])
        if not 0 <= j < J:
            raise ValueError("threshold level out of range")
        delta = float(delta)
        if net.taus[j] + delta < 0:
            raise ValueError("perturbed threshold must be nonnegative")
        pert.taus = pert.taus.copy()
        pert.taus[j] += delta
        rhs = scale * 2.0 ** d * norm_phi * abs(delta)
    elif kind == "psi":
        if isinstance(x, DTensor):
            raise ValueError("psi perturbation requires grid-sample input")
        delta = np.asarray(delta, dtype=float)
        if delta.shape != net.grid.shape:
            raise ValueError("psi perturbation must be sampled on the grid")
        pert.psi = pert.psi + delta
        c_in = float(np.max(np.abs(first_layer(x, delta, J, net.grid).values)))
        rhs = (1.0 + 2.0 ** d * J) * norm_phi * scale * c_in
    else:
        raise ValueError(f"unknown perturbation target {target!r}")

    out0, _ = forward(net, x)
    out1, _ = forward(pert, x)
    lhs = quadrature_norm(out0 - out1, net.grid)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-8))


def verify_net_distance_bound(f_net, g_net, x):
    """Output distance of two same-architecture nets vs the telescoped bound.

    The bound sums per-filter difference terms (weighted 1 + 2^d k on the
    smooth channels), a threshold term and an analysis-filter term.
    Returns (lhs, rhs, pass).
    """
    for attr in ("J", "dim", "boundary", "M"):
        if getattr(f_net, attr) != getattr(g_net, attr):
            raise ValueError(f"architecture mismatch: {attr}")
    if f_net.grid != g_net.grid:
        raise ValueError("architecture mismatch: grid")
    d, J = f_net.dim, f_net.J
    norm_phi = quadrature_norm(f_net.phi, f_net.grid)
    scale = 2.0 ** (J * d / 2.0)

    c_in = _max_abs_coefficients(f_net, x)
    filt = 0.0
    for k in range(J):
        w = 1.0 + 2.0 ** d * k
        filt += w * _diff_norm(f_net.alpha[k], g_net.alpha[k])
        filt += w * _diff_norm(f_net.a[k], g_net.a[k])
        for e in range(f_net.n_detail):
            filt += _diff_norm(f_net.beta[k][e], g_net.beta[k][e])
            filt += _diff_norm(f_net.b[k][e], g_net.b[k][e])
    rhs = norm_phi * scale * c_in * filt
    rhs += 2.0 ** d * scale * norm_phi * float(np.sum(np.abs(f_net.taus - g_net.taus)))
    if not isinstance(x, DTensor):
        dpsi = f_net.psi - g_net.psi
        c_dpsi = float(np.max(np.abs(first_layer(x, dpsi, J, f_net.grid).values)))
        rhs += (1.0 + 2.0 ** d * J) * norm_phi * scale * c_dpsi

    out_f, _ = forward(f_net, x)
    out_g, _ = forward(g_net, x)
    lhs = quadrature_norm(out_f - out_g, f_net.grid)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-8))


def _diff_norm(f, g):
    return l2_norm(dt_add(f, DTensor(-g.values, g.lo)))


def net_to_dict(net):
    """Self-describing plain-dict form of a net (JSON-ready)."""
    return {
        "format": "suniv-sunet-v1",
        "J": net.J,
        "dim": net.dim,
        "M": net.M,
        "boundary": net.boundary,
        "grid": {"dim": net.grid.dim, "n": net.grid.n},
        "alpha": [f.to_dict() for f in net.alpha],
        "beta": [[f.to_dict() for f in g] for g in net.beta],
        "a": [f.to_dict() for f in net.a],
        "b": [[f.to_dict() for f in g] for g in net.b],
        "taus": net.taus.tolist(),
        "psi": net.psi.tolist(),
        "phi": net.phi.tolist(),
        "class_params": net.class_params.to_dict() if net.class_params else None,
    }


def net_from_dict(d):
    if not isinstance(d, dict) or d.get("format") != "suniv-sunet-v1":
        raise ValueError("not a recognized network document")
    cp = d.get("class_params")
    return SUNet(
        J=d["J"],
        dim=d["dim"],
        alpha=[DTensor.from_dict(f) for f in d["alpha"]],
        beta=[[DTensor.from_dict(f) for f in g] for g in d["beta"]],
        a=[DTensor.from_dict(f) for f in d["a"]],
        b=[[DTensor.from_dict(f) for f in g] for g in d["b"]],
        taus=np.asarray(d["taus"], dtype=float),
        psi=np.asarray(d["psi"], dtype=float),
        phi=np.asarray(d["phi"], dtype=float),
        grid=Grid(d["grid"]["dim"], d["grid"]["n"]),
        boundary=d["boundary"],
        M=d["M"],
        class_params=NetClassParams.from_dict(cp) if cp else None,
    )


def save_net(net, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_dict(net), fh, sort_keys=True)
        fh.write("\n")


def load_net(path):
    doc = _read_json(path)
    try:
        return net_from_dict(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing or malformed network field: {exc!r}") from exc
