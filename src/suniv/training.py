"""Empirical risk minimization and Monte Carlo risk estimation.

Training is projected gradient descent over the constrained network class:
average the hand-derived sample gradients, step, project, and halve the step
size whenever the full empirical risk fails to decrease.  The stopping
target compares against a computable competitor, the thresholding preset
with universal thresholds, standing in for the unknown infimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .forward_model import (
    _draw_pairs,
    add_white_noise,
    apply,
    make_rng,
    operator_from_descriptor,
    quadrature_norm,
)
from .sunet import (
    _backward_batch,
    _check_finite,
    _fold,
    _forward_batch,
    preset_wavelet_thresholding,
    preset_wvd,
    project_constraints,
)


class NumericalFailure(RuntimeError):
    """Gradient evaluation produced non-finite values at some epoch."""

    def __init__(self, epoch, message):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    """Optimizer settings for `train_erm`.

    ``rho`` is the allowed slack against the preset reference risk;
    ``jitter`` adds a uniform perturbation of that magnitude to thresholds
    before differentiation (kink avoidance, off by default).
    """

    step_size: float = 0.25
    max_epochs: int = 100
    batch_size: int | None = None
    rho: float = 0.0
    halving_factor: float = 0.5
    seed: int = 0
    jitter: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.step_size < np.inf:
            raise ValueError("step_size must be positive and finite")
        if not 0.0 <= self.rho < np.inf:
            raise ValueError("rho must be nonnegative and finite")
        if not 0.0 < self.halving_factor < 1.0:
            raise ValueError("halving_factor must lie in (0, 1)")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.jitter < np.inf:
            raise ValueError("jitter must be nonnegative and finite")


@dataclass
class TrainHistory:
    """Per-epoch record of one training run.

    Row 0 describes the initial state.  ``best_risks`` is non-increasing;
    ``projections`` counts constraint projections applied.
    """

    risks: list = field(default_factory=list)
    best_risks: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    wall_clock: list = field(default_factory=list)
    projections: int = 0
    reference_risk: float = float("nan")
    stopped_reason: str = ""

    def append(self, risk, best, step, wall):
        self.risks.append(float(risk))
        self.best_risks.append(float(best))
        self.step_sizes.append(float(step))
        self.wall_clock.append(float(wall))

    @property
    def epochs(self):
        return len(self.risks) - 1

    def to_csv(self, path, timing=True):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,risk,step_size,wall_clock\n")
            for e, (r, s, w) in enumerate(
                    zip(self.risks, self.step_sizes, self.wall_clock)):
                wc = w if timing else 0.0
                fh.write(f"{e},{r!r},{s!r},{wc!r}\n")


def _squared_errors(net, Y, F):
    """Squared quadrature L2 error per (Y, F) pair, and the forward (output, trace)."""
    out, trace = _forward_batch(net, Y)
    grid = net.grid
    errs = grid.h ** grid.dim * np.sum((out - F) ** 2, axis=tuple(range(1, out.ndim)))
    return errs, (out, trace)


def _risk_and_fit(net, data):
    """`empirical_risk` and the (output, trace) pair behind it."""
    errs, fit = _squared_errors(net, data.Y, data.F)
    return float(np.sum(errs)), fit


def empirical_risk(net, data):
    """Sum over the training pairs of the squared quadrature L2 error."""
    if data.grid != net.grid:
        raise ValueError("training data grid does not match the net")
    return _risk_and_fit(net, data)[0]


def _lattice_spectrum(filt, shape):
    """|DFT|^2 of a small filter wrapped onto a periodic lattice."""
    return np.abs(np.fft.fftn(_fold(filt.values, filt.lo, shape[0]))) ** 2


def _fold_spectrum(S, factor):
    """Power spectrum after decimation by ``factor`` along every axis."""
    for ax in range(S.ndim):
        p = S.shape[ax] // factor
        S = np.moveaxis(S, ax, 0)
        S = S.reshape(factor, p, *S.shape[1:]).mean(axis=0)
        S = np.moveaxis(S, 0, ax)
    return S


def noise_level_stds(net, sigma):
    """Exact per-level noise standard deviations of the analysis cascade.

    Pure-noise observations have first-layer power spectrum
    sigma^2 h^d |psi_hat|^2, folded onto the depth-J lattice by decimation;
    each contracting step multiplies by the filter response and folds once
    more.  Returns (detail stds indexed by level, smooth-channel std),
    computed under the periodic model.
    """
    grid, J = net.grid, net.J
    S = sigma ** 2 * grid.h ** grid.dim * np.abs(np.fft.fftn(net.psi)) ** 2
    S = _fold_spectrum(S, grid.n // 2 ** J)
    detail = np.zeros(J)
    for j in range(J - 1, -1, -1):
        detail[j] = max(
            float(np.mean(S * _lattice_spectrum(b, S.shape)))
            for b in net.beta[j])
        S = _fold_spectrum(S * _lattice_spectrum(net.alpha[j], S.shape), 2)
    return np.sqrt(detail), float(np.sqrt(np.mean(S)))


def universal_preset(op, M, J, sigma, boundary="periodic"):
    """Thresholding preset with universal thresholds at noise level sigma.

    The identity operator gets the plain wavelet-thresholding preset,
    anything else the vaguelette preset.  Thresholds are universal per
    level: the exact cascaded noise std at that level (folded-spectrum
    computation, sigma-proportional) times sqrt(2 d (j+1) ln 2).  The
    count uses j+1 so that the coarsest detail channel is covered too;
    with the plain sqrt(2 d j ln 2) multiplier level 0 would never be
    thresholded, which is ruinous when the operator amplifies noise.
    """
    grid = op.grid
    if op.kind == "identity":
        base = preset_wavelet_thresholding(M, J, np.zeros(J), grid, boundary)
    else:
        base = preset_wvd(op, M, J, np.zeros(J), boundary=boundary)
    stds, _ = noise_level_stds(base, sigma)
    taus = stds * np.sqrt(
        2.0 * grid.dim * np.arange(1, J + 1) * np.log(2.0))
    if op.kind == "identity":
        return preset_wavelet_thresholding(M, J, taus, grid, boundary)
    return preset_wvd(op, M, J, taus, boundary=boundary)


def reference_preset(net, data):
    """The universal-threshold competitor matched to a training set."""
    op = operator_from_descriptor(data.op_desc, data.grid)
    return universal_preset(op, net.M, net.J, data.sigma, net.boundary)


def _grad_finite(g):
    arrays = [f.values for f in g.alpha + g.a]
    arrays += [f.values for lv in g.beta + g.b for f in lv]
    arrays += [g.taus, g.psi]
    return all(np.all(np.isfinite(a)) for a in arrays)


def _step(net, g, eta):
    out = net.copy()
    for t, s in zip(out.alpha + out.a, g.alpha + g.a):
        t.values -= eta * s.values
    for tl, sl in zip(out.beta + out.b, g.beta + g.b):
        for t, s in zip(tl, sl):
            t.values -= eta * s.values
    out.taus = out.taus - eta * g.taus
    out.psi = out.psi - eta * g.psi
    return out


def _mean_gradient(net, data, indices, epoch, rng, jitter, fit=None):
    """Mean loss gradient over ``data[indices]``.

    ``fit``, the (output, trace) pair of ``net`` on those samples, spares the
    forward pass unless jitter moves the thresholds.
    """
    grad_net = net
    if jitter > 0:
        grad_net = net.copy()
        grad_net.taus = np.maximum(
            0.0, grad_net.taus + rng.uniform(-jitter, jitter, net.J))
        fit = None
    Y, F = data.Y[indices], data.F[indices]
    out, trace = _forward_batch(grad_net, Y) if fit is None else fit
    grads = _backward_batch(grad_net, trace, out - F, 1.0 / len(Y))
    if not _grad_finite(grads):
        raise NumericalFailure(epoch, "non-finite gradient")
    return grads


def train_erm(init, data, params=None, cfg=None):
    """Projected gradient descent from ``init``; returns (best net, history).

    Stops once the best risk is within ``cfg.rho`` of the preset reference
    risk (the computable stand-in for the infimum), when the step size
    underflows, or when the epoch budget runs out.  The returned net is the
    best iterate, so its risk never exceeds the initial risk.
    """
    cfg = cfg or TrainConfig()
    params = params or init.class_params
    if params is None:
        raise ValueError("no class parameters given or stored on the init net")
    if data.grid != init.grid:
        raise ValueError("training data grid does not match the net")
    _check_finite(data.Y, "training observations Y")
    _check_finite(data.F, "training targets F")

    net = project_constraints(init, params)
    history = TrainHistory(projections=1)
    N = data.n_samples
    batch = min(cfg.batch_size or N, N)
    rng = make_rng(cfg.seed, (0x7124,))

    history.reference_risk = empirical_risk(reference_preset(net, data), data)
    # in full-batch mode ``fit`` is always the forward pass of the current net
    risk, fit = _risk_and_fit(net, data)
    best_risk, best_net = risk, net.copy()
    eta = cfg.step_size
    history.append(risk, best_risk, eta, 0.0)
    history.stopped_reason = "epochs_exhausted"

    for epoch in range(1, cfg.max_epochs + 1):
        if best_risk - history.reference_risk <= cfg.rho:
            history.stopped_reason = "target_reached"
            break
        t0 = time.perf_counter()
        if batch >= N:
            grads = _mean_gradient(net, data, slice(None), epoch, rng, cfg.jitter, fit)
            candidate = project_constraints(_step(net, grads, eta), params)
            history.projections += 1
            cand_risk, cand_fit = _risk_and_fit(candidate, data)
            if cand_risk <= risk:
                net, risk, fit = candidate, cand_risk, cand_fit
            else:
                eta *= cfg.halving_factor
        else:
            order = rng.permutation(N)
            for start in range(0, N, batch):
                chunk = order[start:start + batch]
                grads = _mean_gradient(net, data, chunk, epoch, rng, cfg.jitter)
                net = project_constraints(_step(net, grads, eta), params)
                history.projections += 1
            new_risk = empirical_risk(net, data)
            if new_risk > risk:
                eta *= cfg.halving_factor
            risk = new_risk
        if risk < best_risk:
            best_risk, best_net = risk, net.copy()
        history.append(risk, best_risk, eta, time.perf_counter() - t0)
        if eta < 1e-15:
            history.stopped_reason = "step_underflow"
            break
    else:
        if best_risk - history.reference_risk <= cfg.rho:
            history.stopped_reason = "target_reached"
    return best_net, history


def test_risk(net, op, prior, sigma, trials, rng):
    """Monte Carlo mean and standard error of the squared estimation error.

    Each trial draws f from the prior, observes apply(op, f) plus white
    noise at level sigma, and measures the squared quadrature L2 distance
    of the net output from f.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    Y, F = _draw_pairs(op, prior, sigma, trials, rng)
    errs, _ = _squared_errors(net, Y, F)
    return float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(trials))


test_risk.__test__ = False


def risk_bound_check(net, op, f, sigma, trials, rng):
    """Monte Carlo check of the conditional-risk bound for a fixed signal.

    Estimates h(f) = E_W ||F(Tf + sigma dW) - f||^2 over noise draws and
    compares against 2||f||^2 + 4 2^{Jd} ||psi||^2 (2^d J + 1)^2
    (||f||^2 C_T^2 + sigma^2), passing when the estimate stays below the
    bound plus three standard errors.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    grid = net.grid
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError("sample shape does not match grid")
    clean = np.broadcast_to(apply(op, f), (trials,) + grid.shape)
    Y = add_white_noise(clean, sigma, grid, rng)
    errs, _ = _squared_errors(net, Y, f)
    mean = float(errs.mean())
    se = float(errs.std(ddof=1) / np.sqrt(trials))
    f_sq = quadrature_norm(f, grid) ** 2
    psi_sq = quadrature_norm(net.psi, grid) ** 2
    d, J = net.dim, net.J
    rhs = 2.0 * f_sq + 4.0 * 2.0 ** (J * d) * psi_sq * (2.0 ** d * J + 1.0) ** 2 * (
        f_sq * op.C_T ** 2 + sigma ** 2)
    return {
        "lhs_mean": mean,
        "lhs_se": se,
        "rhs": rhs,
        "margin": rhs + 3.0 * se - mean,
        "pass": bool(mean <= rhs + 3.0 * se),
    }
