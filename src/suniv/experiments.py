"""Experiment harness: parameter selection, rate sweeps, stability suite, CLI.

The library modules expose the estimator and its training loop; this module
wires them into reproducible batch experiments.  Every command is driven by a
master seed plus an optional JSON config, emits CSV/JSON result files that
embed the derived parameters actually used, and returns a conventional exit
status (0 success, 1 experiment failure, 2 usage error).  Outputs are
byte-identical across runs with the same seed and config; wall-clock fields
are zeroed unless timing is explicitly requested.

Rates carry unknown constants, so the sweeps check log-log slopes with wide
tolerances and statistical monotonicity, never absolute risk values.
Sweep points and stability trials run one after another; every one draws
from its own counter-derived RNG stream, so no number depends on the order.
"""

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, replace

import numpy as np

from suniv.forward_model import (
    Grid,
    PriorParams,
    _read_json,
    add_white_noise,
    apply,
    grid_synthesis,
    identity_operator,
    load_training_set,
    make_rng,
    make_training_set,
    operator_from_descriptor,
    quadrature_norm,
    sample_prior,
    save_training_set,
    sobolev_operator,
)
from suniv.sunet import (
    calibrate_thresholds,
    forward,
    load_net,
    preset_wavelet_thresholding,
    random_feasible_net,
    save_net,
    verify_net_distance_bound,
    verify_perturbation_bounds,
    verify_size_bounds,
)
from suniv.tensor_ops import DTensor, l2_norm
from suniv.training import (
    NumericalFailure,
    TrainConfig,
    risk_bound_check,
    empirical_risk,
    reference_preset,
    test_risk,
    train_erm,
    universal_preset,
)
from suniv.wavelets import daubechies_filters, dwt_forward, dwt_inverse, wavelet_threshold_oracle

_M_CAP = 10  # largest tabulated filter order


class ExperimentFailure(RuntimeError):
    """A sweep or verification run failed its statistical contract."""


# ---------------------------------------------------------------------------
# parameter selection


@dataclass(frozen=True)
class SelectedParams:
    """Estimator hyperparameters derived from (s, beta, sigma, N, d, a1).

    ``J`` is the architecture depth; ``r`` and ``R = r + beta`` the
    smoothness orders behind the filter-support and psi-norm caps.
    ``S_prescribed``/``M_prescribed`` are what the derivation asks for;
    ``M`` is the order actually used (capped at the largest tabulated
    filter) and ``S_filter = (2M)^d`` its support.  ``rho`` is the training
    slack, and ``regime`` records whether the noise level or the sample
    size is the binding constraint (``gamma`` vs ``gamma_star``).  Any
    substitution made along the way is listed in ``notes``.
    """

    s: float
    beta: float
    sigma: float
    N: float
    d: int
    a1: float
    J: int
    r: float
    R: float
    S_prescribed: float
    S_filter: int
    M_prescribed: int
    M: int
    kappa_tau: float
    C_psi_L2: float
    C_psi_Hr: float
    rho: float
    gamma: float | None
    gamma_star: float
    regime: str
    notes: tuple

    def to_dict(self):
        d = asdict(self)
        d["notes"] = list(self.notes)
        return d


def _intify(v):
    return int(round(v)) if abs(v - round(v)) < 1e-9 else float(v)


def select_parameters(s, beta, sigma, N, d, a1=1.0):
    """Derive depth, caps, and training slack for a problem instance.

    With p = 2s + 2b + d and q = 2s + 2b + 3d/2, the depth is
    J = ceil(log2(min(sigma^-2, (sqrt N)^(p/q))) / p), floored at 1, and the
    slack is rho = max(sigma^(4s/p), (sqrt N)^(-2s/q) (ln N)^3).  kappa_tau
    and rho use natural logarithms of N; that choice is recorded in
    ``notes``.  The regime tag compares gamma = ln(sqrt N) / (-2 ln sigma)
    against q/p; sigma = 1 leaves gamma undefined and the tag indeterminate.
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if not 0 < s < math.inf:
        raise ValueError("s must be positive and finite")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if not 1 < N < math.inf:
        raise ValueError("N must exceed 1 and be finite")
    if not 0 <= beta < math.inf:
        raise ValueError("beta must be nonnegative and finite")
    if not 0 < a1 < math.inf:
        raise ValueError("a1 must be positive and finite")

    notes = ["kappa_tau and rho use natural logarithms of N"]
    p = 2.0 * s + 2.0 * beta + d
    q = 2.0 * s + 2.0 * beta + 1.5 * d
    limit = min(sigma ** -2.0, N ** (0.5 * p / q))
    J_raw = math.ceil(math.log2(limit) / p)
    J = max(1, J_raw)
    if J_raw < 1:
        notes.append("J floored at 1")

    r = max(float(s), float(J), d / 2.0 + 1.0)
    R = r + beta
    S_prescribed = _intify((12.0 * R + 1.0) ** d)
    M_prescribed = math.ceil((12.0 * R + 1.0) / 2.0)
    M = min(M_prescribed, _M_CAP)
    if M < M_prescribed:
        notes.append(f"filter order capped at {_M_CAP} (prescribed {M_prescribed})")
    S_filter = (2 * M) ** d
    if S_filter != S_prescribed:
        notes.append(f"filter support (2M)^d = {S_filter} used in place of prescribed {S_prescribed}")

    kappa_tau = sigma * 2.0 ** (J * beta) * math.log(N)
    C_psi_L2 = 2.0 ** (J * beta) / a1
    C_psi_Hr = 2.0 ** (J * (beta + r)) / a1
    rho = max(sigma ** (4.0 * s / p), N ** (-s / q) * math.log(N) ** 3)

    gamma_star = q / p
    if sigma == 1.0:
        gamma, regime = None, "indeterminate"
        notes.append("sigma = 1 leaves the noise-vs-sample tradeoff undefined")
    else:
        gamma = math.log(math.sqrt(N)) / (-2.0 * math.log(sigma))
        regime = "oversampled" if gamma >= gamma_star else "undersampled"

    return SelectedParams(
        s=float(s), beta=float(beta), sigma=float(sigma), N=float(N), d=int(d),
        a1=float(a1), J=int(J), r=float(r), R=float(R), S_prescribed=S_prescribed,
        S_filter=int(S_filter), M_prescribed=int(M_prescribed), M=int(M),
        kappa_tau=float(kappa_tau), C_psi_L2=float(C_psi_L2),
        C_psi_Hr=float(C_psi_Hr), rho=float(rho), gamma=gamma,
        gamma_star=float(gamma_star), regime=regime, notes=tuple(notes))


# ---------------------------------------------------------------------------
# rate sweeps


@dataclass
class SweepConfig:
    """Settings shared by the noise-level and sample-size sweeps.

    ``sigmas``/``Ns`` are the swept axes; ``sigma`` and ``N`` are the fixed
    values used by whichever axis is not being swept.  ``select_N`` feeds
    parameter selection during the noise sweep (the preset estimator has no
    training set there).  ``J_override`` pins the depth; otherwise the
    selected depth is used, capped by ``J_cap`` and the grid.  The
    ``train_*`` fields only matter for ``estimator="trained"``.
    """

    operator: str = "identity"
    op_L: int = 1
    s: float = 1.0
    d: int = 1
    grid_n: int = 256
    prior_L: float = 1.0
    prior_depth: int = 5
    prior_M: int = 3
    M: int = 3
    sigmas: tuple = tuple(2.0 ** -k for k in range(2, 9))
    Ns: tuple = (8, 32, 128)
    sigma: float = 0.25
    N: int = 64
    select_N: float = 1e12
    J_cap: int = 6
    J_override: int | None = None
    trials: int = 100
    estimator: str = "preset"
    train_epochs: int = 200
    train_step: float = 0.5
    train_batch: int | None = None
    train_rho_frac: float = 0.05
    boundary: str = "periodic"
    seed: int = 0

    def __post_init__(self):
        if self.operator not in ("identity", "sobolev"):
            raise ValueError("operator must be identity or sobolev")
        if self.estimator not in ("preset", "trained"):
            raise ValueError("estimator must be preset or trained")
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        self.sigmas = tuple(float(v) for v in self.sigmas)
        self.Ns = tuple(int(v) for v in self.Ns)
        if not all(0 < v < math.inf for v in (*self.sigmas, self.sigma)):
            raise ValueError("noise levels must be positive and finite")
        if any(v < 2 for v in self.Ns) or self.N < 1:
            raise ValueError("sample sizes must be >= 2")
        if self.J_cap < 1 or (self.J_override is not None and self.J_override < 1):
            raise ValueError("depths must be >= 1")
        if not 1 < self.select_N < math.inf:
            raise ValueError("select_N must exceed 1 and be finite")


def denoising_sweep_config(**overrides):
    """Preset-estimator noise sweep for direct observations (identity operator)."""
    return replace(SweepConfig(), **overrides)


def deconvolution_sweep_config(**overrides):
    """Preset-estimator noise sweep through a second-order smoothing operator.

    Heavier than the denoising defaults: order-7 filters keep the inversion
    system convergent at beta = 2, the shallow high-amplitude prior puts the
    per-level switch-on points inside the swept noise window, and the finer
    grid keeps the synthesis quadrature accurate.
    """
    cfg = SweepConfig(operator="sobolev", op_L=1, grid_n=512, M=7,
                      prior_L=16.0, prior_depth=2, prior_M=7)
    return replace(cfg, **overrides)


def n_sweep_config(**overrides):
    """Trained-estimator sample-size sweep at fixed noise level.

    The estimator trains from a random feasible start (order-2 filters), so
    the prior synthesizes with the same order and stays within the depth the
    override pins, letting the preset reference reconstruct it exactly.  The
    coarse grid keeps the synthesis layer's parameter count well below the
    largest sample size, and the tight slack trains close to the reference.
    """
    cfg = SweepConfig(grid_n=32, M=2, prior_depth=2, prior_M=2,
                      estimator="trained", J_override=3,
                      train_rho_frac=0.02, train_epochs=400)
    return replace(cfg, **overrides)


@dataclass
class SweepResult:
    """Outcome of one rate sweep.

    ``slope`` is the least-squares slope of log risk against the log axis
    value with a 95% confidence interval from the fit covariance; it stays
    None when fewer than four finite points are available.  ``points`` holds
    one record per axis value, each embedding the full derived-parameter
    report plus the depth and filter order actually used.  The preset
    comparison fields are filled by the sample-size sweep only.
    """

    axis: str
    values: tuple
    risks: tuple
    std_errors: tuple
    theoretical_exponent: float
    estimator: str
    points: tuple
    slope: float | None = None
    slope_stderr: float | None = None
    slope_ci: tuple | None = None
    monotone_2se: bool = True
    preset_risk: float | None = None
    preset_stderr: float | None = None
    endpoint_within_2se: bool | None = None
    trained_vs_preset_ratio: float | None = None
    notes: tuple = ()

    def to_dict(self):
        return _jsonable(asdict(self))

    def to_csv(self, path):
        cols = [self.axis, "risk", "std_error", "J", "M", "r", "R", "S_filter",
                "kappa_tau", "C_psi_L2", "C_psi_Hr", "rho", "regime"]
        lines = [",".join(cols)]
        for p in self.points:
            sel = p["selected"]
            lines.append(",".join([
                repr(p[self.axis]), repr(p["risk"]), repr(p["std_error"]),
                str(p["J"]), str(p["M"]), repr(sel["r"]), repr(sel["R"]),
                str(sel["S_filter"]), repr(sel["kappa_tau"]),
                repr(sel["C_psi_L2"]), repr(sel["C_psi_Hr"]),
                repr(sel["rho"]), sel["regime"]]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _operator(kind, L, grid):
    if kind == "identity":
        return identity_operator(grid)
    return sobolev_operator(grid, L)


def _fit_slope(xs, ys):
    coef, cov = np.polyfit(np.log(xs), np.log(ys), 1, cov=True)
    slope = float(coef[0])
    se = float(math.sqrt(max(cov[0, 0], 0.0)))
    return slope, se, (slope - 1.96 * se, slope + 1.96 * se)


def _monotone_2se(risks, ses):
    """Non-increase along the given order, up to twice the pooled std-error."""
    return all(risks[i + 1] <= risks[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
               for i in range(len(risks) - 1))


def _trained_estimator(cfg, op, data, J, init_stream, calib_x):
    """Train from a calibrated random start; returns (net, history record).

    Thresholds are calibrated low so every detail path starts active; the
    slack is ``train_rho_frac`` times the universal-threshold reference risk
    on the same data.
    """
    init = random_feasible_net(make_rng(cfg.seed, init_stream), J, cfg.d, op.grid, cfg.boundary)
    calibrate_thresholds(init, calib_x, make_rng(cfg.seed, init_stream + (1,)), low=0.1, high=0.4)
    ref = empirical_risk(reference_preset(init, data), data)
    tcfg = TrainConfig(step_size=cfg.train_step, max_epochs=cfg.train_epochs,
                       batch_size=cfg.train_batch, rho=cfg.train_rho_frac * ref,
                       seed=cfg.seed)
    net, hist = train_erm(init, data, cfg=tcfg)
    return net, {"train_epochs_run": hist.epochs, "train_stopped": hist.stopped_reason,
                 "train_best_risk": hist.best_risks[-1], "train_reference_risk": ref,
                 "train_rho": tcfg.rho}


def rate_sweep_sigma(cfg=None):
    """Test risk across noise levels; fits the log-log rate.

    Each point selects parameters at its own noise level (depth capped by
    ``J_cap`` and the grid), builds the configured estimator, and estimates
    the risk by Monte Carlo over fresh prior draws.  Raises
    ExperimentFailure when fewer than four finite points remain.
    """
    cfg = cfg or denoising_sweep_config()
    if len(cfg.sigmas) < 4:
        raise ExperimentFailure(f"slope fit needs at least 4 noise levels, got {len(cfg.sigmas)}")
    grid = Grid(cfg.d, cfg.grid_n)
    op = _operator(cfg.operator, cfg.op_L, grid)
    prior = PriorParams(s=cfg.s, L=cfg.prior_L, J_max=cfg.prior_depth, M=cfg.prior_M)

    def point(i):
        sigma = cfg.sigmas[i]
        sel = select_parameters(cfg.s, op.beta, sigma, cfg.select_N, cfg.d, op.a1)
        J = cfg.J_override or min(sel.J, cfg.J_cap, grid.max_level)
        if cfg.estimator == "preset":
            net, extra = universal_preset(op, cfg.M, J, sigma, cfg.boundary), {}
        else:
            data = make_training_set(op, prior, sigma, cfg.N, make_rng(cfg.seed, (0xA1, i, 0)))
            net, extra = _trained_estimator(cfg, op, data, J, (0xA1, i, 2), data.Y[0])
        mean, se = test_risk(net, op, prior, sigma, cfg.trials, make_rng(cfg.seed, (0xA1, i, 1)))
        rec = {"sigma": sigma, "J": int(J), "M": int(cfg.M), "risk": mean,
               "std_error": se, "trials": cfg.trials, "estimator": cfg.estimator,
               "selected": sel.to_dict()}
        rec.update(extra)
        return rec

    points = [point(i) for i in range(len(cfg.sigmas))]
    risks = [p["risk"] for p in points]
    ses = [p["std_error"] for p in points]
    finite = [i for i, r in enumerate(risks) if math.isfinite(r) and r > 0]
    if len(finite) < 4:
        raise ExperimentFailure(f"only {len(finite)} finite risk points; cannot fit a rate")
    slope, sse, ci = _fit_slope([points[i]["sigma"] for i in finite],
                                [risks[i] for i in finite])
    order = sorted(range(len(points)), key=lambda i: -points[i]["sigma"])
    theo = 4.0 * cfg.s / (2.0 * cfg.s + 2.0 * op.beta + cfg.d)
    return SweepResult(
        axis="sigma", values=cfg.sigmas, risks=tuple(risks), std_errors=tuple(ses),
        theoretical_exponent=theo, estimator=cfg.estimator, points=tuple(points),
        slope=slope, slope_stderr=sse, slope_ci=ci,
        monotone_2se=_monotone_2se([risks[i] for i in order], [ses[i] for i in order]),
        notes=("depth capped at min(selected J, J_cap, grid level); configured filter order used",))


def rate_sweep_N(cfg=None):
    """Test risk across training-set sizes at fixed noise level.

    Every point trains from the same random start (identical filters when
    the depth agrees) on its own synthesized data, so differences reflect
    the sample size.  The largest-size risk must stay within twice the
    pooled std-error of the smallest-size risk, and is compared against the
    universal-threshold preset on the same paired test draws.  The slope is
    informational and only fitted on four or more points.
    """
    cfg = cfg or n_sweep_config()
    if len(cfg.Ns) < 2:
        raise ExperimentFailure(f"sample-size sweep needs at least 2 sizes, got {len(cfg.Ns)}")
    Ns = tuple(sorted(cfg.Ns))
    grid = Grid(cfg.d, cfg.grid_n)
    op = _operator(cfg.operator, cfg.op_L, grid)
    prior = PriorParams(s=cfg.s, L=cfg.prior_L, J_max=cfg.prior_depth, M=cfg.prior_M)
    sigma = cfg.sigma

    # one synthetic observation shared by every point's threshold calibration
    rng0 = make_rng(cfg.seed, (0xA2, 6))
    y0 = add_white_noise(apply(op, sample_prior(prior, grid, rng0)), sigma, grid, rng0)
    sels = [select_parameters(cfg.s, op.beta, sigma, n_i, cfg.d, op.a1) for n_i in Ns]
    Js = [cfg.J_override or min(sel.J, cfg.J_cap, grid.max_level) for sel in sels]

    def point(i):
        N_i = Ns[i]
        if cfg.estimator == "trained":
            data = make_training_set(op, prior, sigma, N_i, make_rng(cfg.seed, (0xA2, i, 0)))
            net, extra = _trained_estimator(cfg, op, data, Js[i], (0xA2, 7), y0)
        else:
            net, extra = universal_preset(op, cfg.M, Js[i], sigma, cfg.boundary), {}
        mean, se = test_risk(net, op, prior, sigma, cfg.trials, make_rng(cfg.seed, (0xA2, i, 1)))
        rec = {"N": N_i, "J": int(Js[i]), "M": int(cfg.M), "sigma": sigma,
               "risk": mean, "std_error": se, "trials": cfg.trials,
               "estimator": cfg.estimator, "selected": sels[i].to_dict()}
        rec.update(extra)
        return rec

    points = [point(i) for i in range(len(Ns))]
    risks = [p["risk"] for p in points]
    ses = [p["std_error"] for p in points]
    if not all(math.isfinite(r) and r > 0 for r in risks):
        raise ExperimentFailure("non-finite risk in the sample-size sweep")

    # competitor on the largest size's eval stream: paired test draws
    preset_net = universal_preset(op, cfg.M, points[-1]["J"], sigma, cfg.boundary)
    pmean, pse = test_risk(preset_net, op, prior, sigma, cfg.trials,
                           make_rng(cfg.seed, (0xA2, len(Ns) - 1, 1)))
    endpoint = risks[-1] <= risks[0] + 2.0 * math.hypot(ses[0], ses[-1])
    if not endpoint:
        raise ExperimentFailure(
            "risk at the largest sample size exceeds the smallest-size risk "
            "by more than twice the pooled std-error")

    slope = sse = ci = None
    notes = ["sample-size slope is informational; endpoint and preset comparisons are the contract"]
    if len(cfg.Ns) >= 4:
        slope, sse, ci = _fit_slope([p["N"] for p in points], risks)
    else:
        notes.append("slope omitted: fewer than 4 points")
    theo = -cfg.s / (2.0 * cfg.s + 2.0 * op.beta + 1.5 * cfg.d)
    return SweepResult(
        axis="N", values=tuple(p["N"] for p in points), risks=tuple(risks),
        std_errors=tuple(ses), theoretical_exponent=theo, estimator=cfg.estimator,
        points=tuple(points), slope=slope, slope_stderr=sse, slope_ci=ci,
        monotone_2se=_monotone_2se(risks, ses), preset_risk=pmean, preset_stderr=pse,
        endpoint_within_2se=endpoint, trained_vs_preset_ratio=risks[-1] / pmean,
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# stability suite

_FAMILY_IDS = {"size": 1, "perturbation": 2, "distance": 3, "risk_bound": 4}
_PERTURB_TARGETS = ("alpha", "a", "beta", "b", "tau", "psi")


@dataclass
class StabilityConfig:
    """Trial counts and instance geometry for the randomized inequality suite."""

    size_trials: int = 500
    perturb_trials: int = 500
    distance_trials: int = 200
    risk_bound_instances: int = 20
    risk_bound_draws: int = 40
    J: int = 3
    dim: int = 1
    grid_n: int = 64
    boundary: str = "periodic"
    seed: int = 0

    def __post_init__(self):
        counts = (self.size_trials, self.perturb_trials, self.distance_trials,
                  self.risk_bound_instances)
        if any(c < 0 for c in counts):
            raise ValueError("trial counts must be nonnegative")
        if self.risk_bound_draws < 2:
            raise ValueError("risk_bound_draws must be >= 2")
        if self.J < 2:
            raise ValueError("J must be >= 2")

    def geometry(self):
        """The fields a serialized instance needs to be replayed."""
        return {"J": self.J, "dim": self.dim, "grid_n": self.grid_n,
                "boundary": self.boundary, "risk_bound_draws": self.risk_bound_draws}


def _stability_trial(family, index, seed, geo):
    """Run one randomized inequality check; returns (lhs, rhs, ok).

    Deterministic in (family, index, seed, geometry): the RNG stream is
    derived from the family id and trial index, so a serialized worst
    instance replays to bit-identical sides.
    """
    rng = make_rng(seed, (_FAMILY_IDS[family], index))
    dim, J = geo["dim"], geo["J"]
    grid = Grid(dim, geo["grid_n"])
    boundary = geo["boundary"]

    if family == "size":
        depth = J - index % 2
        net = random_feasible_net(rng, depth, dim, grid, boundary)
        if index % 3 == 0:
            x = rng.standard_normal(grid.shape)
        else:
            x = DTensor(rng.standard_normal((2 ** depth,) * dim), 0)
        calibrate_thresholds(net, x, rng)
        _, trace = forward(net, x)
        c_max = float(np.max(np.abs(trace.s[depth].values)))
        report = verify_size_bounds(net, trace, c_max)
        worst = min(report["checks"], key=lambda c: c["rhs"] - c["lhs"])
        return worst["lhs"], worst["rhs"], report["all_pass"]

    if family == "perturbation":
        net = random_feasible_net(rng, J, dim, grid, boundary)
        x = rng.standard_normal(grid.shape)
        calibrate_thresholds(net, x, rng)
        kind = _PERTURB_TARGETS[index % 6]
        j = int(rng.integers(J))
        if kind in ("alpha", "a"):
            target = (kind, j)
            delta = DTensor(rng.standard_normal((3,) * dim) * 0.3, int(rng.integers(-2, 1)))
        elif kind in ("beta", "b"):
            target = (kind, j, int(rng.integers(2 ** dim - 1)))
            delta = DTensor(rng.standard_normal((3,) * dim) * 0.3, int(rng.integers(-2, 1)))
        elif kind == "tau":
            target = ("tau", j)
            delta = float(rng.uniform(0.0, net.taus[j] + 0.2))
        else:
            target = ("psi",)
            delta = rng.standard_normal(grid.shape) * 0.1
        return verify_perturbation_bounds(net, target, delta, x)

    if family == "distance":
        f_net = random_feasible_net(rng, J, dim, grid, boundary)
        g_net = random_feasible_net(rng, J, dim, grid, boundary)
        g_net.phi = f_net.phi.copy()
        if index % 2:
            x = rng.standard_normal(grid.shape)
        else:
            x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
        calibrate_thresholds(f_net, x, rng)
        calibrate_thresholds(g_net, x, rng)
        return verify_net_distance_bound(f_net, g_net, x)

    if family == "risk_bound":
        sigma = 0.1 if index % 2 == 0 else 1.0
        net = random_feasible_net(rng, J, dim, grid, boundary)
        calibrate_thresholds(net, DTensor(rng.standard_normal((2 ** J,) * dim), 0), rng)
        prior = PriorParams(s=1.0, L=1.0, J_max=2)
        f = sample_prior(prior, grid, rng)
        res = risk_bound_check(net, identity_operator(grid), f, sigma, geo["risk_bound_draws"], rng)
        return res["lhs_mean"], res["rhs"] + 3.0 * res["lhs_se"], res["pass"]

    raise ValueError(f"unknown stability family {family!r}")


def stability_suite(cfg=None):
    """Randomized verification of every proved inequality; returns a report.

    Families: layer-size bounds, single-parameter perturbation bounds, the
    whole-net distance bound, and the Monte Carlo conditional-risk bound.
    Each family's worst-margin instance is embedded in replayable form.
    """
    cfg = cfg or StabilityConfig()
    geo = cfg.geometry()
    counts = {"size": cfg.size_trials, "perturbation": cfg.perturb_trials,
              "distance": cfg.distance_trials, "risk_bound": cfg.risk_bound_instances}
    families = {}
    for family, trials in counts.items():
        outcomes = [_stability_trial(family, i, cfg.seed, geo) for i in range(trials)]
        passes = sum(bool(ok) for _, _, ok in outcomes)
        worst = worst_margin = None
        for index, (lhs, rhs, ok) in enumerate(outcomes):
            margin = rhs - lhs
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
                worst = {"format": "suniv-stability-instance-v1", "family": family,
                         "seed": cfg.seed, "index": index, "config": dict(geo),
                         "lhs": lhs, "rhs": rhs, "pass": bool(ok)}
        families[family] = {"trials": trials, "passes": passes,
                            "pass": passes == trials, "worst_margin": worst_margin,
                            "worst_instance": worst}
    return {"format": "suniv-stability-report-v1", "seed": cfg.seed,
            "config": asdict(cfg), "families": families,
            "all_pass": all(f["pass"] for f in families.values())}


def replay_instance(record):
    """Re-run a serialized stability trial; lhs/rhs reproduce bit-for-bit."""
    if not isinstance(record, dict) or record.get("format") != "suniv-stability-instance-v1":
        raise ValueError("not a stability instance record")
    try:  # the trial reads the record's config, so its KeyError/TypeError are the record's
        family, index = record["family"], int(record["index"])
        lhs, rhs, ok = _stability_trial(family, index, int(record["seed"]), record["config"])
        matches = bool(lhs == record["lhs"] and rhs == record["rhs"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"stability instance record: missing or malformed field: {exc!r}") from exc
    return {"family": family, "index": index, "lhs": lhs, "rhs": rhs, "pass": bool(ok),
            "matches_record": matches}


# ---------------------------------------------------------------------------
# oracle cross-checks


def oracle_check(seed=0, roundtrip_trials=40, oracle_trials=20):
    """Cross-check the numerical core against reference computations.

    Round trips multilevel analysis/synthesis on random coefficient tensors
    across filter orders and dimensions, then compares the layered estimator
    against the direct analyze-threshold-synthesize reference on both the
    coefficient and grid-sample paths.
    """
    tol = 1e-10
    worst_rt = 0.0
    for t in range(roundtrip_trials):
        rng = make_rng(seed, (0xC, 0, t))
        M = 1 + t % 5
        dim = 1 if t % 2 == 0 else 2
        levels = 4 if dim == 1 else 2
        x = DTensor(rng.standard_normal((2 ** (levels + 1),) * dim), 0)
        bank = daubechies_filters(M, dim)
        back = dwt_inverse(dwt_forward(x, bank, levels), bank)
        err = float(np.max(np.abs(back.values - x.values))) / (1.0 + l2_norm(x))
        worst_rt = max(worst_rt, err)

    worst_or = 0.0
    for t in range(oracle_trials):
        rng = make_rng(seed, (0xC, 1, t))
        dim = 1 if t % 3 else 2
        M = 1 + t % 5 if dim == 1 else 1 + t % 3
        J = 3 if dim == 1 else 2
        grid = Grid(dim, 32 if dim == 1 else 16)
        taus = rng.uniform(0.0, 0.6, J)
        net = preset_wavelet_thresholding(M, J, taus, grid)
        bank = daubechies_filters(M, dim)
        if t % 2:
            x = DTensor(rng.standard_normal((2 ** J,) * dim), 0)
            _, trace = forward(net, x)
            oracle = wavelet_threshold_oracle(x.copy(), bank, taus)
            err = float(np.max(np.abs(trace.s_bar[J].values - oracle.values))) / (1.0 + l2_norm(x))
        else:
            g = rng.standard_normal(grid.shape)
            out, trace = forward(net, g)
            oracle = wavelet_threshold_oracle(trace.s[J].copy(), bank, taus)
            expected = grid_synthesis(oracle.values, net.phi, J, grid)
            err = quadrature_norm(out - expected, grid) / (1.0 + quadrature_norm(expected, grid))
        worst_or = max(worst_or, err)

    report = {
        "format": "suniv-oracle-report-v1", "seed": seed,
        "roundtrip": {"trials": roundtrip_trials, "max_rel_error": worst_rt,
                      "tolerance": tol, "pass": worst_rt <= tol},
        "threshold_oracle": {"trials": oracle_trials, "max_rel_error": worst_or,
                             "tolerance": tol, "pass": worst_or <= tol},
    }
    report["pass"] = report["roundtrip"]["pass"] and report["threshold_oracle"]["pass"]
    return report


# ---------------------------------------------------------------------------
# CLI


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _dumps(obj):
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(_dumps(obj) + "\n")


def _ensure_out(ns):
    os.makedirs(ns.out, exist_ok=True)
    return ns.out


def _elapsed(ns, t0):
    return time.perf_counter() - t0 if ns.timing else 0.0


def _prior_from_flags(ns):
    return PriorParams(s=ns.s, L=ns.prior_l, J_max=ns.prior_depth, M=ns.prior_m)


def _config_from(ns, base):
    """``base`` with the seed, the boundary and each field whose flag has a value."""
    fields = {f.config_field(ns.command): getattr(ns, f.dest) for f in _FLAGS
              if f.config_field(ns.command) and getattr(ns, f.dest, None) is not None}
    return replace(base, seed=ns.seed, boundary=ns.boundary, **fields)


def _cmd_params(ns):
    sel = select_parameters(ns.s, ns.beta, ns.sigma, ns.n, ns.d, ns.a1)
    payload = {"command": "params", **sel.to_dict()}
    print(_dumps(payload))
    _write_json(os.path.join(_ensure_out(ns), "params.json"), payload)
    return 0


def _cmd_gen_data(ns):
    outdir = _ensure_out(ns)
    t0 = time.perf_counter()
    grid = Grid(ns.d, ns.grid_n)
    op = _operator(ns.operator, ns.op_l, grid)
    prior = _prior_from_flags(ns)
    ts = make_training_set(op, prior, ns.sigma, ns.n_samples, make_rng(ns.seed, (0xD0,)))
    ts.seed = ns.seed
    name = "training_set.npz" if ns.binary else "training_set.json"
    path = os.path.join(outdir, name)
    save_training_set(ts, path)
    meta = {"command": "gen-data", "seed": ns.seed, "file": name,
            "n_samples": ns.n_samples, "sigma": ns.sigma,
            "grid": {"dim": grid.dim, "n": grid.n}, "operator": ts.op_desc,
            "prior": prior.descriptor(), "elapsed_seconds": _elapsed(ns, t0)}
    _write_json(os.path.join(outdir, "gen_data.json"), meta)
    print(f"wrote {ns.n_samples} samples -> {path}")
    return 0


def _cmd_train(ns):
    outdir = _ensure_out(ns)
    t0 = time.perf_counter()
    if ns.data:
        data = load_training_set(ns.data)
    else:
        grid = Grid(ns.d, ns.grid_n)
        data = make_training_set(_operator(ns.operator, ns.op_l, grid), _prior_from_flags(ns),
                                 ns.sigma, ns.n_samples, make_rng(ns.seed, (0xD0,)))
    grid = data.grid
    op = operator_from_descriptor(data.op_desc, grid)
    sel = select_parameters(ns.s, op.beta, data.sigma, max(data.n_samples, 2), grid.dim, op.a1)
    J = ns.j or min(sel.J, 6, grid.max_level)

    if ns.init == "preset":
        init = universal_preset(op, ns.m, J, data.sigma, ns.boundary)
    else:
        rng = make_rng(ns.seed, (0xD1,))
        init = random_feasible_net(rng, J, grid.dim, grid, ns.boundary)
        calibrate_thresholds(init, data.Y[0], rng, low=0.1, high=0.4)
    ref = empirical_risk(reference_preset(init, data), data)
    tcfg = TrainConfig(step_size=ns.step, max_epochs=ns.epochs, batch_size=ns.batch,
                       rho=ns.rho_frac * ref, seed=ns.seed, jitter=ns.jitter)
    net, hist = train_erm(init, data, cfg=tcfg)

    save_net(net, os.path.join(outdir, "model.json"))
    hist.to_csv(os.path.join(outdir, "train_history.csv"), timing=ns.timing)
    summary = {"command": "train", "seed": ns.seed, "boundary": ns.boundary,
               "init": ns.init, "J": int(J), "M": int(init.M),
               "n_samples": data.n_samples, "sigma": data.sigma,
               "epochs_run": hist.epochs, "stopped_reason": hist.stopped_reason,
               "initial_risk": hist.risks[0], "best_risk": hist.best_risks[-1],
               "reference_risk": ref, "rho": tcfg.rho,
               "projections": hist.projections, "selected": sel.to_dict(),
               "elapsed_seconds": _elapsed(ns, t0)}
    _write_json(os.path.join(outdir, "train_summary.json"), summary)
    print(f"trained {hist.epochs} epochs ({hist.stopped_reason}); "
          f"best risk {hist.best_risks[-1]:.6g}, reference {ref:.6g}")
    return 0


def _cmd_eval(ns):
    outdir = _ensure_out(ns)
    t0 = time.perf_counter()
    net = load_net(ns.model)
    op = _operator(ns.operator, ns.op_l, net.grid)
    prior = _prior_from_flags(ns)
    mean, se = test_risk(net, op, prior, ns.sigma, ns.trials, make_rng(ns.seed, (0xD2,)))
    payload = {"command": "eval", "seed": ns.seed, "model": os.path.basename(ns.model),
               "operator": op.descriptor(), "prior": prior.descriptor(),
               "sigma": ns.sigma, "trials": ns.trials,
               "risk_mean": mean, "risk_std_error": se,
               "elapsed_seconds": _elapsed(ns, t0)}
    _write_json(os.path.join(outdir, "eval.json"), payload)
    print(f"test risk {mean:.6g} +/- {se:.3g} over {ns.trials} draws")
    return 0


def _cmd_sweep(ns):
    outdir = _ensure_out(ns)
    t0 = time.perf_counter()
    if ns.command == "sweep-n":
        cfg, runner = _config_from(ns, n_sweep_config()), rate_sweep_N
    elif ns.preset == "denoising":
        cfg, runner = _config_from(ns, denoising_sweep_config()), rate_sweep_sigma
    else:
        cfg, runner = _config_from(ns, deconvolution_sweep_config()), rate_sweep_sigma
    result = runner(cfg)
    stem = ns.command.replace("-", "_")
    payload = {"command": ns.command, "seed": ns.seed,
               "config": _jsonable(asdict(cfg)), "result": result.to_dict(),
               "elapsed_seconds": _elapsed(ns, t0)}
    _write_json(os.path.join(outdir, f"{stem}.json"), payload)
    result.to_csv(os.path.join(outdir, f"{stem}.csv"))
    slope = "n/a" if result.slope is None else f"{result.slope:.4f}"
    print(f"{result.axis} sweep: slope {slope} (theory {result.theoretical_exponent:.4f}), "
          f"monotone within 2 se: {result.monotone_2se}")
    return 0


def _stability_table(report):
    lines = [f"{'family':<14}{'trials':>8}{'passes':>8}  worst margin"]
    for name, fam in report["families"].items():
        wm = "-" if fam["worst_margin"] is None else f"{fam['worst_margin']:.6g}"
        lines.append(f"{name:<14}{fam['trials']:>8}{fam['passes']:>8}  {wm}")
    lines.append(f"all pass: {'yes' if report['all_pass'] else 'NO'}")
    return "\n".join(lines)


def _cmd_stability(ns):
    outdir = _ensure_out(ns)
    if ns.replay:
        result = replay_instance(_read_json(ns.replay))
        print(_dumps(result))
        _write_json(os.path.join(outdir, "replay.json"), result)
        return 0 if result["pass"] else 1
    report = stability_suite(_config_from(ns, StabilityConfig()))
    _write_json(os.path.join(outdir, "stability.json"), report)
    print(_stability_table(report))
    return 0 if report["all_pass"] else 1


def _cmd_oracle_check(ns):
    outdir = _ensure_out(ns)
    report = oracle_check(ns.seed, ns.roundtrip_trials, ns.oracle_trials)
    _write_json(os.path.join(outdir, "oracle_check.json"), report)
    print(f"roundtrip max rel error {report['roundtrip']['max_rel_error']:.3e}; "
          f"oracle max rel error {report['threshold_oracle']['max_rel_error']:.3e}; "
          f"pass: {report['pass']}")
    return 0 if report["pass"] else 1


_COMMANDS = {
    "params": (_cmd_params, "derive estimator hyperparameters"),
    "gen-data": (_cmd_gen_data, "synthesize a training set"),
    "train": (_cmd_train, "fit a net by projected gradient descent"),
    "eval": (_cmd_eval, "Monte Carlo test risk of a saved net"),
    "sweep-sigma": (_cmd_sweep, "risk rate across noise levels"),
    "sweep-n": (_cmd_sweep, "risk across training-set sizes"),
    "stability": (_cmd_stability, "randomized inequality suite"),
    "oracle-check": (_cmd_oracle_check,
                     "transform round trips and reference-estimator equivalence"),
}
_CONFIG_COMMANDS = ("sweep-sigma", "sweep-n", "stability")  # build a Sweep/StabilityConfig


def _finite(text):
    """The type of every float flag: a number that is neither nan nor inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


class _Flag(namedtuple("_Flag", "name cmds type default choices nargs required field help metavar",
                       defaults=(None, None, None, None, (), None, None, None))):
    """One CLI flag, for every subcommand in ``cmds``; ``type`` None is a string, bool a switch.

    ``field`` is the SweepConfig/StabilityConfig field the flag fills, a dict
    by subcommand where the names differ.
    """

    dest = property(lambda self: self.name[2:].replace("-", "_"))

    def config_field(self, command):
        field = self.field.get(command) if isinstance(self.field, dict) else self.field
        return field if command in _CONFIG_COMMANDS else None

    def argparse_kwargs(self, command):
        """A flag with a config field defaults to None, so the base config's value stands."""
        required = command in self.required
        kwargs = {"default": None if required or self.config_field(command) else self.default,
                  "help": self.help}
        if self.type is bool:
            return {**kwargs, "action": "store_true"}
        return {**kwargs, "type": self.type, "choices": self.choices, "nargs": self.nargs,
                "required": required, "metavar": self.metavar}


_ALL = tuple(_COMMANDS)
_SWEEPS = ("sweep-sigma", "sweep-n")
_TRAIN = ("train", *_SWEEPS)
_MODEL = ("gen-data", "train", "eval", *_SWEEPS)
_FLAGS = (
    _Flag("--seed", _ALL, int, 0, help="master RNG seed"),
    _Flag("--config", _ALL, metavar="FILE",
          help="JSON object of this subcommand's flags (explicit flags win)"),
    _Flag("--out", _ALL, default=".", metavar="DIR", help="output directory"),
    _Flag("--boundary", _ALL, default="periodic", choices=("zero", "periodic"),
          help="detail-channel boundary mode: zero-extension or periodic"),
    _Flag("--timing", _ALL, bool, False,
          help="record real wall-clock times (default: zeros, byte-stable output)"),
    _Flag("--s", ("params", *_MODEL), _finite, 1.0, required=("params",), field="s",
          help="prior smoothness"),
    _Flag("--beta", ("params",), _finite, required=("params",), help="operator smoothing order"),
    _Flag("--sigma", ("params", "gen-data", "train", "eval", "sweep-n"), _finite, 0.25,
          required=("params",), field="sigma", help="noise level"),
    _Flag("--n", ("params",), _finite, required=("params",), help="training-set size"),
    _Flag("--d", ("params", *_MODEL), int, 1, choices=(1, 2), field="d", help="dimension"),
    _Flag("--a1", ("params",), _finite, 1.0, help="lower envelope constant of the operator"),
    _Flag("--operator", _MODEL, default="identity", choices=("identity", "sobolev"),
          field="operator"),
    _Flag("--op-l", _MODEL, int, 1, field="op_L", help="smoothing order parameter L"),
    _Flag("--grid-n", (*_MODEL, "stability"), int, 64, field="grid_n", help="grid points per axis"),
    _Flag("--prior-l", _MODEL, _finite, 1.0, field="prior_L", help="prior amplitude"),
    _Flag("--prior-depth", _MODEL, int, 2, field="prior_depth",
          help="deepest detail level of the prior"),
    _Flag("--prior-m", _MODEL, int, 3, field="prior_M", help="prior synthesis filter order"),
    _Flag("--n-samples", ("gen-data", "train"), int, 64),
    _Flag("--binary", ("gen-data",), bool, False,
          help="write a NumPy archive training_set.npz (arrays Y, F and a JSON header) "
               "instead of training_set.json"),
    _Flag("--data", ("train",), metavar="FILE",
          help="training-set file (otherwise synthesized from the model flags)"),
    _Flag("--init", ("train",), default="preset", choices=("preset", "random")),
    _Flag("--m", _TRAIN, int, 3, field="M", help="estimator filter order"),
    _Flag("--j", (*_TRAIN, "stability"), int, help="net depth (default: derived or the preset's)",
          field={"sweep-sigma": "J_override", "sweep-n": "J_override", "stability": "J"}),
    _Flag("--j-cap", _SWEEPS, int, field="J_cap"),
    _Flag("--epochs", _TRAIN, int, 100, field="train_epochs"),
    _Flag("--step", _TRAIN, _finite, 0.5, field="train_step"),
    _Flag("--batch", _TRAIN, int, field="train_batch"),
    _Flag("--rho-frac", _TRAIN, _finite, 0.05, field="train_rho_frac",
          help="slack as a fraction of the reference risk"),
    _Flag("--jitter", ("train",), _finite, 0.0),
    _Flag("--model", ("eval",), required=("eval",), metavar="FILE"),
    _Flag("--trials", ("eval", *_SWEEPS), int, 100, field="trials",
          help="Monte Carlo test draws per point"),
    _Flag("--estimator", _SWEEPS, choices=("preset", "trained"), field="estimator"),
    _Flag("--preset", ("sweep-sigma",), default="denoising",
          choices=("denoising", "deconvolution"), help="base configuration"),
    _Flag("--sigmas", ("sweep-sigma",), _finite, nargs="+", field="sigmas",
          help="noise levels to sweep"),
    _Flag("--select-n", ("sweep-sigma",), _finite, field="select_N",
          help="sample size fed to parameter selection"),
    _Flag("--n-train", ("sweep-sigma",), int, field="N",
          help="training-set size (trained estimator)"),
    _Flag("--n-list", ("sweep-n",), int, nargs="+", field="Ns", help="training-set sizes to sweep"),
    _Flag("--size-trials", ("stability",), int, field="size_trials"),
    _Flag("--perturb-trials", ("stability",), int, field="perturb_trials"),
    _Flag("--distance-trials", ("stability",), int, field="distance_trials"),
    _Flag("--risk-bound-instances", ("stability",), int, field="risk_bound_instances"),
    _Flag("--risk-bound-draws", ("stability",), int, field="risk_bound_draws"),
    _Flag("--dim", ("stability",), int, choices=(1, 2), field="dim"),
    _Flag("--replay", ("stability",), metavar="FILE",
          help="re-run a serialized worst-instance record"),
    _Flag("--roundtrip-trials", ("oracle-check",), int, 40),
    _Flag("--oracle-trials", ("oracle-check",), int, 20),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="suniv",
        description="Wavelet-structured estimators for noisy linear inverse problems on the torus.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        _add_flags(p, command, _FLAGS)
    return parser


def _add_flags(parser, command, flags):
    """Declare on ``parser`` each of ``flags`` that ``command`` takes."""
    for flag in flags:
        if command in flag.cmds:
            parser.add_argument(flag.name, **flag.argparse_kwargs(command))


def _config_tokens(flag, value):
    """argv tokens setting ``flag`` to a --config value; TypeError if the value does not fit."""
    if flag.type is bool:
        if not isinstance(value, bool):
            raise TypeError
        return [flag.name] * value
    values = value if flag.nargs else [value]
    if not isinstance(values, list) or not values or any(
            isinstance(v, (bool, list, dict)) for v in values):
        raise TypeError
    parsed = [(flag.type or str)(str(v)) for v in values]  # so the error names key and file
    if flag.choices and not all(v in flag.choices for v in parsed):
        raise TypeError
    return [flag.name, *map(str, values)] if flag.nargs else [f"{flag.name}={value}"]


def _config_argv(command, path):
    """The --config file's JSON object as argv tokens for ``command``'s own flags.

    A key is a flag name without its dashes (``grid_n`` or ``grid-n``); null
    leaves the default.  A key that is not a flag, or a bad value, raises ValueError.
    """
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON object")
    flags = {f.dest: f for f in _FLAGS if command in f.cmds and f.name != "--config"}
    argv = []
    for key, value in obj.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ValueError(f"{path}: key {key!r} is not a flag of {command}")
        try:
            argv += [] if value is None else _config_tokens(flag, value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"{path}: key {key!r} does not fit {flag.name}: {value!r}") from None
    return argv


def main(argv=None):
    """Entry point; returns the exit status instead of raising SystemExit."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in _COMMANDS:  # --config FILE: flag tokens before the user's, which win
            prepass = argparse.ArgumentParser(prog=f"suniv {argv[0]}", add_help=False)
            _add_flags(prepass, argv[0], [f for f in _FLAGS if f.name == "--config"])
            path = prepass.parse_known_args(argv[1:])[0].config
            if path is not None:
                argv[1:1] = _config_argv(argv[0], path)
        parser = _build_parser()
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            parser.error(f"put flags after the subcommand (got {argv[0].split('=')[0]})")
        ns = parser.parse_args(argv)
    except (OSError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return ns.func(ns)
    except (ExperimentFailure, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
