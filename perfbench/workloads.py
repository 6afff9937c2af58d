"""The four benchmark workloads, each driving suniv's public API.

A workload is built from the suniv package and a seed (its set-up), then
hands out op inputs by index.  ``call`` is the timed op: the calls into the
workload's top-level public functions and nothing else.  ``check`` runs
outside the timed window and returns an error message, or None when the op's
output is correct.  ``stats`` returns per-op counts that the traced run
aggregates.  All suniv calls go through module attributes at call time, so
the tracer's wrappers see them.
"""

import math

import numpy as np

ORACLE_TOL = 1e-10
GRAD_TOL = 1e-5


class Train1d:
    """The first epochs of full-batch ERM jobs at the ``sweep-n`` geometry.

    1-d, n=32, identity operator.  Each op is a job as the sample-size
    sweep's trained estimator makes it (calibrated random start, step and
    slack ``rho`` from the sweep config), cut at ``epochs``: real jobs at
    N=64 run for 100 or more epochs, too long for one op.
    """

    name = "train-1d"
    trace_ops = 3
    stream = 0xBE01
    J = 3
    epochs = 12

    def __init__(self, S, seed):
        self.S, self.seed = S, seed
        self.cfg = cfg = S.n_sweep_config()
        self.grid = S.Grid(cfg.d, cfg.grid_n)
        op = S.identity_operator(self.grid)
        prior = S.PriorParams(s=cfg.s, L=cfg.prior_L, J_max=cfg.prior_depth, M=cfg.prior_M)
        self.data = S.make_training_set(op, prior, cfg.sigma, cfg.N,
                                        S.make_rng(seed, (self.stream, 0)))
        rng = S.make_rng(seed, (self.stream, 1))
        self.calib_x = S.add_white_noise(S.apply(op, S.sample_prior(prior, self.grid, rng)),
                                         cfg.sigma, self.grid, rng)

    def args(self, i):
        S = self.S
        init = S.random_feasible_net(S.make_rng(self.seed, (self.stream, 2, i)), self.J,
                                     self.grid.dim, self.grid, "periodic")
        # calibrated as the trained estimator of the rate sweeps does
        S.calibrate_thresholds(init, self.calib_x, S.make_rng(self.seed, (self.stream, 3, i)),
                               low=0.1, high=0.4)
        ref = S.empirical_risk(S.reference_preset(init, self.data), self.data)
        cfg = S.TrainConfig(step_size=self.cfg.train_step, max_epochs=self.epochs,
                            batch_size=self.cfg.train_batch, rho=self.cfg.train_rho_frac * ref,
                            seed=self.seed)
        return init, cfg

    def call(self, args):
        init, cfg = args
        return self.S.train_erm(init, self.data, cfg=cfg)

    def items(self, args, out):
        return self.data.n_samples * out[1].epochs

    def check(self, args, out):
        net, hist = out
        best = hist.best_risks
        if any(b1 > b0 for b0, b1 in zip(best, best[1:])):
            return "best-risk curve increases"
        risk = self.S.empirical_risk(net, self.data)
        if not abs(risk - best[-1]) <= ORACLE_TOL * abs(best[-1]):
            return f"returned best risk {best[-1]!r} != recomputed {risk!r}"
        member = self.S.check_class_membership(net)
        if not member["pass"]:
            return "net leaves its class: " + "; ".join(member["violations"])
        return None

    def stats(self, args, out):
        steps = out[1].step_sizes
        accepted = sum(b == a for a, b in zip(steps, steps[1:]))
        return {"epochs": out[1].epochs, "accepted": accepted}


class RiskDeconv1d:
    """Monte Carlo test risk of the deconvolution presets (1-d, n=512)."""

    name = "risk-deconv-1d"
    trace_ops = 21
    stream = 0xBE02
    J = 6
    trials = 20

    def __init__(self, S, seed):
        self.S, self.seed = S, seed
        cfg = S.deconvolution_sweep_config()
        self.grid = S.Grid(cfg.d, cfg.grid_n)
        self.op = S.sobolev_operator(self.grid, cfg.op_L)
        self.prior = S.PriorParams(s=cfg.s, L=cfg.prior_L, J_max=cfg.prior_depth, M=cfg.prior_M)
        self.sigmas = cfg.sigmas
        self.nets = [S.universal_preset(self.op, cfg.M, self.J, s) for s in self.sigmas]
        self.bank = S.daubechies_filters(cfg.M, cfg.d)

    def args(self, i):
        k = i % len(self.sigmas)
        stream = (self.stream, 1, i)
        return k, stream, self.S.make_rng(self.seed, stream)

    def call(self, args):
        k, _, rng = args
        return self.S.test_risk(self.nets[k], self.op, self.prior, self.sigmas[k],
                                self.trials, rng)

    def items(self, args, out):
        return self.trials

    def check(self, args, out):
        S, grid = self.S, self.grid
        k, stream, _ = args
        mean, se = out
        if not (math.isfinite(mean) and math.isfinite(se) and mean > 0 and se >= 0):
            return f"bad risk estimate ({mean!r}, {se!r})"
        net, sigma = self.nets[k], self.sigmas[k]
        pick = S.make_rng(self.seed, stream + (1,)).integers(1, self.trials)
        sample = {0, int(pick)}
        # replay the op's draws in test_risk's order and compare the net with
        # the analyze-threshold-synthesize reference on the sampled ones
        rng = S.make_rng(self.seed, stream)
        for t in range(max(sample) + 1):
            f = S.sample_prior(self.prior, grid, rng)
            y = S.add_white_noise(S.apply(self.op, f), sigma, grid, rng)
            if t not in sample:
                continue
            got, _ = S.forward(net, y)
            coeffs = S.DTensor(S.grid_analysis(y, net.psi, self.J, grid), 0)
            ref = S.wavelet_threshold_oracle(coeffs, self.bank, net.taus)
            want = S.grid_synthesis(ref.values, net.phi, self.J, grid)
            err = S.quadrature_norm(got - want, grid) / (1.0 + S.quadrature_norm(want, grid))
            if not err <= ORACLE_TOL:
                return f"draw {t}: net differs from the oracle by {err:.3e}"
        return None

    def stats(self, args, out):
        return {}


class Grad2d:
    """``forward`` then ``backward`` of a 2-d deconvolution preset (n=64)."""

    name = "grad-2d"
    trace_ops = 5
    stream = 0xBE03
    J = 4
    M = 7
    sigma = 0.1
    pairs = 4

    def __init__(self, S, seed):
        self.S, self.seed = S, seed
        self.grid = S.Grid(2, 64)
        op = S.sobolev_operator(self.grid, 1)
        self.net = S.universal_preset(op, self.M, self.J, self.sigma)
        prior = S.PriorParams(s=1.0, L=1.0, J_max=3, M=self.M)
        data = S.make_training_set(op, prior, self.sigma, self.pairs,
                                   S.make_rng(seed, (self.stream, 0)))
        self.Y, self.F = data.Y, data.F

    def args(self, i):
        return i % self.pairs, i

    def call(self, args):
        k, _ = args
        out, trace = self.S.forward(self.net, self.Y[k])
        grads = self.S.backward(self.net, trace, out - self.F[k])
        return out, trace, grads

    def items(self, args, out):
        return 1

    def _loss(self, net, k):
        out, trace = self.S.forward(net, self.Y[k])
        return 0.5 * self.S.quadrature_norm(out - self.F[k], self.grid) ** 2, trace

    def _active(self, net, trace):
        return [np.abs(t.values) > net.taus[j] for j in range(net.J) for t in trace.d[j]]

    def check(self, args, out):
        """Directional derivative against a central difference.

        The step shrinks while the perturbed passes switch any detail
        coefficient across its threshold, where the loss has a kink.
        """
        k, i = args
        net, (_, trace, grads) = self.net, out
        rng = self.S.make_rng(self.seed, (self.stream, 1, i))
        groups = _arrays(net)
        dirs = [rng.standard_normal(a.shape) for a in groups]
        scale = math.sqrt(sum(float(np.sum(v * v)) for v in dirs))
        dirs = [v / scale for v in dirs]
        analytic = sum(float(np.sum(g * v)) for g, v in zip(_arrays(grads), dirs))
        gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in _arrays(grads)))
        base = self._active(net, trace)
        for eps in (1e-6, 1e-7, 1e-8):
            lp, tp = self._loss(_shifted(net, dirs, eps), k)
            lm, tm = self._loss(_shifted(net, dirs, -eps), k)
            if all(np.array_equal(a, b) and np.array_equal(a, c) for a, b, c in
                   zip(base, self._active(net, tp), self._active(net, tm))):
                break
        else:
            return "every finite-difference step crosses a threshold kink"
        numeric = (lp - lm) / (2.0 * eps)
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-3 * gnorm)
        if not rel <= GRAD_TOL:
            return f"directional derivative off by {rel:.3e} (eps {eps:g})"
        return None

    def stats(self, args, out):
        return {}


def _arrays(p):
    """Trainable arrays of a net, or of its Gradients, in one fixed order."""
    arrays = [f.values for f in p.alpha + p.a]
    arrays += [f.values for lv in p.beta + p.b for f in lv]
    return arrays + [p.taus, p.psi]


def _shifted(net, dirs, eps):
    out = net.copy()
    for a, v in zip(_arrays(out), dirs):
        a += eps * v
    return out


class StabilityZero:
    """Randomized inequality suites with zero-extension boundaries (1-d, n=64)."""

    name = "stability-zero"
    trace_ops = 8
    stream = 0xBE04
    # the CLI's default family mix 500:500:200:20, scaled down 20 times
    counts = {"size_trials": 25, "perturb_trials": 25, "distance_trials": 10,
              "risk_bound_instances": 1}

    def __init__(self, S, seed):
        self.S, self.seed = S, seed

    def args(self, i):
        op_seed = int(self.S.make_rng(self.seed, (self.stream, i)).integers(2 ** 31))
        return self.S.StabilityConfig(J=3, dim=1, grid_n=64, boundary="zero", seed=op_seed,
                                      **self.counts)

    def call(self, args):
        return self.S.stability_suite(args)

    def items(self, args, out):
        return sum(f["trials"] for f in out["families"].values())

    def check(self, args, out):
        if out["all_pass"]:
            return None
        failing = [name for name, f in out["families"].items() if not f["pass"]]
        return f"seed {args.seed}: inequality families failed: {failing}"

    def stats(self, args, out):
        return {"trials": self.items(args, out)}


WORKLOADS = {w.name: w for w in (Train1d, RiskDeconv1d, Grad2d, StabilityZero)}
