"""Data model: grids, smoothing operators, noise, and the wavelet prior.

The continuous model is the white-noise regression dY = Tf dx + sigma dW on
the torus [0, 1)^d, discretized on a uniform n^d grid.  T is a translation
invariant operator given by a Fourier symbol on the integer frequency
lattice (angular frequency xi = 2 pi k), applied by FFT multiplication.
White noise is realized per grid point with standard deviation
sigma * h^{-d/2}, so that quadrature inner products with unit-L2-norm test
functions have variance sigma^2.

Random functions are drawn from a Gaussian wavelet prior: coefficients
alpha_{j,k,e} ~ N(0, L^2 2^{j(d-2s)}) for detail levels j = 0..J_max plus a
single N(0, L^2) coarse coefficient, synthesized through the inverse DWT and
evaluated on the grid with the sampled father wavelet.  A batch of draws
takes its normals from one RNG call and is synthesized in one pass; each
draw reads its normals in the order a single draw does, so seeded outputs do
not depend on the batch size.
"""

import functools
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from suniv.tensor_ops import _Cache
from suniv.wavelets import _reflected, _synthesis, daubechies_filters, sample_father_wavelet

__all__ = [
    "Grid",
    "SmoothingOperator",
    "PriorParams",
    "TrainingSet",
    "SingularOperatorError",
    "identity_operator",
    "sobolev_operator",
    "custom_operator",
    "apply",
    "vaguelette",
    "vaguelette_biorthogonality_error",
    "add_white_noise",
    "sample_prior",
    "prior_second_moment",
    "make_training_set",
    "grid_synthesis",
    "grid_analysis",
    "quadrature_norm",
    "quadrature_inner",
    "make_rng",
    "operator_from_descriptor",
    "save_training_set",
    "load_training_set",
]


class SingularOperatorError(ValueError):
    """Raised when a Fourier symbol vanishes somewhere on the grid."""


def make_rng(seed, stream=()):
    """Counter-based Philox generator for a (seed, stream) pair.

    Distinct streams under the same seed are statistically independent and
    reproducible regardless of evaluation order.
    """
    if isinstance(stream, (int, np.integer)):
        stream = (int(stream),)
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(t) for t in stream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n points per axis on the torus [0, 1)^d."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 2")

    @property
    def h(self):
        return 1.0 / self.n

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def size(self):
        return self.n ** self.dim

    @property
    def max_level(self):
        return int(math.log2(self.n))

    def points(self):
        """Coordinate arrays of the grid points (1-d array, or two via meshgrid)."""
        x = np.arange(self.n) * self.h
        if self.dim == 1:
            return x
        return np.meshgrid(x, x, indexing="ij")


def quadrature_norm(f, grid):
    """Quadrature L2 norm h^{d/2} ||f||_2 of grid samples."""
    return float(np.sqrt(grid.h ** grid.dim * np.sum(np.asarray(f) ** 2)))


def quadrature_inner(f, g, grid):
    """Quadrature L2 inner product of two sample arrays."""
    return float(grid.h ** grid.dim * np.sum(np.asarray(f) * np.asarray(g)))


def _xi_squared(grid):
    k = np.fft.fftfreq(grid.n) * grid.n
    xi2 = (2.0 * math.pi * k) ** 2
    if grid.dim == 1:
        return xi2
    return xi2[:, None] + xi2[None, :]


def sobolev_norm(f, grid, r):
    """Discrete Sobolev H^r norm from trapezoidal Fourier coefficients.

    Computes sqrt(sum_k (1 + |xi_k|^2)^r |c_k|^2) with c_k = h^d fft(f)_k and
    xi_k = 2 pi k.  For r = 0 this equals quadrature_norm by Parseval.
    """
    c = grid.h ** grid.dim * np.fft.fftn(np.asarray(f, dtype=float))
    weights = (1.0 + _xi_squared(grid)) ** float(r)
    return float(math.sqrt(np.sum(weights * np.abs(c) ** 2)))


@dataclass
class SmoothingOperator:
    """Translation invariant operator with a real, even Fourier symbol.

    ``beta`` is the smoothing order; ``a1 <= a2`` are the envelope constants
    min/max over the grid of |symbol(xi)| (1 + |xi|^2)^{beta/2}, and ``C_T``
    the operator norm max |symbol|.
    """

    grid: Grid
    kind: str
    symbol: np.ndarray
    beta: float
    a1: float
    a2: float
    C_T: float
    L: int | None = None

    def descriptor(self):
        d = {"kind": self.kind, "beta": self.beta}
        if self.kind == "sobolev":
            d["L"] = self.L
        elif self.kind == "custom":
            d["symbol"] = self.symbol.tolist()
        return d


def _envelope_constants(symbol, beta, grid):
    w = np.abs(symbol) * (1.0 + _xi_squared(grid)) ** (beta / 2.0)
    return float(w.min()), float(w.max())


def identity_operator(grid):
    sym = np.ones(grid.shape)
    return SmoothingOperator(grid, "identity", sym, 0.0, 1.0, 1.0, 1.0)


def sobolev_operator(grid, L):
    """Symbol (1 + |xi|^2)^{-L}: a 2L-smoothing operator with a1 = a2 = 1."""
    if L < 1 or int(L) != L:
        raise ValueError("L must be a positive integer")
    sym = (1.0 + _xi_squared(grid)) ** (-float(L))
    return SmoothingOperator(grid, "sobolev", sym, 2.0 * L, 1.0, 1.0, 1.0, L=int(L))


def custom_operator(grid, symbol, beta):
    """Operator from an explicit FFT-ordered symbol array."""
    sym = np.asarray(symbol, dtype=float)
    if sym.shape != grid.shape:
        raise ValueError("symbol shape does not match grid")
    _check_invertible(sym)
    rev = tuple((-np.arange(m)) % m for m in sym.shape)
    mirrored = sym[np.ix_(*rev)] if grid.dim == 2 else sym[rev[0]]
    if not np.allclose(sym, mirrored, atol=1e-12 * np.max(np.abs(sym))):
        raise ValueError("symbol must be even: symbol(-xi) = symbol(xi)")
    a1, a2 = _envelope_constants(sym, beta, grid)
    return SmoothingOperator(grid, "custom", sym, float(beta), a1, a2, float(np.max(np.abs(sym))))


def _check_invertible(symbol):
    # only exact zeros are singular; heavily smoothing symbols get tiny but
    # stay invertible, and the division is checked for overflow at use sites
    if float(np.min(np.abs(symbol))) == 0.0:
        raise SingularOperatorError("operator symbol vanishes on the grid")


def operator_from_descriptor(desc, grid):
    kind = desc["kind"]
    if kind == "identity":
        return identity_operator(grid)
    if kind == "sobolev":
        return sobolev_operator(grid, desc["L"])
    if kind == "custom":
        return custom_operator(grid, np.asarray(desc["symbol"]), desc["beta"])
    raise ValueError(f"unknown operator kind {kind!r}")


def apply(op, f):
    """Apply the operator to grid samples by Fourier multiplication.

    Leading axes of ``f`` beyond the grid shape are batch axes.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[f.ndim - op.grid.dim:] != op.grid.shape:
        raise ValueError("sample shape does not match operator grid")
    axes = _spatial_axes(op.grid)
    return np.fft.ifftn(np.fft.fftn(f, axes=axes) * op.symbol, axes=axes).real


def vaguelette(op, M, J):
    """Grid samples of the vaguelette psi with T* psi = 2^{Jd/2} phi(2^J .).

    For the identity operator this is the sampled scaled father itself.
    """
    grid = op.grid
    _check_invertible(op.symbol)
    phi = sample_father_wavelet(M, J, grid.n, grid.dim)
    psi = np.fft.ifftn(np.fft.fftn(phi) / np.conj(op.symbol)).real
    if not np.all(np.isfinite(psi)):
        raise SingularOperatorError("symbol too small to invert in floating point")
    return psi


def vaguelette_biorthogonality_error(op, M, J):
    """max_{k,k'} |<T phi_{J,k',0}, psi_k> - delta_{k,k'}| by quadrature."""
    grid = op.grid
    psi = vaguelette(op, M, J)
    tphi = apply(op, sample_father_wavelet(M, J, grid.n, grid.dim))
    stride = grid.n // 2 ** J
    nk = 2 ** J
    err = 0.0
    shifts = [(k,) for k in range(nk)] if grid.dim == 1 else [
        (k1, k2) for k1 in range(nk) for k2 in range(nk)
    ]
    for kp in shifts:
        lhs = np.fft.ifftn(np.fft.fftn(np.roll(tphi, [s * stride for s in kp],
                                                axis=tuple(range(grid.dim))))
                           * np.conj(np.fft.fftn(psi))).real * grid.h ** grid.dim
        take = lhs[tuple(slice(None, None, stride) for _ in range(grid.dim))]
        want = np.zeros_like(take)
        want[kp] = 1.0
        err = max(err, float(np.max(np.abs(take - want))))
    return err


def add_white_noise(f, sigma, grid, rng):
    """Observation samples f + sigma h^{-d/2} eps with iid standard eps.

    Leading axes of ``f`` beyond the grid shape are batch axes.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[f.ndim - grid.dim:] != grid.shape:
        raise ValueError("sample shape does not match grid")
    scale = sigma * grid.h ** (-grid.dim / 2.0)
    return f + scale * rng.standard_normal(f.shape)


@dataclass(frozen=True)
class PriorParams:
    """Gaussian wavelet prior with smoothness s, amplitude L, depth J_max."""

    s: float
    L: float
    J_max: int
    M: int = 3

    def __post_init__(self):
        if not (0.0 < self.s < math.inf and 0.0 < self.L < math.inf):
            raise ValueError("s and L must be positive and finite")
        if self.J_max < 0:
            raise ValueError("J_max must be nonnegative")

    def descriptor(self):
        return {"s": self.s, "L": self.L, "J_max": self.J_max, "M": self.M}


def _draw_prior(prior, grid, N, rng, noise=False):
    """(F, W): N prior draws as grid samples, batch axis first, and, if
    ``noise``, N fields of unit white noise per grid point (else None).

    The normals come from one RNG call.  Each draw reads its coarse
    coefficient, its details level by level, then its noise.
    """
    top, dim = prior.J_max + 1, grid.dim
    if 2 ** top > grid.n:
        raise ValueError("grid too coarse for the prior depth: need 2^(J_max+1) <= n")
    blocks = [((1,) * dim, prior.L)]
    for j in range(top):
        std = prior.L * 2.0 ** (j * (dim - 2.0 * prior.s) / 2.0)
        blocks += [((2 ** j,) * dim, std)] * (2 ** dim - 1)
    sizes = [math.prod(shape) for shape, _ in blocks] + [grid.size if noise else 0]
    *z, W = np.split(rng.standard_normal((N, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    pairs = [(std * part.reshape((N,) + shape), (0,) * dim)
             for (shape, std), part in zip(blocks, z)]
    filters, phi = _prior_pieces(prior.M, top, grid.n, dim)
    nd = 2 ** dim - 1
    details = [pairs[1 + j * nd:1 + (j + 1) * nd] for j in range(top)]
    s_top, _ = _synthesis(pairs[0], details, [filters] * top, periodic=True)[-1]
    return grid_synthesis(s_top, phi, top, grid), W.reshape((N,) + grid.shape) if noise else None


def sample_prior(prior, grid, rng, size=None):
    """One random function drawn from the prior, as grid samples.

    With ``size`` = N, N draws with the batch axis first, equal to N calls
    in a row on the same ``rng``.
    """
    if size is not None and size < 1:
        raise ValueError("size must be >= 1")
    F = _draw_prior(prior, grid, 1 if size is None else size, rng)[0]
    return F[0] if size is None else F


@functools.lru_cache(maxsize=32)
def _prior_pieces(M, J, n, dim):
    """The prior's reflected filters and sampled father wavelet, built once, read-only."""
    hr, grs = _reflected(daubechies_filters(M, dim))
    phi = sample_father_wavelet(M, J, n, dim)
    for a in [phi, hr.values] + [g.values for g in grs]:
        a.flags.writeable = False
    return (hr, grs), phi


def prior_second_moment(prior, dim):
    """Exact E ||f||_{L2}^2 of the prior by Parseval."""
    nd = 2 ** dim - 1
    total = prior.L ** 2
    for j in range(prior.J_max + 1):
        total += nd * 2 ** (j * dim) * prior.L ** 2 * 2.0 ** (j * (dim - 2.0 * prior.s))
    return total


def _spatial_axes(grid):
    return tuple(range(-grid.dim, 0))


def _fft(f, conj):
    """FFT of filter samples, conjugated if ``conj``."""
    spec = np.fft.fftn(f)
    return np.conj(spec) if conj else spec


def _build_spectrum(data, shape, conj):
    """`_fft` of a filter given by its float64 bytes; read-only."""
    spec = _fft(np.frombuffer(data).reshape(shape), conj)
    spec.flags.writeable = False
    return spec


# keyed on content, not identity: callers may change a filter in place
_spectra = _Cache(_build_spectrum, lambda key, spec: len(key[0]) + spec.nbytes)
_spectra.max_bytes = 256 << 10


def _spectrum(f, conj=False):
    """FFT of the filter samples ``f`` (conjugated if ``conj``), cached by content."""
    f = np.ascontiguousarray(f, dtype=float)
    if 3 * f.nbytes > _spectra.max_bytes:  # its key and spectrum would not fit
        return _fft(f, conj)
    return _spectra(f.tobytes(), f.shape, conj)


def grid_synthesis(coeff_values, phi, J, grid):
    """Sum_k c_k phi(. - k 2^{-J}) evaluated on the grid (circular).

    Leading axes of ``coeff_values`` beyond the (2^J,)^d block are batch axes.
    """
    coeff_values = np.asarray(coeff_values, dtype=float)
    if coeff_values.shape[coeff_values.ndim - grid.dim:] != (2 ** J,) * grid.dim:
        raise ValueError("coefficient shape must be (2^J,)^d")
    stride = grid.n // 2 ** J
    axes = _spatial_axes(grid)
    up = np.zeros(coeff_values.shape[:coeff_values.ndim - grid.dim] + grid.shape)
    up[(Ellipsis,) + tuple(slice(None, None, stride) for _ in axes)] = coeff_values
    return np.fft.ifftn(np.fft.fftn(up, axes=axes) * _spectrum(phi), axes=axes).real


def grid_analysis(g, psi, J, grid):
    """Quadrature inner products h^d sum_i g_i psi(x_i - k 2^{-J}), all k.

    Leading axes of ``g`` beyond the grid shape are batch axes.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[g.ndim - grid.dim:] != grid.shape:
        raise ValueError("sample shape does not match grid")
    axes = _spatial_axes(grid)
    corr = np.fft.ifftn(np.fft.fftn(g, axes=axes) * _spectrum(psi, conj=True), axes=axes).real
    stride = grid.n // 2 ** J
    take = corr[(Ellipsis,) + tuple(slice(None, None, stride) for _ in axes)]
    return grid.h ** grid.dim * take


@dataclass
class TrainingSet:
    """Paired observations Y_i = T f_i + noise and targets f_i on a grid."""

    Y: np.ndarray
    F: np.ndarray
    sigma: float
    grid: Grid
    op_desc: dict
    prior_desc: dict | None = None
    seed: int | None = None

    @property
    def n_samples(self):
        return self.Y.shape[0]


def _draw_pairs(op, prior, sigma, N, rng):
    """N (Y, F) pairs as from N rounds of `sample_prior`, `add_white_noise(apply(op, f))`.

    The draws keep that RNG order; the arithmetic after them runs once on the batch.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative and finite")
    grid = op.grid
    F, noise = _draw_prior(prior, grid, N, rng, noise=True)
    scale = sigma * grid.h ** (-grid.dim / 2.0)
    return apply(op, F) + scale * noise, F


def make_training_set(op, prior, sigma, N, rng):
    """Draw N iid (Y_i, f_i) pairs from the prior and noise model."""
    if N < 1:
        raise ValueError("N must be >= 1")
    Y, F = _draw_pairs(op, prior, sigma, N, rng)
    return TrainingSet(Y, F, float(sigma), op.grid, op.descriptor(), prior.descriptor())


def save_training_set(ts, path):
    """Write a training set; the path picks the format.

    A path ending in ``.npz`` gets a NumPy archive holding ``Y``, ``F`` and
    ``header``, a JSON string of the metadata.  Any other path gets one JSON
    document with Y and F inline.
    """
    doc = {
        "format": "suniv-training-set-v1",
        "sigma": ts.sigma,
        "grid": {"dim": ts.grid.dim, "n": ts.grid.n},
        "n_samples": int(ts.n_samples),
        "op": ts.op_desc,
        "prior": ts.prior_desc,
        "seed": ts.seed,
        "sidecar": None,  # unread; keeps JSON files byte-identical to older releases
    }
    if str(path).endswith(".npz"):
        np.savez(path, Y=ts.Y, F=ts.F, header=np.array(json.dumps(doc, sort_keys=True)))
        return
    doc["Y"] = ts.Y.tolist()
    doc["F"] = ts.F.tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """The JSON document in a file; a file that is not JSON raises a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not a valid JSON file ({exc})") from exc


def _read_training_doc(path):
    """The metadata dict of a training-set file, with Y and F as arrays."""
    if not str(path).endswith(".npz"):
        return _read_json(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            doc = json.loads(str(archive["header"]))
            doc["Y"], doc["F"] = archive["Y"], archive["F"]
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"{path}: not a readable training-set archive ({exc})") from exc
    return doc


def load_training_set(path):
    """Read a file written by `save_training_set`; Y and F must match the grid."""
    doc = _read_training_doc(path)
    if not isinstance(doc, dict) or doc.get("format") != "suniv-training-set-v1":
        raise ValueError(f"{path}: not a suniv training set file")
    try:
        grid = Grid(doc["grid"]["dim"], doc["grid"]["n"])
        shape = (doc["n_samples"],) + grid.shape
        sigma, op_desc = float(doc["sigma"]), doc["op"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing or malformed training-set metadata: {exc!r}") from exc
    Y = np.asarray(doc.get("Y"), dtype=float)
    F = np.asarray(doc.get("F"), dtype=float)
    for name, arr in (("Y", Y), ("F", F)):
        if arr.shape != shape:
            raise ValueError(f"{path}: {name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: {name} holds non-finite values")
    return TrainingSet(Y, F, sigma, grid, op_desc, doc.get("prior"), doc.get("seed"))
