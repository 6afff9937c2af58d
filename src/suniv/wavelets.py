"""Compactly supported orthonormal wavelet machinery.

Daubechies scaling filters of order M = 1..10 are hard-coded (classical
extremal-phase order, l2-normalized so sum(h) = sqrt(2)) and validated
against the filter identities at import.  On top of them the module builds
separable d-dimensional filter banks, the discrete wavelet transform, soft
thresholding, a reference wavelet-thresholding estimator, and exact dyadic
sampling of the scaled father wavelet on a uniform torus grid.

The batched cascades ``_analysis`` (contracting) and ``_synthesis``
(expanding) are the package's one multiscale level loop, with one filter
pair per level: the DWT runs them with fixed filters, the prior through
``_synthesis``, and the network (:mod:`suniv.sunet`) with learned filters,
transposed in its backward pass.  Each level is one call of the
:mod:`suniv.tensor_ops` level kernel: the scaling and detail filters read
the same input on the way down, and their channels are summed in channel
order, scaling first, on the way up.

Index conventions follow the analysis recursion

    c_{j-1,k,0} = sum_l h[l - 2k] c_{j,l,0},
    c_{j-1,k,e} = sum_l g_e[l - 2k] c_{j,l,0},

which equals ``down_conv(reflect(h), c_j)``; the synthesis recursion is the
corresponding ``up_conv`` sum.  Level 0 is the coarsest level of a
transform, so a full-depth transform of 2^{Jd} samples has detail tensors
of 2^{jd} entries at level j.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from suniv.tensor_ops import DTensor, _conv, reflect, tensor_product

__all__ = [
    "FilterBank",
    "WaveletCoefficients",
    "daubechies_filters",
    "dwt_forward",
    "dwt_inverse",
    "soft_threshold",
    "wavelet_threshold_oracle",
    "sample_father_wavelet",
    "universal_thresholds",
    "MAX_ORDER",
]

MAX_ORDER = 10

# Scaling (refinement) coefficients h[0..2M-1] with sum h = sqrt(2),
# sum h^2 = 1.  Generated by spectral factorization at 60 decimal digits
# and rounded once to float64; the identities below hold at ~1e-16.
_DAUBECHIES = {
    1: (
        0.7071067811865476, 0.7071067811865476,
    ),
    2: (
        0.48296291314453416, 0.8365163037378079, 0.2241438680420134,
        -0.12940952255126037,
    ),
    3: (
        0.33267055295008263, 0.8068915093110925, 0.45987750211849154,
        -0.13501102001025458, -0.08544127388202666, 0.03522629188570953,
    ),
    4: (
        0.2303778133088965, 0.7148465705529157, 0.6308807679298589,
        -0.027983769416859854, -0.18703481171909309, 0.030841381835560764,
        0.0328830116668852, -0.010597401785069032,
    ),
    5: (
        0.16010239797419293, 0.6038292697971896, 0.7243085284377729,
        0.13842814590132074, -0.24229488706638203, -0.032244869584638375,
        0.07757149384004572, -0.006241490212798274, -0.012580751999081999,
        0.0033357252854737712,
    ),
    6: (
        0.11154074335010947, 0.49462389039845306, 0.7511339080210954,
        0.31525035170919763, -0.22626469396543983, -0.12976686756726194,
        0.09750160558732304, 0.027522865530305727, -0.03158203931748603,
        0.0005538422011614961, 0.004777257510945511, -0.0010773010853084796,
    ),
    7: (
        0.07785205408500918, 0.3965393194819173, 0.7291320908462351,
        0.4697822874051931, -0.14390600392856498, -0.22403618499387498,
        0.07130921926683026, 0.08061260915108308, -0.03802993693501441,
        -0.01657454163066688, 0.01255099855609984, 0.0004295779729213665,
        -0.0018016407040474908, 0.00035371379997452024,
    ),
    8: (
        0.05441584224310401, 0.31287159091429995, 0.6756307362972898,
        0.5853546836542067, -0.015829105256349306, -0.2840155429615469,
        0.0004724845739132828, 0.12874742662047847, -0.017369301001807547,
        -0.044088253930794755, 0.013981027917398282, 0.008746094047405777,
        -0.004870352993451574, -0.00039174037337694705, 0.0006754494064505693,
        -0.00011747678412476953,
    ),
    9: (
        0.038077947363878345, 0.24383467461259034, 0.6048231236901112,
        0.6572880780513005, 0.13319738582500756, -0.2932737832791749,
        -0.09684078322297646, 0.14854074933810638, 0.03072568147933338,
        -0.06763282906132997, 0.00025094711483145197, 0.022361662123679096,
        -0.004723204757751397, -0.00428150368246343, 0.0018476468830562265,
        0.00023038576352319597, -0.0002519631889427101, 3.93473203162716e-05,
    ),
    10: (
        0.026670057900555554, 0.1881768000776915, 0.5272011889317256,
        0.6884590394536035, 0.2811723436605775, -0.24984642432731538,
        -0.19594627437737705, 0.12736934033579325, 0.09305736460357235,
        -0.07139414716639708, -0.029457536821875813, 0.033212674059341,
        0.0036065535669561697, -0.010733175483330575, 0.001395351747052901,
        0.001992405295185056, -0.0006858566949597116, -0.00011646685512928545,
        9.358867032006959e-05, -1.3264202894521244e-05,
    ),
}


def _qmf(h):
    """High-pass filter g[l] = (-1)^l h[2M-1-l]."""
    g = np.array([(-1.0) ** l * h[len(h) - 1 - l] for l in range(len(h))])
    return g


def _validate_tables():
    rt2 = math.sqrt(2.0)
    for M, vals in _DAUBECHIES.items():
        h = np.asarray(vals)
        if len(h) != 2 * M:
            raise AssertionError(f"db{M}: expected {2 * M} taps")
        if abs(h.sum() - rt2) > 1e-12 or abs(h @ h - 1.0) > 1e-12:
            raise AssertionError(f"db{M}: sum/norm identity broken")
        for k in range(1, M):
            if abs(h[: len(h) - 2 * k] @ h[2 * k:]) > 1e-12:
                raise AssertionError(f"db{M}: shift orthogonality broken at {k}")
        g = _qmf(h)
        for p in range(M):
            mono = np.arange(len(g), dtype=float) ** p
            scale = mono @ np.abs(g) + 1.0
            if abs(mono @ g) > 1e-12 * scale:
                raise AssertionError(f"db{M}: vanishing moment {p} broken")


_validate_tables()


@dataclass
class FilterBank:
    """Separable orthonormal analysis filters for one wavelet order.

    ``h`` is the scaling filter, ``g[e-1]`` the detail filter for channel
    e = 1..2^d - 1.  In two dimensions channel bits follow (axis0, axis1)
    binary order: e=1 -> h x g, e=2 -> g x h, e=3 -> g x g.
    """

    M: int
    dim: int
    h: DTensor
    g: list = field(default_factory=list)

    @property
    def n_detail(self):
        return 2 ** self.dim - 1


def daubechies_filters(M, dim=1):
    """Filter bank for the Daubechies wavelet of order ``M`` in ``dim`` dims."""
    if M not in _DAUBECHIES:
        raise ValueError(f"order M={M} not tabulated (1..{MAX_ORDER})")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    h1 = DTensor(np.asarray(_DAUBECHIES[M]), lo=0)
    g1 = DTensor(_qmf(_DAUBECHIES[M]), lo=0)
    if dim == 1:
        return FilterBank(M, 1, h1, [g1])
    pair = (h1, g1)
    h2 = tensor_product(h1, h1)
    g2 = [tensor_product(pair[e >> 1], pair[e & 1]) for e in (1, 2, 3)]
    return FilterBank(M, 2, h2, g2)


@dataclass
class WaveletCoefficients:
    """Multilevel transform output.

    ``details[j][e-1]`` holds the level-j detail tensor for channel e, with
    j = 0 the coarsest computed level; ``coarse`` is the remaining scaling
    tensor at that same coarsest level.
    """

    coarse: DTensor
    details: list
    periodic: bool = True

    @property
    def levels(self):
        return len(self.details)


def dwt_forward(s, bank, levels, periodic=True):
    """Discrete wavelet analysis of a scaling-coefficient tensor.

    Parameters
    ----------
    s : DTensor
        Finest-level scaling coefficients (logical origin 0 when periodic).
    bank : FilterBank
    levels : int
        Number of decomposition steps (>= 1).
    periodic : bool
        Circular boundary handling (exactly orthonormal) if True, literal
        zero-extension otherwise.
    """
    if s.dim != bank.dim:
        raise ValueError("signal/bank dimension mismatch")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    for step in range(levels if periodic else 0):
        if any((m >> step) % 2 for m in s.shape):
            raise ValueError(f"odd tensor size at decomposition step {step}")
    ss, ds = _analysis((s.values[None], s.lo), [_reflected(bank)] * levels, periodic)
    details = [[DTensor(v[0], lo) for v, lo in dets] for dets in ds]
    return WaveletCoefficients(DTensor(ss[0][0][0], ss[0][1]), details, periodic)


def _reflected(bank):
    """The reflected scaling and detail filters used by both transforms."""
    return reflect(bank.h), [reflect(g) for g in bank.g]


def dwt_inverse(coeffs, bank):
    """Synthesis inverse of :func:`dwt_forward` (exact when periodic)."""
    tensors = [coeffs.coarse] + [t for dets in coeffs.details for t in dets]
    if any(t.dim != bank.dim for t in tensors):
        raise ValueError("coefficients/bank dimension mismatch")
    values, lo = _synthesis(
        (coeffs.coarse.values[None], coeffs.coarse.lo),
        [[(t.values[None], t.lo) for t in dets] for dets in coeffs.details],
        [_reflected(bank)] * coeffs.levels, coeffs.periodic)[-1]
    return DTensor(values[0], lo)


def _window(level):
    """The (lo, shape) window of a (values, lo) pair."""
    return level[1], level[0].shape[level[0].ndim - len(level[1]):]


def _analysis(s, filters, periodic, windows=None):
    """Contracting cascade on a (values, lo) pair whose leading axis is a batch axis.

    ``filters[j]`` = (scaling, [details]) maps level j + 1 to level j; ``s`` is
    level J = len(filters).  Returns the (values, lo) pairs (s[0..J], d[0..J-1]).
    ``windows``, shaped like that, pins each zero-mode output to its entry's
    window, which makes this the adjoint of a `_synthesis` pass.
    """
    J = len(filters)
    ss, ds = [None] * J + [s], [None] * J
    for j in range(J - 1, -1, -1):
        h, gs = filters[j]
        w = None if windows is None else [_window(t) for t in [windows[0][j]] + windows[1][j]]
        ss[j], *ds[j] = _conv([h] + gs, ss[j + 1], periodic, w)
    return ss, ds


def _synthesis(s, details, filters, periodic, windows=None):
    """Expanding cascade, the adjoint of `_analysis`; returns levels 0..J (0 is ``s``).

    ``filters[j]`` maps level j and ``details[j]`` to level j + 1; ``windows``
    (J + 1 pairs) pins the zero-mode output levels as in `_analysis`.
    """
    levels = [s]
    for j, ((h, gs), dets) in enumerate(zip(filters, details)):
        w = None if windows is None else _window(windows[j + 1])
        levels.append(_conv([h] + gs, [levels[j]] + dets, periodic, w, up=True))
    return levels


def soft_threshold(x, tau):
    """Componentwise max(x - tau, 0) - max(-x - tau, 0)."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def wavelet_threshold_oracle(s, bank, taus, periodic=True):
    """Reference estimator: analyze, soft-threshold details, synthesize.

    ``taus[j]`` is applied to every detail channel at level j; the number
    of decomposition levels equals ``len(taus)``.
    """
    taus = np.asarray(taus, dtype=float)
    coeffs = dwt_forward(s, bank, len(taus), periodic=periodic)
    for j, dets in enumerate(coeffs.details):
        for det in dets:
            det.values[...] = soft_threshold(det.values, float(taus[j]))
    return dwt_inverse(coeffs, bank)


def universal_thresholds(sigma, J, dim=1):
    """Per-level thresholds sigma * sqrt(2 d j ln 2), j = 0..J-1."""
    j = np.arange(J, dtype=float)
    return sigma * np.sqrt(2.0 * dim * j * math.log(2.0))


def _phi_dyadic(M, refine_levels):
    """Exact father-wavelet values on [0, 2M-1] at spacing 2^-refine_levels.

    Integer values come from the eigenvector of the two-scale matrix; each
    refinement step evaluates the two-scale relation, which is exact at
    dyadic rationals.
    """
    c = math.sqrt(2.0) * np.asarray(_DAUBECHIES[M])
    if M == 1:
        v = np.zeros(2)
        v[0] = 1.0
    else:
        npts = 2 * M - 2
        A = np.zeros((npts, npts))
        for i in range(1, npts + 1):
            for j in range(1, npts + 1):
                if 0 <= 2 * i - j < len(c):
                    A[i - 1, j - 1] = c[2 * i - j]
        w, vecs = np.linalg.eig(A)
        idx = int(np.argmin(np.abs(w - 1.0)))
        vec = np.real(vecs[:, idx])
        vec = vec / vec.sum()
        v = np.zeros(2 * M)
        v[1: 2 * M - 1] = vec
    for t in range(refine_levels):
        step = 2 ** t
        old = v
        v = np.zeros((len(old) - 1) * 2 + 1)
        for l, cl in enumerate(c):
            v[l * step: l * step + len(old)] += cl * old
    return v


def sample_father_wavelet(M, J, n, dim=1):
    """Samples of 2^{Jd/2} phi(2^J x) on the uniform n^d torus grid.

    The father wavelet is periodized onto [0, 1)^d; ``n`` must be a
    power-of-two multiple of 2^J.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if n < 2 ** J or n % 2 ** J:
        raise ValueError("grid must resolve the scale: 2^J | n")
    m = n // 2 ** J
    if m & (m - 1):
        raise ValueError("grid refinement per scale must be a power of two")
    v = _phi_dyadic(M, int(math.log2(m))) * 2 ** (J / 2.0)
    line = np.zeros(n)
    src = np.arange(len(v))
    np.add.at(line, src % n, v)
    if dim == 1:
        return line
    return np.multiply.outer(line, line)
