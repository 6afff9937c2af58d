"""Index-aware tensors and strided convolutions.

A DTensor is a dense d-dimensional array (d = 1 or 2) together with an
explicit integer index range per axis, so entries live at logical indices
``lo[ax] .. hi[ax]`` instead of ``0 .. n-1``.  Two convolution primitives are
provided:

* ``down_conv(gamma, a)``: (gamma *v a)(k) = sum_l gamma[l] a[2k - l]
* ``up_conv(gamma, a)``:   (gamma *^ a)(k) = sum_l gamma[l] a[(k+l)/2],
  the sum running over l with (k + l)/2 an integer.

Both exist in two boundary modes.  The default ("zero") treats out-of-range
entries as undefined and simply drops those terms, which is the same as
zero-extension; the output index range is the interval of k with at least one
defined term.  With ``periodic=True`` the second argument is read as one
period of a periodic signal with logical origin 0, index arithmetic is
taken modulo the period, and the output has period n/2 (down) or 2n (up).

Both are thin DTensor wrappers around the array primitives ``_down`` and
``_up``, which treat the last d axes as spatial and any leading axes as batch
axes; ``_tap_sums`` gives the filter gradients of either convolution, and
``_sum_windows`` adds (values, lo) pairs on the union of their windows, as
``dt_add`` does for DTensors.  Their callers are the batched cascades
``_analysis``/``_synthesis`` of :mod:`suniv.wavelets` and, for the filter
gradients, the network's backward pass.
"""

import functools

import numpy as np

__all__ = [
    "DTensor",
    "down_conv",
    "up_conv",
    "tensor_product",
    "l2_norm",
    "reflect",
    "dt_add",
    "restrict",
]


class DTensor:
    """Dense array with explicit per-axis logical index bounds.

    Parameters
    ----------
    values : array_like
        1- or 2-dimensional float data.
    lo : int or tuple of int, optional
        Logical index of ``values[0, ...]`` per axis.  Defaults to 0.
    """

    __slots__ = ("values", "lo")

    def __init__(self, values, lo=0):
        v = np.asarray(values, dtype=float)
        if v.ndim not in (1, 2):
            raise ValueError(f"DTensor supports dim 1 or 2, got {v.ndim}")
        if v.size == 0:
            raise ValueError("DTensor must not be empty")
        if np.isscalar(lo) or isinstance(lo, (int, np.integer)):
            lo = (int(lo),) * v.ndim
        else:
            lo = tuple(int(x) for x in lo)
        if len(lo) != v.ndim:
            raise ValueError(f"lo has {len(lo)} entries for a {v.ndim}-d tensor")
        self.values = v
        self.lo = lo

    @property
    def dim(self):
        return self.values.ndim

    @property
    def shape(self):
        return self.values.shape

    @property
    def hi(self):
        return tuple(l + n - 1 for l, n in zip(self.lo, self.shape))

    def __getitem__(self, idx):
        """Entry at a logical multi-index (int for 1-d, pair for 2-d)."""
        if self.dim == 1 and isinstance(idx, (int, np.integer)):
            idx = (idx,)
        pos = tuple(int(i) - l for i, l in zip(idx, self.lo))
        for p, n in zip(pos, self.shape):
            if not 0 <= p < n:
                raise IndexError(f"logical index {idx} outside range")
        return self.values[pos]

    def copy(self):
        return DTensor(self.values.copy(), self.lo)

    def to_dict(self):
        return {"lo": list(self.lo), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["values"], dtype=float), tuple(d["lo"]))

    def __repr__(self):
        return f"DTensor(lo={self.lo}, hi={self.hi}, shape={self.shape})"


def l2_norm(a):
    """Euclidean norm of all entries of a DTensor."""
    return float(np.linalg.norm(a.values))


def reflect(a):
    """Index-negated copy: reflect(a)[k] = a[-k]."""
    rev = a.values[tuple(slice(None, None, -1) for _ in range(a.dim))]
    lo = tuple(-h for h in a.hi)
    return DTensor(rev.copy(), lo)


def restrict(a, lo, hi):
    """Entries of ``a`` on the window [lo, hi], zero-padded where undefined."""
    lo = (lo,) * a.dim if isinstance(lo, (int, np.integer)) else tuple(lo)
    hi = (hi,) * a.dim if isinstance(hi, (int, np.integer)) else tuple(hi)
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    out = np.zeros(shape)
    src = []
    dst = []
    for ax in range(a.dim):
        s0 = max(lo[ax], a.lo[ax])
        s1 = min(hi[ax], a.hi[ax])
        if s0 > s1:
            return DTensor(out, lo)
        src.append(slice(s0 - a.lo[ax], s1 - a.lo[ax] + 1))
        dst.append(slice(s0 - lo[ax], s1 - lo[ax] + 1))
    out[tuple(dst)] = a.values[tuple(src)]
    return DTensor(out, lo)


def dt_add(a, b):
    """Sum of two DTensors on the union bounding box of their ranges."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in dt_add")
    return DTensor(*_sum_windows([(a.values, a.lo), (b.values, b.lo)]))


def tensor_product(u, v):
    """Outer product of two 1-d DTensors as a 2-d DTensor."""
    if u.dim != 1 or v.dim != 1:
        raise ValueError("tensor_product expects 1-d factors")
    return DTensor(np.outer(u.values, v.values), (u.lo[0], v.lo[0]))


@functools.lru_cache(maxsize=4096)
def _tap_windows(g_lo, g_shape, in_lo, in_shape, out_lo, out_shape, periodic):
    """(tap, dst, src) index triples for y[k] += gamma[l] x[2k - l].

    ``dst`` indexes the output window (``out_lo``, ``out_shape``) and ``src``
    the input window; both start with an Ellipsis so that leading batch axes
    pass through.  Taps whose terms all fall outside the windows are left
    out.  Periodic windows start at 0 and wrap modulo the input period.
    """
    d = len(g_shape)
    ks = [2 * np.arange(m) for m in out_shape]
    out = []
    for tap in np.ndindex(*g_shape):
        l = [t + gl for t, gl in zip(tap, g_lo)]
        if periodic:
            idx = [np.mod(k - li, n) for k, li, n in zip(ks, l, in_shape)]
            for a in idx:
                a.flags.writeable = False  # cached and shared by every caller
            src = np.ix_(*idx) if d == 2 else tuple(idx)
            out.append((tap, (Ellipsis,), (Ellipsis,) + src))
            continue
        dst, src = [Ellipsis], [Ellipsis]
        for ax in range(d):
            # need in_lo <= 2k - l <= in_hi and out_lo <= k <= out_hi
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
    return tuple(out)


def _check_periodic(lo):
    if any(l != 0 for l in lo):
        raise ValueError("periodic mode requires the signal to have lo = 0")


def _down(gamma, values, lo, periodic, window=None):
    """down_conv on a raw array; returns (values, lo).

    The last ``gamma.dim`` axes of ``values`` are spatial with logical origin
    ``lo``; any leading axes are batch axes.  ``window`` = (lo, shape) fixes
    the output window (zero mode only); by default it is every k with at
    least one defined term.
    """
    d = gamma.dim
    n = values.shape[values.ndim - d:]
    if periodic:
        _check_periodic(lo)
        if any(m % 2 for m in n):
            raise ValueError("periodic down_conv needs even period per axis")
        window = ((0,) * d, tuple(m // 2 for m in n))
    elif window is None:
        out_lo = tuple(-(-(al + gl) // 2) for al, gl in zip(lo, gamma.lo))
        out_hi = tuple((al + m - 1 + gh) // 2 for al, m, gh in zip(lo, n, gamma.hi))
        window = (out_lo, tuple(h - l + 1 for l, h in zip(out_lo, out_hi)))
    out = np.zeros(values.shape[:values.ndim - d] + window[1])
    for tap, dst, src in _tap_windows(gamma.lo, gamma.shape, tuple(lo), n,
                                      *window, periodic):
        v = gamma.values[tap]
        if v != 0.0:
            out[dst] += v * values[src]
    return out, window[0]


def _up(gamma, values, lo, periodic, window=None):
    """up_conv on a raw array, the adjoint of `_down`; returns (values, lo).

    Axes and ``window`` are as for `_down`; the default window is every k
    with at least one defined term.
    """
    d = gamma.dim
    m = values.shape[values.ndim - d:]
    if periodic:
        _check_periodic(lo)
        window = ((0,) * d, tuple(2 * k for k in m))
    elif window is None:
        out_lo = tuple(2 * al - gh for al, gh in zip(lo, gamma.hi))
        out_hi = tuple(2 * (al + k - 1) - gl for al, k, gl in zip(lo, m, gamma.lo))
        window = (out_lo, tuple(h - l + 1 for l, h in zip(out_lo, out_hi)))
    out = np.zeros(values.shape[:values.ndim - d] + window[1])
    for tap, dst, src in _tap_windows(gamma.lo, gamma.shape, *window,
                                      tuple(lo), m, periodic):
        v = gamma.values[tap]
        if v != 0.0:
            out[src] += v * values[dst]
    return out, window[0]


def _sum_windows(parts):
    """Sum of (values, lo) pairs on the union bounding box of their windows."""
    v0, lo0 = parts[0]
    if all(lo == lo0 and v.shape == v0.shape for v, lo in parts):  # periodic or pinned levels
        return sum((v for v, _ in parts[1:]), v0.copy()), lo0
    d = len(lo0)
    lo = tuple(min(p[1][ax] for p in parts) for ax in range(d))
    hi = tuple(max(p[1][ax] + p[0].shape[ax - d] for p in parts) for ax in range(d))
    out = np.zeros(parts[0][0].shape[:-d] + tuple(h - l for l, h in zip(lo, hi)))
    for v, vlo in parts:
        out[(Ellipsis,) + tuple(slice(a - l, a - l + m)
                                for a, l, m in zip(vlo, lo, v.shape[-d:]))] += v
    return out, lo


def _tap_sums(gamma, small, small_lo, big, big_lo, periodic):
    """Per tap l of gamma, the sum over all axes of small[k] big[2k - l].

    This is the filter gradient of both convolutions: for y = down_conv(gamma,
    x) it is d/d gamma with small = dL/dy and big = x, for y = up_conv(gamma,
    x) with small = x and big = dL/dy.  Leading batch axes are summed over.
    """
    d = gamma.dim
    out = np.zeros(gamma.shape)
    for tap, dst, src in _tap_windows(
            gamma.lo, gamma.shape, tuple(big_lo), big.shape[big.ndim - d:],
            tuple(small_lo), small.shape[small.ndim - d:], periodic):
        out[tap] = np.vdot(small[dst], big[src])
    return DTensor(out, gamma.lo)


def down_conv(gamma, a, periodic=False):
    """Downsampled convolution (gamma *v a)(k) = sum_l gamma[l] a[2k - l].

    In the default mode the output covers every k for which at least one
    term is defined; undefined terms are dropped.  In periodic mode ``a``
    is one period (per-axis length even) and the output is one period of
    length n/2 per axis.
    """
    if gamma.dim != a.dim:
        raise ValueError("dimension mismatch in down_conv")
    return DTensor(*_down(gamma, a.values, a.lo, periodic))


def up_conv(gamma, a, periodic=False):
    """Upsampled convolution (gamma *^ a)(k) = sum_l gamma[l] a[(k+l)/2].

    Only l with (k + l)/2 integral contribute; an empty sum yields 0.  The
    default-mode output covers the interval of k with at least one defined
    term.  In periodic mode the output is one period of length 2n per axis.
    """
    if gamma.dim != a.dim:
        raise ValueError("dimension mismatch in up_conv")
    return DTensor(*_up(gamma, a.values, a.lo, periodic))
