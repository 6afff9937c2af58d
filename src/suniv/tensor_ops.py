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
axes.  A cached table per geometry lists the input position of every
output's term with each tap, so one gather, multiply and sum over the tap
axis convolve a whole batch, bit for bit as a loop over taps would.
Undefined terms read an appended zero, so one table builder serves both
modes.  ``_tap_sums`` gives the filter gradients of either convolution
through the same tables, and ``_sum_windows`` adds (values, lo) pairs on the
union of their windows, as ``dt_add`` does for DTensors.  Their callers are
the batched cascades ``_analysis``/``_synthesis`` of :mod:`suniv.wavelets`
and, for the filter gradients, the network's backward pass.
"""

import collections
import functools
import math

import numpy as np

__all__ = [
    "DTensor",
    "down_conv",
    "up_conv",
    "tensor_product",
    "l2_norm",
    "reflect",
    "dt_add",
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


def _build_table(g_lo, g_shape, in_lo, in_shape, window, periodic, up):
    """(idx, window) of a down (or up) convolution onto ``window``.

    The window is one period in periodic mode, else the one given or, for
    None, every k with at least one defined term.  ``idx[r, k]`` is the flat
    input position of the term of output k with the r-th tap l in C order:
    j = 2k - l for down, j = (k + l)/2 for up.  An undefined term (k + l odd
    for up, or j outside a zero-mode input) points one past the end of the
    flattened input, where the kernel appends a zero.
    """
    d = len(g_shape)
    if periodic:
        if any(in_lo):
            raise ValueError("periodic mode requires the signal to have lo = 0")
        if not up and any(n % 2 for n in in_shape):
            raise ValueError("periodic down_conv needs even period per axis")
        window = ((0,) * d, tuple(2 * n if up else n // 2 for n in in_shape))
    elif window is None:
        g_hi = tuple(l + m - 1 for l, m in zip(g_lo, g_shape))
        if up:
            lo = tuple(2 * al - gh for al, gh in zip(in_lo, g_hi))
            hi = tuple(2 * (al + n - 1) - gl for al, n, gl in zip(in_lo, in_shape, g_lo))
        else:
            lo = tuple(-(-(al + gl) // 2) for al, gl in zip(in_lo, g_lo))
            hi = tuple((al + n - 1 + gh) // 2 for al, n, gh in zip(in_lo, in_shape, g_hi))
        window = (lo, tuple(h - l + 1 for l, h in zip(lo, hi)))
    idx, ok = np.zeros((1, 1), dtype=np.intp), np.ones((1, 1), dtype=bool)
    for g_l, taps, in_l, n, out_l, m in zip(g_lo, g_shape, in_lo, in_shape, *window):
        # this axis's terms, taps by outputs, combined with the axes before in C order
        k, l = np.arange(out_l, out_l + m), np.arange(g_l, g_l + taps)[:, None]
        j = ((k + l) // 2 if up else 2 * k - l) - in_l
        if periodic:
            j %= n
        defined = (j >= 0) & (j < n) & ((k + l) % 2 == 0 if up else True)
        idx = (idx[:, None, :, None] * n + j[None, :, None, :]).reshape(len(idx) * taps, -1)
        ok = (ok[:, None, :, None] & defined[None, :, None, :]).reshape(idx.shape)
    idx = np.where(ok, idx, math.prod(in_shape))
    idx.flags.writeable = False  # cached and shared by every caller
    return idx, window


class _TableCache(collections.OrderedDict):
    """`_build_table` by key, least recently used out first once the tables
    held pass ``max_bytes`` (the newest one always stays)."""

    max_bytes, held = 64 << 20, 0

    def __call__(self, *key):
        if key in self:
            self.move_to_end(key)
            return self[key]
        table = self[key] = _build_table(*key)
        self.held += table[0].nbytes
        while self.held > self.max_bytes and len(self) > 1:
            self.held -= self.popitem(last=False)[1][0].nbytes
        return table


_table = _TableCache()
_CHUNK = 1 << 18  # gathered terms per block of outputs (2 MB), unless one output has more


def _entries(values, d):
    """values as (entries, items), C-contiguous, plus the zero undefined terms read."""
    x = values.reshape(math.prod(values.shape[:values.ndim - d]), -1)
    return np.concatenate((x.T, np.zeros((1, len(x)))))


def _conv(gamma, values, lo, periodic, window=None, up=False):
    """down (``up`` False) or up convolution on a raw array; returns (values, lo).

    The last ``gamma.dim`` axes of ``values`` are spatial with logical origin
    ``lo``; any leading axes are batch axes.  ``window`` = (lo, shape) fixes
    the output window (zero mode only); None means every k with a defined
    term.  Each output's terms are summed in tap order from +0, as a loop
    over taps adding to zeros would, whatever the batch size or blocks.
    """
    d = gamma.dim
    lead, n = values.shape[:values.ndim - d], values.shape[values.ndim - d:]
    idx, window = _table(gamma.lo, gamma.shape, tuple(lo), n, None if periodic else window,
                         periodic, up)
    x = _entries(values, d)
    out = np.empty((idx.shape[1], x.shape[1]))
    step = max(1, _CHUNK // (len(idx) * x.shape[1]))
    for c in range(0, idx.shape[1], step):
        P = x.take(idx[:, c:c + step], axis=0)  # (taps, outputs, items)
        P *= gamma.values.reshape(-1, 1, 1)
        if P[0].size == 1:  # numpy would sum a lone column pairwise, not in tap order
            # + 0.0 turns -0 into +0, as the loop's start at +0 did
            out[c:c + step] = np.cumsum(P, axis=0)[-1] + 0.0
        else:
            np.add.reduce(P, axis=0, out=out[c:c + step])
    return out.T.reshape(lead + window[1]), window[0]


_down = functools.partial(_conv, up=False)  # down_conv on a raw array
_up = functools.partial(_conv, up=True)  # up_conv on a raw array, the adjoint of `_down`


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
    window = None if periodic else (tuple(small_lo), small.shape[small.ndim - d:])
    idx, _ = _table(gamma.lo, gamma.shape, tuple(big_lo), big.shape[big.ndim - d:], window,
                    periodic, False)
    x = _entries(big, d)
    y = np.ascontiguousarray(small.reshape(x.shape[1], -1).T)  # (outputs, items)
    out = np.zeros(len(idx))
    step = max(1, _CHUNK // (len(idx) * x.shape[1]))
    for c in range(0, idx.shape[1], step):
        out += x.take(idx[:, c:c + step], axis=0).reshape(len(idx), -1) @ y[c:c + step].ravel()
    return DTensor(out.reshape(gamma.shape), gamma.lo)


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
