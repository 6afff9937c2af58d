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

Both are thin DTensor wrappers around ``_conv``, the array kernel of one
cascade level, which treats the last d axes as spatial and any leading axes
as batch axes.  Down, it convolves one input with a level's F filters; up,
it convolves F inputs with one filter each and sums them.  The taps run over
the bounding box of the filters' supports, a tap outside a filter reading a
zero.  A cached table per geometry lists the input position of every
output's term with each tap, so one gather, multiply and sum over the tap
axis convolve a whole level and batch, bit for bit as a loop over taps
would.  Up tables keep only the defined terms: per axis, the outputs of one
parity read the taps of that parity.  Undefined terms read an appended
zero, so one table builder serves both modes.  ``_down``/``_up`` are the
one-filter calls of the kernel.
``_tap_sums`` gives the filter gradients of either convolution through the
same tables, and ``_sum_windows`` adds (values, lo) pairs on the union of
their windows, as ``dt_add`` does for DTensors.  Their callers are the
batched cascades ``_analysis``/``_synthesis`` of :mod:`suniv.wavelets`,
one kernel call per level, and, for the filter gradients, the network's
backward pass.
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
        out = DTensor.__new__(DTensor)  # valid already: skip `__init__`'s checks
        out.values, out.lo = self.values.copy(), self.lo
        return out

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


def _natural_window(g_lo, g_shape, in_lo, in_shape, up):
    """(lo, shape) of every k with at least one defined term, in zero mode."""
    if up:  # from 2 in_lo - g_hi to 2 in_hi - g_lo
        lo = [2 * a - g - m + 1 for a, g, m in zip(in_lo, g_lo, g_shape)]
        return tuple(lo), tuple([2 * n + m - 2 for n, m in zip(in_shape, g_shape)])
    # from ceil((in_lo + g_lo) / 2) to floor((in_hi + g_hi) / 2)
    lo = [(a + g + 1) // 2 for a, g in zip(in_lo, g_lo)]
    return tuple(lo), tuple([(a + n + g + m) // 2 - l
                             for a, n, g, m, l in zip(in_lo, in_shape, g_lo, g_shape, lo)])


def _bounding_box(boxes):
    """(lo, shape) of the bounding box of (lo, shape) boxes."""
    if len(boxes) == 1:
        return boxes[0]
    lo = tuple(map(min, *[b[0] for b in boxes]))
    hi = map(max, *[[l + m for l, m in zip(*b)] for b in boxes])
    return lo, tuple([h - l for h, l in zip(hi, lo)])


def _at(lo, shape, box_lo):
    """Index of the (lo, shape) box in an array holding ``box_lo`` at its origin."""
    return (Ellipsis, *[slice(l - b, l - b + m) for l, m, b in zip(lo, shape, box_lo)])


def _phase_taps(g_l, taps, out_l, ph):
    """(phases, rows) tap indices of one axis: phase c holds the taps with
    l = out_l + c (mod ph) in order, then indices past the last tap."""
    c, r = np.ix_(range(ph), range(-(-taps // ph)))
    return (out_l + c - g_l) % ph + ph * r


def _build_table(g_lo, g_shape, in_lo, in_shape, window, periodic, up, F=1):
    """(idx, window) of the down (or up) convolutions of a level onto ``window``.

    The terms run over the taps l of the box (``g_lo``, ``g_shape``) that
    holds the level's F filters.  The window is one period in periodic mode,
    else the one given.  Outputs come in phases: up splits each axis's
    outputs k = lo + c + 2i into the phases c = 0, 1 (an odd window gets one
    padding output at its end), and the terms of phase c are those with taps
    l = k (mod 2), the only defined ones; down has one phase, whose terms are
    all taps.  ``idx[r, f, c, i]`` is the flat position of the r-th term of
    output i of phase c of filter f, with j = 2k - l for down and
    j = (k + l)/2 for up, in the f-th input (up) or the one input (down),
    the inputs laid end to end.  Terms and phases run in C order over the
    axes, so each output's terms keep their tap order (`_build_taps` lists
    the taps).  A term past a phase's taps, of a padding output or outside a
    zero-mode input points one past the last input, where the kernel
    appends a zero.
    """
    d = len(g_shape)
    if periodic:
        if any(in_lo):
            raise ValueError("periodic mode requires the signal to have lo = 0")
        if not up and any(n % 2 for n in in_shape):
            raise ValueError("periodic down_conv needs even period per axis")
        window = ((0,) * d, tuple(2 * n if up else n // 2 for n in in_shape))
    ph = 2 if up else 1
    idx, ok = np.zeros((1, 1, 1), dtype=np.intp), np.ones((1, 1, 1), dtype=bool)
    for g_l, taps, in_l, n, out_l, m in zip(g_lo, g_shape, in_lo, in_shape, *window):
        # this axis's terms as (rows, phases, outputs), combined with the axes before
        t = _phase_taps(g_l, taps, out_l, ph)[:, :, None]
        c, i = np.arange(ph)[:, None, None], np.arange(-(-m // ph))
        k = out_l + c + ph * i
        j = ((k + g_l + t) // 2 if up else 2 * k - g_l - t) - in_l
        if periodic:
            j %= n
        defined = (t < taps) & (c + ph * i < m) & (j >= 0) & (j < n)
        j, defined = j.transpose(1, 0, 2), defined.transpose(1, 0, 2)
        idx = (idx[:, None, :, None, :, None] * n + j[None, :, None, :, None, :]).reshape(
            len(idx) * len(j), idx.shape[1] * ph, -1)
        ok = (ok[:, None, :, None, :, None]
              & defined[None, :, None, :, None, :]).reshape(idx.shape)
    size = math.prod(in_shape)
    idx = np.where(ok[:, None], idx[:, None] + size * np.arange(F)[:, None, None] * up,
                   (F if up else 1) * size)
    idx.flags.writeable = False  # cached and shared by every caller
    return idx, window


def _build_taps(g_boxes, parity, up):
    """Per term r, filter f and phase c of a `_build_table` table over the
    bounding box of the filter supports ``g_boxes`` whose window starts at
    ``parity`` (mod 2, per axis), ``taps[r, f, c, 0, 0]``: the position of
    the term's tap in the filters' values laid end to end, or of the zero
    after them for a tap outside the filter."""
    F, (g_lo, g_shape) = len(g_boxes), _bounding_box(g_boxes)
    ph = 2 if up else 1
    tap = np.zeros((1, 1), dtype=np.intp)
    for g_l, taps, out_l in zip(g_lo, g_shape, parity):
        # a term past the taps is undefined: any tap serves it
        t = np.minimum(_phase_taps(g_l, taps, out_l, ph), taps - 1).T
        tap = (tap[:, None, :, None] * taps + t[None, :, None, :]).reshape(len(tap) * len(t), -1)
    sizes = np.cumsum([0] + [math.prod(shape) for _, shape in g_boxes])
    pos = np.full((F,) + g_shape, sizes[-1])
    for f, (lo, shape) in enumerate(g_boxes):
        pos[f][_at(lo, shape, g_lo)] = sizes[f] + np.arange(sizes[f + 1] - sizes[f]).reshape(shape)
    tap = pos.reshape(F, -1)[:, tap].transpose(1, 0, 2)[..., None, None]
    tap.flags.writeable = False
    return tap


class _Cache(collections.OrderedDict):
    """``build(*key)`` by key, least recently used out first once the bytes
    held (``size(key, value)`` per entry) pass ``max_bytes``; the newest entry
    always stays."""

    max_bytes, held = 64 << 20, 0

    def __init__(self, build, size):
        super().__init__()
        self.build, self.size = build, size

    def __call__(self, *key):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
            return value
        value = self[key] = self.build(*key)
        self.held += self.size(key, value)
        while self.held > self.max_bytes and len(self) > 1:
            self.held -= self.size(*self.popitem(last=False))
        return value


_TableCache = functools.partial(_Cache, _build_table, lambda key, table: table[0].nbytes)
_table = _TableCache()
_taps = _Cache(_build_taps, lambda key, taps: taps.nbytes)


_ZERO = np.zeros(1)
_ZERO.flags.writeable = False
_PHASE_AXES = {1: (2, 1, 0), 2: (2, 4, 1, 3, 0)}  # up: (items, outputs, phases) per axis
_CHUNK = 1 << 18  # multiplied terms per block of outputs (2 MB), unless one output has more


def _entries(arrays, items, periodic_down):
    """The arrays as (entries, items) blocks end to end, plus the zero undefined terms
    read; a periodic down convolution reads none, and its one input goes as it is."""
    blocks = [a.reshape(items, -1).T for a in arrays]
    return blocks[0] if periodic_down else np.concatenate(blocks + [np.zeros((1, items))])


@functools.lru_cache(maxsize=1 << 10)
def _plan(g_boxes, in_boxes, windows, periodic, up):
    """The geometry of a `_conv` level, worked out once per distinct level.

    Returns the level's `_build_taps` array, the key of its `_build_table`
    entry, the output window, the input box, the crops and, for up, the
    shapes that interleave the phases.  Zero-mode windows are the ones in
    ``windows`` or else the natural ones; a down level's window bounds its
    filters' own windows, and ``crops`` holds each filter's (index into the
    window, lo); an up level's natural window bounds its filters' natural
    windows, the input box bounds the inputs' boxes, and ``crops`` holds
    each input's index in it, or is None when the inputs share one box.  A zero-mode table depends on the positions only
    through 2 out_lo - g_lo - in_lo (down) or out_lo + g_lo - 2 in_lo (up)
    per axis, so its key is shifted to those offsets, and shifted levels
    share one table.
    """
    F, zero = len(g_boxes), (0,) * len(in_boxes[0][0])
    g_lo, g_shape = _bounding_box(g_boxes)
    in_box, crops = in_boxes[0], None
    if periodic:
        window = zero, tuple([2 * n if up else n // 2 for n in in_box[1]])
        table = g_lo, g_shape, *in_box, None, True, up, F
    elif up:
        window = windows or _bounding_box([_natural_window(*g, *b, True)
                                           for g, b in zip(g_boxes, in_boxes)])
        if any(b != in_box for b in in_boxes):
            in_box = _bounding_box(in_boxes)
            crops = [_at(*b, in_box[0]) for b in in_boxes]
        offsets = tuple([o + g - 2 * i for o, g, i in zip(window[0], g_lo, in_box[0])])
        table = zero, g_shape, zero, in_box[1], (offsets, window[1]), False, True, F
    else:
        own = [w or _natural_window(*g, *in_box, False)
               for g, w in zip(g_boxes, windows or [None] * F)]
        window = _bounding_box(own)
        crops = [(_at(*w, window[0]), w[0]) for w in own]
        offsets = tuple([g + i - 2 * o for o, g, i in zip(window[0], g_lo, in_box[0])])
        table = offsets, g_shape, zero, in_box[1], (zero, window[1]), False, False, F
    if not up:
        return _taps(g_boxes, zero, up), table, window, in_box, crops, None
    # per axis: outputs per phase, and the shapes that interleave the phases
    m = [-(-n // 2) for n in window[1]]
    phases = ((2,) * len(m) + tuple(m), sum([(n, 2) for n in m], ()), tuple([2 * n for n in m]))
    parity = tuple([l % 2 for l in window[0]])
    return _taps(g_boxes, parity, up), table, window, in_box, crops, phases


def _conv(gammas, x, periodic, windows=None, up=False):
    """The down (``up`` False) or up convolutions of one cascade level, on raw arrays.

    down: ``x`` is one (values, lo) input and the result lists its down
    convolutions with the F filters ``gammas``, as (values, lo) pairs;
    ``windows`` holds a (lo, shape) output window, or None, per filter.
    up: ``x`` holds one (values, lo) input per filter and the result is the
    (values, lo) sum of their up convolutions; ``windows`` is its window or
    None.  The last ``d`` axes of the values are spatial with logical origin
    ``lo``; leading axes are batch axes.  Windows pin zero-mode outputs only;
    None means every k with a defined term (for up, the bounding box of the
    filters' outputs).

    The taps run over the bounding box of the filters' supports, and up
    inputs are zero-filled onto the bounding box of their windows, so one
    table, one gather, one multiply and one sum over the terms serve the
    level.  Each output's terms are summed in tap order from +0, as a loop
    over taps adding to zeros would, whatever the batch size or blocks.  The
    terms a loop would not add (taps outside a filter, entries outside an
    input, up terms of the other parity) are +-0 and would leave every
    partial sum unchanged.  The up parts, never -0, are then added in filter
    order.
    """
    d, F = gammas[0].values.ndim, len(gammas)
    g_boxes = tuple([(g.lo, g.values.shape) for g in gammas])
    xs = x if up else [x]
    values = [v for v, _ in xs]
    lead = values[0].shape[:values[0].ndim - d]
    # periodic inputs share one box
    in_boxes = tuple([(tuple(lo), v.shape[len(lead):]) for v, lo in (xs[:1] if periodic else xs)])
    if periodic:
        windows = None
    elif windows is not None and not up:
        windows = tuple(windows)
    taps, table_key, window, in_box, crops, phases = _plan(g_boxes, in_boxes, windows,
                                                          periodic, up)
    if up and crops:  # zero-fill the inputs onto their bounding box
        stacked = np.zeros((F,) + lead + in_box[1])
        for f, (v, at) in enumerate(zip(values, crops)):
            stacked[f][at] = v
        values = stacked
    idx = _table(*table_key)[0]
    block = np.concatenate([g.values for g in gammas] + [_ZERO], axis=None).take(taps)
    items = math.prod(lead)
    x = _entries(values, items, periodic and not up)
    sums, step = [], max(1, _CHUNK // (math.prod(idx.shape[:3]) * items))
    for c in range(0, max(idx.shape[3], 1), step):  # one block when there are no outputs
        P = x.take(idx[..., c:c + step], axis=0)  # (terms, F, phases, outputs, items)
        P *= block
        if P[0].size == 1:  # numpy would sum a lone column pairwise, not in tap order
            # + 0.0 turns -0 into +0, as the loop's start at +0 did
            sums.append(np.cumsum(P, axis=0)[-1] + 0.0)
        else:
            sums.append(np.add.reduce(P, axis=0))
    R = sums[0] if len(sums) == 1 else np.concatenate(sums, axis=2)
    if up:
        # the parts in filter order from +0, as `_sum_windows` adds them (none is -0),
        # written with the phases interleaved back into output order
        phased, interleaved, padded = phases
        y = np.empty((items,) + interleaved)
        np.add.reduce(R.reshape((F,) + phased + (items,)), axis=0, out=y.transpose(_PHASE_AXES[d]))
        y = y.reshape((items,) + padded)
        if padded != window[1]:  # a padding output per odd axis
            y = y[_at((0,) * d, window[1], (0,) * d)]
        return y.reshape(lead + window[1]), window[0]
    ys = R[:, 0].transpose(0, 2, 1).reshape((F,) + lead + window[1])
    if crops is None:
        return [(y, window[0]) for y in ys]
    return [(y[at], lo) for y, (at, lo) in zip(ys, crops)]


def _down(gamma, values, lo, periodic, window=None):
    """down_conv on a raw array: the one-filter level of `_conv`."""
    return _conv([gamma], (values, lo), periodic, [window])[0]


def _up(gamma, values, lo, periodic, window=None):
    """up_conv on a raw array, the adjoint of `_down`: the one-filter level of `_conv`."""
    return _conv([gamma], [(values, lo)], periodic, window, up=True)


def _sum_windows(parts):
    """Sum of (values, lo) pairs on the union bounding box of their windows."""
    v0, lo0 = parts[0]
    if all(lo == lo0 and v.shape == v0.shape for v, lo in parts):
        return sum((v for v, _ in parts[1:]), v0.copy()), lo0
    d = len(lo0)
    lo, shape = _bounding_box([(vlo, v.shape[-d:]) for v, vlo in parts])
    out = np.zeros(v0.shape[:-d] + shape)
    for v, vlo in parts:
        out[_at(vlo, v.shape[-d:], lo)] += v
    return out, lo


def _tap_sums(gamma, small, small_lo, big, big_lo, periodic):
    """Per tap l of gamma, the sum over all axes of small[k] big[2k - l].

    This is the filter gradient of both convolutions: for y = down_conv(gamma,
    x) it is d/d gamma with small = dL/dy and big = x, for y = up_conv(gamma,
    x) with small = x and big = dL/dy.  Leading batch axes are summed over.
    """
    d = gamma.dim
    window = None if periodic else ((tuple(small_lo), small.shape[small.ndim - d:]),)
    table_key = _plan(((gamma.lo, gamma.shape),), ((tuple(big_lo), big.shape[big.ndim - d:]),),
                      window, periodic, False)[1]
    idx = _table(*table_key)[0][:, 0, 0]
    items = math.prod(big.shape[:big.ndim - d])
    x = _entries([big], items, periodic)
    y = np.ascontiguousarray(small.reshape(items, -1).T)  # (outputs, items)
    out = np.zeros(len(idx))
    step = max(1, _CHUNK // (len(idx) * items))
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
