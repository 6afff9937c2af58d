"""Span recorder that wraps the public functions of suniv's layer modules.

A layer is one module of the package.  ``install`` replaces every public
(non-underscore) function defined in a layer module, at every module
namespace that binds it, by a wrapper that records one span per call while
an op is open, and wraps ``DTensor.__init__`` with a counter.  ``uninstall``
puts the original objects back, so untraced runs execute unwrapped code.

Spans live in memory as flat lists and are written out once, at the end of
a run.  A span's self time is its duration minus the durations of its
direct children; since one thread makes every call, children never overlap.
"""

import functools
import time
import types

import numpy as np

LAYERS = ("tensor_ops", "wavelets", "forward_model", "sunet", "training", "experiments")
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span store for one single-threaded traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id, self.start, self.end, self.parent, self.op_id = [], [], [], [], []
        self.dtensors = 0
        self.madds = 0
        self._stack = []
        self._op = None
        self._patched = []

    # -- recording ---------------------------------------------------------

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` inside a root span tagged with ``op_id``."""
        self._op = op_id
        idx = self._open(self.intern(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = None

    def wrap(self, fn, name, on_return=None):
        """Wrapper of ``fn`` recording a span called ``name`` inside ops."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    # -- patching suniv ----------------------------------------------------

    def install(self, package):
        """Wrap every public layer function of ``package`` and count DTensors."""
        modules = {name: getattr(package, name) for name in LAYERS}
        layer_of = {mod.__name__: name for name, mod in modules.items()}
        hooks = {"down_conv": self._count_madds, "up_conv": self._count_madds}
        wrapped = {}
        for ns in [package, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if (not isinstance(obj, types.FunctionType) or attr.startswith("_")
                        or obj.__module__ not in layer_of):
                    continue
                if obj not in wrapped:
                    span = f"{layer_of[obj.__module__]}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, span, hooks.get(obj.__name__))
                self._patched.append((ns, attr, obj))
                setattr(ns, attr, wrapped[obj])

        cls = modules["tensor_ops"].DTensor
        init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            if self._op is not None:
                self.dtensors += 1
            init(obj, *args, **kwargs)

        self._patched.append((cls, "__init__", init))
        cls.__init__ = counted_init

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def _count_madds(self, args, out):
        # computed multiply-adds: nonzero taps times output entries
        self.madds += int(np.count_nonzero(args[0].values)) * int(out.values.size)

    # -- output ------------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op_id": np.asarray(self.op_id, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def summary(self):
        return summarize(self.names, self.name_id, self.start, self.end, self.parent)


def self_times(start, end, parent):
    """Per-span duration minus the summed durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child_sum


def summarize(names, name_id, start, end, parent):
    """Per span name: call count, total and self seconds, and all durations."""
    name_id = np.asarray(name_id)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    own = self_times(start, end, parent)
    out = {}
    for nid, name in enumerate(names):
        sel = name_id == nid
        if sel.any():
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum()), "durations": dur[sel]}
    return out


def layer_self_times(summary):
    """Self seconds summed per layer (the span-name prefix before the dot)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, rec in summary.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += rec["self_s"]
    return totals
