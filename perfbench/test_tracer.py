"""Tests of the span recorder's self-time arithmetic and its wrapping.

Run with ``python3 -m pytest perfbench/test_tracer.py``.
"""

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tr  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    # op [0, 10] holds a [1, 5] and d [6, 9]; a holds b [2, 3] and c [3, 4.5]
    start = [0.0, 1.0, 2.0, 3.0, 6.0]
    end = [10.0, 5.0, 3.0, 4.5, 9.0]
    parent = [-1, 0, 1, 1, 0]
    np.testing.assert_allclose(tr.self_times(start, end, parent), [3.0, 1.5, 1.0, 1.5, 3.0])


def test_summary_and_layer_sums_cover_the_op():
    names = [tr.OP_SPAN, "sunet.forward", "tensor_ops.down_conv", "training.test_risk"]
    name_id = [0, 3, 1, 2, 2, 1, 2]
    start = [0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 4.5]
    end = [8.0, 7.5, 3.5, 2.0, 3.0, 6.0, 5.0]
    parent = [-1, 0, 1, 2, 2, 1, 5]
    # test_risk 7.0 - (2.5 + 2.0) = 2.5, forwards 2.5 - 1.0 + 2.0 - 0.5 = 3.0,
    # down_conv 0.5 * 3 = 1.5, op 8.0 - 7.0 = 1.0
    summary = tr.summarize(names, name_id, start, end, parent)
    assert summary["sunet.forward"]["calls"] == 2
    assert summary["tensor_ops.down_conv"]["calls"] == 3
    np.testing.assert_allclose(summary["sunet.forward"]["total_s"], 4.5)
    np.testing.assert_allclose(summary["sunet.forward"]["self_s"], 3.0)
    layers = tr.layer_self_times(summary)
    np.testing.assert_allclose([layers["training"], layers["sunet"], layers["tensor_ops"]],
                               [2.5, 3.0, 1.5])
    assert layers["wavelets"] == 0.0
    # the layers plus the op's own remainder account for the whole op
    np.testing.assert_allclose(sum(layers.values()) + summary[tr.OP_SPAN]["self_s"], 8.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _fake_package():
    """A package with a layer function that calls another through its globals."""
    pkg = types.ModuleType("fakepkg")
    mods = {}
    for layer in tr.LAYERS:
        mod = types.ModuleType(f"fakepkg.{layer}")
        setattr(pkg, layer, mod)
        mods[layer] = mod

    class DTensor:
        def __init__(self, values, lo=0):
            self.values = np.asarray(values, dtype=float)

    ops = mods["tensor_ops"]
    ops.DTensor = DTensor
    ops.np = np
    exec("def down_conv(g, a):\n    return DTensor(np.ones(3))\n", ops.__dict__)
    net = mods["sunet"]
    net.down_conv = ops.down_conv
    exec("def forward(x):\n    return down_conv(x, x)\n", net.__dict__)
    exec("def _private(x):\n    return x\n", net.__dict__)
    pkg.forward = net.forward
    return pkg, ops.DTensor


def test_wrapping_records_nested_spans_only_inside_ops():
    pkg, DTensor = _fake_package()
    originals = (pkg.forward, pkg.sunet.forward, pkg.sunet.down_conv, pkg.sunet._private)
    t = tr.Tracer(clock=FakeClock())
    t.install(pkg)
    pkg.forward(DTensor([1.0, 2.0]))  # outside an op: nothing recorded
    assert t.name_id == [] and t.dtensors == 0
    t.run_op(7, pkg.forward, DTensor([1.0, 2.0]))
    t.uninstall()
    assert (pkg.forward, pkg.sunet.forward, pkg.sunet.down_conv, pkg.sunet._private) == originals
    assert [t.names[i] for i in t.name_id] == [tr.OP_SPAN, "sunet.forward", "tensor_ops.down_conv"]
    assert t.parent == [-1, 0, 1] and t.op_id == [7, 7, 7]
    # clock ticks: op 1..6, forward 2..5, down_conv 3..4
    np.testing.assert_allclose(tr.self_times(t.start, t.end, t.parent), [2.0, 2.0, 1.0])
    assert t.dtensors == 1
    # madds: two nonzero taps times three output entries
    assert t.madds == 6
