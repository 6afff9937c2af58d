"""Closed-loop benchmark of suniv: one process, one thread, one caller.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-1d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  The
workload is set up (import of suniv plus building operators, presets, nets
and data) and one warm-up op runs.  Then distinct ops run back to back, each
waiting for the previous one, until ``--seconds`` of op time and at least
``MIN_OPS`` ops have passed, or twice ``--seconds`` of wall time.  Every
timed op counts, failed ones too.  Set-up is repeated in fresh child
processes spread over the run and reported as a median (see ``setup_s``).

Op times are reported in units of a reference run (``ref``): a fixed
computation, independent of suniv, that runs after every op.  The shared
2-core host this was tuned on changes speed by up to 1.7x for seconds to
minutes at a time, for any code (CPU time and wall time slow alike).  Over
10-second windows of stability-zero ops, the coefficient of variation was 14%
for op time and 5% for op time over reference time.  Wall-clock figures are
kept in each run's details.

``setup_s`` is in seconds at a fixed ``REF_NOMINAL_S`` per reference run: each
set-up is divided by the mean of two reference runs made just before and
just after it in the same process, and the median of these ratios is scaled
by ``REF_NOMINAL_S``.  The host flips between a fast and a slow phase every
0.3-1.5 s, and a set-up of about 0.1 s lands in one or the other; over 25
set-ups the IQR/median was 0.26-0.50 for raw seconds and 0.10-0.16 for the
bracketed ratio.  Raw set-up seconds are kept in the details.

``--trace 1`` runs two child processes that each run a fixed list of ops,
every op once unwrapped and once with every public layer function wrapped
in a span.  It reports per-layer self times and counts per op, and fails
when a count differs between the two children or when the layers' self
times cover less than ``MIN_LAYER_SHARE`` of the traced op time.

Outside the timed window, every op's output is checked by the workload.  The
last stdout line is the result object; the line before it holds the run
details and the environment, which are also written under ``.bench_out/``.
A run that prints its result exits with 0, failed ops or not: ``correct``
carries the verdict.  Any other exit code means the run printed no result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS to one thread and keep suniv's sweep thread pool at one thread, before
# numpy is imported anywhere in this process or its children.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SUNIV_THREADS_SEEN = os.environ.pop("SUNIV_THREADS", None)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (imported after the thread pins on purpose)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 20
WARMUP_INDEX = 10 ** 6
TAIL_BEYOND = 10
MIN_LAYER_SHARE = 0.9
SETUP_SAMPLES = 11
# seconds per reference run on an unloaded core of the 2-core x86 VM the
# benchmark was tuned on (measured 10-15 ms); converts setup_s from reference
# runs to seconds
REF_NOMINAL_S = 0.010
REF_X = np.linspace(0.0, 1.0, 16)
# child processes must end by this many seconds after start, so a hung child
# cannot keep a run past its time limit
DEADLINE_S = 170
STARTED = time.monotonic()
OUT_DIR = Path(".bench_out")
COUNT_METRICS = (
    "tensor_ops.calls", "tensor_ops.madds", "tensor_ops.dtensors", "wavelets.father_builds",
    "forward_model.prior_draws", "forward_model.grid_calls", "sunet.forward.calls",
    "sunet.backward.calls", "training.forwards_per_epoch", "training.risk_evals",
    "training.accept_frac", "experiments.trials",
)


def load_suniv(workload, seed):
    """Import suniv from ``src/`` and set the workload up; returns (wl, S, seconds)."""
    t0 = time.perf_counter()
    import suniv
    wl = WORKLOADS[workload](suniv, seed)
    return wl, suniv, time.perf_counter() - t0


def bracketed_setup(workload, seed):
    """Set the workload up between two reference runs; returns (wl, S, sample)."""
    before = reference_run()
    wl, S, setup = load_suniv(workload, seed)
    return wl, S, {"setup_s": setup, "ref_s": [before, reference_run()]}


def child(args, *extra):
    """Run this script again in a fresh process; returns its last stdout line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    left = max(DEADLINE_S - (time.monotonic() - STARTED), 1.0)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(extra)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Ops:
    """Closed-loop op runner: times ``wl.call`` only and gates every output.

    ``times`` holds the duration of every op, failed or not; ``items`` counts
    the items of the ops that passed their check.
    """

    def __init__(self, wl):
        self.wl = wl
        self.times, self.stats = [], []
        self.items = self.failed = 0
        self.errors = []

    @property
    def attempted(self):
        return len(self.times)

    def run(self, i, timed_call=None):
        args = self.wl.args(i)
        t0 = time.perf_counter()
        try:
            out = (timed_call or self.wl.call)(args)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            self.times.append(time.perf_counter() - t0)
            return self._fail(i, f"{type(exc).__name__}: {exc}")
        self.times.append(time.perf_counter() - t0)
        try:
            error = self.wl.check(args, out)
        except Exception as exc:  # a check that cannot complete fails the op
            error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            return self._fail(i, error)
        self.items += self.wl.items(args, out)
        self.stats.append(self.wl.stats(args, out))

    def _fail(self, i, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {message}")
            print(f"op {i} failed: {message}", file=sys.stderr)


def reference_run():
    """Seconds of a fixed computation in the workloads' style: small numpy
    operations and Python loops, no suniv code."""
    t0 = time.perf_counter()
    acc, counts = 0.0, {}
    for k in range(3000):
        acc += float((REF_X * (k % 7) + 1.0).sum()) + sum(i * 0.5 for i in range(8))
    for k in range(2000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return time.perf_counter() - t0


def measure(args):
    """Untraced run: end-to-end metrics over every timed op."""
    wl, _, setup = bracketed_setup(args.workload, args.seed)
    setups = [setup]
    warm = Ops(wl)
    warm.run(WARMUP_INDEX)
    refs = [reference_run()]
    ops = Ops(wl)
    wall_end = time.perf_counter() + 2.0 * args.seconds
    while ((ops.attempted < MIN_OPS or sum(ops.times) < args.seconds)
           and time.perf_counter() < wall_end):
        ops.run(ops.attempted)
        refs.append(reference_run())
        if len(setups) < SETUP_SAMPLES and sum(ops.times) >= \
                len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(child(args, "--setup-only"))
    setups += [child(args, "--setup-only") for _ in range(SETUP_SAMPLES - len(setups))]
    setup_in_ref = [s["setup_s"] / statistics.fmean(s["ref_s"]) for s in setups]
    # each op over the mean of the reference runs just before and after it
    in_ref = [t / (0.5 * (r0 + r1)) for t, r0, r1 in zip(ops.times, refs, refs[1:])]
    times = sorted(ops.times)
    tail = max(len(times) - 1 - TAIL_BEYOND, 0)
    metrics = {
        "setup_s": REF_NOMINAL_S * statistics.median(setup_in_ref),
        "items_per_ref": ops.items / sum(in_ref),
        "op_ref_p50": statistics.median(in_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # the highest percentile with ten ops beyond it; a real tail only with
    # many ops, so it stays out of the metrics that every workload reports
    details = {"ops": ops.attempted, "items": ops.items,
               "items_per_s": ops.items / sum(times),
               "op_ms_p50": 1e3 * statistics.median(times), "op_ms_tail": 1e3 * times[tail],
               "op_ms_tail_percentile": 100.0 * (tail + 1) / len(times),
               "ref_ms_p50": 1e3 * statistics.median(refs),
               "setup_samples_s": [s["setup_s"] for s in setups],
               "setup_samples_ref": setup_in_ref,
               "setup_s_p50_raw": statistics.median(s["setup_s"] for s in setups),
               "errors": warm.errors + ops.errors,
               "op_ms": [1e3 * t for t in ops.times]}
    failed = ops.failed + warm.failed
    return failed == 0, ops.attempted + warm.attempted, failed, metrics, details


def trace_pass(args):
    """One traced child: unwrapped then wrapped runs of the same ops."""
    wl, S, _ = load_suniv(args.workload, args.seed)
    warm = Ops(wl)
    warm.run(WARMUP_INDEX)
    tracer = tr.Tracer()
    plain, traced = Ops(wl), Ops(wl)
    # each op runs unwrapped, then wrapped, so machine drift hits both alike
    for i in range(wl.trace_ops):
        plain.run(i)
        tracer.install(S)
        try:
            traced.run(i, lambda a, i=i: tracer.run_op(i, wl.call, a))
        finally:
            tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{args.trace_child}.npz")
    summary = tracer.summary()
    metrics = layer_metrics(wl.trace_ops, tracer, summary, traced.stats)
    plain_s = sum(plain.times)
    metrics["trace.overhead_frac"] = sum(traced.times) / plain_s - 1.0 if plain_s else 0.0
    spans = {name: {"calls": rec["calls"], "self_s": rec["self_s"]}
             for name, rec in summary.items()}
    runs = (warm, plain, traced)
    return {"metrics": metrics, "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs), "errors": [e for r in runs for e in r.errors],
            "spans": spans}


def layer_metrics(n_ops, tracer, summary, stats):
    """Per-layer metrics, each a per-op average over the traced ops."""
    def calls(*names):
        return sum(summary[n]["calls"] for n in names if n in summary)

    def p50_ms(name):
        return 1e3 * float(np.median(summary[name]["durations"])) if name in summary else 0.0

    layer_self = tr.layer_self_times(summary)
    op_s = summary[tr.OP_SPAN]["total_s"]
    conv = ("tensor_ops.down_conv", "tensor_ops.up_conv")
    conv_s = sum(summary[n]["total_s"] for n in conv if n in summary)
    epochs = sum(s.get("epochs", 0) for s in stats)
    m = {f"{layer}.self_s": layer_self[layer] / n_ops for layer in tr.LAYERS}
    m.update({
        "tensor_ops.calls": calls(*conv) / n_ops,
        "tensor_ops.madds": tracer.madds / n_ops,
        "tensor_ops.madds_per_s": tracer.madds / conv_s if conv_s else 0.0,
        "tensor_ops.dtensors": tracer.dtensors / n_ops,
        "wavelets.father_builds": calls("wavelets.sample_father_wavelet") / n_ops,
        "forward_model.prior_draws": calls("forward_model.sample_prior") / n_ops,
        "forward_model.grid_calls": calls("forward_model.grid_analysis",
                                          "forward_model.grid_synthesis",
                                          "forward_model.apply") / n_ops,
        "sunet.forward.calls": calls("sunet.forward") / n_ops,
        "sunet.backward.calls": calls("sunet.backward") / n_ops,
        "sunet.forward.ms_p50": p50_ms("sunet.forward"),
        "sunet.backward.ms_p50": p50_ms("sunet.backward"),
        "training.forwards_per_epoch": calls("sunet.forward") / epochs if epochs else 0.0,
        "training.risk_evals": calls("training.empirical_risk") / n_ops,
        "training.accept_frac": sum(s.get("accepted", 0) for s in stats) / epochs if epochs else 0.0,
        "experiments.trials": sum(s.get("trials", 0) for s in stats) / n_ops,
        "trace.op_s": op_s / n_ops,
        "trace.layer_share": sum(layer_self.values()) / op_s,
    })
    return m


def traced(args):
    """Traced run: per-layer metrics from two identical child passes."""
    runs = [child(args, "--trace-child", str(k)) for k in (0, 1)]
    mismatched = [m for m in COUNT_METRICS
                  if runs[0]["metrics"][m] != runs[1]["metrics"][m]]
    metrics = {name: value if name in COUNT_METRICS
               else statistics.fmean(r["metrics"][name] for r in runs)
               for name, value in runs[0]["metrics"].items()}
    failed = sum(r["failed"] for r in runs)
    details = {"trace_ops": WORKLOADS[args.workload].trace_ops, "count_mismatch": mismatched,
               "errors": [e for r in runs for e in r["errors"]],
               "spans": runs[0]["spans"]}
    if mismatched:
        print(f"counts differ between two runs at seed {args.seed}: {mismatched}",
              file=sys.stderr)
    # the layers must account for the op: a public function outside them would not
    covered = metrics["trace.layer_share"] >= MIN_LAYER_SHARE
    details["layer_share_ok"] = covered
    if not covered:
        print(f"layer self times cover only {metrics['trace.layer_share']:.3f} of the op",
              file=sys.stderr)
    ok = failed == 0 and not mismatched and covered
    return ok, sum(r["attempted"] for r in runs), failed, metrics, details


def declared_units(kind):
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_revision():
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = Path(".git") / name
    if path.is_file():
        return path.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in Path("src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "SUNIV_THREADS": SUNIV_THREADS_SEEN, "git_revision": git_revision(),
            "src_lines": src_lines}


def smoke():
    """Every workload: one checked op unwrapped and one traced; a quick health check."""
    import suniv
    ok = True
    for name, cls in WORKLOADS.items():
        t0 = time.perf_counter()
        wl = cls(suniv, 0)
        plain = Ops(wl)
        plain.run(0)
        tracer = tr.Tracer()
        tracer.install(suniv)
        traced_ops = Ops(wl)
        try:
            traced_ops.run(1, lambda a: tracer.run_op(1, wl.call, a))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        share = sum(tr.layer_self_times(summary).values()) / summary[tr.OP_SPAN]["total_s"]
        good = plain.failed == 0 and traced_ops.failed == 0 and share >= MIN_LAYER_SHARE
        ok &= good
        print(f"{name:16s} {'ok' if good else 'FAIL'}  layer share {share:.3f}  "
              f"{time.perf_counter() - t0:.1f} s")
    return ok


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="quick check of every workload")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--trace-child", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = Path("src")
    if not (src / "suniv" / "__init__.py").is_file():
        print("run from the root of a suniv checkout: src/suniv not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    if args.smoke:
        return 0 if smoke() else 1
    if args.setup_only:
        print(json.dumps(bracketed_setup(args.workload, args.seed)[2]))
        return 0
    if args.trace_child is not None:
        print(json.dumps(trace_pass(args)))
        return 0
    units = declared_units("per_layer" if args.trace else "end_to_end")
    ok, attempted, failed, metrics, details = (traced if args.trace else measure)(args)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"BENCHMARK.json metrics {sorted(missing)} are not measured")
    # metrics that BENCHMARK.json does not list, such as experiments.* (no
    # workload in it reaches that layer), stay in the details
    details["unlisted_metrics"] = {k: v for k, v in metrics.items() if k not in units}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "details": details, "env": environment()}
    result = {"correct": ok, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "result": result}, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    # the verdict is the result's "correct"; a non-zero exit means no result
    return 0


if __name__ == "__main__":
    sys.exit(main())
