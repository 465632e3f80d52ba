"""graphcodes benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload collect-all --seed 1 --seconds 10 --trace 0

One process, one thread, one client in a closed loop: each operation
starts when the previous one has returned and its result was checked.
Workloads are defined in ``workloads.py``; why each exists is recorded
in BENCHMARK.json.

``--trace 0`` measures end to end.  The code is built several times,
then whole cycles run until ``--seconds`` have passed; the first cycle
always runs to its end.  Every operation is timed, the first on each
anchor included, and every result is checked.  All times are scaled to
a nominal host speed (see speed.py); the raw times are in the details
line.  Metrics:

    setup_s      median time to build the workload's code(s)
    op_p50_ms    median time of the workload's primary operation
    op_tail_ms   its highest percentile with at least ten samples
                 beyond it (the maximum below eleven samples)
    work_per_s   work items of the primary operation per second of it:
                 symbols for collect and churn cycles, anchors for
                 certify
    peak_rss_mb  peak resident memory of the process

``--trace 1`` gives the per-layer numbers (PER_LAYER below): a kernel
probe, then one pass (one set-up plus the first cycle, the same work as
the first cycle of the timed run) untraced, then the same pass traced.
The pass is a fixed amount of work, so its call counts repeat exactly
for a seed; ``--seconds`` does not apply to it.  A layer's self time is
in seconds of the traced pass, 0 for a layer the workload never
reaches.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  The line before it carries the details (per
operation sample counts, medians and tails, the digest of the first
cycle's outputs, the machine).  The exit code is 2 when the graphcodes
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source); a source is ("calls" or "self_s",
# tracer label), ("probe", kernel probe key) or ("pass", key of the
# values run_traced derives from the traced pass)
PER_LAYER = {}
for _label in ("add", "sub", "neg", "mul", "inv"):
    PER_LAYER[f"field.{_label}.calls"] = ("count", ("calls", f"field.{_label}"))
PER_LAYER.update({
    "field.ops_per_s.q11": ("1/s", ("probe", "field.ops_per_s.q11")),
    "field.ops_per_s.q8": ("1/s", ("probe", "field.ops_per_s.q8")),
    "matrix.det5_per_s": ("1/s", ("probe", "matrix.det5_per_s")),
    "matrix.rref_24x48_ms": ("ms", ("probe", "matrix.rref_24x48_ms")),
})
for _label in ("matrix.det", "matrix.rref", "matrix.solve", "matrix.pi",
               "jgc.sparse_parities", "jgc.erasure_decode", "jgc.syndrome_of",
               "layered.encode_layered"):
    PER_LAYER[f"{_label}.calls"] = ("count", ("calls", _label))
    PER_LAYER[f"{_label}.self_s"] = ("s", ("self_s", _label))
for _label in ("jgc.dual", "jgc.express_in_rows", "jgc.dense_fallback"):
    PER_LAYER[f"{_label}.calls"] = ("count", ("calls", _label))
for _label in ("jgc.certify_infosets", "concat.build", "concat.encode",
               "concat.collect", "concat.repair", "storesim.save",
               "storesim.load"):
    PER_LAYER[f"{_label}.self_s"] = ("s", ("self_s", _label))
PER_LAYER.update({
    "jgc.sparse_parities.reuse_ratio": ("ratio", ("pass", "reuse_ratio")),
    "combinat.shell_index.calls": ("count", ("calls", "combinat.shell_index")),
    "concat.symbols_read_per_collect": ("count", ("pass", "symbols_read_per_collect")),
    "concat.rows_read_outside_anchor": ("count", ("pass", "rows_read_outside_anchor")),
    "concat.repair_symbols_per_helper": ("count", ("pass", "repair_symbols_per_helper")),
    "storesim.access_log_symbols": ("count", ("pass", "access_log_symbols")),
    "storesim.bytes_written": ("B", ("pass", "bytes_written")),
    "storesim.bytes_per_symbol": ("B/symbol", ("pass", "bytes_per_symbol")),
    "trace.overhead_ratio": ("ratio", ("pass", "overhead_ratio")),
    "trace.traced_s": ("s", ("pass", "traced_s")),
    "trace.untraced_s": ("s", ("pass", "untraced_s")),
    "trace.spans": ("count", ("pass", "spans")),
    "src.lines": ("count", ("pass", "src_lines")),
})


def tail(samples):
    """Highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    s = sorted(samples)
    return s[-11] if len(s) >= 11 else s[-1]


class Recorder:
    """Times, checks and counts the operations of one pass.

    With a ``speed`` sampler, durations can also be read scaled to the
    nominal host speed (see speed.py).
    """

    def __init__(self, workdir, tracer=None, speed=None):
        self.workdir = workdir
        self.tracer = tracer
        self.speed = speed
        self.ops = []                 # (kind, start, end, seconds, work, cycle)
        self.cycle = None             # cycle index; None outside cycles
        self.attempted = 0
        self.failed = 0
        self._digest = hashlib.sha256()
        self.reads = defaultdict(list)
        self.bytes_written = []

    def op(self, kind, fn, check=None, work=0):
        """Run fn once, timed; count it failed if it raises or its
        result fails check.  Returns the result, or None on a raise."""
        self.attempted += 1
        if self.tracer is not None:
            fn = self.tracer.operation(kind, fn)
        stolen = self.speed.stolen if self.speed else 0.0
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"perfbench: {kind} raised {exc!r}", file=sys.stderr)
            return None
        t1 = time.perf_counter()
        if self.speed:
            stolen = self.speed.stolen - stolen
        self.ops.append((kind, t0, t1, t1 - t0 - stolen, work, self.cycle))
        if check is not None and not check(result):
            self.failed += 1
            print(f"perfbench: {kind} returned a wrong result", file=sys.stderr)
        return result

    def durations(self, scaled):
        """kind -> [(seconds, work)], scaled to the nominal host speed if
        ``scaled``; kind "cycle" sums each cycle's operations."""
        out = defaultdict(list)
        cycles = defaultdict(lambda: [0.0, 0])
        for kind, t0, t1, d, work, cycle in self.ops:
            if scaled:
                d *= self.speed.scale(t0, t1)
            out[kind].append((d, work))
            if cycle is not None:
                cycles[cycle][0] += d
                cycles[cycle][1] += work
        out["cycle"] = [tuple(v) for _, v in sorted(cycles.items())]
        return out

    def digest(self, obj):
        self._digest.update(repr(obj).encode())

    def hexdigest(self):
        return self._digest.hexdigest()

    def note_bytes(self, path, symbols):
        size = sum(os.path.getsize(p) for p in glob.glob(os.path.join(path, "*")))
        self.bytes_written.append((size, symbols))

    # Measured reads, only while tracing: rows that log their indexing.
    # Each audit is a check of its own and counts as attempted.

    def view(self, state):
        if self.tracer is None:
            return state
        from graphcodes.storesim import StorageState
        from tracer import ReadRow
        log = []
        rows = [ReadRow(row, i, log) for i, row in enumerate(state.nodes)]
        return StorageState(state.code, state.blob, rows)

    def audit_collect(self, view, A):
        if self.tracer is None or not view.access_log:
            return
        self.attempted += 1
        log = view.nodes[0].log
        self.reads["symbols"].append(len(set(log)))
        self.reads["outside"].append(len({i for i, _ in log} - set(A)))
        self.reads["access_log"].append(len(view.access_log[-1]))
        if self.reads["outside"][-1]:
            self.failed += 1

    def audit_repair(self, view, failed, beta):
        if self.tracer is None:
            return
        self.attempted += 1
        per_node = defaultdict(set)
        for i, off in view.nodes[0].log:
            per_node[i].add(off)
        sizes = [len(per_node[j]) for j in range(len(view.nodes)) if j != failed]
        self.reads["repair"].extend(sizes)
        if failed in per_node or set(sizes) != {beta}:
            self.failed += 1


def src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def summary(samples):
    durations = [d for d, _ in samples]
    return {"n": len(durations), "p50_ms": statistics.median(durations) * 1000.0,
            "tail_ms": tail(durations) * 1000.0}


def run_end_to_end(wl, seed, seconds, workdir):
    from speed import Speedometer
    from tracer import assert_untraced
    assert_untraced()
    with Speedometer() as speed:
        rec = Recorder(workdir, speed=speed)
        for _ in range(wl.setup_repeats):
            # drop the last build first, so that only one code is alive
            # and peak_rss_mb is not the benchmark holding two
            ctx = None
            gc.collect()
            ctx = rec.op("setup", lambda: wl.setup(seed))
        start = time.perf_counter()
        rec.cycle = 0
        while ctx is not None and (
                rec.cycle == 0 or time.perf_counter() - start < seconds):
            wl.cycle(ctx, rec, seed, rec.cycle)
            rec.cycle += 1
    scaled = rec.durations(scaled=True)
    raw = rec.durations(scaled=False)
    setups = [d for d, _ in scaled["setup"]]
    primary = [d for d, _ in scaled[wl.primary]]
    # a metric with no successful sample is None; the operations that
    # failed are counted, so the run reads as not correct
    metrics = {
        "setup_s": statistics.median(setups) if setups else None,
        "op_p50_ms": statistics.median(primary) * 1000.0 if primary else None,
        "op_tail_ms": tail(primary) * 1000.0 if primary else None,
        "work_per_s": (sum(w for _, w in scaled[wl.primary]) / sum(primary)
                       if primary else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    refs = [r * 1000.0 for _, r in speed.samples]
    info = {
        "cycles": rec.cycle,
        "primary": wl.primary,
        "reference_kernel_ms": {"n": len(refs), "p50": statistics.median(refs),
                                "min": min(refs), "max": max(refs)},
        "sampling_s": speed.stolen,
        "raw_ops": {k: summary(s) for k, s in sorted(raw.items()) if s},
        "scaled_ops": {k: summary(s) for k, s in sorted(scaled.items()) if s},
        "digest": rec.hexdigest(),
        "bytes_written": rec.bytes_written[:1],
    }
    return rec, metrics, info


def run_traced(wl, seed, workdir):
    from kernels import run_probe
    from tracer import Tracer, assert_untraced
    assert_untraced()
    probe, probe_ok, probe_sums = run_probe()

    def first_pass(rec):
        t0 = time.perf_counter()
        ctx = rec.op("setup", lambda: wl.setup(seed))
        if ctx is not None:
            wl.cycle(ctx, rec, seed, 0)
        return time.perf_counter() - t0

    assert_untraced()
    plain = Recorder(workdir)
    untraced_s = first_pass(plain)
    tracer = Tracer()
    rec = Recorder(workdir, tracer)
    tracer.install()
    try:
        traced_s = first_pass(rec)
    finally:
        tracer.uninstall()
    assert_untraced()
    if plain.hexdigest() != rec.hexdigest():
        rec.failed += 1

    stats = tracer.layer_stats()
    calls = tracer.counts.copy()
    for label, (n, _) in stats.items():
        calls[label] = n
    parity_calls = calls.get("jgc.sparse_parities", 0)
    reads = rec.reads

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0

    derived = {
        "reuse_ratio": len(tracer.parity_keys) / parity_calls if parity_calls else 0,
        "symbols_read_per_collect": mean(reads["symbols"]),
        "rows_read_outside_anchor": sum(reads["outside"]),
        "repair_symbols_per_helper": max(reads["repair"], default=0),
        "access_log_symbols": mean(reads["access_log"]),
        "bytes_written": rec.bytes_written[0][0] if rec.bytes_written else 0,
        "bytes_per_symbol": (rec.bytes_written[0][0] / rec.bytes_written[0][1]
                             if rec.bytes_written else 0),
        "overhead_ratio": traced_s / untraced_s,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": len(tracer.span_start),
        "src_lines": src_lines(),
    }
    metrics = {}
    for name, (unit, (kind, key)) in PER_LAYER.items():
        if kind == "calls":
            value = calls.get(key, 0)
        elif kind == "self_s":
            value = stats.get(key, (0, 0.0))[1]
        elif kind == "probe":
            value = probe[key]
        else:
            value = derived[key]
        metrics[name] = value
    failed = plain.failed + rec.failed + sum(not ok for ok in probe_ok.values())
    attempted = plain.attempted + rec.attempted + len(probe_ok)
    info = {
        "probe_checks": probe_ok,
        "probe_sums": probe_sums,
        "digest": rec.hexdigest(),
        "layers": {label: {"calls": n, "self_s": s}
                   for label, (n, s) in sorted(stats.items())},
        "counts": dict(sorted(tracer.counts.items())),
    }
    return attempted, failed, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphcodes", "__init__.py")):
        print(f"perfbench: no graphcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import graphcodes
    if not os.path.abspath(graphcodes.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported graphcodes from {graphcodes.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        if args.trace:
            attempted, failed, values, info = run_traced(wl, args.seed, workdir)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            rec, values, info = run_end_to_end(wl, args.seed, args.seconds, workdir)
            attempted, failed = rec.attempted, rec.failed
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    info.update(workload=wl.name, seed=args.seed, seconds=args.seconds,
                trace=args.trace, machine=machine(), src_lines=src_lines())
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
