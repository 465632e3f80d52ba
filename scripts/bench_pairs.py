"""Alternating parent/change benchmark pairs, written to one JSON file.

Usage, from the root of a checkout (the change):

    python3 scripts/bench_pairs.py --parent PARENT_DIR --out BENCH_x.json \
        --seed-base 6000

PARENT_DIR is a checkout of the parent commit (``git archive`` or
``git clone``); the seed base should be one not used while developing
the change.  Every workload in WORKLOADS gets PAIRS = 10 pairs; pair p
runs ``perfbench/run.py --workload W --seed S --seconds 10 --trace 0``
in both checkouts, one process at a time, the parent first when p is
even; S is the seed base plus 100 times the workload's position in
WORKLOADS plus p.  Each end-to-end metric gets both sides' runs,
medians and quartiles, the change's median relative to the parent's and
the pairs the change won (by the direction BENCHMARK.json gives), and
the same for two numbers of each run's details line: the unscaled
setup median and the reference kernel's median.  Then, on both
checkouts: one ``--trace 1`` run per workload at seed 3, giving the
output digest and the per-layer counts (COUNTS, the bytes a churn save
writes among them), both compared across the sides (``digest_equal``,
``counts_equal``, and ``counts_differ``, the names of the COUNTS that
differ), as neither may change when the output does not, save the
bytes written when the stored format changes.
The same run's per-layer timings
(SINGLE_RUN_TIMINGS: every ``*.self_s``, ``field.ops_per_s.*``,
``matrix.det5_per_s``, ``matrix.rref_24x48_ms`` and ``trace.*``) are
kept under each side's ``single_run_timings``; they come from one run
per side, so host load during that run moves them, and they cannot be
compared across sides.  Last, PROBE_ROUNDS = 3 rounds of
an in-process probe per checkout, the two sides alternating (the parent
first in even rounds) and every round recorded: the time of
``field_make`` for q = 243 and 256,
the median in-process time of ``build_concat``, of
``ConcatCode.encode`` (one seeded blob, code built before the clock
starts) and of ``ConcatCode.repair`` of every node at (8,5,4,11) and
(10,6,5,11), of ``LayeredCode`` encode,
collect from every (n-1)-subset and repair of every node at (8,5,11)
and (10,4,11), of ``save_state`` at (8,5,4,11) into one directory,
of ``load_state`` of that store while the code that saved it is alive,
and again once no code of those parameters is alive (each load drops
its result), and of criterion 8's
sweep (``certify_infosets`` on ``rs_jgc(n,v,k,t,q)`` for every n <= 7,
one median for q = 7 and one for q = 8, as the certify-sweep workload
runs both, codes built before the clock starts), passes of
``storesim.collect`` over every k-subset anchor of (8,5,4,11) and
(10,6,5,11), each followed by the process's peak RSS (``ru_maxrss``:
a pass over every anchor fills every per-anchor cache), the
cold-minus-warm collect probe, and the line count of ``src/``.  The
cold-minus-warm probe builds a new (10,6,5,11) code, ingests one seeded
blob and collects at 30 seeded anchors, each once cold (its schedule
and plans unbuilt) and then 3 times warm; it reports the quartiles of
cold minus the warm minimum, of cold and of warm, and the collections
of each garbage-collector generation over the pass, counted in the
process by a ``gc.callbacks`` hook.  Last in the probe, the median
time of ``save_state`` and of ``load_state`` (the saving code alive)
at (12,7,6,13), whose 46,656 symbols per node make the persistence
layer's per-symbol cost visible, with the bytes of that store (its
manifest and node files); it runs after every peak-RSS reading,
so its larger code does not raise them.  Then the first-use probe: PAIRS
alternating pairs (the parent first when the pair is even) per shape in
FIRST_USE_SHAPES, each run a fresh process that builds the code, ingests
one seeded blob and collects it at one seeded anchor, and reports the
three times, their sum and the process's peak RSS (``ru_maxrss``).  A
code that defers work from its build to its first use moves time, and
only this sum shows whether it removed any.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every workload gets the same number of alternating pairs, so a claimed
# gain and the no-regression evidence on the others meet one pair rule
WORKLOADS = ["certify-sweep", "collect-all", "cascade-10", "churn"]
PAIRS = 10
TRACE_SEED = 3
PROBE_ROUNDS = 3

COUNTS = [
    "field.add.calls", "field.sub.calls", "field.neg.calls", "field.mul.calls",
    "field.inv.calls", "matrix.det.calls", "matrix.rref.calls", "matrix.pi.calls",
    "combinat.shell_index.calls", "jgc.syndrome_of.calls",
    "jgc.erasure_decode.calls", "jgc.dense_fallback.calls",
    "layered.encode_layered.calls", "storesim.bytes_written",
]
SINGLE_RUN_TIMINGS = [
    "field.ops_per_s.q11", "field.ops_per_s.q8",
    "matrix.det5_per_s", "matrix.rref_24x48_ms",
    "matrix.det.self_s", "matrix.rref.self_s", "matrix.pi.self_s",
    "jgc.certify_infosets.self_s", "concat.build.self_s",
    "jgc.syndrome_of.self_s", "jgc.erasure_decode.self_s",
    "layered.encode_layered.self_s",
    "concat.collect.self_s", "concat.repair.self_s", "concat.encode.self_s",
    "storesim.save.self_s", "storesim.load.self_s",
    "trace.overhead_ratio", "trace.traced_s", "trace.untraced_s",
]

# build + first ingest + first collect of one new code in a fresh
# process; the blob is drawn outside the clock
FIRST_USE_SHAPES = [(10, 6, 5, 11), (12, 7, 6, 13)]
FIRST_USE = r"""
import itertools, json, random, resource, sys, time
from graphcodes import concat, storesim
n, v, k, q = map(int, sys.argv[1:])
t0 = time.perf_counter()
code = concat.build_concat(n, v, k, q)
build = time.perf_counter() - t0
rng = random.Random(1)
blob = [rng.randrange(q) for _ in range(code.M)]
A = rng.choice(list(itertools.combinations(range(n), k)))
t0 = time.perf_counter()
state = storesim.ingest(code, blob)
t1 = time.perf_counter()
if storesim.collect(state, A) != blob:
    sys.exit("collect returned a wrong blob")
t2 = time.perf_counter()
print(json.dumps({"build_s": build, "ingest_s": t1 - t0, "collect_s": t2 - t1,
                  "total_s": build + t2 - t0,
                  "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

# time field_make, code builds, loads, criterion 8's certify sweep and
# all-anchor collect passes in a fresh process
PROBE = r"""
import gc, itertools, json, os, random, resource, statistics, sys, tempfile, time, weakref
from graphcodes import concat, field, jgc, rs, storesim
out = {"field_make_s": {}}
for q in (243, 256):
    t0 = time.perf_counter()
    field.FieldSpec(q)
    out["field_make_s"][str(q)] = round(time.perf_counter() - t0, 4)

def median_ms(f, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1000, 2)

out["median_ms"] = {
    "build_concat(8,5,4,11)": median_ms(lambda: concat.build_concat(8, 5, 4, 11), 9),
    "build_concat(10,6,5,11)": median_ms(lambda: concat.build_concat(10, 6, 5, 11), 3)}
for shape, reps in (((8, 5, 4, 11), 9), ((10, 6, 5, 11), 5)):
    code = concat.build_concat(*shape)
    rng = random.Random(1)
    blob = [rng.randrange(code.F.q) for _ in range(code.M)]
    out["median_ms"]["encode(%d,%d,%d,%d)" % shape] = median_ms(
        lambda: code.encode(blob), reps)
    nodes = code.encode(blob)
    if any(code.repair(nodes, f)[0] != nodes[f] for f in range(code.n)):
        sys.exit("concat repair returned a wrong column")
    out["median_ms"]["repair(%d,%d,%d,%d), every node" % shape] = median_ms(
        lambda: [code.repair(nodes, f) for f in range(code.n)], reps)
for shape in ((8, 5, 11), (10, 4, 11)):
    code = storesim.LayeredCode(*shape)
    rng = random.Random(1)
    blob = [rng.randrange(code.F.q) for _ in range(code.M)]
    nodes = code.encode(blob)
    anchors = list(itertools.combinations(range(code.n), code.k))
    if any(code.collect(nodes, A)[0] != blob for A in anchors):
        sys.exit("layered collect returned a wrong blob")
    name = "LayeredCode(%d,%d,%d)" % shape
    out["median_ms"][name + ".encode"] = median_ms(lambda: code.encode(blob), 9)
    out["median_ms"][name + ".collect, every anchor"] = median_ms(
        lambda: [code.collect(nodes, A) for A in anchors], 9)
    out["median_ms"][name + ".repair, every node"] = median_ms(
        lambda: [code.repair(nodes, f) for f in range(code.n)], 9)
code = concat.build_concat(8, 5, 4, 11)
rng = random.Random(1)
state = storesim.ingest(code, [rng.randrange(code.F.q) for _ in range(code.M)])
with tempfile.TemporaryDirectory() as tmp:
    out["median_ms"]["save_state(8,5,4,11)"] = median_ms(
        lambda: storesim.save_state(state, tmp), 9)
    out["median_ms"]["load_state(8,5,4,11)"] = median_ms(
        lambda: storesim.load_state(tmp), 9)
    saved = weakref.ref(code)
    del code, state
    gc.collect()
    if saved() is not None:
        sys.exit("the code that saved the store is still alive")
    out["median_ms"]["load_state(8,5,4,11), no live code"] = median_ms(
        lambda: storesim.load_state(tmp), 9)
for q in (7, 8):
    sweep = [rs.rs_jgc(n, v, k, t, q) for n in range(2, 8) for v in range(1, n + 1)
             for k in range(1, n) for t in range(1, min(v, k) + 1)]
    out["median_ms"]["certify_infosets(rs_jgc(n,v,k,t,%d)), n<=7" % q] = median_ms(
        lambda: [jgc.certify_infosets(c) for c in sweep], 5)
out["all_anchor_collects"] = []
for shape, passes in (((8, 5, 4, 11), 3), ((10, 6, 5, 11), 1)):
    code = concat.build_concat(*shape)
    rng = random.Random(1)
    blob = [rng.randrange(code.F.q) for _ in range(code.M)]
    state = storesim.ingest(code, blob)
    anchors = list(itertools.combinations(range(code.n), code.k))
    times, rss = [], []
    for _ in range(passes):
        t0 = time.perf_counter()
        for A in anchors:
            if storesim.collect(state, A) != blob:
                sys.exit("collect returned a wrong blob")
            state.access_log.clear()
        times.append(round(time.perf_counter() - t0, 3))
        rss.append(round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1))
    out["all_anchor_collects"].append(
        {"shape": list(shape), "anchors": len(anchors), "passes_s": times,
         "peak_rss_mb_after_pass": rss})

# cold minus warm: each of 30 seeded anchors collected once with its
# schedule and plans unbuilt, then warm (the minimum of 3 collects)
def collect_ms(A):
    t0 = time.perf_counter()
    got = storesim.collect(state, A)
    ms = (time.perf_counter() - t0) * 1000
    state.access_log.clear()
    if got != blob:
        sys.exit("collect returned a wrong blob")
    return ms

def quartiles_ms(xs):
    return [round(x, 2) for x in statistics.quantiles(xs, n=4, method="inclusive")]

def count_gc(phase, info):
    if phase == "start":
        gc_counts[info["generation"]] += 1

code = concat.build_concat(10, 6, 5, 11)
rng = random.Random(1)
blob = [rng.randrange(code.F.q) for _ in range(code.M)]
state = storesim.ingest(code, blob)
anchors = random.Random(1).sample(list(itertools.combinations(range(code.n), code.k)), 30)
gc_counts, cold, warm = [0, 0, 0], [], []
gc.callbacks.append(count_gc)
for A in anchors:
    cold.append(collect_ms(A))
    warm.append(min(collect_ms(A) for _ in range(3)))
gc.callbacks.remove(count_gc)
out["cold_minus_warm"] = {
    "shape": [10, 6, 5, 11], "anchors": len(anchors), "quartiles": ["q1", "median", "q3"],
    "gap_ms": quartiles_ms([c - w for c, w in zip(cold, warm)]),
    "cold_ms": quartiles_ms(cold), "warm_ms": quartiles_ms(warm),
    "gc_collections_by_generation": gc_counts}

code = concat.build_concat(12, 7, 6, 13)
rng = random.Random(1)
state = storesim.ingest(code, [rng.randrange(code.F.q) for _ in range(code.M)])
with tempfile.TemporaryDirectory() as tmp:
    out["median_ms"]["save_state(12,7,6,13)"] = median_ms(
        lambda: storesim.save_state(state, tmp), 5)
    out["store_bytes(12,7,6,13)"] = sum(
        os.path.getsize(os.path.join(tmp, name)) for name in os.listdir(tmp))
    if storesim.load_state(tmp).nodes != state.nodes:
        sys.exit("load_state returned other node arrays")
    out["median_ms"]["load_state(12,7,6,13)"] = median_ms(
        lambda: storesim.load_state(tmp), 5)
print(json.dumps(out))
"""


def run_bench(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "10", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def src_lines(checkout):
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent_runs, change_runs, better):
    wins = sum(1 for p, c in zip(parent_runs, change_runs)
               if (c < p if better == "lower" else c > p))
    pm = statistics.median(parent_runs)
    cm = statistics.median(change_runs)
    return {"better": better, "parent": quartiles(parent_runs),
            "change": quartiles(change_runs),
            "change_vs_parent": round(cm / pm - 1, 4) if pm else None,
            "change_wins": wins,
            "runs": {"parent": [round(x, 4) for x in parent_runs],
                     "change": [round(x, 4) for x in change_runs]}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    end_to_end = {}
    for wi, workload in enumerate(WORKLOADS):
        seeds = [args.seed_base + 100 * wi + p for p in range(PAIRS)]
        runs = {"parent": [], "change": []}
        raw = {"parent": [], "change": []}
        for p, seed in enumerate(seeds):
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            for side in order:
                info, result = run_bench(sides[side], workload, seed, 0)
                runs[side].append(result)
                raw[side].append((info["raw_ops"]["setup"]["p50_ms"],
                                  info["reference_kernel_ms"]["p50"]))
                print(workload, seed, side, json.dumps(
                    {k: round(v["value"], 3) for k, v in result["metrics"].items()}),
                    file=sys.stderr, flush=True)
        end_to_end[workload] = {
            "pairs": PAIRS, "seeds": seeds,
            "attempted_ops": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "metrics": {name: compare([r["metrics"][name]["value"] for r in runs["parent"]],
                                      [r["metrics"][name]["value"] for r in runs["change"]],
                                      direction)
                        for name, direction in better.items()},
            # setup_s is scaled by the reference kernel; these are the
            # details line's unscaled setup median and the kernel's median
            "details": {name: compare([r[i] for r in raw["parent"]],
                                      [r[i] for r in raw["change"]], "lower")
                        for i, name in enumerate(("raw_setup_p50_ms",
                                                  "reference_kernel_p50_ms"))},
        }

    per_layer = {}
    for workload in WORKLOADS:
        per_layer[workload] = {}
        for side, checkout in sides.items():
            info, result = run_bench(checkout, workload, TRACE_SEED, 1)
            per_layer[workload][side] = {
                "digest": info["digest"], "correct": result["correct"],
                **{k: result["metrics"][k]["value"] for k in COUNTS},
                "single_run_timings": {k: result["metrics"][k]["value"]
                                       for k in SINGLE_RUN_TIMINGS}}
        parent, change = per_layer[workload]["parent"], per_layer[workload]["change"]
        per_layer[workload]["digest_equal"] = parent["digest"] == change["digest"]
        per_layer[workload]["counts_differ"] = [k for k in COUNTS if parent[k] != change[k]]
        per_layer[workload]["counts_equal"] = not per_layer[workload]["counts_differ"]
    probes = {side: [] for side in sides}
    for r in range(PROBE_ROUNDS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            env = dict(os.environ, PYTHONPATH=os.path.join(sides[side], "src"))
            proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                                  capture_output=True, text=True, check=True)
            probes[side].append(json.loads(proc.stdout))
    first_use = {}
    for shape in FIRST_USE_SHAPES:
        runs = {"parent": [], "change": []}
        for p in range(PAIRS):
            for side in ("parent", "change") if p % 2 == 0 else ("change", "parent"):
                env = dict(os.environ, PYTHONPATH=os.path.join(sides[side], "src"))
                proc = subprocess.run([sys.executable, "-c", FIRST_USE, *map(str, shape)],
                                      env=env, capture_output=True, text=True, check=True)
                runs[side].append(json.loads(proc.stdout))
        first_use["(%d,%d,%d,%d)" % shape] = {
            name: compare([r[name] for r in runs["parent"]],
                          [r[name] for r in runs["change"]], "lower")
            for name in runs["parent"][0]}

    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 10 "
                   "--trace 0 (end to end); --trace 1 (per layer)",
        "method": "alternating parent/change pairs, one process at a time; "
                  "pair p runs the parent first when p is even; probes: "
                  f"{PROBE_ROUNDS} rounds per side, alternating the same way",
        "src_lines": {side: src_lines(c) for side, c in sides.items()},
        "end_to_end": end_to_end,
        "per_layer": {"seed": TRACE_SEED, **per_layer},
        "probes": probes,
        "first_use": {"pairs": PAIRS, **first_use},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
