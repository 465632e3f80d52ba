"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

EXACT_UNITS = {"count", "B", "B/symbol"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_end_to_end_prints_every_end_to_end_metric():
    info, out = result(bench("--workload", "churn", "--seed", "3",
                             "--seconds", "1", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert info["machine"]["nproc"] == os.cpu_count()
    assert info["src_lines"] > 0


# cascade-10 is left out: its traced run takes about 85 s
@pytest.mark.parametrize("workload", ["churn", "collect-all", "certify-sweep"])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", "1")
    runs = [result(bench(*args)) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for info, out in runs:
        assert out["correct"], info
        assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
        assert out["metrics"]["trace.overhead_ratio"]["value"] > 1
    exact = [name for name, unit in expected.items()
             if unit in EXACT_UNITS or name.endswith(".reuse_ratio")]
    first, second = (out["metrics"] for _, out in runs)
    assert {k: first[k]["value"] for k in exact} == \
           {k: second[k]["value"] for k in exact}
    assert runs[0][0]["digest"] == runs[1][0]["digest"]


def test_run_without_a_successful_operation_reports_failure(tmp_path):
    import run

    class Broken:
        primary = "collect"
        setup_repeats = 2

        def setup(self, seed):
            return object()

        def cycle(self, ctx, rec, seed, index):
            rec.op("collect", lambda: 1 // 0)

    rec, metrics, _ = run.run_end_to_end(Broken(), 1, 0.05, str(tmp_path))
    assert 0 < rec.failed <= rec.attempted
    assert metrics["op_p50_ms"] is None and metrics["setup_s"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "churn", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_patches_imported_bindings():
    from graphcodes import field, jgc, matrix
    from tracer import Tracer, assert_untraced, installed_wrappers

    F = field.field_make(7)
    M = [[1, 2, 3], [4, 5, 6]]
    tracer = Tracer()
    tracer.install()
    try:
        jgc.rref(F, M)            # jgc's own binding of matrix.rref
        matrix.rank(F, M)         # rank calls rref through matrix's global
        assert installed_wrappers()
    finally:
        tracer.uninstall()
    assert_untraced()
    stats = tracer.layer_stats()
    assert stats["matrix.rref"][0] == 2
    assert stats["matrix.rank"][0] == 1
    assert tracer.counts["field.inv"] > 0
    names = [tracer.names[i] for i in tracer.span_name]
    rank = names.index("matrix.rank")
    children = [i for i, p in enumerate(tracer.span_parent) if p == rank]
    assert [names[i] for i in children] == ["matrix.rref"]

    def duration(i):
        return tracer.span_end[i] - tracer.span_start[i]

    assert stats["matrix.rank"][1] == pytest.approx(
        duration(rank) - duration(children[0]))
