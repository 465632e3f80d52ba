"""Kernel probe: field and matrix speed on fixed inputs.

Inputs come from a fixed seed, not the run's seed, so each result can
be checked against a checksum pinned here; a kernel that got faster by
computing something else fails the check.
"""

from __future__ import annotations

import random
import statistics
import time

from graphcodes import field, matrix

PROBE_SEED = 1912
RREF_SHAPE = (24, 48)        # one rref over GF(11)
PINNED = {
    "field.q11": 1472068770457262407,
    "field.q8": 1328454576389858962,
    "det5": 1657541895079638110,
    "rref": 788901561866356051,
}


def _mix(h: int, x: int) -> int:
    return (h * 1000003 + x) % (1 << 61)


def _field_round(F, pairs) -> int:
    h = 0
    for a, b in pairs:
        x = F.add(a, b)
        x = F.sub(x, F.mul(a, b))
        x = F.add(x, F.neg(a))
        h = _mix(h, F.mul(x, F.inv(b)))
    return h


FIELD_OPS_PER_PAIR = 7       # add, sub, mul, add, neg, mul, inv


def _timed(fn, min_seconds=0.2, min_reps=3):
    """Median seconds of repeated calls, and the (identical) result."""
    times, result = [], None
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_probe():
    """(metrics, checks): ops or seconds per kernel, and pass/fail per
    pinned checksum."""
    rng = random.Random(PROBE_SEED)
    metrics, checks = {}, {}
    for q in (11, 8):
        F = field.field_make(q)
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(2000)]
        secs, h = _timed(lambda: _field_round(F, pairs))
        metrics[f"field.ops_per_s.q{q}"] = FIELD_OPS_PER_PAIR * len(pairs) / secs
        checks[f"field.q{q}"] = h

    F = field.field_make(11)
    mats = [[[rng.randrange(11) for _ in range(5)] for _ in range(5)]
            for _ in range(200)]

    def dets():
        h = 0
        for M in mats:
            h = _mix(h, matrix.det(F, M))
        return h

    secs, checks["det5"] = _timed(dets)
    metrics["matrix.det5_per_s"] = len(mats) / secs

    rows, cols = RREF_SHAPE
    M = [[rng.randrange(11) for _ in range(cols)] for _ in range(rows)]

    def reduce():
        R, pivots = matrix.rref(F, M)
        h = 0
        for x in pivots + [x for row in R for x in row]:
            h = _mix(h, x)
        return h

    secs, checks["rref"] = _timed(reduce)
    metrics["matrix.rref_24x48_ms"] = secs * 1000.0
    return metrics, {k: checks[k] == PINNED[k] for k in PINNED}, checks
