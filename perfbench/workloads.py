"""The benchmark's workloads.

Each workload builds its code(s) in ``setup`` and then runs cycles.  A
cycle is a fixed piece of work whose inputs come from the seed and the
cycle index only, so two runs with one seed do the same work and the
first cycle's outputs can be compared across commits bit for bit.
The traced pass runs the same set-up and first cycle as the timed run.

Every operation goes through ``rec.op``, which times it and checks its
result; every call into graphcodes is made through a module attribute
(``storesim.collect``, not an imported name) so the tracer sees it.
"""

from __future__ import annotations

import itertools
import os
import random
from math import comb

from graphcodes import concat, jgc, rs, storesim


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


class StorageWorkload:
    """Per cycle: ingest a seeded blob, collect it from seeded k-node
    anchors, repair every node; with ``persist``, save and load the
    state.  The primary operation is the collect, or with ``persist``
    the whole cycle (the sum of its operations)."""

    def __init__(self, name, params, anchors, setup_repeats, persist=False):
        self.name = name
        self.params = params
        self.anchors = anchors            # per cycle; None means all C(n,k)
        self.setup_repeats = setup_repeats
        self.persist = persist
        self.primary = "cycle" if persist else "collect"

    def setup(self, seed: int):
        return concat.build_concat(*self.params)

    def cycle(self, code, rec, seed: int, index: int):
        n, q, M = code.n, code.F.q, code.M
        rng = _rng(seed, self.name, index)
        blob = [rng.randrange(q) for _ in range(M)]
        state = rec.op("ingest", lambda: storesim.ingest(code, blob),
                       lambda s: s.blob == blob and len(s.nodes) == n, work=M)
        if state is None:
            return
        if index == 0:
            rec.digest(state.nodes)

        anchors = list(itertools.combinations(range(n), code.k))
        rng.shuffle(anchors)
        for A in anchors[:self.anchors]:
            view = rec.view(state)
            rec.op("collect", lambda: storesim.collect(view, A),
                   lambda got: got == blob, work=M)
            rec.audit_collect(view, A)

        beta = code.layout.beta
        for f in range(n):
            # the failed node's array is wiped, so a repair that read it
            # could not return the original
            nodes = [list(row) for row in state.nodes]
            nodes[f] = [0] * code.alpha
            view = rec.view(storesim.StorageState(code, blob, nodes))
            rec.op("repair", lambda: storesim.repair_node(view, f),
                   lambda out: (out.nodes[f] == state.nodes[f]
                                and set(out.last_repair_bandwidth.values())
                                == {beta}))
            rec.audit_repair(view, f, beta)

        if self.persist:
            path = os.path.join(rec.workdir, "store")
            rec.op("save", lambda: storesim.save_state(state, path))
            rec.note_bytes(path, M)
            rec.op("load", lambda: storesim.load_state(path),
                   lambda got: (got.nodes == state.nodes and got.blob == blob
                                and (got.code.n, got.code.k, got.code.F.q,
                                     got.code.M, got.code.alpha)
                                == (n, code.k, q, M, code.alpha)))


class CertifyWorkload:
    """certify_infosets on every Reed-Solomon graph code with n <= 7,
    over GF(7) and GF(8), at the canonical
    evaluation points 0..n-1; the seed orders the codes.  The codes are
    fixed because their cost depends on the points: seeded points moved
    the field multiplications of one GF(8) code by up to 10%."""

    name = "certify-sweep"
    primary = "certify"
    setup_repeats = 3
    fields = (7, 8)
    max_n = 7

    def setup(self, seed: int):
        codes = []
        for q in self.fields:
            for n in range(2, self.max_n + 1):
                for v in range(1, n + 1):
                    for k in range(1, n):
                        for t in range(1, min(v, k) + 1):
                            shape = (n, v, k, t, q)
                            codes.append((shape, rs.rs_jgc(*shape)))
        return codes

    def cycle(self, codes, rec, seed: int, index: int):
        order = list(codes)
        _rng(seed, self.name, index).shuffle(order)
        for (n, v, k, t, q), code in order:
            anchors = comb(n, k)
            report = rec.op(
                "certify", lambda: jgc.certify_infosets(code),
                lambda r: (len(r["pass"]) == anchors and not r["fail"]
                           and not r["skipped"]),
                work=anchors)
            if index == 0 and report is not None:
                rec.digest([(n, v, k, t, q), code.alphas, report["pass"],
                            report["fail"], report["skipped"]])


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        StorageWorkload("collect-all", (8, 5, 4, 11), anchors=None,
                        setup_repeats=15),
        StorageWorkload("cascade-10", (10, 6, 5, 11), anchors=2,
                        setup_repeats=3),
        StorageWorkload("churn", (8, 5, 4, 11), anchors=0, setup_repeats=15,
                        persist=True),
        CertifyWorkload(),
    )
}
