"""Concatenated layered storage codes.

A concatenated code for (n, k, d = n-1) keeps one layered code of size
v = k+1 holding the bulk of the data plus smaller layered codes whose
injected layer checks carry Johnson graph code syndromes of the larger
ones.  A data collector reading k nodes recovers the under-accessed
layers shell by shell: the syndrome stored at a fully-accessed sublayer
L_w, together with the already recovered shells, completes one helper
codeword per stored vector and delivers one symbol to every layer above
L_w.  Multiplicities are chosen so that supply matches demand in every
column of the intersection census; for v = k+1 the parameters meet the
MSR point M = k*alpha, alpha = (n-k)^k, beta = (n-k)^(k-1).

Every dependent is smaller than its parent, so the components of one
size (siblings) are recovered together: every operation reads (encode
places the payload at data[u]), packs the siblings' vectors into
region vectors (field.Regions, one slot per sibling) and replays, once
per size and largest first, its part of the operation's schedule with
one function, _replay: decode rounds, layer-check fills and the
syndromes handed down to the dependents as injected values.  One
component rule gives every size u its rounds c = u-2 .. 0; the last,
c = 0, is the precode, the same graph code family with a zero syndrome.
Words of one helper code are stacked into wider regions, so a round
step makes one erasure_decode, one slot group per relabeled anchor, and
a round hands down with one syndrome_of.  A schedule
depends on the parameters and the anchor or failed node, never on the
data, so each is compiled once and replayed, as in Jerasure: encode's
runs round 0 at the fixed anchor A0, closes every layer check and hands
down at every sublayer; a repair's, one per failed node, fills its
positions and hands down at the sublayers holding it; a collect's, one
per anchor A, computes only what is read: a layer's last position, its
check, is neither payload nor a helper-code coordinate, so a layer
whose largest node is outside A gets no fill, and a round hands down
only at the layers its dependents fill.  With k = n-1 every helper
code is trivial, so the pure layered code (storesim.LayeredCode) is
the case of one component, no rounds, nothing injected.
"""

from __future__ import annotations

import itertools
import weakref
from array import array
from fractions import Fraction
from math import comb, lcm
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from graphcodes.combinat import Layer, ball_size, layer
from graphcodes.field import field_make
from graphcodes.jgc import JGCSpec, aligned_dual_rows, decode_plan, erasure_decode, syndrome_of
from graphcodes.layered import LayeredSpec, check_node, fill_layers
from graphcodes.matrix import getter


def _flat(xss) -> list:
    return list(itertools.chain.from_iterable(xss))


def series_multiplicities(v: int, ell: int) -> List[int]:
    """Copy counts (a_0, ..., a_{v-1}) per component size v-i.

    Power series coefficients of 1/((1 - ell*t) (1+t)^ell); these are
    the unique multiplicities for which fully-accessed layers compensate
    under-accessed layers in every census column but the last.
    """
    # denominator g(t) = (1 - ell t)(1+t)^ell, then invert the series
    g = [comb(ell, i) for i in range(ell + 1)]
    g = [c - (ell * g[i - 1] if i else 0) for i, c in enumerate(g + [0])]
    a = [1]
    for i in range(1, v):
        a.append(-sum(g[j] * a[i - j] for j in range(1, min(i, len(g) - 1) + 1)))
    return a


class ConcatParams:
    """Aggregate storage parameters of a concatenated code."""

    def __init__(self, n: int, v: int, k: int):
        ell = n - 1 - k
        if ell < 0:
            raise ValueError("need k <= n-1")
        a = series_multiplicities(v, ell)
        self.n, self.v, self.k, self.ell = n, v, k, ell
        self.counts = {v - i: a[i] for i in range(v) if a[i]}
        self.M1 = sum(c * comb(n, u) * (u - 1) for u, c in self.counts.items())
        self.M0 = sum(
            c * comb(n - k, u) * (u - 1)
            for u, c in self.counts.items() if 2 <= u < v
        )
        self.M = self.M1 - self.M0
        self.alpha = sum(c * comb(n - 1, u - 1) for u, c in self.counts.items())
        self.beta = sum(
            c * comb(n - 2, u - 2) for u, c in self.counts.items() if u >= 2
        )

    def __repr__(self) -> str:
        return (
            f"ConcatParams(n={self.n}, v={self.v}, k={self.k}, M={self.M}, "
            f"alpha={self.alpha}, beta={self.beta})"
        )


def concat_params(n: int, v: int, k: int) -> ConcatParams:
    return ConcatParams(n, v, k)


def balance_table(n: int, v: int, k: int) -> Tuple[List[Dict[int, int]], List[int]]:
    """Per-size supply/demand rows over census columns c = k .. 0.

    Row u has +1 in column u (each fully-accessed copy donates its
    injected check per sublayer) and -C(n-k, u-c)(u-1-c) in columns
    c <= u-2 (symbols missing per sublayer).  Weighted by the copy
    counts, every column sums to zero except column 0, which sums to
    -M0.
    """
    params = concat_params(n, v, k)
    rows = []
    for u in range(v, 0, -1):
        row: Dict[int, int] = {}
        if u <= k:
            row[u] = 1
        for c in range(min(u - 2, k), -1, -1):
            need = comb(n - k, u - c) * (u - 1 - c)
            if need:
                row[c] = -need
        rows.append(row)
    sums = []
    for c in range(k, -1, -1):
        total = 0
        for u, row in zip(range(v, 0, -1), rows):
            total += params.counts.get(u, 0) * row.get(c, 0)
        sums.append(total)
    return rows, sums


def demand_row(n: int, v: int, k: int) -> List[int]:
    """Symbols to deliver per shell: j times the shell-j census."""
    out = []
    for j in range(1, k + 1):
        size = comb(k, k - j) * (comb(n - k, v - k + j) if v - k + j >= 0 else 0)
        if size:
            out.append(j * size)
    return out


def subgraph_code_table(n: int, v: int, k: int) -> List[Dict[str, int]]:
    """Johnson graph codes on the subgraphs J(n-w, v-w), one row per
    radius with a nonempty shell, with the shell size and [length, dim]."""
    rows = []
    for w in range(v - 2, 0, -1):
        n2, v2, k2 = n - w, v - w, k - w
        length = comb(n2, v2)
        prev = 0
        # every shell in this radius range is nonempty
        for r in range(min(v2, k2, n2 - v2, n2 - k2) + 1):
            size = ball_size(n2, v2, k2, r)
            rows.append({
                "w": w, "r": r, "shell": size - prev,
                "length": length, "dim": size,
            })
            prev = size
    return rows


def parse_scenario(text: str) -> Tuple[int, ...]:
    try:
        ws = tuple(int(p) for p in text.split("-"))
    except ValueError:
        raise ValueError(f"bad scenario {text!r}, expected like '3-2-1'")
    if not ws or any(w < 1 for w in ws):
        raise ValueError(f"bad scenario {text!r}, sizes must be positive")
    return ws


def _num_rounds(n: int, v: int, k: int) -> int:
    rounds = 0
    for j in range(1, k + 1):
        if v - k + j >= 0 and comb(k, k - j) * comb(n - k, v - k + j) > 0:
            rounds = j
    return rounds


def _round_code_shape(n: int, v: int, k: int, w: int, r: int) -> Tuple[int, int, int, int]:
    """(n', v', k', t) of the helper code for round r from size-w sublayers."""
    n2, v2, k2 = n - w, v - w, k - w
    t = min(v2, k2) - (r - 1)
    return n2, v2, k2, t


def _shape_codim(shape: Tuple[int, int, int, int]) -> int:
    n2, v2, k2, t = shape
    return comb(n2, v2) - ball_size(n2, v2, k2, min(v2, k2) - t)


class ScenarioLayout:
    """Copy counts and storage parameters for one helper scenario.

    Round r recovers shell r using syndromes of the helper code on
    J(n-w_r, v-w_r) stored at size-w_r sublayers; the multiplicities
    m_r solve the shell-by-shell supply equations
    sum_{r <= j} m_r C(k-j, w_r) = j and are rescaled by the smallest
    integer making everything integral (the top copy count scales too).
    """

    def __init__(self, n: int, v: int, k: int, ws: Sequence[int]):
        ws = tuple(ws)
        rounds = _num_rounds(n, v, k)
        if len(ws) != rounds:
            raise ValueError(f"scenario needs {rounds} rounds, got {len(ws)}")
        self.n, self.v, self.k, self.ws = n, v, k, ws
        mult: List[Fraction] = []
        for j in range(1, rounds + 1):
            supplied = sum(
                m * comb(k - j, ws[r - 1]) for r, m in enumerate(mult, start=1)
            )
            cap = comb(k - j, ws[j - 1])
            if cap == 0:
                raise ValueError(f"round {j} sublayer size {ws[j - 1]} too large")
            # positive: rounds before j supply at most j-1, since
            # C(k-j, w) <= C(k-j+1, w) and round j-1 meets shell j-1
            mult.append(Fraction(j - supplied, cap))
        self.multiplicities = tuple(mult)
        self.shapes = [
            _round_code_shape(n, v, k, ws[r - 1], r) for r in range(1, rounds + 1)
        ]
        self.codims = [_shape_codim(s) for s in self.shapes]
        self.scale = scale = lcm(*(m.denominator for m in mult))
        counts: Dict[int, Fraction] = {v: Fraction(1)}
        for w, m, codim in zip(ws, mult, self.codims):
            counts[w] = counts.get(w, Fraction(0)) + m * codim
        for u in range(v - 1, 2, -1):
            cnt = counts.get(u)
            if not cnt:
                continue
            for c in range(u - 2, 0, -1):
                codim = _shape_codim((n - c, u - c, k - c, 1))
                counts[c] = counts.get(c, Fraction(0)) + cnt * (u - 1 - c) * codim
        # each count is an integer combination of 1 and the
        # multiplicities, so scaling by their denominators' lcm is exact
        self.counts = {u: int(cnt * scale) for u, cnt in counts.items() if cnt}
        dims = {
            u: ball_size(n, u, k, u - 1) for u in self.counts if 2 <= u < v
        }
        self.M = self.counts[v] * comb(n, v) * (v - 1) + sum(
            cnt * (u - 1) * dims[u]
            for u, cnt in self.counts.items() if 2 <= u < v
        )
        self.alpha = sum(
            cnt * comb(n - 1, u - 1) for u, cnt in self.counts.items()
        )
        self.beta = sum(
            cnt * comb(n - 2, u - 2)
            for u, cnt in self.counts.items() if u >= 2
        )

    @property
    def name(self) -> str:
        return "-".join(str(w) for w in self.ws)


def admissible_scenarios(n: int, v: int, k: int) -> List[Tuple[int, ...]]:
    """Nonincreasing sublayer sizes with positive multiplicities."""
    rounds = _num_rounds(n, v, k)
    out = []
    for ws in itertools.product(*(range(1, v - 1 - r + 1)
                                  for r in range(1, rounds + 1))):
        if any(ws[i] < ws[i + 1] for i in range(len(ws) - 1)):
            continue
        try:
            ScenarioLayout(n, v, k, ws)
        except ValueError:
            continue
        out.append(ws)
    return out


def scenario_table(n: int, v: int, k: int,
                   scenarios: Optional[Sequence[str]] = None) -> List[Dict]:
    """One row per scenario: copy counts by size and (M, alpha, beta)."""
    if scenarios is None:
        wss = admissible_scenarios(n, v, k)
    else:
        wss = [parse_scenario(s) for s in scenarios]
    rows = []
    for ws in wss:
        lay = ScenarioLayout(n, v, k, ws)
        rows.append({
            "scenario": lay.name,
            "counts": dict(lay.counts),
            "M": lay.M,
            "alpha": lay.alpha,
            "beta": lay.beta,
        })
    return rows


class _Round:
    """Round c of every size-u component: its m = u-1-c stored vectors
    per size-c sublayer are words of ``code``, (n-c, u-c, k-c, 1), with
    syndromes handed down for c >= 1 and zero for c = 0, the precode."""

    __slots__ = ("c", "m", "code", "codim")

    def __init__(self, c: int, m: int, code: JGCSpec):
        self.c = c
        self.m = m
        self.code = code
        self.codim = code.length - code.dim


def code_family(n: int, v: int, k: int) -> Optional[str]:
    """The family (n, v, k) names: "layered" (the pure layered code) for
    k = n-1, "concat" (the cascade) for v = k+1 > n-k, else None; raises
    ValueError unless n, v, k are ints with 0 <= k < n and 1 <= v <= n."""
    for name, x in zip("nvk", (n, v, k)):
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{name}={x!r} is not an integer")
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if not 1 <= v <= n:
        raise ValueError(f"need 1 <= v <= n, got v={v}, n={n}")
    if k == n - 1:
        return "layered"
    return "concat" if v == k + 1 > n - k else None


def named_family(n: int, v: int, k: int) -> str:
    """code_family(n, v, k), or ValueError when it names no family."""
    family = code_family(n, v, k)
    if family is None:
        raise ValueError(f"need v = k+1 > n-k (concatenated) or k = n-1 "
                         f"(pure layered), got n={n}, v={v}, k={k}")
    return family


class ReadLog:
    """The reads of one collect or repair (ConcatCode._gather): records
    holds one (node, offsets) pair per node read, in the order read.
    len() is the number of symbols read and iteration yields each (node,
    offset) read, so a log costs O(nodes), not O(symbols), to keep."""

    __slots__ = ("records",)

    def __init__(self, records: List[Tuple[int, Sequence[int]]]):
        self.records = records

    def __len__(self) -> int:
        return sum(len(offsets) for _, offsets in self.records)

    def __iter__(self):
        for node, offsets in self.records:
            yield from zip(itertools.repeat(node), offsets)

    def __eq__(self, other) -> bool:
        return isinstance(other, ReadLog) and self.records == other.records


class ConcatCode:
    """A concatenated layered code ready for encoding and recovery.

    One component rule builds every code: a size-u copy gets, for
    c = u-2 .. 0, a round of u-1-c stored vectors per size-c sublayer,
    words of the graph code (n-c, u-c, k-c, 1), unless that code has
    codimension 0.  For c >= 1 their syndromes are injected into size-c
    dependents; round c = 0 is the precode, whose words have syndrome 0,
    so any k nodes determine the u-1 data vectors.  Every component of
    one size has the same rounds, rounds[u].  Starting from one size-v
    copy this gives the two families that code_family names (any other
    shape raises ValueError):
    - "concat", the cascade v = k+1 > n-k: helper data moves only between
      layers in the same census column; q >= n, and layout is its
      ScenarioLayout, which tabulates the other scenarios too.
    - "layered", k = n-1: every helper code has codimension 0, so this is
      the pure layered code, one component with nothing injected; layout
      is None, and any 1 <= v <= n and field order is accepted.

    After __init__ a code changes only its memo caches, each filled
    deterministically from the parameters: _lifts, _schedules,
    _encoder, _repairs and every round JGCSpec's _plans, _cofactors,
    _sparse and _masks (its _dual and _aligned are built with it; its
    own generator rows never are, as nothing reads them).  So every
    caller of one (n, v, k, q) can share one code, as live_concat does,
    and shares its warm plans and schedules with it.
    """

    def __init__(self, n: int, v: int, k: int, q: int):
        family = named_family(n, v, k)
        self.F = field_make(q)
        if family == "concat" and q < n:
            raise ValueError(f"need q >= n, got q={q}, n={n}")
        self.layout = (ScenarioLayout(n, v, k, range(v - 2, v - 2 - _num_rounds(n, v, k), -1))
                       if family == "concat" else None)
        self.n, self.v, self.k, self.A0 = n, v, k, tuple(range(k))
        # _lift's, _schedule's, encode's and repair's caches, filled on first use
        self._lifts: Dict[Tuple[JGCSpec, Layer, int], Tuple[int, ...]] = {}
        self._schedules: Dict[Layer, Dict[int, tuple]] = {}
        self._encoder: Optional[Dict[int, tuple]] = None
        self._repairs: Dict[int, Tuple[list, Dict[int, tuple]]] = {}

        # sizes[cid] is component cid's layer size, numbered breadth
        # first (the loop visits the ids it appends): cid's dependents
        # are kids[cid] onwards, rd.m * rd.codim per round c >= 1 of
        # rounds[sizes[cid]], in round order
        self.sizes: List[int] = [v]
        self.kids: List[int] = []
        self.rounds: Dict[int, List[_Round]] = {}
        for u in self.sizes:
            self.kids.append(len(self.sizes))
            if u not in self.rounds:
                self.rounds[u] = self._size_rounds(u)
            self.sizes += [rd.c for rd in self.rounds[u] if rd.c for _ in range(rd.m * rd.codim)]
        self.lspec = {u: LayeredSpec(self.F, n, u) for u in self.rounds}

        # data[u] lists a size-u vector's payload positions in payload
        # order: below the top, l*u + j for each word j < u-1 and each
        # layer l of round 0's information set at A0 (every layer where
        # the size has no round 0, as every layer then meets any k-set)
        self.data: Dict[int, List[int]] = {}
        for u, spec in self.lspec.items():
            info = range(spec.R)
            for rd in self.rounds[u]:
                if not rd.c:
                    info = [spec.index[rd.code.vertices[i]] for i in rd.code.ball(self.A0)]
            self.data[u] = spec.data if u == v else [l * u + j for j in range(u - 1) for l in info]
        *self.offsets, self.alpha = itertools.accumulate(
            (comb(n - 1, u - 1) for u in self.sizes), initial=0)
        self.M = sum(len(self.data[u]) for u in self.sizes)
        self.beta = sum(self.lspec[u].beta for u in self.sizes)
        self.start = list(itertools.accumulate((len(self.data[u]) for u in self.sizes), initial=0))

        # order[u]: the size-u component ids by slot, sizes largest first.
        # Size c takes each larger size u (from slot first[u, c]) and each
        # dependent index j in turn, the j-th dependents (kids[cid] + j) of
        # u's slots in slot order, so one round's syndromes fill B_u
        # consecutive slots.  kernels[u]: regions of B_u slots
        order, self.first = {v: [0]}, {}
        for u in sorted(self.rounds, reverse=True):
            at = 0
            for rd in (rd for rd in self.rounds[u] if rd.c):
                dst = order.setdefault(rd.c, [])
                self.first[u, rd.c] = len(dst)
                dst.extend(self.kids[cid] + j for j in range(at, at + rd.m * rd.codim)
                           for cid in order[u])
                at += rd.m * rd.codim
        self.order = {u: order[u] for u in sorted(order, reverse=True)}
        # a decode's right-hand side row is a dual row plus the syndrome
        self.longest = 1 + max([v] + [rd.code.length for rds in self.rounds.values() for rd in rds])
        self.kernels = {u: self.F.regions(len(ids), self.longest) for u, ids in self.order.items()}
        # a collect reads node j at the offsets cols, by (size, position,
        # slot), into the positions at[j] of each size (reads[j], read by
        # _gather), and row(values) puts them back in column order
        self.cols = tuple(self.offsets[cid] + s for u, ids in self.order.items()
                          for s in range(self.lspec[u].alpha) for cid in ids)
        self.row = getter(sorted(range(len(self.cols)), key=self.cols.__getitem__))
        self.reads = [(j, self.cols, [(u, self.lspec[u].at[j]) for u in self.order])
                      for j in range(n)]
        _built[n, v, k, q] = self

    # ----- helper code bookkeeping -----

    def _size_rounds(self, u: int) -> List[_Round]:
        F, rds = self.F, []
        for c in range(u - 2, -1, -1):
            n2, v2, k2 = self.n - c, u - c, self.k - c
            # codimension 0: the radius ball already covers every layer above L_c
            if _shape_codim((n2, v2, k2, 1)):
                code = JGCSpec(F, [[F.pow(a, i) for a in range(n2)] for i in range(k2)], v2, 1)
                aligned_dual_rows(code)
                rds.append(_Round(c, u - 1 - c, code))
        return rds

    # ----- labelings -----

    def _lift(self, rd: _Round, L_c: Layer, i: int) -> Tuple[int, ...]:
        """The vector position behind each coordinate of a helper codeword.

        The coordinate at the (relabeled) sublayer L' belongs to the
        layer L = L_c | L' of the size-(c + v') component and is the
        stored symbol at the i-th smallest node of L minus L_c.  The
        tuple is built once per (helper code, L_c, i), and every round
        has its own helper code, shared by every component of its size, so
        the cache holds at most sum(C(n, rd.c) * rd.m) tuples over rounds.
        """
        key = (rd.code, L_c, i)
        out = self._lifts.get(key)
        if out is None:
            spec = self.lspec[len(L_c) + rd.code.v]
            rest = [x for x in range(self.n) if x not in L_c]
            pos = []
            for Lp in rd.code.vertices:
                nodes = [rest[j] for j in Lp]
                L = layer(L_c + tuple(nodes))
                pos.append(spec.index[L] * spec.v + L.index(nodes[i]))
            out = self._lifts[key] = tuple(pos)
        return out

    def _vectors(self) -> Dict[int, list]:
        """One region vector per size, every position unknown (None)."""
        return {u: [None] * (self.lspec[u].R * u) for u in self.order}

    def _payload(self, vectors: Dict[int, list]) -> List[int]:
        """The payload at data[u] of the region vectors, by component."""
        payload: List[Sequence[int]] = [()] * len(self.sizes)
        for u, ids in self.order.items():
            vals = self.kernels[u].unpack(getter(self.data[u])(vectors[u]))
            for b, cid in enumerate(ids):
                payload[cid] = vals[b::len(ids)]
        return _flat(payload)

    def _array(self, nodes: Sequence[Sequence[int]], i: int) -> Sequence[int]:
        """nodes[i], or ValueError unless it is there with alpha entries."""
        if i >= len(nodes) or len(nodes[i]) != self.alpha:
            raise ValueError(f"node {i} has no array of alpha={self.alpha} symbols")
        return nodes[i]

    def _put(self, vals: Sequence[int], parts, vectors: Dict[int, list]) -> None:
        """Pack vals, listed by (size, position, slot), into the region
        vectors at parts, a list of (size, positions)."""
        start = 0
        for u, pos in parts:
            K, w = self.kernels[u], vectors[u]
            for p, x in zip(pos, K.pack(vals[start:start + len(pos) * K.B])):
                w[p] = x
            start += len(pos) * K.B

    def _column(self, vectors: Dict[int, list], j: int) -> List[int]:
        """Node j's array, from the region vectors."""
        return list(self.row(_flat(self.kernels[u].unpack(
            getter(self.lspec[u].at[j])(vectors[u])) for u in self.order)))

    def _gather(self, nodes: Sequence[Sequence[int]], reads, vectors: Dict[int, list]) -> ReadLog:
        """Read each (node j, offsets, parts) of reads: node j's symbols
        at offsets, from an array checked to hold alpha entries (_array),
        each checked to be a symbol, packed into vectors at parts (_put).
        The log has one (j, offsets) record per read, in the order read."""
        log = ReadLog([])
        for j, offsets, parts in reads:
            self._put(self.F.check_symbols(getter(offsets)(self._array(nodes, j)), f"node {j}"),
                      parts, vectors)
            log.records.append((j, offsets))
        return log

    def _stack(self, K, w: list, code: JGCSpec, lifts, groups=()) -> tuple:
        """(K2, word): the G words of w at the position lists in lifts, one
        word of K2's G*B-slot regions, slot (g, b) holding slot b of word
        g, and 0 at a decode's unknowns: groups lists (words, out) for
        consecutive runs of lifts, each run's words 0 at its positions
        out.  One gather, and the words' bytes cut into K2's regions.  A
        None at any other position fails K.to_bytes: ValueError naming
        its vertex."""
        K2 = self.F.regions(len(lifts) * K.B, self.longest)
        cols = list(zip(*[itemgetter(*lift)(w) for lift in lifts]))
        at = 0
        for g, out in groups:
            zero = (0,) * g
            for t in out:
                cols[t] = cols[t][:at] + zero + cols[t][at + g:]
            at += g
        try:
            stack = K.to_bytes(itertools.chain.from_iterable(cols))
        except TypeError:
            t = next(t for t, col in enumerate(cols) if None in col)
            raise ValueError(f"missing known coordinate at {code.vertices[t]}") from None
        return K2, K2.from_bytes(stack)

    def _decode(self, u: int, w: list, rd: _Round, subs: list,
                vectors: Optional[Dict[int, list]]) -> None:
        """Complete the words of every piece of a round step's subs
        (_subs) in the size-u region vector w with one erasure_decode of
        their stack (_stack), one slot group per relabeled anchor A2,
        given the syndrome of all the pieces (_syndrome; zero in round
        0), and set each group's positions plan.out from its own slots."""
        K = self.kernels[u]
        pieces = [piece for _, _, ps in subs for piece in ps]
        groups = [(len(ps) * rd.m, plan.out) for _, plan, ps in subs]
        lifts = [lift for _, ls in pieces for lift in ls]
        K2, word = self._stack(K, w, rd.code, lifts, groups)
        word = erasure_decode(rd.code, [(A2, len(ps) * rd.m * K.B) for A2, _, ps in subs], word,
                              self._syndrome(u, rd, pieces, vectors) if rd.c else None, K2)
        # a group's g words are g*B slots of the stack, from slot at*B
        bits, at = 8 * K.width * K.B, 0
        for g, out in groups:
            Kg, mask = self.F.regions(g * K.B, self.longest), (1 << g * bits) - 1
            vals = K.from_bytes(Kg.to_bytes([word[t] >> at * bits & mask for t in out]))
            for x, (t, lift) in zip(vals, itertools.product(out, lifts[at:at + g])):
                w[lift[t]] = x
            at += g

    def _syndrome(self, u: int, rd: _Round, pieces, vectors: Dict[int, list]) -> List[int]:
        """The syndrome of a round rd >= 1 decode of size u over pieces
        (_subs): rd.codim regions of its stack's kernel, slot (g, b) of row
        e for word g = (L_c, i) holding slot first[u, c] + (i*codim + e)*B
        of the sum of read layer L_c in vectors[c].  Every kernel of one
        code has one slot width, so each row joins G chunks of B slots cut
        from the bytes of the sums."""
        c, codim, B, Kc = rd.c, rd.codim, self.kernels[u].B, self.kernels[rd.c]
        sums = Kc.to_bytes([Kc.sum(vectors[c][lc * c:(lc + 1) * c]) for lc, _ in pieces])
        chunk = B * Kc.width
        starts = [(k * Kc.B + self.first[u, c] + i * codim * B) * Kc.width
                  for k in range(len(pieces)) for i in range(rd.m)]
        return [int.from_bytes(b"".join(sums[j + e * chunk:j + (e + 1) * chunk] for j in starts),
                               "little") for e in range(codim)]

    def _schedule(self, A: Layer) -> Dict[int, tuple]:
        """A collect's schedule at anchor A (_compile), kept in
        _schedules[A].  Every fill target is the position of its layer's
        largest node outside A, read with the layer's meet with A off its
        bit mask (LayeredSpec.masks, the rule JGCSpec.ball uses).  A layer
        whose largest node is outside A gets no fill: its target would be
        the layer check, which nothing reads (neither data[u] nor any
        _lift lists it).  Size u's first step fills the layers meeting A in
        u-1 nodes; then each round rd of rounds[u] (missing only at
        codimension 0, where no layer meets A in c nodes) has a step whose
        decodes (_subs) set lifts 0 .. rd.m-1 of the layers meeting A in
        rd.c nodes and whose fill completes them.  A size's injected
        values land on the layers it fills: a round hands down there.
        """
        if A in self._schedules:
            return self._schedules[A]
        inside = sum(1 << j for j in A)
        outside, steps, live = ~inside, {}, {}
        for u in self.order:
            by_meet, live[u] = [array("i") for _ in range(u)], array("i")
            # a layer L missing A has its largest node outside A at the top
            # bit of m & ~A, whose index in L is u-1 less the nodes of L above
            for l, m in enumerate(self.lspec[u].masks):
                top = (m & outside).bit_length()
                if top and m >> top:
                    by_meet[(m & inside).bit_count()].append(l * u + u - 1 - (m >> top).bit_count())
                    live[u].append(l)
            fills = {c: fill for c, fill in enumerate(by_meet) if fill}
            steps[u] = [(None, (), fills.get(u - 1, ()))] + [
                (rd, self._subs(rd, A), fills.get(rd.c, ())) for rd in self.rounds[u]]
        sched = self._schedules[A] = self._compile(steps, live)
        return sched

    def _compile(self, steps: Dict[int, list], layers: Dict[int, Sequence[int]]
                 ) -> Dict[int, tuple]:
        """One operation's schedule, what _replay runs: per size u,
        (steps[u], layers[u], handdowns).  layers[u] lists the size-u
        layers the injected values land on, in the order they are
        handed down; handdowns lists (rd, lifts) for each round rd >= 1
        of rounds[u] with dependents' layers, lifts the words at (L_c,
        i) for L_c over layers[rd.c] and i < rd.m."""
        return {u: (steps[u], layers[u], [
            (rd, [self._lift(rd, self.lspec[rd.c].layers[lc], i)
                  for lc in layers[rd.c] for i in range(rd.m)])
            for rd in self.rounds[u] if rd.c and layers[rd.c]]) for u in self.order}

    def _subs(self, rd: _Round, A: Layer) -> list:
        """Round rd's decode at anchor A, one erasure_decode whose slot
        groups are its entries (_decode): (A2, plan, pieces) per anchor
        A2, A relabeled outside a sublayer L_c inside A, pieces listing
        (index of L_c, the rd.m lifts) of each such L_c.  Round 0 has the
        one sublayer (), with A2 = A and no index: it reads no sums."""
        subs: Dict[Layer, tuple] = {}
        index = self.lspec[rd.c].index if rd.c else {(): None}
        for L_c in itertools.combinations(A, rd.c):
            rest = [x for x in range(self.n) if x not in L_c]
            A2 = tuple(rest.index(a) for a in A if a not in L_c)
            sub = subs.get(A2)
            if sub is None:
                sub = subs[A2] = (A2, decode_plan(rd.code, A2), [])
            sub[2].append((index[L_c], [self._lift(rd, L_c, i) for i in range(rd.m)]))
        return list(subs.values())

    def _replay(self, u: int, w: List[Optional[int]], sched: tuple,
                injected: Dict[int, List[int]], vectors: Optional[Dict[int, list]] = None) -> None:
        """Complete the region vector w of the size-u components (slot b:
        order[u][b]) by their schedule (steps, layers, handdowns), from
        their injected values (lists over layers), and set the dependents'
        ones: the syndromes of the words at each (rd, lifts) of handdowns.
        A step (rd, subs, fill) with decodes makes one erasure_decode
        (_decode): every (L_c, lift) of every (A2, plan, pieces) of subs
        stacked, one slot group per relabeled anchor A2, with K2 regions
        assembled from the sums of the dependents' read layers L_c in
        vectors as syndrome (_syndrome; zero in round 0); then it fills
        fill's targets."""
        steps, layers, handdowns = sched
        K, ids = self.kernels[u], self.order[u]
        B, inj = K.B, None
        if ids[0] in injected:
            inj = [0] * self.lspec[u].R
            for l, x in zip(layers, K.pack(_flat(zip(*(injected[cid] for cid in ids))))):
                inj[l] = x
        for rd, subs, fill in steps:
            if subs:
                self._decode(u, w, rd, subs, vectors)
            fill_layers(K, w, u, inj, fill)
        for rd, lifts in handdowns:
            deps = self.order[rd.c][self.first[u, rd.c]:]
            K2, word = self._stack(K, w, rd.code, lifts)
            syn = K2.unpack(syndrome_of(rd.code, word, K2))
            for e, i, b in itertools.product(range(rd.codim), range(rd.m), range(B)):
                injected[deps[(i * rd.codim + e) * B + b]] = \
                    syn[e * K2.B + i * B + b:(e + 1) * K2.B:rd.m * B]

    # ----- encoding -----

    def encode(self, payload: Sequence[int]) -> List[List[int]]:
        """Node arrays (n lists of alpha symbols) for M payload symbols.

        Each size's components take their payload at data[u] and replay,
        without reading, encode's schedule, compiled on first use and
        kept in _encoder: round 0's decode at A0, then every layer check,
        and syndromes handed down at every sublayer.
        """
        if len(payload) != self.M:
            raise ValueError(f"expected {self.M} payload symbols, "
                             f"got {len(payload)}")
        self.F.check_symbols(list(payload), "payload")
        if self._encoder is None:
            last = {u: range(u - 1, spec.R * u, u) for u, spec in self.lspec.items()}
            self._encoder = self._compile(
                {u: [(rd, self._subs(rd, self.A0), last[u]) for rd in self.rounds[u] if not rd.c]
                 or [(None, (), last[u])] for u in last},
                {u: range(spec.R) for u, spec in self.lspec.items()})
        vectors = self._vectors()
        injected: Dict[int, List[int]] = {}
        for u, w in vectors.items():
            n = len(self.data[u])
            self._put(_flat(zip(*(payload[self.start[cid]:self.start[cid] + n]
                                  for cid in self.order[u]))), [(u, self.data[u])], vectors)
            self._replay(u, w, self._encoder[u], injected)
        return [self._column(vectors, j) for j in range(self.n)]

    # ----- data collection -----

    def collect(self, nodes: Sequence[Sequence[int]], A: Sequence[int]
                ) -> Tuple[List[int], ReadLog]:
        """Payload back from the k nodes in A, with the read log.

        A must list k int node indices, each array of alpha entries,
        else ValueError.  Only entries of nodes listed in A are touched,
        each read once and checked to be a symbol (_gather of reads[i]);
        the log has one (node, offsets) record per node, every record
        sharing the one offsets tuple all nodes are read at.  Then each
        size's components are recovered together: every position outside
        A that is read (data[u], a helper word's coordinate) is a target
        of a fill or a decode of the schedule (_schedule), each of which
        raises on a gap; the rest, checks at a layer's largest node, stay
        None.
        """
        A = layer([check_node(self.n, i) for i in A])
        if len(A) != self.k:
            raise ValueError(f"need exactly k={self.k} nodes, got {len(A)}")
        vectors = self._vectors()
        log = self._gather(nodes, [self.reads[i] for i in A], vectors)
        sched = self._schedule(A)
        injected: Dict[int, List[int]] = {}
        for u, w in vectors.items():
            self._replay(u, w, sched[u], injected, vectors)
        return self._payload(vectors), log

    def stored_payload(self, nodes: Sequence[Sequence[int]]) -> List[int]:
        """The payload the n nodes store at data[u], every node read and
        checked as a collect reads it (_gather of reads); no decode."""
        vectors = self._vectors()
        self._gather(nodes, self.reads, vectors)
        return self._payload(vectors)

    # ----- repair -----

    def repair(self, nodes: Sequence[Sequence[int]], failed: int
               ) -> Tuple[List[int], ReadLog]:
        """Rebuild the failed node's column from the other n-1 nodes,
        with the read log: one (helper, offsets) record per helper.

        Helper j sends, for every copy of size >= 2, its symbols at
        layers containing both j and the failed node: exactly beta
        symbols per helper, each checked to be a symbol, from an array
        checked to hold alpha entries (_gather; else ValueError, as for
        a failed index that is not an int node index).  The schedule,
        kept with the reads in _repairs, fills the failed symbols from
        the layer checks and hands syndromes down at the sublayers holding
        the failed node, from already rebuilt copies, one size at a time.
        """
        check_node(self.n, failed)
        if failed not in self._repairs:
            # per helper j: the columns, and the positions (per size), of
            # j's symbols in the layers holding both j and the failed node
            reads = []
            for j in (j for j in range(self.n) if j != failed):
                parts = [(u, array("i", (p for p in self.lspec[u].at[j]
                                         if failed in self.lspec[u].layers[p // u])))
                         for u in self.order]
                cols = array("i", (self.offsets[cid] + self.lspec[u].slot[p]
                                   for u, pos in parts for p in pos for cid in self.order[u]))
                reads.append((j, cols, parts))
            self._repairs[failed] = reads, self._compile(
                {u: [(None, (), spec.at[failed])] for u, spec in self.lspec.items()},
                {u: [p // u for p in spec.at[failed]] for u, spec in self.lspec.items()})
        reads, sched = self._repairs[failed]
        vectors = self._vectors()
        log = self._gather(nodes, reads, vectors)
        injected: Dict[int, List[int]] = {}
        for u, w in vectors.items():
            self._replay(u, w, sched[u], injected)
        return self._column(vectors, failed), log


# every ConcatCode (storesim.LayeredCode too) that something still holds,
# by its (n, v, k, q), all exact ints once ConcatCode.__init__ checked them
_built: "weakref.WeakValueDictionary[Tuple[int, int, int, int], ConcatCode]" = \
    weakref.WeakValueDictionary()


def build_concat(n: int, v: int, k: int, q: int) -> ConcatCode:
    """A new ConcatCode(n, v, k, q), of the family code_family(n, v, k)
    names: the cascade or the pure layered code.  Every call builds; like
    every ConcatCode, the code is also recorded weakly, which keeps
    nothing alive, for live_concat to share (a code does not change
    after it is built; see ConcatCode)."""
    return ConcatCode(n, v, k, q)


def live_concat(n: int, v: int, k: int, q: int) -> ConcatCode:
    """The code last built for (n, v, k, q) while anything still holds
    it, else build_concat(n, v, k, q).  The parameters are
    checked before the lookup, since 11.0 and True hash like 11 and 1."""
    code_family(n, v, k)
    field_make(q)
    code = _built.get((n, v, k, q))
    return build_concat(n, v, k, q) if code is None else code
