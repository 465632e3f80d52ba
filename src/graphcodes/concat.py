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
per size and largest first, one schedule with one function, _replay:
layer-check fills, decode rounds, a precode completion and the
syndromes handed down to the dependents as injected values.  Words of
one helper code are stacked into wider regions, so a round makes one
erasure_decode per anchor and one syndrome_of.  A collect's schedule
is recorded once per (size, anchor A), as in Jerasure; encode runs
the precode at the fixed anchor A0 and hands down everywhere, repair
at the sublayers holding the failed node.  One component rule gives
every copy its rounds; with k = n-1 every helper code is trivial, so
the pure layered code (storesim.LayeredCode) is the case of one
component, nothing injected.
"""

from __future__ import annotations

import itertools
import weakref
from array import array
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import itemgetter
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from graphcodes.combinat import Layer, ball_size, layer
from graphcodes.field import field_make
from graphcodes.jgc import JGCSpec, decode_plan, dual, erasure_decode, getter, syndrome_of
from graphcodes.layered import LayeredSpec, check_node, fill_layers


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
    """One helper round of a component: syndromes of ``code`` computed
    from sublayers of size c, m stored vectors per sublayer."""

    __slots__ = ("c", "m", "code", "codim", "deps")

    def __init__(self, c: int, m: int, code: JGCSpec):
        self.c = c
        self.m = m
        self.code = code
        self.codim = code.length - code.dim
        self.deps: List[int] = []


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
    return "concat" if v == k + 1 and comb(n - k, v) == 0 else None


class ConcatCode:
    """A concatenated layered code ready for encoding and recovery.

    One component rule builds every code: a size-u copy gets, for
    c = u-2 .. 1, a round of u-1-c stored vectors per size-c sublayer
    whose syndromes under the helper code (n-c, u-c, k-c, 1) are
    injected into size-c dependents, unless that code has codimension
    0.  Starting from one size-v copy this gives the two families that
    code_family names (any other shape raises ValueError):
    - "concat", the cascade v = k+1 > n-k: helper data moves only between
      layers in the same census column; q >= n, and layout is its
      ScenarioLayout, which tabulates the other scenarios too.
    - "layered", k = n-1: every helper code has codimension 0, so this is
      the pure layered code, one component with nothing injected; layout
      is None, and any 1 <= v <= n and field order is accepted.

    After __init__ a code changes only its memo caches, each filled
    deterministically from the parameters: _lifts, _schedules,
    _siblings (with its repairs) and every helper and precode JGCSpec's
    _plans, _dual, _aligned, _sparse and _masks.  So every caller of one
    (n, v, k, q) can share one code, as live_concat does, and shares its
    warm plans and schedules with it.
    """

    def __init__(self, n: int, v: int, k: int, q: int):
        family = code_family(n, v, k)
        if family is None:
            raise ValueError(f"need v = k+1 > n-k (concatenated) or k = n-1 "
                             f"(pure layered), got n={n}, v={v}, k={k}")
        self.F = field_make(q)
        if family == "concat" and q < n:
            raise ValueError(f"need q >= n, got q={q}, n={n}")
        self.layout = (ScenarioLayout(n, v, k, range(v - 2, v - 2 - _num_rounds(n, v, k), -1))
                       if family == "concat" else None)
        self.n, self.v, self.k, self.A0 = n, v, k, tuple(range(k))
        self._codes: Dict[Tuple[int, int, int, int], JGCSpec] = {}
        # _lift's and _schedule's caches, filled on first use
        self._lifts: Dict[Tuple[JGCSpec, Layer, int], Tuple[int, ...]] = {}
        self._schedules: Dict[Tuple[int, Layer], tuple] = {}

        # sizes[cid] is component cid's layer size; a dependent of round
        # rd gets the syndrome entries rd.deps assigns it
        self.sizes: List[int] = [v]
        self.rounds: Dict[int, List[_Round]] = {}
        queue = [0]
        while queue:
            cid = queue.pop(0)
            self.rounds[cid] = rds = self._component_rounds(self.sizes[cid])
            for rd in rds:
                for _ in range(rd.m * rd.codim):
                    rd.deps.append(len(self.sizes))
                    self.sizes.append(rd.c)
                    if rd.c >= 3:
                        queue.append(rd.deps[-1])
        self.lspec = {u: LayeredSpec(self.F, n, u) for u in set(self.sizes)}

        # precodes: the u-1 data vectors of a size-u copy below the top
        # are codewords of the graph code with radius u-1, so any k
        # accessed nodes determine them (where the code has codimension
        # 0, every layer meets any k-set and the vectors are free);
        # pre_pos[u] is the layer index of each precode vertex.  data[u]
        # lists a size-u vector's payload positions in payload order:
        # below the top, l*u + j for each word j and each layer l of the
        # information set at A0
        self.precode: Dict[int, JGCSpec] = {}
        self.pre_pos: Dict[int, List[int]] = {}
        self.data: Dict[int, List[int]] = {}
        for u, spec in self.lspec.items():
            info = range(spec.R)
            if 1 < u < v and _shape_codim((n, u, k, 1)):
                self.precode[u] = code = self._code(n, u, k, 1)
                self.pre_pos[u] = pos = [spec.index[L] for L in code.vertices]
                info = [pos[i] for i in code.ball(self.A0)]
            self.data[u] = spec.data if u == v else [l * u + j for j in range(u - 1) for l in info]
        *self.offsets, self.alpha = itertools.accumulate(
            (comb(n - 1, u - 1) for u in self.sizes), initial=0)
        self.M = sum(len(self.data[u]) for u in self.sizes)
        self.beta = sum(self.lspec[u].beta for u in self.sizes)
        _built[n, v, k, q] = self

    # ----- helper code bookkeeping -----

    def _code(self, n2: int, v2: int, k2: int, t: int) -> JGCSpec:
        key = (n2, v2, k2, t)
        if key not in self._codes:
            F = self.F
            base = [[F.pow(a, i) for a in range(n2)] for i in range(k2)]
            self._codes[key] = code = JGCSpec(F, base, v2, t)
            dual(code)
        return self._codes[key]

    def _component_rounds(self, u: int) -> List["_Round"]:
        rds = []
        for c in range(u - 2, 0, -1):
            shape = (self.n - c, u - c, self.k - c, 1)
            # codimension 0: the radius ball already covers every layer above L_c
            if _shape_codim(shape):
                rds.append(_Round(c, u - 1 - c, self._code(*shape)))
        return rds

    # ----- labelings -----

    def _lift(self, rd: _Round, L_c: Layer, i: int) -> Tuple[int, ...]:
        """The vector position behind each coordinate of a helper codeword.

        The coordinate at the (relabeled) sublayer L' belongs to the
        layer L = L_c | L' of the size-(c + v') component and is the
        stored symbol at the i-th smallest node of L minus L_c.  The
        tuple is built once per (helper code, L_c, i) and shared by every
        round using that helper code, so the cache holds at most
        (helper codes) x C(n, c) x m tuples.
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

    @cached_property
    def _siblings(self) -> SimpleNamespace:
        """order[u]: the size-u component ids by slot, sizes largest first.
        Size c takes each larger size u (from slot first[u, c]) and each
        dependent index j in turn, the j-th dependents of u's slots in
        slot order, so one round's syndromes fill B_u consecutive slots.
        kernels[u]: regions of B_u slots; read(row)
        lists a node's symbols by (size, position, slot), row(values)
        puts them back in column order; repairs keeps repair's reads."""
        order, first = {self.sizes[0]: [0]}, {}
        for u in sorted(set(self.sizes), reverse=True):
            for ridx, rd in enumerate(self.rounds.get(order[u][0], ())):
                dst = order.setdefault(rd.c, [])
                first[u, rd.c] = len(dst)
                for j in range(len(rd.deps)):
                    dst.extend(self.rounds[cid][ridx].deps[j] for cid in order[u])
        order = {u: order[u] for u in sorted(order, reverse=True)}
        # a decode's right-hand side row is a dual row plus the syndrome
        longest = 1 + max([self.v] + [c.length for c in self.precode.values() if c]
                          + [rd.code.length for rds in self.rounds.values() for rd in rds])
        kernels = {u: self.F.regions(len(ids), longest) for u, ids in order.items()}
        cols = [self.offsets[cid] + s for u, ids in order.items()
                for s in range(self.lspec[u].alpha) for cid in ids]
        return SimpleNamespace(
            order=order, first=first, kernels=kernels, longest=longest,
            read=getter(cols),
            everywhere={c: range(spec.R) for c, spec in self.lspec.items()},
            row=getter(sorted(range(len(cols)), key=cols.__getitem__)), repairs={},
            start=list(itertools.accumulate((len(self.data[u]) for u in self.sizes),
                                            initial=0)))

    def _put(self, vals: Sequence[int], parts, vectors: Dict[int, list]) -> None:
        """Pack vals, listed by (size, position, slot), into the region
        vectors at parts, a list of (size, positions)."""
        start = 0
        for u, pos in parts:
            K, w = self._siblings.kernels[u], vectors[u]
            for p, x in zip(pos, K.pack(vals[start:start + len(pos) * K.B])):
                w[p] = x
            start += len(pos) * K.B

    def _column(self, vectors: Dict[int, list], j: int) -> List[int]:
        """Node j's array, from the region vectors."""
        lay = self._siblings
        return list(lay.row(_flat(lay.kernels[u].unpack(
            getter(self.lspec[u].at[j])(vectors[u])) for u in lay.order)))

    def _stack(self, K, w: list, lifts) -> tuple:
        """(K2, word): the G words of w at the position lists in lifts, one
        word of K2's G*B-slot regions, slot (g, b) holding slot b of
        word g; a position is None where a word has None."""
        K2 = self.F.regions(len(lifts) * K.B, self._siblings.longest)
        cols = list(zip(*(itemgetter(*lift)(w) for lift in lifts)))
        packed = iter(K2.pack(K.unpack(_flat(col for col in cols if None not in col))))
        return K2, [None if None in col else next(packed) for col in cols]

    def _decode(self, K, w: list, code: JGCSpec, A: Layer, lifts, syndrome,
                out: Sequence[int]) -> None:
        """Complete the words of w at the position lists in lifts with one
        erasure_decode of their stack (_stack), given its syndrome's values
        by (row, word, slot) or None for zero, and set positions out."""
        K2, word = self._stack(K, w, lifts)
        word = erasure_decode(code, A, word, syndrome and K2.pack(syndrome), K2)
        for x, (t, lift) in zip(K.pack(K2.unpack([word[t] for t in out])),
                                itertools.product(out, lifts)):
            w[lift[t]] = x

    def _schedule(self, u: int, A: Layer, rds: Sequence[_Round]) -> tuple:
        """What a collect at anchor A does to every size-u component (rds:
        the rounds of one), kept for at most (sizes) x C(n, k) keys, as
        the _replay schedule (first, rounds, handdown, precode).  A fill
        is an array of target positions (t lies in layer t // u), and
        every target is the position of its layer's largest node outside
        A: first fills the layers meeting A in u-1 nodes; rounds has
        (subs, fill) per round, whose decodes set lifts 0 .. u-2-c of the
        layers meeting A in c nodes and whose fill completes them, subs
        holding (A2, plan, pieces) per anchor A2: A relabeled outside a
        sublayer L_c inside A, pieces listing (index, the m lifts) of
        each such L_c; handdown has every sublayer (where L_c lies inside
        A, the syndrome of w equals the sum read there); precode fills
        the layers missing A after the precode words are completed, or
        is None for size 1 (whose first fill is that).
        """
        if (u, A) in self._schedules:
            return self._schedules[u, A]
        sA = set(A)
        fills: Dict[int, array] = {}
        for l, L in enumerate(self.lspec[u].layers):
            out = [i for i, j in enumerate(L) if j not in sA]
            if out:
                fills.setdefault(u - len(out), array("i")).append(l * u + out[-1])
        rounds = []
        for rd in rds:
            subs: Dict[Layer, tuple] = {}
            for L_c in itertools.combinations(A, rd.c):
                rest = [x for x in range(self.n) if x not in L_c]
                A2 = tuple(rest.index(a) for a in A if a not in L_c)
                subs.setdefault(A2, (A2, decode_plan(rd.code, A2), []))[2].append(
                    (self.lspec[rd.c].index[L_c], [self._lift(rd, L_c, i) for i in range(rd.m)]))
            rounds.append((list(subs.values()), fills.get(rd.c, ())))
        sched = self._schedules[u, A] = (fills.get(u - 1, ()), rounds, self._siblings.everywhere,
                                         fills.get(0) if u > 1 else None)
        return sched

    def _replay(self, u: int, w: List[Optional[int]], sched: tuple,
                A: Optional[Layer], injected: Dict[int, List[int]],
                vectors: Optional[Dict[int, list]] = None) -> None:
        """Complete the region vector w of the size-u components (slot b:
        _siblings.order[u][b]) by the schedule (first, rounds, handdown,
        precode), from their injected values (lists over handdown[u]),
        and set the dependents' ones, syndromes of w at handdown[c].

        first and each round's fill are fill_layers targets; a round
        decodes once per A2 of subs, each (L_c, lift) stacked, with the
        sums of the dependents' read layers L_c as syndromes; precode,
        unless None, completes the precode words at A and fills its
        targets.  Collect replays _schedule(u, A, rounds); encode ((),
        (), every sublayer, every layer's last position) at A0; repair
        (the failed node's positions, (), the sublayers holding it,
        None)."""
        lay = self._siblings
        K, ids = lay.kernels[u], lay.order[u]
        B, inj = K.B, None
        rds = self.rounds.get(ids[0], ())
        first, rounds, handdown, precode = sched
        if ids[0] in injected:
            inj = [0] * self.lspec[u].R
            for l, x in zip(handdown[u], K.pack(_flat(zip(*(injected[cid] for cid in ids))))):
                inj[l] = x
        fill_layers(K, w, u, inj, first)
        for rd, (subs, fill) in zip(rds, rounds):
            c, codim, Kc = rd.c, rd.codim, lay.kernels[rd.c]
            for A2, plan, pieces in subs:
                labs = [(lc, i, lift) for lc, lifts in pieces for i, lift in enumerate(lifts)]
                # the sums of the dependents' read layers L_c, by slot of size c
                sums = {lc: Kc.unpack([Kc.sum(vectors[c][lc * c:(lc + 1) * c])])
                        for lc, _ in pieces}
                s = [x for e in range(codim) for lc, i, _ in labs
                     for j in [lay.first[u, c] + (i * codim + e) * B] for x in sums[lc][j:j + B]]
                self._decode(K, w, rd.code, A2, [lift for *_, lift in labs], s, plan.out)
            fill_layers(K, w, u, inj, fill)
        if precode is not None:
            if self.precode.get(u):
                pos = self.pre_pos[u]
                self._decode(K, w, self.precode[u], A, [[p * u + j for p in pos]
                                                        for j in range(u - 1)],
                             None, range(len(pos)))
            fill_layers(K, w, u, inj, precode)
        for rd in rds:
            layers, deps = self.lspec[rd.c].layers, lay.order[rd.c][lay.first[u, rd.c]:]
            K2, word = self._stack(K, w, [self._lift(rd, layers[lc], i)
                                          for lc in handdown[rd.c] for i in range(rd.m)])
            syn = K2.unpack(syndrome_of(rd.code, word, K2))
            for e, i, b in itertools.product(range(rd.codim), range(rd.m), range(B)):
                injected[deps[(i * rd.codim + e) * B + b]] = \
                    syn[e * K2.B + i * B + b:(e + 1) * K2.B:rd.m * B]

    # ----- encoding -----

    def encode(self, payload: Sequence[int]) -> List[List[int]]:
        """Node arrays (n lists of alpha symbols) for M payload symbols.

        Each size's components take their payload at data[u] and replay
        what a collect at A0 does without reading: the precode words,
        every layer check, and syndromes handed down at every sublayer.
        """
        if len(payload) != self.M:
            raise ValueError(f"expected {self.M} payload symbols, "
                             f"got {len(payload)}")
        self.F.check_symbols(list(payload), "payload")
        lay = self._siblings
        vectors = {u: [None] * (self.lspec[u].R * u) for u in lay.order}
        injected: Dict[int, List[int]] = {}
        for u, w in vectors.items():
            n = len(self.data[u])
            self._put(_flat(zip(*(payload[lay.start[cid]:lay.start[cid] + n]
                                  for cid in lay.order[u]))), [(u, self.data[u])], vectors)
            self._replay(u, w, ((), (), lay.everywhere, range(u - 1, len(w), u)),
                         self.A0, injected)
        return [self._column(vectors, j) for j in range(self.n)]

    # ----- data collection -----

    def collect(self, nodes: Sequence[Sequence[int]], A: Sequence[int]
                ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Payload back from the k nodes in A, with the read log.

        Only entries of nodes listed in A are touched, each read once
        and checked to be a symbol; the log records every (node, offset)
        read.  Then each size's components are recovered together: every
        position outside A is a target of a fill or a decode of the
        schedule (a round is skipped only at codimension 0, where no
        layer meets A in c nodes), each of which raises on a gap.
        """
        A = layer(A)
        if len(A) != self.k:
            raise ValueError(f"need exactly k={self.k} nodes, got {len(A)}")
        lay = self._siblings
        vectors = {u: [None] * (self.lspec[u].R * u) for u in lay.order}
        for i in A:
            check_node(self.n, i)
            self._put(self.F.check_symbols(lay.read(nodes[i]), f"node {i}"),
                      [(u, self.lspec[u].at[i]) for u in lay.order], vectors)
        log = list(itertools.product(A, range(self.alpha)))
        injected: Dict[int, List[int]] = {}
        payload: List[Sequence[int]] = [()] * len(self.sizes)
        for u, w in vectors.items():
            ids = lay.order[u]
            self._replay(u, w, self._schedule(u, A, self.rounds.get(ids[0], [])),
                         A, injected, vectors)
            vals = lay.kernels[u].unpack([w[p] for p in self.data[u]])
            for b, cid in enumerate(ids):
                payload[cid] = vals[b::len(ids)]
        return _flat(payload), log

    # ----- repair -----

    def repair(self, nodes: Sequence[Sequence[int]], failed: int
               ) -> Tuple[List[int], Dict[int, int]]:
        """Rebuild the failed node's column from the other n-1 nodes.

        Helper j sends, for every copy of size >= 2, its symbols at
        layers containing both j and the failed node: exactly beta
        symbols per helper, each checked to be a symbol.  The replay
        fills the failed symbols from the layer checks and hands
        syndromes down at the sublayers holding the failed node, from
        already rebuilt copies, one size at a time.
        """
        check_node(self.n, failed)
        lay = self._siblings
        vectors = {u: [None] * (self.lspec[u].R * u) for u in lay.order}
        if failed not in lay.repairs:
            # per helper j: the columns, and the positions (per size), of
            # j's symbols in the layers holding both j and the failed node
            lay.repairs[failed] = reads = []
            for j in (j for j in range(self.n) if j != failed):
                parts = [(u, array("i", (p for p in self.lspec[u].at[j]
                                         if failed in self.lspec[u].layers[p // u])))
                         for u in lay.order]
                cols = array("i", (self.offsets[cid] + self.lspec[u].slot[p]
                                   for u, pos in parts for p in pos for cid in lay.order[u]))
                reads.append((j, cols, parts))
        counts = {}
        for j, cols, parts in lay.repairs[failed]:
            self._put(self.F.check_symbols(getter(cols)(nodes[j]), f"node {j}"),
                      parts, vectors)
            counts[j] = len(cols)
        holding = {c: [p // c for p in spec.at[failed]] for c, spec in self.lspec.items()}
        injected: Dict[int, List[int]] = {}
        for u, w in vectors.items():
            self._replay(u, w, (self.lspec[u].at[failed], (), holding, None), None, injected)
        return self._column(vectors, failed), counts


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
