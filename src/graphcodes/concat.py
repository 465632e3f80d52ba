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

Every operation reads (encode places the payload at data[u], the one
payload layout) and then, per component, replays a schedule with one
function, _replay: layer-check fills, decode rounds, a precode
completion, and the sublayers where syndromes are handed down to the
dependents as injected values.  A collect's schedule depends only on
its anchor A and the component's size u, so it is recorded once per
(u, A), as in Jerasure; decodes inside A reuse their checked syndromes
as injected values.  Encode decodes nothing: it completes the precode
at the fixed anchor A0, closes every layer check and hands down at
every sublayer.  Repair fills the failed node's symbols and hands down
at the sublayers holding it.  The pure layered code
(storesim.LayeredCode) is the case of one component, nothing injected.
"""

from __future__ import annotations

import itertools
from array import array
from fractions import Fraction
from math import comb, lcm
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from graphcodes.combinat import Layer, ball, ball_size, layer
from graphcodes.field import field_make
from graphcodes.jgc import JGCSpec, decode_plan, dual, erasure_decode, syndrome_of
from graphcodes.layered import (
    LayeredSpec,
    check_node,
    fill_layers,
    node_arrays,
    read_layers,
    repair_layers,
)


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
        for r in range(min(v2, k2, n2 - v2, n2 - k2) + 1):
            size = ball_size(n2, v2, k2, r)
            if size == prev:
                continue
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


def cascade_scenario(n: int, v: int, k: int) -> str:
    """The scenario that transfers data only between layers in the same
    census column: round r helps from sublayers of size v-1-r."""
    return "-".join(str(v - 1 - r) for r in range(1, _num_rounds(n, v, k) + 1))


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
            m = Fraction(j - supplied, cap)
            if m <= 0:
                raise ValueError(f"scenario {ws} oversupplies shell {j}")
            mult.append(m)
        self.multiplicities = tuple(mult)
        self.shapes = [
            _round_code_shape(n, v, k, ws[r - 1], r) for r in range(1, rounds + 1)
        ]
        self.codims = [_shape_codim(s) for s in self.shapes]
        scale = lcm(*(m.denominator for m in mult)) if mult else 1
        self.scale = scale
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
        self.counts = {}
        for u, cnt in counts.items():
            scaled = cnt * scale
            if scaled.denominator != 1:
                raise AssertionError("scale did not clear denominators")
            if scaled:
                self.counts[u] = int(scaled)
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

    def is_cascade(self) -> bool:
        return all(w == self.v - 1 - r for r, w in enumerate(self.ws, start=1))


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


class ConcatCode:
    """A concatenated layered code ready for encoding and recovery.

    End-to-end encode/collect/repair supports the cascade scenario
    (helper data moves only between layers in the same census column)
    with a single top copy; other scenarios still get the full layout
    and parameter accounting through ScenarioLayout.
    """

    def __init__(self, n: int, v: int, k: int, q: int,
                 scenario: Optional[str] = None):
        if v != k + 1:
            raise ValueError(f"need v = k+1, got v={v}, k={k}")
        if q < n:
            raise ValueError(f"need q >= n, got q={q}, n={n}")
        if comb(n - k, v) > 0:
            raise ValueError(
                f"need v > n-k so that every layer meets the accessed "
                f"nodes, got v={v}, n-k={n - k}"
            )
        self.F = field_make(q)
        self.n, self.v, self.k = n, v, k
        self.ell = n - 1 - k
        if scenario is None:
            scenario = cascade_scenario(n, v, k)
        self.ws = parse_scenario(scenario) if scenario else ()
        self.layout = ScenarioLayout(n, v, k, self.ws)
        self.beta = self.layout.beta
        if not self.layout.is_cascade() or self.layout.scale != 1:
            raise ValueError(
                f"end-to-end coding implements cascade scenarios only; "
                f"{self.layout.name!r} has no column-local labeling"
            )
        self.lspec = {u: LayeredSpec(self.F, n, u) for u in range(1, v + 1)}
        self._codes: Dict[Tuple[int, int, int, int], JGCSpec] = {}
        # _lift's and _schedule's caches, filled on first use
        self._lifts: Dict[Tuple[JGCSpec, Layer, int], Tuple[int, ...]] = {}
        self._schedules: Dict[Tuple[int, Layer], tuple] = {}

        # precodes: the u-1 data vectors of a size-u copy are codewords
        # of the graph code with radius u-1, so any k accessed nodes
        # determine them; pre_pos[u] is the layer index of each precode
        # vertex.  data[u] lists a size-u vector's payload positions in
        # payload order: for a precode size, l*u + j for each word j and
        # each layer l of the information set at A0
        self.precode: Dict[int, Optional[JGCSpec]] = {}
        self.pre_pos: Dict[int, List[int]] = {}
        self.data: Dict[int, List[int]] = {v: self.lspec[v].data, 1: []}
        A0 = tuple(range(k))
        for u in range(2, v):
            if not self.layout.counts.get(u):
                continue
            if _shape_codim((n, u, k, 1)) == 0:
                # every layer meets any k-set; the data vectors are free
                self.precode[u] = None
                info = range(self.lspec[u].R)
            else:
                self.precode[u] = code = self._code(n, u, k, 1)
                self.pre_pos[u] = pos = [self.lspec[u].index[L] for L in code.vertices]
                B = ball(A0, code.r, n, u)
                info = [p for L, p in zip(code.vertices, pos) if L in B]
            self.data[u] = [l * u + j for j in range(u - 1) for l in info]
        self.A0 = A0

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
        self.counts = {}
        for u in self.sizes:
            self.counts[u] = self.counts.get(u, 0) + 1
        if self.counts != self.layout.counts:
            raise AssertionError("component registry disagrees with layout")
        self.offsets = []
        off = 0
        for u in self.sizes:
            self.offsets.append(off)
            off += comb(n - 1, u - 1)
        self.alpha = off
        self.M = self.layout.M

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
        if u == self.v:
            pairs = [(w, m) for w, m in
                     zip(self.ws, (int(x) for x in self.layout.multiplicities))]
        else:
            pairs = [(c, u - 1 - c) for c in range(u - 2, 0, -1)]
        rds = []
        for ridx, (c, m) in enumerate(pairs, start=1):
            if u == self.v:
                shape = self.layout.shapes[ridx - 1]
            else:
                shape = (self.n - c, u - c, self.k - c, 1)
            if _shape_codim(shape) == 0:
                # the radius ball already covers every layer above L_c
                continue
            rds.append(_Round(c, m, self._code(*shape)))
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

    def _schedule(self, u: int, A: Layer, rds: Sequence[_Round]) -> tuple:
        """What a collect at anchor A does to every size-u component (rds:
        the rounds of one), kept for at most (sizes) x C(n, k) keys, as
        the _replay schedule (first, rounds, handdown, precode).  A fill
        is an array of target positions (t lies in layer t // u), first
        the one of the layers meeting A in u-1 nodes; rounds has (subs,
        fill) per round, subs holding (index, A relabeled outside L_c,
        plan, the m lifts) per sublayer L_c inside A; handdown[c] lists
        the other size-c sublayers; precode is the fill of the layers
        missing A after _complete_precode, or None.  A fill takes each
        layer's first position not yet known (read, decoded or filled),
        so where two are left the replay's fill_layers raises.
        """
        if (u, A) in self._schedules:
            return self._schedules[u, A]
        sA = set(A)
        known = [j in sA for L in self.lspec[u].layers for j in L]
        meet = [len(sA.intersection(L)) for L in self.lspec[u].layers]

        def fill(c: int) -> array:
            targets = array("i")
            for l in (l for l, m in enumerate(meet) if m == c):
                seg = known[l * u:(l + 1) * u]
                if not all(seg):
                    targets.append(l * u + seg.index(False))
                    known[l * u:(l + 1) * u] = [True] * u
            return targets

        first = fill(u - 1)
        rounds, handdown = [], {}
        for rd in rds:
            cspec = self.lspec[rd.c]
            subs = []
            for L_c in itertools.combinations(A, rd.c):
                rest = [x for x in range(self.n) if x not in L_c]
                A2 = tuple(rest.index(a) for a in A if a not in L_c)
                plan = decode_plan(rd.code, A2)
                lifts = [self._lift(rd, L_c, i) for i in range(rd.m)]
                for lift in lifts:
                    for j in plan.out:
                        known[lift[j]] = True
                subs.append((cspec.index[L_c], A2, plan, lifts))
            handdown[rd.c] = array("i", sorted(set(range(cspec.R)) - {s[0] for s in subs}))
            rounds.append((subs, fill(rd.c)))
        precode = None
        if 1 < u < self.v and 0 in meet:
            if self.precode[u] is None:
                raise AssertionError("missed layers despite trivial precode")
            # the completed precode words leave only the last symbol of
            # each layer missing A
            precode = array("i", (l * u + u - 1 for l, m in enumerate(meet) if not m))
        sched = self._schedules[u, A] = (first, rounds, handdown, precode)
        return sched

    def _replay(self, cid: int, w: List[Optional[int]], sched: tuple,
                A: Optional[Layer], injected: Dict[int, List[int]],
                values: Optional[list] = None) -> None:
        """Complete component cid's vector w by the schedule (first,
        rounds, handdown, precode) and set its dependents' injected
        values (created, 0 at every layer, when missing).

        first and each round's fill are fill_layers targets.  A round
        decodes at each sublayer in subs with the sums of the dependents'
        read layers (values[dep]) as syndromes, which become their
        injected values there.  precode, unless None, completes the
        precode words at A and fills its targets.  Then handdown[c]
        lists the size-c sublayers where the injected values are
        syndromes of w.  Collect replays _schedule(u, A, rounds); encode
        ((), (), every sublayer, every layer's last position) at A0;
        repair (the failed node's positions, (), the sublayers holding
        it, None).
        """
        F = self.F
        u, rds = self.sizes[cid], self.rounds.get(cid, ())
        inj = injected.get(cid)
        first, rounds, handdown, precode = sched
        fill_layers(F, w, u, inj, first)
        for rd, (subs, fill) in zip(rds, rounds):
            c, codim = rd.c, rd.codim
            targets = [injected.setdefault(dep, [0] * self.lspec[c].R) for dep in rd.deps]
            for lc, A2, plan, lifts in subs:
                for i, lift in enumerate(lifts):
                    deps = rd.deps[i * codim:(i + 1) * codim]
                    s = [F.sum(values[dep][lc * c:(lc + 1) * c]) for dep in deps]
                    word = erasure_decode(rd.code, A2, itemgetter(*lift)(w),
                                          syndrome=s)
                    for j in plan.out:
                        w[lift[j]] = word[j]
                    for t, x in zip(targets[i * codim:(i + 1) * codim], s):
                        t[lc] = x
            fill_layers(F, w, u, inj, fill)
        if precode is not None:
            self._complete_precode(u, w, A)
            fill_layers(F, w, u, inj, precode)
        for rd in rds:
            layers, codim = self.lspec[rd.c].layers, rd.codim
            targets = [injected.setdefault(dep, [0] * len(layers)) for dep in rd.deps]
            for lc in handdown[rd.c]:
                for i in range(rd.m):
                    lab = itemgetter(*self._lift(rd, layers[lc], i))(w)
                    for e, x in enumerate(syndrome_of(rd.code, lab)):
                        targets[i * codim + e][lc] = x

    # ----- encoding -----

    def encode(self, payload: Sequence[int]) -> List[List[int]]:
        """Node arrays (n lists of alpha symbols) for M payload symbols.

        Each component takes its payload at data[u] and replays what a
        collect at A0 does without reading: the precode words, every
        layer check, and syndromes handed down at every sublayer.
        """
        F = self.F
        if len(payload) != self.M:
            raise ValueError(f"expected {self.M} payload symbols, "
                             f"got {len(payload)}")
        for x in payload:
            F.check(x)
        everywhere = {c: range(spec.R) for c, spec in self.lspec.items()}
        pos = 0
        injected: Dict[int, List[int]] = {}
        out = [[0] * self.alpha for _ in range(self.n)]
        for cid, u in enumerate(self.sizes):
            spec, data = self.lspec[u], self.data[u]
            w: List[Optional[int]] = [None] * (spec.R * u)
            for p, x in zip(data, payload[pos:pos + len(data)]):
                w[p] = x
            pos += len(data)
            self._replay(cid, w, ((), (), everywhere, range(u - 1, spec.R * u, u)),
                         self.A0, injected)
            off = self.offsets[cid]
            for row, part in zip(out, node_arrays(spec, w)):
                row[off:off + len(part)] = part
        return out

    def _complete_precode(self, u: int, w: List[Optional[int]], A: Layer) -> None:
        """Complete the u-1 precode words of a size-u vector w from their
        values on the information set at A (nothing to do for a size
        without a precode).  Word j is layer l's symbol at its j-th node,
        position l*u + j, for every layer l in the code's vertex order.
        """
        code = self.precode.get(u)
        if code is None:
            return
        pos = self.pre_pos[u]
        for j in range(u - 1):
            word = erasure_decode(code, A, [w[p * u + j] for p in pos])
            for p, x in zip(pos, word):
                w[p * u + j] = x

    # ----- data collection -----

    def collect(self, nodes: Sequence[Sequence[int]], A: Sequence[int]
                ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Payload back from the k nodes in A, with the read log.

        Only entries of nodes listed in A are touched; the log records
        every (node, offset) read.
        """
        A = layer(A)
        if len(A) != self.k:
            raise ValueError(f"need exactly k={self.k} nodes, got {len(A)}")
        values = [read_layers(self.lspec[u], nodes, A, off)
                  for u, off in zip(self.sizes, self.offsets)]
        log = list(itertools.product(A, range(self.alpha)))
        injected: Dict[int, List[int]] = {}
        for cid, (u, w) in enumerate(zip(self.sizes, values)):
            self._replay(cid, w, self._schedule(u, A, self.rounds.get(cid, [])),
                         A, injected, values)
            if None in w:
                raise AssertionError(f"component {cid} not recovered")

        payload = [w[p] for u, w in zip(self.sizes, values) for p in self.data[u]]
        return payload, log

    # ----- repair -----

    def repair(self, nodes: Sequence[Sequence[int]], failed: int
               ) -> Tuple[List[int], Dict[int, int]]:
        """Rebuild the failed node's column from the other n-1 nodes.

        Helper j sends, for every copy of size >= 2, its symbols at
        layers containing both j and the failed node: exactly beta
        symbols per helper.  The replay fills the failed symbols from
        the layer checks and hands syndromes down at the sublayers
        holding the failed node, from already rebuilt copies.
        """
        check_node(self.n, failed)
        counts = {j: 0 for j in range(self.n) if j != failed}
        holding = {c: [p // c for p in spec.at[failed]] for c, spec in self.lspec.items()}
        injected: Dict[int, List[int]] = {}
        column: List[int] = []
        for cid, u in enumerate(self.sizes):
            spec = self.lspec[u]
            w = repair_layers(spec, nodes, failed, self.offsets[cid], counts)
            self._replay(cid, w, (spec.at[failed], (), holding, None), None, injected)
            column.extend(w[p] for p in spec.at[failed])
        return column, counts


def build_concat(n: int, v: int, k: int, q: int,
                 scenario: Optional[str] = None) -> ConcatCode:
    """Cascade-scenario concatenated code over GF(q), v = k+1."""
    return ConcatCode(n, v, k, q, scenario=scenario)
