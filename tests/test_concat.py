"""Concatenated layered codes: parameter tables and end-to-end recovery."""

import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest

from graphcodes.concat import (
    ScenarioLayout,
    admissible_scenarios,
    balance_table,
    build_concat,
    code_family,
    concat_params,
    demand_row,
    parse_scenario,
    scenario_table,
    series_multiplicities,
    subgraph_code_table,
    _num_rounds,
    _shape_codim,
)
from graphcodes.jgc import _sparse_dual_rows


def test_series_multiplicities():
    assert series_multiplicities(5, 3) == [1, 0, 6, 8, 39]
    # ell = 0: only the top copy
    assert series_multiplicities(4, 0) == [1, 0, 0, 0]


def test_parameters_854():
    p = concat_params(8, 5, 4)
    assert p.counts == {5: 1, 3: 6, 2: 8, 1: 39}
    assert (p.M1, p.M0, p.M) == (1120, 96, 1024)
    assert (p.alpha, p.beta) == (256, 64)
    assert repr(p) == "ConcatParams(n=8, v=5, k=4, M=1024, alpha=256, beta=64)"
    # MSR point for d = n-1
    assert p.M == p.k * p.alpha
    assert p.alpha == (p.n - p.k) ** p.k
    assert p.beta == (p.n - p.k) ** (p.k - 1)


def test_balance_table_854():
    rows, sums = balance_table(8, 5, 4)
    assert sums == [0, 0, 0, 0, -96]
    # top row supplies nothing and misses (u-1-c) symbols per sublayer
    top = rows[0]
    assert top == {3: -6, 2: -8, 1: -3}
    # size-4 copies are fully accessed in column 4
    assert rows[1][4] == 1


def test_demand_row_854():
    assert demand_row(8, 5, 4) == [24, 48, 12]


def test_subgraph_code_table_854():
    rows = subgraph_code_table(8, 5, 4)
    dims = [(r["length"], r["dim"]) for r in rows]
    assert dims == [
        (10, 4), (10, 10),
        (20, 4), (20, 16), (20, 20),
        (35, 4), (35, 22), (35, 34), (35, 35),
    ]
    shells = [r["shell"] for r in rows]
    assert shells == [4, 6, 4, 12, 4, 4, 18, 12, 1]
    # syndrome lengths of the proper subcodes
    syn = [r["length"] - r["dim"] for r in rows if r["dim"] < r["length"]]
    assert syn == [6, 16, 4, 31, 13, 1]


def test_scenario_parsing():
    assert parse_scenario("3-2-1") == (3, 2, 1)
    with pytest.raises(ValueError):
        parse_scenario("3-x-1")
    with pytest.raises(ValueError):
        parse_scenario("3-0-1")


def test_admissible_scenarios_854():
    assert admissible_scenarios(8, 5, 4) == [
        (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1)]


def test_scenario_layouts_854():
    expect = {
        "3-2-1": (1024, 256, 64, (Fraction(1), Fraction(2), Fraction(3))),
        "3-1-1": (848, 212, 56, (Fraction(1), Fraction(1), Fraction(2))),
        "2-2-1": (1464, 366, 96,
                  (Fraction(1, 3), Fraction(5, 3), Fraction(3))),
        "1-1-1": (672, 168, 60,
                  (Fraction(1, 3), Fraction(2, 3), Fraction(2))),
    }
    for name, (M, alpha, beta, mult) in expect.items():
        lay = ScenarioLayout(8, 5, 4, parse_scenario(name))
        assert (lay.M, lay.alpha, lay.beta) == (M, alpha, beta)
        assert lay.multiplicities == mult
    rows = scenario_table(8, 5, 4, ["3-2-1", "3-1-1", "2-2-1", "1-1-1"])
    assert [(r["M"], r["alpha"], r["beta"]) for r in rows] == [
        (1024, 256, 64), (848, 212, 56), (1464, 366, 96), (672, 168, 60)]


# every shape ConcatCode accepts as a cascade (v = k+1 < n, every layer
# meeting any k nodes) with n <= 15
CASCADE_SHAPES = [(n, k + 1, k) for n in range(3, 16) for k in range(1, n - 1)
                  if comb(n - k, k + 1) == 0]


def _name(shape):
    return "-".join(map(str, shape))


@pytest.mark.parametrize("shape", CASCADE_SHAPES, ids=_name)
def test_cascade_counts_match_series(shape):
    # the component rule (round c with v-1-c vectors of the helper code
    # (n-c, v-c, k-c, 1), where its codimension is nonzero) is the
    # cascade layout, round r from size v-1-r with multiplicity r
    n, v, k = shape
    rounds = _num_rounds(n, v, k)
    lay = ScenarioLayout(n, v, k, range(v - 2, v - 2 - rounds, -1))
    assert lay.scale == 1
    assert lay.multiplicities == tuple(range(1, rounds + 1))
    rule = [(n - c, v - c, k - c, 1) for c in range(v - 2, 0, -1)
            if _shape_codim((n - c, v - c, k - c, 1))]
    assert [s for s, codim in zip(lay.shapes, lay.codims) if codim] == rule
    p = concat_params(n, v, k)
    assert (p.counts, p.M, p.alpha, p.beta) == (lay.counts, lay.M, lay.alpha, lay.beta)


@pytest.mark.parametrize("n", range(1, 16))
def test_layered_shapes_have_no_helper_rounds(n):
    # with k = n-1 every helper code of the rule has codimension 0, so
    # the pure layered code is the one-component case
    for v in range(1, n + 1):
        assert not any(_shape_codim((n - c, v - c, n - 1 - c, 1)) for c in range(v - 2, 0, -1))


@pytest.mark.parametrize("shape, match", [
    ((5, 7, 6, 7), "need 0 <= k < n, got k=6"),
    ((0, 1, 0, 7), "need 0 <= k < n, got k=0"),
    # the pure layered code's layers are v-subsets of the n nodes
    ((5, 9, 4, 7), "need 1 <= v <= n, got v=9"),
    # v != k+1 with k < n-1: neither the cascade nor the pure layered code
    ((8, 3, 4, 11), r"need v = k\+1 > n-k \(concatenated\) or k = n-1"),
], ids=lambda x: _name(x) if isinstance(x, tuple) else "")
def test_shape_outside_both_families_rejected(shape, match):
    with pytest.raises(ValueError, match=match):
        build_concat(*shape)


@pytest.mark.parametrize("shape", [(6, 3, 5, 4), (6, 6, 5, 5), (7, 1, 6, 11)], ids=_name)
def test_layered_shape_is_one_component(shape):
    # k = n-1 gives the pure layered code, for any v <= n and field order
    code = build_concat(*shape)
    n, v = shape[:2]
    assert code.layout is None
    # no rounds, not even round c = 0: the one component has no dependents
    assert (code.sizes, code.kids, code.rounds) == ([v], [1], {v: []})
    assert (code.M, code.alpha, code.beta) == (
        comb(n, v) * (v - 1), comb(n - 1, v - 1), comb(n - 2, v - 2) if v >= 2 else 0)


# every shape with n <= 9, and k or v one step out of range on each side
ALL_SHAPES = [(n, v, k) for n in range(1, 10) for v in range(0, n + 2) for k in range(-1, n + 1)]


def test_build_follows_code_family():
    # build_concat succeeds exactly when code_family names a family, and
    # builds that family; out of range, both raise the same message
    named = {}
    for n, v, k in ALL_SHAPES:
        try:
            family = code_family(n, v, k)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                build_concat(n, v, k, 11)
            continue
        named.setdefault(family, set()).add((n, v, k))
        if family is None:
            with pytest.raises(ValueError, match=r"need v = k\+1 > n-k \(concatenated\)"):
                build_concat(n, v, k, 11)
        else:
            code = build_concat(n, v, k, 11)
            assert (code.layout is not None) == (family == "concat")
    assert named["concat"] == {s for s in CASCADE_SHAPES if s[0] <= 9}
    assert named["layered"] == {(n, v, n - 1) for n in range(1, 10) for v in range(1, n + 1)}


@pytest.mark.parametrize("shape, match", [
    ((6, 4, "3", 7), "k='3' is not an integer"),
    ((6, 4, 3.0, 7), "k=3.0 is not an integer"),
    ((6.0, 4, 3, 7), "n=6.0 is not an integer"),
    ((6, None, 3, 7), "v=None is not an integer"),
    ((6, True, 5, 7), "v=True is not an integer"),
    ((True, 1, 0, 7), "n=True is not an integer"),
    # q is checked as a field order before the cascade compares q < n
    ((6, 4, 3, "7"), "field order '7' is not an integer"),
    ((6, 4, 3, 7.0), "field order 7.0 is not an integer"),
    ((6, 4, 3, None), "field order None is not an integer"),
], ids=repr)
def test_shape_that_is_not_ints_rejected(shape, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        build_concat(*shape)


def test_sublayer_larger_than_its_round_rejected():
    # round j chooses sublayers of size ws[j-1] among k-j nodes
    with pytest.raises(ValueError, match="round 2 sublayer size 3 too large"):
        ScenarioLayout(8, 5, 4, (3, 3, 1))


def test_no_scenario_admissible_at_4_3_1():
    # the one scenario in range, (1,), chooses a sublayer of size 1 among
    # k-1 = 0 nodes, so the sublayer-size check rejects it
    with pytest.raises(ValueError, match="round 1 sublayer size 1 too large"):
        ScenarioLayout(4, 3, 1, (1,))
    assert admissible_scenarios(4, 3, 1) == []


@pytest.mark.parametrize("call, match", [
    (lambda: concat_params(5, 3, 5), "need k <= n-1"),
    (lambda: ScenarioLayout(8, 5, 4, (2, 1)), "scenario needs 3 rounds, got 2"),
], ids=["concat_params", "ScenarioLayout"])
def test_typed_parameter_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_small_layer_size_rejected():
    # layers disjoint from the accessed nodes cannot be completed
    with pytest.raises(ValueError):
        build_concat(7, 3, 2, 11)


def test_field_too_small_rejected():
    with pytest.raises(ValueError):
        build_concat(8, 5, 4, 7)


def _roundtrip(n, v, k, q):
    code = build_concat(n, v, k, q)
    rng = random.Random(42)
    blob = [rng.randrange(q) for _ in range(code.M)]
    nodes = code.encode(blob)
    assert len(nodes) == n
    assert all(len(col) == code.alpha for col in nodes)
    for A in itertools.combinations(range(n), k):
        got, log = code.collect(nodes, A)
        assert got == blob
        assert {i for i, _ in log} <= set(A)
        assert len(log) == k * code.alpha
    for f in range(n):
        column, log = code.repair(nodes, f)
        assert column == nodes[f]
        assert [j for j, _ in log.records] == [j for j in range(n) if j != f]
        assert {len(offsets) for _, offsets in log.records} == {code.layout.beta}
    return code


def test_end_to_end_643():
    code = _roundtrip(6, 4, 3, 7)
    assert code.layout.name == "2-1"
    assert code.M == code.k * code.alpha


def test_end_to_end_543():
    _roundtrip(5, 4, 3, 5)


def test_end_to_end_654():
    # single round, no helper codes below the top layer size
    code = _roundtrip(6, 5, 4, 7)
    assert code.alpha == (6 - 4) ** 4


@pytest.mark.parametrize("q", [8, 9])
def test_prime_power_field_collect_and_repair_warm_and_fresh(q):
    # GF(8) and GF(9) take the table kernel: every layer check, decode and
    # syndrome of a collect or repair must go through the field, not % p.
    # Two passes over every anchor and every failed node on one warm code
    # (schedules, plans and lifts reused) match a fresh code's answers.
    shape = (6, 4, 3, q)
    warm = build_concat(*shape)
    rng = random.Random(q)
    blob = [rng.randrange(q) for _ in range(warm.M)]
    nodes = warm.encode(blob)
    anchors = list(itertools.combinations(range(6), 3))
    damaged = []
    for f in range(6):
        rows = [list(row) for row in nodes]
        rows[f] = [0] * warm.alpha
        damaged.append(rows)
    fresh = build_concat(*shape)
    assert fresh.encode(blob) == nodes
    expected = ([fresh.collect(nodes, A) for A in anchors],
                [fresh.repair(rows, f) for f, rows in enumerate(damaged)])
    assert all(got == blob for got, _ in expected[0])
    assert [col for col, _ in expected[1]] == nodes
    for _ in range(2):
        assert ([warm.collect(nodes, A) for A in anchors],
                [warm.repair(rows, f) for f, rows in enumerate(damaged)]) == expected


def test_round_codes_never_build_their_own_generator_rows():
    # encode, collect and repair read a round code's base and its dual's
    # rows, aligned to its vertex order when the code is built, and never
    # the round code's own generator rows
    code = build_concat(8, 5, 4, 11)
    rounds = [rd for rds in code.rounds.values() for rd in rds]
    assert rounds and all(rd.code._aligned for rd in rounds)
    rng = random.Random(8)
    blob = [rng.randrange(11) for _ in range(code.M)]
    nodes = code.encode(blob)
    for A in itertools.combinations(range(8), 4):
        assert code.collect(nodes, A)[0] == blob
    for f in range(8):
        assert code.repair(nodes, f)[0] == nodes[f]
    assert not any("generator" in vars(rd.code) for rd in rounds)


def test_wrong_blob_length_rejected():
    code = build_concat(5, 4, 3, 5)
    with pytest.raises(ValueError):
        code.encode([0] * (code.M + 1))


# the shapes run end to end by the tests, the golden files and the benchmark
END_TO_END_SHAPES = [(5, 4, 3, 5), (6, 4, 3, 7), (6, 4, 3, 8), (6, 4, 3, 9),
                     (6, 5, 4, 7), (8, 5, 4, 11), (8, 6, 5, 11), (9, 7, 6, 11),
                     (10, 6, 5, 11)]


def _dependents(code, cid):
    """(rd, ids) per round c >= 1 of component cid's size: the ids of the
    dependents it hands that round's syndromes to, from kids[cid] on."""
    at = code.kids[cid]
    for rd in code.rounds[code.sizes[cid]]:
        if rd.c:
            yield rd, range(at, at + rd.m * rd.codim)
            at += rd.m * rd.codim


@pytest.mark.parametrize("shape", END_TO_END_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_dependents_are_smaller_and_later(shape):
    # recovering a size's components together needs every parent done
    # first: each dependent is smaller than its parent and has a higher id
    code = build_concat(*shape)
    assert set(code.rounds) == set(code.sizes)
    deps = []
    for cid, u in enumerate(code.sizes):
        for rd, ids in _dependents(code, cid):
            assert rd.c < u and all(code.sizes[dep] == rd.c and dep > cid for dep in ids)
            deps += ids
    # every component but the top is the dependent of exactly one
    assert sorted(deps) == list(range(1, len(code.sizes)))


def _reference_components(n, v, k):
    """(sizes, deps, order, first) by the queue loop that numbered the
    components while each kept its own rounds: deps[cid] lists (c, ids)
    per round c >= 1, and order and first are the code's from them."""
    sizes, deps, queue = [v], {}, [0]
    while queue:
        cid = queue.pop(0)
        u, deps[cid] = sizes[cid], []
        for c in range(u - 2, 0, -1):
            codim = _shape_codim((n - c, u - c, k - c, 1))
            if codim:
                deps[cid].append((c, []))
                for _ in range((u - 1 - c) * codim):
                    deps[cid][-1][1].append(len(sizes))
                    sizes.append(c)
                    if c >= 3:
                        queue.append(len(sizes) - 1)
    order, first = {v: [0]}, {}
    for u in sorted(set(sizes), reverse=True):
        for ridx, (c, ids) in enumerate(deps.get(order[u][0], ())):
            dst = order.setdefault(c, [])
            first[u, c] = len(dst)
            for j in range(len(ids)):
                dst.extend(deps[cid][ridx][1][j] for cid in order[u])
    return sizes, deps, {u: order[u] for u in sorted(order, reverse=True)}, first


@pytest.mark.parametrize("shape", END_TO_END_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_components_match_the_queue_reference(shape):
    code = build_concat(*shape)
    sizes, deps, order, first = _reference_components(*shape[:3])
    assert code.sizes == sizes
    assert list(code.order.items()) == list(order.items())
    assert code.first == first
    for cid, rounds in deps.items():
        assert [(rd.c, list(ids)) for rd, ids in _dependents(code, cid)] == rounds


# every cascade shape with n <= 9, and the pure layered shapes above
ROUND_ZERO_SHAPES = [(n, k + 1, k, 11) for n in range(1, 10) for k in range(n)
                     if code_family(n, k + 1, k) == "concat"] + [
                         (6, 3, 5, 4), (6, 6, 5, 5), (7, 1, 6, 11)]


@pytest.mark.parametrize("shape", ROUND_ZERO_SHAPES, ids=_name)
def test_round_zero_is_the_precode_rule(shape):
    # a size has a round c = 0, the precode (n, u, k, 1) with its u-1
    # data vectors as words, exactly when 1 < u < v and that code has
    # nonzero codimension; it is the size's last round
    n, v, k, _ = shape
    code = build_concat(*shape)
    for u, rds in code.rounds.items():
        assert [rd.c for rd in rds] == sorted({rd.c for rd in rds}, reverse=True)
        zero = [rd for rd in rds if rd.c == 0]
        assert len(zero) == (1 < u < v and _shape_codim((n, u, k, 1)) > 0)
        for rd in zero:
            assert rd is rds[-1] and rd.m == u - 1
            assert (rd.code.n, rd.code.v, len(rd.code.base), rd.code.t) == (n, u, k, 1)


@pytest.mark.parametrize("shape", END_TO_END_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_region_slots_hold_every_row(shape):
    # a slot carries into the next one unless every row a region op is
    # given, a decode's right-hand side (a dual row plus the syndrome)
    # included, has at most the terms the slot width was derived for
    code = build_concat(*shape)
    codes = [rd.code for rds in code.rounds.values() for rd in rds]
    rows = [len(minus) for c in codes for _, _, minus in _sparse_dual_rows(c)]
    assert max(rows + [code.v]) <= code.longest


def test_lift_lists_shared_per_helper_code():
    code = build_concat(8, 5, 4, 11)
    assert not code._lifts  # nothing is cached at build time
    rds = [rd for rounds in code.rounds.values() for rd in rounds]
    # one round, with its own helper code, serves every component of a size
    assert len({rd.code for rd in rds}) == len(rds)
    rng = random.Random(4)
    nodes = code.encode([rng.randrange(code.F.q) for _ in range(code.M)])
    # encode hands down at every sublayer and decodes round 0 at (), so
    # it builds every list once; collects only share them
    built = sum(comb(code.n, rd.c) * rd.m for rd in rds)
    assert len(code._lifts) == built
    lists = dict(code._lifts)
    for A in itertools.combinations(range(code.n), code.k):
        code.collect(nodes, A)
    assert len(code._lifts) == built
    by_code = {rd.code: rd for rd in rds}
    assert all(code._lift(by_code[c], L_c, i) is lift for (c, L_c, i), lift in lists.items())


def test_lift_positions_decode_to_layer_and_node():
    # coordinate L' of the helper codeword for (L_c, i) is the symbol of
    # layer L_c | L' at the i-th node of L'
    code = build_concat(8, 5, 4, 11)
    for rd in (rd for rounds in code.rounds.values() for rd in rounds):
        spec = code.lspec[rd.c + rd.code.v]
        for L_c in itertools.combinations(range(code.n), rd.c):
            rest = [x for x in range(code.n) if x not in L_c]
            for i in range(rd.m):
                lift = code._lift(rd, L_c, i)
                assert len(lift) == len(rd.code.vertices)
                for Lp, p in zip(rd.code.vertices, lift):
                    nodes = [rest[x] for x in Lp]
                    L = spec.layers[p // spec.v]
                    assert L == tuple(sorted(L_c + tuple(nodes)))
                    assert L[p % spec.v] == nodes[i]


def _reference_fills(code, u, A):
    """The fill targets of _schedule(u, A) by the number of nodes a
    layer meets A in: each layer missing A gives the position of its
    largest node outside A, in layer order."""
    fills = {}
    for l, L in enumerate(code.lspec[u].layers):
        out = [i for i, j in enumerate(L) if j not in A]
        if out:
            fills.setdefault(u - len(out), []).append(l * u + out[-1])
    return fills


@pytest.mark.parametrize("shape", [(8, 5, 4, 11), (10, 6, 5, 11)], ids=_name)
def test_schedule_fills_match_the_per_layer_reference(shape):
    code = build_concat(*shape)
    for A in itertools.combinations(range(code.n), code.k):
        for u, rds in code.rounds.items():
            steps = code._schedule(u, A)
            ref = _reference_fills(code, u, A)
            # a first fill, then one step per round, round 0 included
            assert [rd for rd, _, _ in steps] == [None] + rds
            # every layer missing A is filled, once, by the step of its meet
            fills = {u - 1 if rd is None else rd.c: list(fill) for rd, _, fill in steps}
            assert {c: fill for c, fill in fills.items() if fill} == ref


def _reference_decode_syndromes(code, u, rd, pieces, vectors):
    """A round rd >= 1 decode's syndrome values by (row e, word (L_c, i),
    slot b): slot first[u, c] + (i*codim + e)*B of read layer L_c's sum."""
    B, c, codim, Kc = code.kernels[u].B, rd.c, rd.codim, code.kernels[rd.c]
    sums = {lc: Kc.unpack([Kc.sum(vectors[c][lc * c:(lc + 1) * c])]) for lc, _ in pieces}
    words = [(lc, i) for lc, lifts in pieces for i in range(len(lifts))]
    return [x for e in range(codim) for lc, i in words
            for j in [code.first[u, c] + (i * codim + e) * B] for x in sums[lc][j:j + B]]


@pytest.mark.parametrize("shape", [(8, 5, 4, 11), (10, 6, 5, 11)], ids=_name)
def test_decode_syndromes_match_the_per_value_reference(shape):
    # the syndrome regions cut from the sums' bytes hold what packing the
    # per-value list gives, at every size, round and anchor
    code = build_concat(*shape)
    rng = random.Random(5)
    nodes = code.encode([rng.randrange(code.F.q) for _ in range(code.M)])
    vectors = {u: [None] * (code.lspec[u].R * u) for u in code.order}
    code._gather(nodes, code.reads, vectors)
    nonzero = 0
    for A in itertools.combinations(range(code.n), code.k):
        for u in code.rounds:
            for rd, subs, _ in code._schedule(u, A):
                for _, _, pieces in (subs if rd and rd.c else ()):
                    K2 = code.F.regions(len(pieces) * rd.m * code.kernels[u].B, code.longest)
                    got = code._syndrome(u, rd, pieces, vectors)
                    assert got == K2.pack(_reference_decode_syndromes(code, u, rd, pieces, vectors))
                    nonzero += any(got)
    assert nonzero


@pytest.mark.parametrize("shape", [(8, 5, 4, 11), (6, 4, 3, 8), (6, 4, 3, 9), (4, 3, 2, 257)],
                         ids=_name)
def test_decode_gap_raises_the_typed_error(shape):
    # a gap at a known coordinate of a stack (a packed prime field, the
    # table kernel, and slots of two bytes per element for q > 256)
    # raises erasure_decode's ValueError naming the vertex, never the
    # TypeError the packing meets first
    code = build_concat(*shape)
    rng = random.Random(6)
    blob = [rng.randrange(code.F.q) for _ in range(code.M)]
    nodes = code.encode(blob)
    A = tuple(range(1, code.k + 1))
    for u in (u for u, rds in code.rounds.items() if rds):
        K = code.kernels[u]
        for rd, subs, _ in code._schedule(u, A)[1:]:
            for A2, plan, pieces in subs:
                lifts = [lift for _, ls in pieces for lift in ls]
                t = max(set(range(rd.code.length)).difference(plan.out))
                w = [0] * (code.lspec[u].R * u)
                w[lifts[-1][t]] = None
                with pytest.raises(ValueError, match=re.escape(
                        f"missing known coordinate at {rd.code.vertices[t]}")):
                    code._decode(K, w, rd.code, A2, lifts, None, plan.out)
        # through collect: without its first fill, the schedule's first
        # decode meets a gap
        sched = code._schedule(u, A)
        first = sched[0]
        sched[0] = (None, (), ())
        try:
            with pytest.raises(ValueError, match="missing known coordinate at"):
                code.collect(nodes, A)
        finally:
            sched[0] = first
        assert code.collect(nodes, A)[0] == blob


def test_handdown_lists_built_once_per_round():
    code = build_concat(8, 5, 4, 11)
    assert not code._handdowns  # nothing is cached at build time
    rng = random.Random(7)
    nodes = code.encode([rng.randrange(code.F.q) for _ in range(code.M)])
    # encode hands down at every sublayer: one list per (size, round c >= 1)
    rounds = {(u, rd.c): rd for u, rds in code.rounds.items() for rd in rds if rd.c}
    assert set(code._handdowns) == set(rounds)
    assert all(len(code._handdowns[key]) == code.lspec[rd.c].R * rd.m
               for key, rd in rounds.items())
    lists = dict(code._handdowns)
    for A in itertools.combinations(range(code.n), code.k):
        code.collect(nodes, A)
    for f in range(code.n):
        code.repair(nodes, f)
    # collects share the lists; a repair hands down only where the failed node is
    assert code._handdowns.keys() == lists.keys()
    assert all(code._handdowns[key] is lift for key, lift in lists.items())
