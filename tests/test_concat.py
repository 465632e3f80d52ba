"""Concatenated layered codes: parameter tables and end-to-end recovery."""

import hashlib
import itertools
import json
import random
import re
from array import array
from fractions import Fraction
from math import comb

import pytest

import reference
from graphcodes import concat, jgc
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
from graphcodes.jgc import JGCSpec, _sparse_dual_rows, aligned_dual_rows, decode_plan
from graphcodes.matrix import all_minors, nullspace
from graphcodes.rs import rs_jgc
from graphcodes.storesim import LayeredCode


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


# sha256 of json.dumps([u, rd.c, aligned_dual_rows(rd.code)]) for every
# round of every size, sizes ascending and rounds in their order: the
# rows a build makes, bit for bit, at the END_TO_END_SHAPES and at
# (12,7,6,13), the largest shape built here
ALIGNED_ROWS_SHA256 = {
    (5, 4, 3, 5): "f6db51a2d5e0beb0bd1f9208005c970b0815369a7335c18efab415ccdc329249",
    (6, 4, 3, 7): "5c9e7df3f8139b22518174296cd69e45d132e0ba01d56f21aa27bfca0aa223c6",
    (6, 4, 3, 8): "51822a43765d3801e2db90a62c89c05fd3ce5a3ef0a7c055a696c6d6433ac568",
    (6, 4, 3, 9): "49f29f876c2735d001439e03f13a9c0e0b00f57bf0c739c29de03f83a1fc89b2",
    (6, 5, 4, 7): "fa30b026d9de7d0752ef7a9caa224d73130c0f737f9646f2a417b6304687e673",
    (8, 5, 4, 11): "e4e1dc05b2a888661f1971559a589fe31db0e91b25f8c5a13cd1e8ad877b3f30",
    (8, 6, 5, 11): "4ba75fc532e36e1989f464c0203141bb941a9d9fcbfb807ba0c88c7a63e5098b",
    (9, 7, 6, 11): "ef0c57cb62aed4dc5f3e89e3816df3ffb0206ef5997ccacc8e79758253eaa47d",
    (10, 6, 5, 11): "a14ed510e241ad67ece7017b86ea3b7b51029d2bd0e620f11fb8b96a08c10819",
    (12, 7, 6, 13): "93e7b629a327d2a5e582eb3848f316b2e41f0f2fbbd36609bcc2b52d83d4d07a",
}


@pytest.mark.parametrize("shape", list(ALIGNED_ROWS_SHA256), ids=lambda s: "-".join(map(str, s)))
def test_aligned_dual_rows_are_pinned(shape):
    assert set(END_TO_END_SHAPES) < set(ALIGNED_ROWS_SHA256)
    code = build_concat(*shape)
    h = hashlib.sha256()
    for u in sorted(code.rounds):
        for rd in code.rounds[u]:
            h.update(json.dumps([u, rd.c, aligned_dual_rows(rd.code)]).encode())
    assert h.hexdigest() == ALIGNED_ROWS_SHA256[shape]


@pytest.mark.parametrize("shape", END_TO_END_SHAPES + [(12, 7, 6, 13)],
                         ids=lambda s: "-".join(map(str, s)))
def test_round_code_plans_equal_the_eliminated_plans(shape):
    # every round code (t = 1) gathers its plans from its dual base's
    # minors; each equals the plan by is_infoset and one rref, at every
    # anchor, or at 60 seeded anchors per round code at (12,7,6,13)
    code = build_concat(*shape)
    rng = random.Random(32)
    for rd in (rd for rds in code.rounds.values() for rd in rds):
        anchors = list(itertools.combinations(range(rd.code.n), rd.code.k))
        if shape == (12, 7, 6, 13):
            anchors = rng.sample(anchors, min(60, len(anchors)))
        for A in anchors:
            assert decode_plan(rd.code, A) == reference.decode_plan(rd.code, A)
        assert rd.code._cofactors is not None


def _round_codes_by_index(code):
    """{c: the round-c codes of every size}, sizes in rounds order."""
    by_c = {}
    for rd in (rd for rds in code.rounds.values() for rd in rds):
        by_c.setdefault(rd.c, []).append(rd.code)
    return by_c


@pytest.mark.parametrize("shape", END_TO_END_SHAPES + [(12, 7, 6, 13)],
                         ids=lambda s: "-".join(map(str, s)))
def test_round_codes_of_one_index_share_one_round_base(shape):
    # every size's round-c code keeps one RS base, and its dual keeps one
    # dual base and one table of its minors, made up to the largest size
    # a round-c code reads: min(v', m) for its dual rows, m - v' for plans
    code = build_concat(*shape)
    m = code.n - code.k
    for c, codes in _round_codes_by_index(code).items():
        duals = [jgc.dual(rc) for rc in codes]
        assert all(rc.base is codes[0].base for rc in codes)
        assert all(D.base is duals[0].base for D in duals)
        assert all(D._minors is duals[0]._minors for D in duals)
        s, table = duals[0]._minors
        assert s == max(max(min(rc.v, m), m - rc.v) for rc in codes)
        assert duals[0].base == nullspace(code.F, codes[0].base)
        assert table == all_minors(code.F, duals[0].base, s)


@pytest.mark.parametrize("shape", END_TO_END_SHAPES + [(12, 7, 6, 13)],
                         ids=lambda s: "-".join(map(str, s)))
def test_one_laplace_pass_per_round_index_and_none_in_first_plans(shape, monkeypatch):
    calls = []

    def counting(F, M, smax):
        calls.append(smax)
        return all_minors(F, M, smax)

    monkeypatch.setattr(concat, "all_minors", counting)
    monkeypatch.setattr(jgc, "all_minors", counting)
    code = build_concat(*shape)
    assert len(calls) == len(_round_codes_by_index(code))
    calls.clear()
    for rc in (rc for codes in _round_codes_by_index(code).values() for rc in codes):
        assert decode_plan(rc, tuple(range(rc.k))).infoset
    assert calls == []


def test_a_code_built_alone_on_a_round_base_makes_its_own_table():
    # a code on a helper code's base, or on its dual base, that reads
    # larger minors than the round's table holds makes its own table,
    # keeps none, and equals a fresh build; the shared table is left as
    # it was (a table shared by content would raise KeyError here)
    code = build_concat(8, 5, 4, 11)
    rc, sibling = _round_codes_by_index(code)[0]
    D = jgc.dual(rc)
    shared = D._minors
    assert (rc.n, rc.k, rc.v, sibling.v, shared[0]) == (8, 4, 3, 2, 3)
    assert jgc.dual(sibling)._minors is shared
    alone, fresh = JGCSpec(code.F, rc.base, 4, 1), rs_jgc(8, 4, 4, 1, 11)
    assert aligned_dual_rows(alone) == aligned_dual_rows(fresh)
    for A in itertools.combinations(range(8), 4):
        assert decode_plan(alone, A) == decode_plan(fresh, A)
    on_dual = JGCSpec(code.F, D.base, 4, 1)
    assert on_dual.generator == JGCSpec(code.F, [list(row) for row in D.base], 4, 1).generator
    assert D.base_minors(4) == all_minors(code.F, D.base, 4)
    assert D.base_minors(3) is shared[1]
    assert jgc.dual(alone)._minors is on_dual._minors is None
    assert D._minors is shared and shared[0] == 3


@pytest.mark.parametrize("shape", END_TO_END_SHAPES + [(12, 7, 6, 13)],
                         ids=lambda s: "-".join(map(str, s)))
def test_build_tables_equal_their_references(shape):
    # the layered layouts and the read offsets, made by whole-list passes,
    # equal their element-by-element references
    code = build_concat(*shape)
    for u, spec in code.lspec.items():
        assert (spec.at, spec.slot, spec.masks) == reference.layered_layout(code.n, u)
        assert spec.data == [p for p in range(spec.R * u) if p % u != u - 1]
    cols, row = reference.read_offsets(code)
    assert list(code.cols) == cols
    assert list(code.row(range(len(cols)))) == row


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
    """The fill targets of size u in _schedule(A) by the number of nodes a
    layer meets A in: each layer missing A whose largest node is in A
    gives the position of its largest node outside A, in layer order
    (the last position, the layer check, is read by nothing)."""
    fills = {}
    for l, L in enumerate(code.lspec[u].layers):
        out = [i for i, j in enumerate(L) if j not in A]
        if out and out[-1] != u - 1:
            fills.setdefault(u - len(out), []).append(l * u + out[-1])
    return fills


@pytest.mark.parametrize("shape", [(8, 5, 4, 11), (10, 6, 5, 11)], ids=_name)
def test_schedule_fills_match_the_per_layer_reference(shape):
    code = build_concat(*shape)
    for A in itertools.combinations(range(code.n), code.k):
        for u, rds in code.rounds.items():
            steps = code._schedule(A)[u][0]
            ref = _reference_fills(code, u, A)
            # a first fill, then one step per round, round 0 included
            assert [rd for rd, _, _ in steps] == [None] + rds
            # every layer missing A but holding its largest node in A is
            # filled, once, by the step of its meet
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
            for rd, subs, _ in code._schedule(A)[u][0]:
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
    vectors = {c: [0] * len(w) for c, w in code._vectors().items()}
    for u in (u for u, rds in code.rounds.items() if rds):
        for rd, subs, _ in code._schedule(A)[u][0][1:]:
            for A2, plan, pieces in subs:
                lifts = [lift for _, ls in pieces for lift in ls]
                t = max(set(range(rd.code.length)).difference(plan.out))
                w = [0] * (code.lspec[u].R * u)
                w[lifts[-1][t]] = None
                with pytest.raises(ValueError, match=re.escape(
                        f"missing known coordinate at {rd.code.vertices[t]}")):
                    code._decode(u, w, rd, [(A2, plan, pieces)], vectors)
        # through collect: without its first fill, the schedule's first
        # decode meets a gap
        steps = code._schedule(A)[u][0]
        first = steps[0]
        steps[0] = (None, (), ())
        try:
            with pytest.raises(ValueError, match="missing known coordinate at"):
                code.collect(nodes, A)
        finally:
            steps[0] = first
        assert code.collect(nodes, A)[0] == blob


def _round_steps(sched):
    """The steps of a compiled schedule that decode (a round's)."""
    return [step for steps, _, _ in sched.values() for step in steps if step[1]]


def _recording_decodes(monkeypatch):
    """Record every concat.erasure_decode call's arguments."""
    calls, real = [], concat.erasure_decode

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(concat, "erasure_decode", recorded)
    return calls


def test_one_erasure_decode_per_round_step(monkeypatch):
    # every relabeled anchor of a round step is one slot group of one
    # decode: a collect decodes once per round step, encode once per
    # round-0 step, and the pure layered code never
    calls = _recording_decodes(monkeypatch)
    for shape, sample, steps in (((8, 5, 4, 11), None, 6), ((10, 6, 5, 11), 12, 10)):
        code = build_concat(*shape)
        rng = random.Random(8)
        blob = [rng.randrange(code.F.q) for _ in range(code.M)]
        calls.clear()
        nodes = code.encode(blob)
        assert len(calls) == sum(1 for rds in code.rounds.values() for rd in rds if not rd.c)
        assert len(calls) == len(_round_steps(code._encoder))
        anchors = list(itertools.combinations(range(code.n), code.k))
        for A in anchors if sample is None else rng.sample(anchors, sample):
            calls.clear()
            assert code.collect(nodes, A)[0] == blob
            assert len(calls) == len(_round_steps(code._schedules[A])) == steps
            # one group per relabeled anchor, in _subs order, whose slots
            # tile the stack
            assert [[A2 for A2, _ in groups] for _, groups, *_ in calls] == [
                [A2 for A2, _, _ in subs] for _, subs, _ in _round_steps(code._schedules[A])]
            assert all(sum(slots for _, slots in groups) == K.B for _, groups, _, _, K in calls)
    layered = LayeredCode(6, 3, 11)
    blob = [random.Random(9).randrange(11) for _ in range(layered.M)]
    calls.clear()
    nodes = layered.encode(blob)
    for A in itertools.combinations(range(layered.n), layered.k):
        assert layered.collect(nodes, A)[0] == blob
    assert all(layered.repair(nodes, f)[0] == nodes[f] for f in range(layered.n))
    assert calls == []


def _shift_slot(F, K, x, slot):
    """x, a region of K, with F.add(., 1) applied to its value at slot."""
    shift = 8 * K.width * slot
    old = x >> shift & (1 << 8 * K.width) - 1
    return x + ((F.add(old, 1) - old) << shift)


@pytest.mark.parametrize("shape, sample", [
    ((8, 5, 4, 11), None), ((6, 4, 3, 8), 5), ((6, 4, 3, 9), 5), ((4, 3, 2, 257), 3),
    ((10, 6, 5, 11), 3)],
    ids=lambda x: _name(x) if isinstance(x, tuple) else f"{x or 'every'}-anchors")
def test_grouped_decode_equals_one_decode_per_group(shape, sample, monkeypatch):
    # every round step of a collect, at every anchor of (8,5,4,11) and
    # at seeded ones elsewhere (packed, table and two-byte-slot
    # kernels): the grouped decode is bit for bit one single-anchor
    # decode per group, a wrong decoded value in any one group fails
    # the syndrome check, and a gap at a known coordinate of the last
    # group is named
    code = build_concat(*shape)
    rng = random.Random(10)
    blob = [rng.randrange(code.F.q) for _ in range(code.M)]
    nodes = code.encode(blob)
    calls = _recording_decodes(monkeypatch)
    anchors = list(itertools.combinations(range(code.n), code.k))
    for A in anchors if sample is None else rng.sample(anchors, sample):
        assert code.collect(nodes, A)[0] == blob
    monkeypatch.undo()
    assert any(len(groups) > 1 for _, groups, *_ in calls)
    real = jgc._dense_complete
    for rc, groups, word, syndrome, K in calls:
        decoded = jgc.erasure_decode(rc, groups, word, syndrome, K)
        assert decoded == reference.grouped_decode(rc, groups, word, syndrome, K)
        at = 0
        for g, (A2, slots) in enumerate(groups):
            def corrupting(code_, plans, H, syn, w, K_, at=at, g=g):
                out = real(code_, plans, H, syn, w, K_)
                i = plans[g][0].out[0]
                out[i] = _shift_slot(code_.F, K_, out[i], at + slots - 1)
                return out

            with monkeypatch.context() as patch:
                patch.setattr(jgc, "_dense_complete", corrupting)
                with pytest.raises(ValueError, match="inconsistent with the syndrome"):
                    jgc.erasure_decode(rc, groups, word, syndrome, K)
            at += slots
        t = max(set(range(rc.length)).difference(decode_plan(rc, groups[-1][0]).out))
        gap = list(word)
        gap[t] = None
        with pytest.raises(ValueError, match=re.escape(
                f"missing known coordinate at {rc.vertices[t]}")):
            jgc.erasure_decode(rc, groups, gap, syndrome, K)


def test_grouped_decode_ignores_each_group_unknowns_in_its_own_slots():
    # two groups at different anchors over one word: garbage in a
    # group's slots at its own unknowns is ignored, a position unknown
    # to every group may hold anything, and the slot counts must tile
    # the regions
    code = build_concat(8, 5, 4, 11)
    rd = next(rd for rd in code.rounds[5] if rd.c == 2)
    rc, F = rd.code, code.F
    anchors = [(0, 1), (0, 2)]
    outs = [set(decode_plan(rc, A2).out) for A2 in anchors]
    rng = random.Random(11)
    vecs = [[rng.randrange(F.q) for _ in range(rc.length)] for _ in range(3)]
    K = F.regions(3, code.longest)
    groups = [(anchors[0], 1), (anchors[1], 2)]
    want = K.pack([x for col in zip(*vecs) for x in col])
    syndrome = K.pack([x for col in zip(*(jgc.syndrome_of(rc, v) for v in vecs)) for x in col])
    word = [K.pack([rng.randrange(F.q) if t in outs[0] else col[0]]
                   + [rng.randrange(F.q) if t in outs[1] else x for x in col[1:]])[0]
            if t not in outs[0] & outs[1] else None
            for t, col in enumerate(zip(*vecs))]
    assert None in word
    assert jgc.erasure_decode(rc, groups, word, syndrome, K) == want
    for bad in ([(anchors[0], 1), (anchors[1], 1)], [(anchors[0], 2), (anchors[1], 2)],
                [(anchors[0], 0), (anchors[1], 3)], [(anchors[0], -1), (anchors[1], 4)]):
        with pytest.raises(ValueError, match="slots must be positive and sum"):
            jgc.erasure_decode(rc, bad, word, syndrome, K)


def test_each_operation_compiles_one_schedule_and_reuses_it():
    code = build_concat(8, 5, 4, 11)
    # nothing is cached at build time
    assert code._encoder is None and not code._schedules and not code._repairs
    compile_, replay, compiled, replayed = code._compile, code._replay, [], []

    def counted_compile(steps, layers):
        compiled.append(compile_(steps, layers))
        return compiled[-1]

    def recorded_replay(u, w, sched, injected, vectors=None):
        replayed.append((u, sched))
        return replay(u, w, sched, injected, vectors)

    code._compile, code._replay = counted_compile, recorded_replay
    rng = random.Random(7)
    blob = [rng.randrange(code.F.q) for _ in range(code.M)]
    nodes = build_concat(8, 5, 4, 11).encode(blob)
    A, f = (1, 3, 4, 6), 5
    for op, cached in ((lambda: code.encode(blob), lambda: code._encoder),
                       (lambda: code.collect(nodes, A), lambda: code._schedules[A]),
                       (lambda: code.repair(nodes, f), lambda: code._repairs[f][1])):
        for run in range(2):
            compiled.clear()
            replayed.clear()
            op()
            # the first run compiles the one schedule it keeps; the
            # second compiles nothing and replays that same schedule
            sched = cached()
            if run == 0:
                assert len(compiled) == 1 and compiled[0] is sched
                kept = sched
            else:
                assert compiled == [] and sched is kept
            # one replay per size, of the schedule's own entry
            assert [u for u, _ in replayed] == list(code.order)
            assert all(s is sched[u] for u, s in replayed)
    assert code._schedules.keys() == {A} and code._repairs.keys() == {f}
    assert code.encode(blob) == nodes
    assert code.collect(nodes, A)[0] == blob and code.repair(nodes, f)[0] == nodes[f]


@pytest.mark.parametrize("shape", END_TO_END_SHAPES + [(6, 3, 5, 11)], ids=_name)
def test_no_payload_position_or_helper_coordinate_is_a_layer_check(shape):
    # the lemma behind collect's live fills: a layer's last position
    # holds its check, and neither data[u] nor any _lift lists it
    n, v, k, q = shape
    code = LayeredCode(n, v, q) if k == n - 1 else build_concat(*shape)
    for u, pos in code.data.items():
        assert [p for p in pos if p % u == u - 1] == []
    for u, rds in code.rounds.items():
        for rd in rds:
            for L_c, i in itertools.product(itertools.combinations(range(n), rd.c), range(rd.m)):
                assert [p for p in code._lift(rd, L_c, i) if p % u == u - 1] == []


def _handdown_layers(code, u, lifts, m):
    """The sublayer L_c of each m-th lift of a size-u handdown, read off
    its positions: L_c is the one set every coordinate's layer contains."""
    spec = code.lspec[u]
    return [tuple(sorted(set.intersection(*(set(spec.layers[p // u]) for p in lift))))
            for lift in lifts[::m]]


def _assert_handdowns(code, sched, layers):
    # every size's injected values land on layers[u], and each round
    # hands down exactly at its dependents' layers, in that order; a
    # round with none is not in the schedule
    for u, (_, got, handdowns) in sched.items():
        assert list(got) == layers[u]
        assert [rd.c for rd, _ in handdowns] == [
            rd.c for rd in code.rounds[u] if rd.c and layers[rd.c]]
        for rd, lifts in handdowns:
            assert len(lifts) == len(layers[rd.c]) * rd.m
            assert _handdown_layers(code, u, lifts, rd.m) == [
                code.lspec[rd.c].layers[lc] for lc in layers[rd.c]]


def test_collect_leaves_only_dead_layer_checks_unknown():
    # at every anchor, a collect sets every position outside A but the
    # last of each layer whose largest node is outside A, and each round
    # hands down exactly at the layers its dependents fill; encode hands
    # down at every sublayer, a repair at the sublayers holding the
    # failed node
    code = build_concat(8, 5, 4, 11)
    rng = random.Random(8)
    blob = [rng.randrange(code.F.q) for _ in range(code.M)]
    nodes = code.encode(blob)
    _assert_handdowns(code, code._encoder, {u: list(range(code.lspec[u].R)) for u in code.order})
    payload, seen = code._payload, {}

    def keep_vectors(vectors):
        seen["vectors"] = vectors
        return payload(vectors)

    code._payload = keep_vectors
    for A in itertools.combinations(range(code.n), code.k):
        assert code.collect(nodes, A)[0] == blob
        for u, w in seen["vectors"].items():
            dead = {l * u + u - 1 for l, L in enumerate(code.lspec[u].layers) if L[-1] not in A}
            assert {p for p, x in enumerate(w) if x is None} == dead
        sched = code._schedule(A)
        live = {c: sorted({t // c for _, _, fill in sched[c][0] for t in fill}) for c in code.order}
        assert live[1] == []  # a size-1 layer's only node is its largest
        _assert_handdowns(code, sched, live)
    for f in range(code.n):
        assert code.repair(nodes, f)[0] == nodes[f]
        _assert_handdowns(code, code._repairs[f][1], {u: [
            l for l, L in enumerate(code.lspec[u].layers) if f in L] for u in code.order})


# stored_payload against the read of every node: every end-to-end shape
# (GF(8) and GF(9) among them), two pure layered codes (n, v, q), a
# q = 257 cascade and (12,7,6,13), the largest shape built here
PAYLOAD_SHAPES = END_TO_END_SHAPES + [(6, 3, 11), (10, 4, 11), (4, 3, 2, 257), (12, 7, 6, 13)]


def _code(shape):
    return LayeredCode(*shape) if len(shape) == 3 else build_concat(*shape)


def _random_nodes(code, seed):
    rng = random.Random(seed)
    return [rng.choices(range(code.F.q), k=code.alpha) for _ in range(code.n)]


@pytest.mark.parametrize("shape", PAYLOAD_SHAPES, ids=_name)
def test_stored_payload_is_the_read_of_every_node(shape):
    # one gather of the chained node arrays through the payload index
    # gives what a read of every node into region vectors gives, for any
    # node arrays; a build makes no index, the first call makes it as an
    # array('i') and the next call reuses it
    code = _code(shape)
    assert code._index is None
    nodes = _random_nodes(code, 40)
    assert code.stored_payload(nodes) == reference.stored_payload(code, nodes)
    index = code._index
    assert isinstance(index, array) and index.typecode == "i" and len(index) == code.M
    nodes = _random_nodes(code, 41)
    assert code.stored_payload(nodes) == reference.stored_payload(code, nodes)
    assert code._index is index


def _message(call):
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("shape", [(6, 4, 3, 7), (8, 5, 4, 11), (6, 3, 11), (4, 3, 2, 257),
                                   (12, 7, 6, 13)], ids=_name)
def test_stored_payload_names_the_first_bad_node(shape):
    # a bad symbol anywhere in node i names node i and the entry; of two
    # faults the one a read of the nodes in turn meets first is named, as
    # the read of every node names it: of two bad symbols in one node the
    # first read (cols[t] before cols[t+1] < cols[t], where cols has such
    # a t), and a bad symbol in node 1 before a short array at node 2
    code = _code(shape)
    nodes, rng, q = _random_nodes(code, 42), random.Random(43), code.F.q
    for i in range(code.n):
        spots = range(code.alpha) if code.alpha <= 64 else [rng.randrange(code.alpha)]
        for s in spots:
            bad = [q, -1, True, None, 2.0, 300][(i + s) % 6]
            old, nodes[i][s] = nodes[i][s], bad
            assert _message(lambda: code.stored_payload(nodes)) == \
                f"node {i} holds a symbol outside GF({q}): {bad!r} is not an element of GF({q})"
            nodes[i][s] = old
    t = next((t for t in range(code.alpha - 1) if code.cols[t] > code.cols[t + 1]), 0)
    for damage in ("two symbols", "short next"):
        damaged = [list(row) for row in nodes]
        damaged[1][code.cols[t]], damaged[1][code.cols[t + 1]] = q, q + 1
        if damage == "short next":
            damaged[2].pop()
        assert _message(lambda: code.stored_payload(damaged)) == \
            _message(lambda: reference.stored_payload(code, damaged)) == \
            f"node 1 holds a symbol outside GF({q}): {q} is not an element of GF({q})"
