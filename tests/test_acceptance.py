"""Acceptance gate: eleven criteria, one pass/fail line each.

A plain ``pytest -v`` run shows one verdict line per criterion.  Every criterion is exact; randomized suites are seeded and must
report zero failures.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from graphcodes.combinat import (
    complement,
    graph_params,
    johnson_vertices,
    shell_index,
    sign_of,
)
from graphcodes.concat import (
    balance_table,
    build_concat,
    concat_params,
    demand_row,
    scenario_table,
    series_multiplicities,
    subgraph_code_table,
)
from graphcodes.field import field_make
from graphcodes.hgc import certify_hgc_infosets, construct_hgc, rm_equivalent
from graphcodes.jgc import (
    aligned_dot,
    certify_infosets,
    construct,
    dual,
    signed_dual,
    signed_pairing,
    sparse_parities,
)
from graphcodes.layered import census_counts, classify_access, tradeoff_points
from graphcodes.matrix import (
    compound,
    det,
    mat_mul,
    mat_vec,
    pi,
    pi_signed,
    tau,
    transpose,
)
from graphcodes.rs import RSBasis, det_h, rs_jgc
from graphcodes.storesim import LayeredCode, collect, ingest, repair_node
from graphcodes.subres import (
    poly_deg,
    poly_gcd,
    poly_trim,
    principal_subresultant,
    sh_identity_check,
)

TRIALS = 200
FIELDS = (5, 7, 11, 13)


def _verdict(capsys, num, label, ok):
    # bypass capture so the verdict line shows in a plain ``pytest -v`` run
    with capsys.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


_cached = {}


def _code_854():
    if "854" not in _cached:
        code = build_concat(8, 5, 4, 11)
        rng = random.Random(0)
        blob = [rng.randrange(11) for _ in range(code.M)]
        _cached["854"] = ingest(code, blob)
    return _cached["854"]


def test_criterion_01_shell_census(capsys):
    start = time.time()
    ok = census_counts(8, 5, 7) == {5: 21, 4: 35}
    ok &= census_counts(8, 5, 4) == {4: 4, 3: 24, 2: 24, 1: 4}
    # closed form agrees with direct enumeration
    ok &= classify_access(8, 5, range(7))[0] == {5: 21, 4: 35}
    ok &= classify_access(8, 5, range(4))[0] == {4: 4, 3: 24, 2: 24, 1: 4}
    ok &= time.time() - start < 1.0
    _verdict(capsys, 1, "shell censuses (8,5,7) and (8,5,4)", ok)


def test_criterion_02_multiplicities_and_balance(capsys):
    ok = series_multiplicities(5, 3) == [1, 0, 6, 8, 39]
    _, sums = balance_table(8, 5, 4)
    ok &= sums == [0, 0, 0, 0, -96]
    _verdict(capsys, 2, "copy multiplicities and column balance", ok)


def test_criterion_03_storage_parameters(capsys):
    p = concat_params(8, 5, 4)
    ok = (p.M, p.alpha, p.beta) == (1024, 256, 64)
    ok &= (p.M, p.alpha, p.beta) == (4 ** 5, 4 ** 4, 4 ** 3)
    d = 7
    ok &= p.M == p.k * p.alpha
    ok &= p.alpha == (d - p.k + 1) * p.beta
    _verdict(capsys, 3, "MSR parameters (M,alpha,beta)=(1024,256,64)", ok)


def test_criterion_04_subgraph_code_dimensions(capsys):
    rows = subgraph_code_table(8, 5, 4)
    dims = [(r["length"], r["dim"]) for r in rows]
    ok = dims == [(10, 4), (10, 10), (20, 4), (20, 16), (20, 20),
                  (35, 4), (35, 22), (35, 34), (35, 35)]
    # the constructed codes realize these dimensions
    for (length, dim) in set(dims):
        n2 = {10: 5, 20: 6, 35: 7}[length]
        found = False
        for t in range(1, n2 - 4 + 1):
            code = rs_jgc(n2, n2 - 3, n2 - 4, t, 11)
            if code.dim == dim:
                found = True
        ok &= found or dim == length  # full space needs no construction
    syn = [r["length"] - r["dim"] for r in rows if r["dim"] < r["length"]]
    ok &= syn == [6, 16, 4, 31, 13, 1]
    ok &= demand_row(8, 5, 4) == [24, 48, 12]
    _verdict(capsys, 4, "helper code dimensions, syndrome lengths, demand row", ok)


def test_criterion_05_scenario_table(capsys):
    rows = scenario_table(8, 5, 4, ["3-2-1", "3-1-1", "2-2-1", "1-1-1"])
    got = [(r["M"], r["alpha"], r["beta"]) for r in rows]
    ok = got == [(1024, 256, 64), (848, 212, 56),
                 (1464, 366, 96), (672, 168, 60)]
    _verdict(capsys, 5, "all four scenario parameter rows", ok)


def test_criterion_06_end_to_end_recovery(capsys):
    start = time.time()
    state = _code_854()
    code = state.code
    ok = True
    for A in itertools.combinations(range(8), 4):
        before = len(state.access_log)
        got = collect(state, A)
        ok &= got == state.blob
        log = state.access_log[-1]
        ok &= len(state.access_log) == before + 1
        ok &= {i for i, _ in log} <= set(A)
        ok &= len(log) == 4 * code.alpha
    elapsed = time.time() - start
    ok &= elapsed < 300
    _verdict(capsys, 6, f"recovery from all 70 anchors in {elapsed:.1f}s", ok)


def test_criterion_07_exact_repair(capsys):
    ok = True
    layered = LayeredCode(8, 5, 11)
    rng = random.Random(1)
    state = ingest(layered, [rng.randrange(11) for _ in range(layered.M)])
    for f in range(8):
        repaired = repair_node(state, f)
        ok &= repaired.nodes[f] == state.nodes[f]
        ok &= set(repaired.last_repair_bandwidth.values()) == {20}
    concat_state = _code_854()
    for f in range(8):
        repaired = repair_node(concat_state, f)
        ok &= repaired.nodes[f] == concat_state.nodes[f]
        ok &= set(repaired.last_repair_bandwidth.values()) == {64}
    _verdict(capsys, 7, "single-node repair at beta=20 (layered) and 64 (concat)", ok)


def test_criterion_08_information_set_certification(capsys):
    ok = True
    for n in range(2, 8):
        for v in range(1, n + 1):
            for k in range(1, n):
                for t in range(1, min(v, k) + 1):
                    report = certify_infosets(rs_jgc(n, v, k, t, 7))
                    ok &= not report["fail"] and not report["skipped"]
                    ok &= len(report["pass"]) == comb(n, k)
    F2 = field_make(2)
    five = construct(F2, [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]], 3, 2)
    report = certify_infosets(five)
    ok &= report["fail"] == [] and report["skipped"] == [(0, 2), (1, 4)]
    hcode = construct_hgc(F2, [[1, 0, 1, 1], [0, 1, 0, 1]], 2, 1)
    hreport = certify_hgc_infosets(hcode)
    ok &= hreport["fail"] == [] and hreport["skipped"] == [(0, 2)]
    _verdict(capsys, 8, "anchor certification, MDS sweep and both examples", ok)


def _rand_mat(rng, q, rows, cols):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def _suite_cauchy_binet(F, rng):
    m = rng.randrange(2, 4)
    n = rng.randrange(m, 6)
    A = _rand_mat(rng, F.q, m, n)
    B = _rand_mat(rng, F.q, n, m)
    total = 0
    for S in itertools.combinations(range(n), m):
        a = det(F, [[row[j] for j in S] for row in A])
        b = det(F, [B[i] for i in S])
        total = F.add(total, F.mul(a, b))
    return det(F, mat_mul(F, A, B)) == total


def _suite_compound_multiplicative(F, rng):
    n = rng.randrange(2, 5)
    v = rng.randrange(1, n + 1)
    g = _rand_mat(rng, F.q, n, n)
    h = _rand_mat(rng, F.q, n, n)
    Cg, _ = compound(F, g, v)
    Ch, _ = compound(F, h, v)
    Cgh, _ = compound(F, mat_mul(F, g, h), v)
    return Cgh == mat_mul(F, Cg, Ch)


def _suite_compound_det(F, rng):
    n = rng.randrange(2, 7)
    v = rng.randrange(1, n + 1)
    g = _rand_mat(rng, F.q, n, n)
    C, _ = compound(F, g, v)
    return det(F, C) == F.pow(det(F, g), comb(n - 1, v - 1))


def _suite_signed_pi(F, rng):
    n = rng.randrange(2, 6)
    v = rng.randrange(1, n + 1)
    M = _rand_mat(rng, F.q, v, n)
    verts = johnson_vertices(n, v)
    plain = pi(F, M, verts)
    signed = pi_signed(F, M, verts)
    for L, a, b in zip(verts, plain, signed):
        want = a if sign_of(L) == 1 else F.neg(a)
        if b != want:
            return False
        ext = [list(r) for r in M] + [
            [1 if c == j else 0 for c in range(n)]
            for j in range(n) if j not in L
        ]
        if b != det(F, ext):
            return False
    return True


_dual_cache = {}


def _duality_codes(q):
    if q not in _dual_cache:
        n = min(q, 6)
        code = rs_jgc(n, 3, 2, 1, q)
        _dual_cache[q] = (code, dual(code), signed_dual(code))
    return _dual_cache[q]


def _suite_duality(F, rng):
    code, dcode, scode = _duality_codes(F.q)
    cw = mat_vec(F, transpose(code.generator),
                 [rng.randrange(F.q) for _ in range(code.dim)])
    dw = mat_vec(F, transpose(dcode.generator),
                 [rng.randrange(F.q) for _ in range(dcode.dim)])
    sw = mat_vec(F, transpose(scode.generator),
                 [rng.randrange(F.q) for _ in range(scode.dim)])
    if aligned_dot(F, cw, code.vertices, dw, dcode.vertices) != 0:
        return False
    return signed_pairing(F, cw, code.vertices, sw, scode.vertices,
                          code.n) == 0


_parity_cache = {}


def _suite_sparse_parity(F, rng):
    key = F.q
    if key not in _parity_cache:
        n, v, k, t = (5, 3, 2, 2) if F.q == 5 else (7, 4, 3, 2)
        _parity_cache[key] = (rs_jgc(n, v, k, t, key), {})
    code, per_anchor = _parity_cache[key]
    A = tuple(sorted(rng.sample(range(code.n), code.k)))
    if A not in per_anchor:
        per_anchor[A] = sparse_parities(code, A)
    structure = per_anchor[A]
    d1, d2, R = graph_params(code.n, code.v, code.k)
    Ac = complement(A, code.n)
    i = rng.randrange(len(structure))
    (Lp, support), blk = structure.rows[i], structure.block_of_row[i]
    if blk != shell_index(Lp, Ac):
        return False
    if structure.row_weight(i) > comb(d1 + d2 - 2 * blk, R - blk):
        return False
    h = [0] * code.length
    for L, x in support:
        h[code.vertex_pos[L]] = x
    row = code.generator[rng.randrange(code.dim)]
    return aligned_dot(F, row, code.vertices, h, code.vertices) == 0


_basis_cache = {}


def _suite_row_equality(F, rng):
    q = F.q
    if q not in _basis_cache:
        alphas = list(range(min(q, 7)))
        _basis_cache[q] = (alphas,
                           RSBasis(F, alphas, "triangular"),
                           RSBasis(F, alphas, "block", k=3))
    alphas, tri, blk = _basis_cache[q]
    n = len(alphas)
    k = 3
    v = rng.randrange(1, n - k + 1)
    t = rng.randrange(0, min(v, k) + 1)
    I = list(range(t)) + list(range(k, k + v - t))
    if not I or max(I) >= n:
        return True
    L = sorted(rng.sample(range(n), v))
    return det_h(tri, I, L) == det_h(blk, I, L)


def _suite_anchored_identity(F, rng):
    alphas = list(range(min(F.q, 8)))
    k = rng.randrange(1, 4)
    v = rng.randrange(1, 4)
    I = sorted(rng.sample(range(6), v))
    L = sorted(rng.sample(range(len(alphas)), v))
    lead = rng.randrange(1, F.q)
    return sh_identity_check(F, alphas, L, k, I, lead=lead)


def _suite_subresultant(F, rng):
    p = poly_trim([rng.randrange(F.q)
                   for _ in range(rng.randrange(1, 5))] + [1])
    q = poly_trim([rng.randrange(F.q)
                   for _ in range(rng.randrange(1, 5))] + [1])
    delta = poly_deg(poly_gcd(F, p, q))
    for i in range(min(poly_deg(p), poly_deg(q)) + 1):
        d = principal_subresultant(F, p, q, i)
        if i < delta and d != 0:
            return False
        if i == delta and d == 0:
            return False
    return True


def test_criterion_09_algebraic_identity_suite(capsys):
    suites = [
        ("cauchy-binet", _suite_cauchy_binet),
        ("compound multiplicative", _suite_compound_multiplicative),
        ("compound determinant", _suite_compound_det),
        ("signed minor vector", _suite_signed_pi),
        ("duality and signed pairing", _suite_duality),
        ("sparse parity bounds", _suite_sparse_parity),
        ("reduced basis row equality", _suite_row_equality),
        ("anchored determinant identity", _suite_anchored_identity),
        ("subresultant gcd criterion", _suite_subresultant),
    ]
    failures = []
    for q in FIELDS:
        F = field_make(q)
        for name, fn in suites:
            rng = random.Random(f"{q}:{name}")
            bad = sum(1 for _ in range(TRIALS) if not fn(F, rng))
            if bad:
                failures.append((q, name, bad))
    _verdict(capsys, 9, f"identity suite, {TRIALS} trials x {len(suites)} "
                f"properties x {len(FIELDS)} fields",
             not failures)


def test_criterion_10_reed_muller_equivalence(capsys):
    ok = all(rm_equivalent(r, m) for m in range(1, 5) for r in range(m))
    F2 = field_make(2)
    code = construct_hgc(F2, [[1, 0, 1, 1], [0, 1, 0, 1]], 2, 1)
    word = tau(F2, [[0, 0, 1, 0], [0, 1, 0, 1]], code.vertices)
    text = "".join(map(str, word))
    ok &= (text[:4], text[4:12], text[12:]) == ("0000", "00000100", "0100")
    _verdict(capsys, 10, "Reed-Muller equivalence and tensor word", ok)


def test_criterion_11_tradeoff_points(capsys):
    pts = tradeoff_points(4)
    ok = pts == [
        (2, Fraction(2, 4), Fraction(2, 12)),
        (3, Fraction(3, 8), Fraction(3, 12)),
        (4, Fraction(4, 12), Fraction(4, 12)),
    ]
    _verdict(capsys, 11, "storage/repair tradeoff points for n=4", ok)
