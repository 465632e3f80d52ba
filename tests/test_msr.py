"""An exact MSR certificate for small concatenated codes.

Encoding is linear, so the rows encode(e_i), each flattened node by
node, form the code's M x n*alpha generator matrix G; node j owns
columns j*alpha .. (j+1)*alpha - 1.  The paper's storage claim is then
a statement about ranks of column blocks of G:

- any k nodes give back the blob: G on their columns has rank M, for
  every k-subset, with M = k*alpha;
- a failed node f is rebuilt from beta symbols per helper: the columns
  of f lie in the span of the helpers' repair positions, the offsets
  ``code.repair`` actually reads from each helper (recorded by the
  rows, not recomputed from the layout).

A tampered encode must fail the first check, so the check can fail.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcodes.concat import build_concat
from graphcodes.matrix import column_rank_test, rank, take_columns

SHAPES = [(5, 4, 3, 5), (6, 4, 3, 7), (6, 4, 3, 8), (6, 4, 3, 9), (6, 5, 4, 7)]


def _name(shape):
    return "-".join(map(str, shape))


_CODES = {}


def _code(shape):
    if shape not in _CODES:
        _CODES[shape] = build_concat(*shape)
    return _CODES[shape]


def _flat(nodes):
    return [x for row in nodes for x in row]


def _generator(code):
    G = []
    for i in range(code.M):
        e = [0] * code.M
        e[i] = 1
        G.append(_flat(code.encode(e)))
    return G


def _node_columns(code, nodes):
    return [j * code.alpha + s for j in nodes for s in range(code.alpha)]


class ReadRow(list):
    """A node array that records every offset read through ``row[i]``."""

    def __init__(self, values, node, log):
        super().__init__(values)
        self.node, self.log = node, log

    def __getitem__(self, i):
        self.log.append((self.node, i))
        return list.__getitem__(self, i)


def _repair_reads(code, nodes, failed):
    """{helper: the offsets code.repair reads from it} for one repair,
    each the offsets of the helper's one record in the repair's log."""
    log = []
    column, got = code.repair([ReadRow(row, j, log) for j, row in enumerate(nodes)], failed)
    assert column == nodes[failed]
    reads = {}
    for j, i in log:
        reads.setdefault(j, set()).add(i)
    assert sorted(reads) == [j for j in range(code.n) if j != failed]
    assert [(j, set(offsets)) for j, offsets in got.records] == sorted(reads.items())
    assert {len(offsets) for _, offsets in got.records} == {code.beta}
    return reads


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.sampled_from(SHAPES), st.data())
def test_encode_is_linear(shape, data):
    code = _code(shape)
    F = code.F
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    x = [rng.randrange(F.q) for _ in range(code.M)]
    y = [rng.randrange(F.q) for _ in range(code.M)]
    a = data.draw(st.integers(min_value=0, max_value=F.q - 1))
    ax_y = [F.add(F.mul(a, xi), yi) for xi, yi in zip(x, y)]
    expected = [F.add(F.mul(a, s), t) for s, t in
                zip(_flat(code.encode(x)), _flat(code.encode(y)))]
    assert _flat(code.encode(ax_y)) == expected


@pytest.mark.parametrize("shape", SHAPES, ids=_name)
def test_any_k_nodes_recover_and_beta_per_helper_repairs(shape):
    code = _code(shape)
    F, n, k = code.F, code.n, code.k
    assert code.M == k * code.alpha
    assert code.alpha == (n - k) ** k and code.beta == (n - k) ** (k - 1)
    G = _generator(code)
    # G is the code: a blob's node arrays are blob * G
    rng = random.Random(7)
    blob = [rng.randrange(F.q) for _ in range(code.M)]
    assert _flat(code.encode(blob)) == [
        F.sum(F.mul(b, g) for b, g in zip(blob, col)) for col in zip(*G)]

    spans = column_rank_test(F, G)
    for A in itertools.combinations(range(n), k):
        assert spans(_node_columns(code, A)), A

    nodes = code.encode(blob)
    for f in range(n):
        helpers = []
        for j, offsets in _repair_reads(code, nodes, f).items():
            assert len(offsets) == code.beta
            helpers.extend(j * code.alpha + i for i in sorted(offsets))
        r = rank(F, take_columns(G, helpers))
        assert rank(F, take_columns(G, helpers + _node_columns(code, [f]))) == r, f


@pytest.mark.parametrize("shape", [(6, 4, 3, 7), (6, 4, 3, 9)], ids=_name)
def test_tampered_encode_fails_the_certificate(shape):
    # zeroing one dependent's injected values keeps encode linear but
    # drops what the top copy's syndromes hand down, so G loses rank on
    # k-subsets and the certificate must say so
    code = build_concat(*shape)
    dep = code.kids[0]
    replay = code._replay

    def tampered(u, w, sched, injected, vectors=None):
        replay(u, w, sched, injected, vectors)
        if dep in injected:
            injected[dep][:] = [0] * len(injected[dep])

    code._replay = tampered
    spans = column_rank_test(code.F, _generator(code))
    failed = [A for A in itertools.combinations(range(code.n), code.k)
              if not spans(_node_columns(code, A))]
    assert failed
