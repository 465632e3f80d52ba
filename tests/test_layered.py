"""Layered storage codes: layout, census, tradeoff."""

from fractions import Fraction
from math import comb

import pytest

from graphcodes.field import field_make
from graphcodes.layered import (
    LayeredSpec,
    census_counts,
    census_csv,
    classify_access,
    encode_layered,
    fill_layers,
    layered_params,
    tradeoff_points,
)
from reference import node_arrays, read_layers

F = field_make(11)


def test_parameters():
    R, alpha, beta, M1 = layered_params(8, 5)
    assert (R, alpha, beta, M1) == (56, 35, 20, 224)
    spec = LayeredSpec(F, 8, 5)
    assert (spec.R, spec.alpha, spec.beta, spec.M1) == (56, 35, 20, 224)
    with pytest.raises(ValueError):
        layered_params(4, 5)


def test_symbol_count_identity():
    # counting symbols by node and by layer agrees
    for n in range(2, 9):
        for v in range(1, n + 1):
            R, alpha, _, _ = layered_params(n, v)
            assert n * alpha == R * v


def test_layout_positions_invert_and_keep_node_order():
    for n in range(1, 9):
        for v in range(1, n + 1):
            spec = LayeredSpec(F, n, v)
            assert [spec.index[L] for L in spec.layers] == list(range(spec.R))
            assert sorted(p for ps in spec.at for p in ps) == list(range(spec.R * v))
            for i, ps in enumerate(spec.at):
                assert len(ps) == spec.alpha
                for s, p in enumerate(ps):
                    assert spec.slot[p] == s and spec.at[i][spec.slot[p]] == p
                    assert spec.layers[p // v][p % v] == i
            # node i stores its symbols in lex order of the layers holding i
            labels = [(L, j) for L in spec.layers for j in L]
            assert node_arrays(spec, labels) == [
                [(L, i) for L in spec.layers if i in L] for i in range(n)]


@pytest.mark.parametrize("v", [1, 3])
def test_encode_layer_sums_hit_injected_targets(v):
    # a size-1 layer has no data and stores its injected target
    spec = LayeredSpec(F, 6, v)
    data = [(3 * i + 1) % 11 for i in range(spec.M1)]
    injected = [0] * spec.R
    injected[0], injected[5] = 7, 2
    nodes = node_arrays(spec, encode_layered(spec, data, injected))
    for l, L in enumerate(spec.layers):
        stored = [nodes[j][spec.slot[l * spec.v + t]] for t, j in enumerate(L)]
        assert F.sum(stored) == injected[l]


def test_encode_extract_roundtrip():
    spec = LayeredSpec(F, 6, 3)
    data = [(5 * i + 2) % 11 for i in range(spec.M1)]
    nodes = node_arrays(spec, encode_layered(spec, data))
    values = read_layers(spec, nodes, range(6))
    assert [values[p] for p in spec.data] == data
    with pytest.raises(ValueError, match="expected 40 data symbols, got 39"):
        encode_layered(spec, data[:-1])


def test_decode_with_one_node_missing():
    # the missing node's symbols follow from their layers' checks
    spec = LayeredSpec(F, 6, 3)
    data = [(7 * i + 3) % 11 for i in range(spec.M1)]
    injected = [0] * spec.R
    injected[2] = 9
    nodes = node_arrays(spec, encode_layered(spec, data, injected))
    for missing in range(6):
        A = [j for j in range(6) if j != missing]
        values = read_layers(spec, nodes, A)
        fill_layers(F, values, spec.v, injected, spec.at[missing])
        assert [values[p] for p in spec.data] == data
    values = read_layers(spec, nodes, [0, 1, 2])
    with pytest.raises(ValueError, match="unknown symbols"):
        fill_layers(F, values, spec.v, injected,
                    [p for i in (3, 4, 5) for p in spec.at[i]])


def test_census_closed_form_matches_enumeration():
    for (n, v, k) in [(8, 5, 7), (8, 5, 4), (6, 3, 4)]:
        A = tuple(range(k))
        census, classes = classify_access(n, v, A)
        assert census == census_counts(n, v, k)
        assert len(classes) == comb(n, v)


def test_census_oracles():
    assert census_counts(8, 5, 7) == {5: 21, 4: 35}
    assert census_counts(8, 5, 4) == {4: 4, 3: 24, 2: 24, 1: 4}


def test_census_csv_format():
    text = census_csv(8, 5, 7)
    assert text.splitlines() == ["intersection,layers", "5,21", "4,35"]


def test_tradeoff_points_n4():
    pts = tradeoff_points(4)
    assert pts == [
        (2, Fraction(1, 2), Fraction(1, 6)),
        (3, Fraction(3, 8), Fraction(1, 4)),
        (4, Fraction(1, 3), Fraction(1, 3)),
    ]
    with pytest.raises(ValueError):
        tradeoff_points(1)


def test_fill_layers_completes_one_unknown_per_layer():
    spec = LayeredSpec(F, 5, 3)
    v = spec.v
    data = list(range(spec.M1))
    injected = [(3 * l) % 11 for l in range(spec.R)]
    nodes = node_arrays(spec, encode_layered(spec, [x % 11 for x in data],
                                             injected))
    full = read_layers(spec, nodes, range(5))
    values = list(full)
    targets = [l * v + 1 for l in range(0, spec.R, 2)]
    for t in targets:
        values[t] = None
    fill_layers(F, values, v, injected, targets)
    assert values == full
    values[0] = values[1] = None
    with pytest.raises(ValueError, match="layer 0 has 2 unknown symbols"):
        fill_layers(F, values, v, injected, [0])
