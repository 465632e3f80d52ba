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
    decode_layered,
    encode_layered,
    extract_data,
    fill_layers,
    layer_sum,
    layered_params,
    tradeoff_points,
)

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


def test_encode_layer_sums_hit_injected_targets():
    spec = LayeredSpec(F, 6, 3)
    data = [(3 * i + 1) % 11 for i in range(spec.M1)]
    injected = {spec.layers[0]: 7, spec.layers[5]: 2}
    nodes = encode_layered(spec, data, injected)
    for L in spec.layers:
        assert layer_sum(spec, nodes, L) == injected.get(L, 0)


def test_encode_extract_roundtrip():
    spec = LayeredSpec(F, 6, 3)
    data = [(5 * i + 2) % 11 for i in range(spec.M1)]
    nodes = encode_layered(spec, data)
    values = {(L, j): nodes[j][spec.slot[(L, j)]]
              for L in spec.layers for j in L}
    assert extract_data(spec, values) == data


def test_decode_with_one_node_missing():
    spec = LayeredSpec(F, 6, 3)
    data = [(7 * i + 3) % 11 for i in range(spec.M1)]
    injected = {spec.layers[2]: 9}
    nodes = encode_layered(spec, data, injected)
    for missing in range(6):
        A = [j for j in range(6) if j != missing]
        values = decode_layered(spec, nodes, A, injected)
        assert extract_data(spec, values) == data
    with pytest.raises(ValueError):
        decode_layered(spec, nodes, [0, 1, 2])


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
    data = list(range(spec.M1))
    injected = {L: (3 * i) % 11 for i, L in enumerate(spec.layers)}
    nodes = encode_layered(spec, [x % 11 for x in data], injected)
    full = {(L, j): nodes[j][spec.slot[(L, j)]] for L in spec.layers for j in L}
    values = dict(full)
    for L in spec.layers[::2]:
        del values[(L, L[1])]
    fill_layers(F, values, injected, spec.layers)
    assert values == full
    L = spec.layers[0]
    del values[(L, L[0])], values[(L, L[1])]
    with pytest.raises(ValueError):
        fill_layers(F, values, injected, [L])
