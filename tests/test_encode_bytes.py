"""Encoded node arrays pinned by hash.

The golden files print only counts, so these hashes are what keeps an
encoder rewrite byte-identical: each code encodes a blob drawn from
random.Random(seed) and the n node arrays are hashed in node order.
"""

import hashlib
import itertools
import random

import pytest

from graphcodes.concat import build_concat
from graphcodes.storesim import LayeredCode


def _digest(code, seed):
    rng = random.Random(seed)
    nodes = code.encode([rng.randrange(code.F.q) for _ in range(code.M)])
    assert len(nodes) == code.n and {len(row) for row in nodes} == {code.alpha}
    h = hashlib.sha256()
    for row in nodes:
        h.update(bytes(row))
    return h.hexdigest()[:16]


CONCAT = {
    (5, 4, 3, 5): "4c7a37397d1fa1a8 4978922b40694422",
    (6, 4, 3, 7): "17e66d88b647c220 d3ddf62a628a3d64",
    (6, 4, 3, 8): "8bf349d29c4da85b b04acc6fdc843227",
    (6, 4, 3, 9): "5a7323fcb5030bd6 81f44d8196f1ab77",
    (8, 5, 4, 11): "386c4025b1575b82 9adcfdd4b0686d71",
    (8, 6, 5, 11): "63273756e5ac72ec 0f9a80defa1a41bb",
    (9, 7, 6, 11): "8cc8d693f88e127c 993e620a4b63a7b4",
    (10, 6, 5, 11): "b39e5dc5cd859dd0 76ef3ed6f2c88cf6",
    (11, 7, 6, 11): "946c71fd5314dabf fd72829df72f9674",
}

LAYERED = {
    (6, 3, 4): "7055cd883a726ce1 4e57615b201d87e3",
    (6, 3, 11): "2a367f7d8eb38019 96874c481774ebdf",
    (6, 6, 5): "9ae0877fc87d8a25 4109e4fdb73a2e17",
    (7, 1, 11): "837885c8f8091aea 837885c8f8091aea",
}


def _name(shape):
    return "-".join(map(str, shape))


@pytest.mark.parametrize("shape", sorted(CONCAT), ids=_name)
def test_concat_encode_bytes(shape):
    code = build_concat(*shape)
    assert [_digest(code, seed) for seed in (1, 2)] == CONCAT[shape].split()


@pytest.mark.parametrize("shape", sorted(LAYERED), ids=_name)
def test_layered_encode_bytes(shape):
    code = LayeredCode(*shape)
    assert [_digest(code, seed) for seed in (1, 2)] == LAYERED[shape].split()


def test_wide_kernel_collects_return_the_blob():
    # (11,7,6,11) packs more siblings per region than any benchmarked
    # shape, so its collects guard the slot order of the wider stacks
    code = build_concat(11, 7, 6, 11)
    rng = random.Random(1)
    blob = [rng.randrange(code.F.q) for _ in range(code.M)]
    nodes = code.encode(blob)
    anchors = random.Random(3).sample(list(itertools.combinations(range(code.n), code.k)), 3)
    for A in anchors:
        assert code.collect(nodes, A)[0] == blob
