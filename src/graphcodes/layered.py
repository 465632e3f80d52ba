"""Layered storage codes.

A layered code over n nodes with layer size v keeps one single-parity
check per v-subset (layer) of nodes: v-1 data symbols at the v-1 lowest
node indices and one parity at the highest, chosen so the layer sums to
an injected target (0 by default).  Counting symbols two ways gives
R = C(n,v) layers, alpha = C(n-1,v-1) symbols per node and
beta = C(n-2,v-2) repair symbols per helper.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from graphcodes.combinat import Layer, johnson_vertices, layer
from graphcodes.field import FieldSpec


class LayeredSpec:
    """Parameters and node layout of one layered code.

    layers are in lexicographic order; node i stores one symbol per
    layer containing i, in the same lexicographic order.
    """

    def __init__(self, F: FieldSpec, n: int, v: int):
        if not 1 <= v <= n:
            raise ValueError(f"need 1 <= v <= n, got v={v}, n={n}")
        self.F = F
        self.n = n
        self.v = v
        self.R = comb(n, v)
        self.alpha = comb(n - 1, v - 1)
        self.beta = comb(n - 2, v - 2) if v >= 2 else 0
        self.M1 = self.R * (v - 1)
        self.layers = johnson_vertices(n, v, order="lex")
        self.layers_at = [
            [L for L in self.layers if i in L] for i in range(n)
        ]
        self.slot = {}
        for i in range(n):
            for pos, L in enumerate(self.layers_at[i]):
                self.slot[(L, i)] = pos

    def __repr__(self) -> str:
        return (
            f"LayeredSpec(n={self.n}, v={self.v}, q={self.F.q}, "
            f"R={self.R}, alpha={self.alpha}, beta={self.beta})"
        )


def layered_params(n: int, v: int) -> Tuple[int, int, int, int]:
    """(R, alpha, beta, M1) with R = C(n,v), alpha = R v / n,
    beta = R C(v,2) / C(n,2), M1 = R (v-1)."""
    if not 1 <= v <= n:
        raise ValueError(f"need 1 <= v <= n, got v={v}, n={n}")
    R = comb(n, v)
    return R, comb(n - 1, v - 1), comb(n - 2, v - 2) if v >= 2 else 0, R * (v - 1)


def encode_layered(spec: LayeredSpec, data: Sequence[int],
                   injected: Optional[Dict[Layer, int]] = None) -> List[List[int]]:
    """Node arrays for M1 data symbols and per-layer injected targets.

    Layer L takes the next v-1 data symbols at its v-1 lowest nodes and
    a parity at the highest node making the layer sum equal to the
    injected target (default 0).  Size-1 layers store the injected
    target itself.
    """
    F = spec.F
    injected = injected or {}
    if len(data) != spec.M1:
        raise ValueError(f"expected {spec.M1} data symbols, got {len(data)}")
    nodes = [[0] * spec.alpha for _ in range(spec.n)]
    idx = 0
    for L in spec.layers:
        s = injected.get(L, 0)
        if spec.v == 1:
            nodes[L[0]][spec.slot[(L, L[0])]] = s
            continue
        xs = data[idx:idx + spec.v - 1]
        idx += spec.v - 1
        for j, x in zip(L, xs):
            nodes[j][spec.slot[(L, j)]] = x
        nodes[L[-1]][spec.slot[(L, L[-1])]] = F.sub(s, F.sum(xs))
    return nodes


def layer_sum(spec: LayeredSpec, nodes: Sequence[Sequence[int]], L: Layer) -> int:
    return spec.F.sum([nodes[j][spec.slot[(L, j)]] for j in L])


def extract_data(spec: LayeredSpec, values: Dict[Tuple[Layer, int], int]) -> List[int]:
    """Data symbols back out of a full (layer, node) -> symbol map."""
    out = []
    for L in spec.layers:
        for j in L[:-1]:
            out.append(values[(L, j)])
    return out


def classify_access(n: int, v: int, A: Sequence[int]) -> Tuple[Dict[int, int], Dict[Layer, str]]:
    """Census of layers by |A & L| plus the access class per layer.

    A layer is fully accessed when inside A, sufficiently accessed when
    |A & L| = v-1 (the parity check recovers the one missing symbol),
    and under-accessed otherwise.  Census counts are C(k,c) C(n-k,v-c).
    """
    sA = set(A)
    census: Dict[int, int] = {}
    classes: Dict[Layer, str] = {}
    for L in johnson_vertices(n, v, order="lex"):
        c = len(sA.intersection(L))
        census[c] = census.get(c, 0) + 1
        if c == v:
            classes[L] = "fully"
        elif c == v - 1:
            classes[L] = "sufficiently"
        else:
            classes[L] = "under"
    return census, classes


def census_counts(n: int, v: int, k: int) -> Dict[int, int]:
    """Closed-form census: count of layers with |A & L| = c."""
    return {
        c: comb(k, c) * comb(n - k, v - c)
        for c in range(max(0, v - (n - k)), min(v, k) + 1)
    }


def tradeoff_points(n: int) -> List[Tuple[int, Fraction, Fraction]]:
    """(v, alpha/M, beta/M) per layer size v with M = R (v-1) data
    symbols; the storage/repair tradeoff curve for pure layered codes."""
    if n < 2:
        raise ValueError("need n >= 2")
    points = []
    for v in range(2, n + 1):
        R, alpha, beta, M1 = layered_params(n, v)
        points.append((v, Fraction(alpha, M1), Fraction(beta, M1)))
    return points


def fill_layers(F: FieldSpec, values: Dict[Tuple[Layer, int], int],
                injected: Dict[Layer, int], layers: Sequence[Layer]) -> None:
    """Complete each layer's one unknown symbol from its layer check.

    Every layer sums to its injected target (0 if absent).  A layer in
    ``layers`` with exactly one (layer, node) key missing from ``values``
    gets that symbol; a layer with none missing is left as it is.
    """
    for L in layers:
        missing = [j for j in L if (L, j) not in values]
        if not missing:
            continue
        if len(missing) > 1:
            raise ValueError(f"layer {L} has {len(missing)} unknown symbols")
        total = F.sum([values[(L, j)] for j in L if j != missing[0]])
        values[(L, missing[0])] = F.sub(injected.get(L, 0), total)


def decode_layered(spec: LayeredSpec, nodes: Sequence[Sequence[int]],
                   A: Sequence[int],
                   injected: Optional[Dict[Layer, int]] = None) -> Dict[Tuple[Layer, int], int]:
    """All (layer, node) symbols from the nodes in A (|A| >= n-1).

    Every layer is then fully or sufficiently accessed; a sufficiently
    accessed layer recovers its missing symbol from the parity check
    against the injected target.
    """
    A = layer(A)
    if len(A) < spec.n - 1:
        raise ValueError("pure layered decoding needs at least n-1 nodes")
    sA = set(A)
    values = {(L, j): nodes[j][spec.slot[(L, j)]]
              for L in spec.layers for j in L if j in sA}
    fill_layers(spec.F, values, injected or {}, spec.layers)
    return values


def census_csv(n: int, v: int, k: int) -> str:
    """CSV with one row per |A & L| value, largest intersection first."""
    counts = census_counts(n, v, k)
    lines = ["intersection,layers"]
    for c in sorted(counts, reverse=True):
        lines.append(f"{c},{counts[c]}")
    return "\n".join(lines) + "\n"
