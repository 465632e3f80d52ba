"""Layered storage codes.

A layered code over n nodes with layer size v keeps one single-parity
check per v-subset (layer) of nodes: v-1 data symbols at the v-1 lowest
node indices and one parity at the highest, chosen so the layer sums to
an injected target (0 by default).  Counting symbols two ways gives
R = C(n,v) layers, alpha = C(n-1,v-1) symbols per node and
beta = C(n-2,v-2) repair symbols per helper.

Coding works on one layer-major vector of R*v symbols: the symbol of
layer L at node j sits at position index[L]*v + L.index(j), so layer l
is the slice [l*v, (l+1)*v) and an unknown symbol is None.  Encoding
places the data at spec.data and fills each layer's last position with
fill_layers, the layer-check fill that collect and repair use.  Node
arrays keep their byte layout: node i stores its symbols in lex order
of the layers containing i, at spec.at[i].
The codes in ``concat`` read and complete the vectors of all their
components, the pure layered code's one included, a size at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, cycle
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from graphcodes.combinat import Layer, bit_masks, johnson_vertices
from graphcodes.field import FieldSpec


class LayeredSpec:
    """Parameters and symbol layout of one layered code.

    layers are in lexicographic order and index[L] is L's position in
    that list.  The symbol of layer L at node j is position
    index[L]*v + L.index(j) of the code's layer-major vector.  at[i]
    lists node i's positions in its storage order (lex order of the
    layers containing i), and slot[p] is position p's offset in its
    node's array, so at[i][slot[p]] == p.  data lists the positions of
    the M1 data symbols in payload order: every position of a layer but
    its last, whose symbol is the layer check.  masks[l] is layer l's
    bit mask, bit j set for each node j of the layer.
    """

    def __init__(self, F: FieldSpec, n: int, v: int):
        self.F = F
        self.n = n
        self.v = v
        self.R, self.alpha, self.beta, self.M1 = layered_params(n, v)
        self.layers = johnson_vertices(n, v)
        self.index = dict(zip(self.layers, count()))
        self.at: List[List[int]] = [[] for _ in range(n)]
        self.slot = [0] * (self.R * v)
        for p, j in enumerate(chain.from_iterable(self.layers)):
            self.slot[p] = len(self.at[j])
            self.at[j].append(p)
        self.data = list(compress(range(self.R * v), cycle([1] * (v - 1) + [0])))
        self.masks = bit_masks(n, self.layers)


def layered_params(n: int, v: int) -> Tuple[int, int, int, int]:
    """(R, alpha, beta, M1) with R = C(n,v), alpha = R v / n,
    beta = R C(v,2) / C(n,2), M1 = R (v-1)."""
    if not 1 <= v <= n:
        raise ValueError(f"need 1 <= v <= n, got v={v}, n={n}")
    R = comb(n, v)
    return R, comb(n - 1, v - 1), comb(n - 2, v - 2) if v >= 2 else 0, R * (v - 1)


def encode_layered(spec: LayeredSpec, data: Sequence[int],
                   injected: Optional[Sequence[int]] = None) -> List[int]:
    """Layer-major vector for M1 data symbols and per-layer injected
    targets (a list indexed by layer, or None for all 0): the data goes
    to spec.data and fill_layers sets each layer's last symbol, so a
    size-1 layer stores its injected target.
    """
    if len(data) != spec.M1:
        raise ValueError(f"expected {spec.M1} data symbols, got {len(data)}")
    v = spec.v
    w: List[Optional[int]] = [None] * (spec.R * v)
    for p, x in zip(spec.data, data):
        w[p] = x
    fill_layers(spec.F, w, v, injected, range(v - 1, spec.R * v, v))
    return w


def classify_access(n: int, v: int, A: Sequence[int]) -> Tuple[Dict[int, int], Dict[Layer, str]]:
    """Census of layers by |A & L| plus the access class per layer.

    A layer is fully accessed when inside A, sufficiently accessed when
    |A & L| = v-1 (the parity check recovers the one missing symbol),
    and under-accessed otherwise.  Census counts are C(k,c) C(n-k,v-c).
    """
    sA = set(A)
    census: Dict[int, int] = {}
    classes: Dict[Layer, str] = {}
    for L in johnson_vertices(n, v):
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


def check_node(n: int, i: int) -> int:
    """i, or ValueError unless i is an int (not a bool) naming one of
    the n nodes."""
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
        raise ValueError(f"bad node index {i!r}")
    return i


def fill_layers(F: FieldSpec, w: List[Optional[int]], v: int,
                injected: Optional[Sequence[int]], targets: Iterable[int]) -> None:
    """Complete each target position of w from its layer's check.

    Position t lies in layer l = t // v, the slice w[l*v:(l+1)*v], which
    sums to injected[l] (0 when injected is None).  Every other symbol
    of that layer must be known: another None raises ValueError.  F is
    the field, or the region arithmetic (FieldSpec.regions) of a vector
    of regions.  The target is one dot product: injected[l] with
    coefficient 1 in its place, the others with -1, which is p-1 in
    every field's encoding.
    """
    rows = [[1 if i == k else F.p - 1 for i in range(v)] for k in range(v)]
    for t in targets:
        l, k = divmod(t, v)
        seg = w[l * v:(l + 1) * v]
        seg[k] = injected[l] if injected else 0
        if None in seg:
            raise ValueError(f"layer {l} has {seg.count(None) + 1} unknown symbols")
        w[t] = F.dot(rows[k], seg)


def census_csv(n: int, v: int, k: int) -> str:
    """CSV with one row per |A & L| value, largest intersection first."""
    counts = census_counts(n, v, k)
    lines = ["intersection,layers"]
    for c in sorted(counts, reverse=True):
        lines.append(f"{c},{counts[c]}")
    return "\n".join(lines) + "\n"
