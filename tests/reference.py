"""Reference definitions the tests compare the library against.

Each is the plain, slow form of something the library computes another
way: the shells and balls of J(n,v) and H(m,n) by enumeration (against
ball_size and each code's ball), the identity matrix and a submatrix
(against det, compound and all_minors), the sum of two polynomials
(against poly_divmod), the per-symbol packing of stored symbols
(against storesim's _pack and _unpack), a column-subset rank test
that ranks every block (against matrix.column_rank_test), the node
arrays of a layered code's vector, written and read one symbol at a
time (against the layered encode and fill_layers), a Johnson code's
decode plan by elimination (against jgc.decode_plan), and a decode of
slot groups as one single-anchor decode per group (against
jgc.erasure_decode's grouped form).
"""

import itertools
from typing import List, Optional, Sequence, Set, Tuple

from graphcodes.combinat import shell_index
from graphcodes.jgc import DecodePlan, aligned_dual_rows, erasure_decode
from graphcodes.matrix import rank, rref
from graphcodes.subres import poly_trim


def shell(A: Sequence[int], r: int, n: int, v: int) -> Set[Tuple[int, ...]]:
    """S_r(A) inside J(n,v)."""
    return {L for L in itertools.combinations(range(n), v) if shell_index(L, A) == r}


def ball(A: Sequence[int], r: int, n: int, v: int) -> Set[Tuple[int, ...]]:
    """B_r(A) = union of shells S_0(A), ..., S_r(A) inside J(n,v)."""
    if r < 0:
        return set()
    return {L for L in itertools.combinations(range(n), v) if shell_index(L, A) <= r}


def hamming_shell_index(L: Sequence[int], A: Sequence[int]) -> int:
    """Number of coordinates of the tuple L outside the alphabet subset A."""
    sA = set(A)
    return sum(1 for x in L if x not in sA)


def hamming_ball(A: Sequence[int], r: int, m: int, n: int) -> Set[Tuple[int, ...]]:
    """All m-tuples with at most r coordinates outside A."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    return {t for t in itertools.product(range(n), repeat=m)
            if hamming_shell_index(t, A) <= r}


def identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def submatrix(M, rows: Sequence[int], cols: Sequence[int]) -> List[List[int]]:
    return [[M[i][j] for j in cols] for i in rows]


def poly_add(F, p: Sequence[int], q: Sequence[int]) -> List[int]:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] = c
    for i, c in enumerate(q):
        out[i] = F.add(out[i], c)
    return poly_trim(out)


def pack(symbols: Sequence[int], width: int) -> bytes:
    """Symbols as width-byte little-endian chunks, one to_bytes each."""
    return b"".join(int(x).to_bytes(width, "little") for x in symbols)


def unpack(data: bytes, width: int) -> List[int]:
    """The ints of data's consecutive width-byte little-endian chunks."""
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def node_arrays(spec, w: Sequence[int]) -> List[List[int]]:
    """The n node arrays of a layered code holding its layer-major
    vector w, node i's symbols at spec.at[i], one at a time."""
    return [[w[p] for p in ps] for ps in spec.at]


def read_layers(spec, nodes: Sequence[Sequence[int]], A: Sequence[int]) -> List[Optional[int]]:
    """The layer-major vector of the symbols the nodes in A store, read
    one at a time; None at every other node's positions."""
    w: List[Optional[int]] = [None] * (spec.R * spec.v)
    for i in A:
        for s, p in enumerate(spec.at[i]):
            w[p] = nodes[i][s]
    return w


def column_rank_test(F, M):
    """spans(cols), whether M on the columns cols has full row rank: one
    rref of M, then one rank per call of the block of the rref on the
    rows whose pivot lies outside cols and the non-pivot columns of
    cols, whatever the shape of M or of the block."""
    R, pivots = rref(F, M)
    if len(pivots) < len(M):
        return lambda cols: False
    pivot_set = set(pivots)

    def spans(cols):
        inside = set(cols)
        rows = [row for row, p in zip(R, pivots) if p not in inside]
        free = [c for c in cols if c not in pivot_set]
        return rank(F, [[row[c] for c in free] for row in rows]) == len(rows)

    return spans


def decode_plan(code, A: Sequence[int]) -> DecodePlan:
    """A Johnson code's plan at the anchor A by elimination: the
    positions of the vertices L with shell_index(L, A) > code.r, whether
    the base on the columns A has full rank, and then the inverse of the
    aligned dual rows on those positions from one rref of [H_out | I],
    or None unless H_out is square and invertible."""
    out = tuple(i for i, L in enumerate(code.vertices) if shell_index(L, A) > code.r)
    if rank(code.F, [[row[j] for j in A] for row in code.base]) < code.k:
        return DecodePlan(out, False, None)
    H = aligned_dual_rows(code)
    R, pivots = rref(code.F, [[hrow[i] for i in out] + [int(e == r) for e in range(len(H))]
                              for r, hrow in enumerate(H)])
    if pivots != list(range(len(out))):
        return DecodePlan(out, True, None)
    return DecodePlan(out, True, [row[len(out):] for row in R])


def grouped_decode(code, groups, word, syndrome, K) -> List[int]:
    """erasure_decode of a word of K regions whose slots fall into the
    consecutive groups (anchor, slots), as one single-anchor decode per
    group: its slots cut out of the bytes of the word and the syndrome
    into regions of its own width, decoded at its anchor, and the
    groups' bytes joined back, position by position."""
    W, size = K.width, K.B * K.width
    syndrome = syndrome or [0] * (code.length - code.dim)

    def cut(regions, a, b):
        data = K.to_bytes(regions)
        return b"".join(data[j * size + a * W:j * size + b * W] for j in range(len(regions)))

    parts, at = [], 0
    for A, slots in groups:
        Kg = code.F.regions(slots, K.longest)
        decoded = erasure_decode(code, A, Kg.from_bytes(cut(word, at, at + slots)),
                                 Kg.from_bytes(cut(syndrome, at, at + slots)), Kg)
        parts.append((Kg.to_bytes(decoded), slots * W))
        at += slots
    return K.from_bytes(b"".join(data[j * g:(j + 1) * g]
                                 for j in range(len(word)) for data, g in parts))
