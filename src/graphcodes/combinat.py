"""Johnson graph J(n,v) and Hamming graph H(m,n) combinatorics.

A vertex of J(n,v) (a "layer") is a sorted tuple of v distinct integers
in [0, n).  A vertex of H(m,n) is an m-tuple over {0, ..., n-1}.
"""

from __future__ import annotations

from itertools import combinations, product, repeat, starmap
from math import comb
from operator import add
from typing import Iterable, List, Sequence, Tuple

Layer = Tuple[int, ...]
HammingVertex = Tuple[int, ...]


def layer(elems: Iterable[int]) -> Layer:
    """Canonical layer: sorted tuple of distinct elements."""
    t = tuple(sorted(elems))
    if len(set(t)) != len(t):
        raise ValueError(f"layer elements must be distinct: {t}")
    return t


def layer_str(L: Sequence[int], n: int) -> str:
    """Textual form: concatenated digits for n <= 10, comma-separated otherwise."""
    if n <= 10:
        return "".join(str(i) for i in L)
    return ",".join(str(i) for i in L)


def complement(L: Sequence[int], n: int) -> Layer:
    s = set(L)
    return tuple(i for i in range(n) if i not in s)


def johnson_vertices(n: int, v: int, k: int = None) -> List[Layer]:
    """All v-subsets of {0..n-1} in lex order, or with k in k-lex order, by
    decreasing |L intersect {0..k-1}|, ties lex (lex for k outside [0, n]).
    ValueError unless n, v, k (or None) are ints, not bools, 0 <= v <= n."""
    for name, x in zip("nvk", (n, v, 0 if k is None else k)):
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{name}={x!r} is not an integer")
    if not 0 <= v <= n:
        raise ValueError(f"need 0 <= v <= n, got v={v}, n={n}")
    if k is None or not 0 <= k <= n:
        return list(combinations(range(n), v))
    verts: List[Layer] = []
    # block j, j descending: a + b over lex pairs of j-subsets a of range(k) and (v-j)-subsets b
    for j in range(min(v, k), max(0, v - n + k) - 1, -1):
        verts += starmap(add, product(combinations(range(k), j), combinations(range(k, n), v - j)))
    return verts


def bit_masks(n: int, layers: Iterable[Sequence[int]]) -> List[int]:
    """Each layer's bit mask (bit j for element j < n), by one map."""
    return list(map(sum, map(map, repeat([1 << j for j in range(n)].__getitem__), layers)))


def shell_index(L: Sequence[int], A: Sequence[int]) -> int:
    """Generalized distance r with L in S_r(A): min(|L\\A|, |A\\L|)."""
    sL, sA = set(L), set(A)
    return min(len(sL - sA), len(sA - sL))


def graph_params(n: int, v: int, k: int) -> Tuple[int, int, int]:
    """(d1, d2, R) = (min(v, n-k), min(k, n-v), min(d1, d2))."""
    d1 = min(v, n - k)
    d2 = min(k, n - v)
    return d1, d2, min(d1, d2)


def ball_size(n: int, v: int, k: int, r: int) -> int:
    """|B_r(A)| for any anchor A of size k in J(n,v)."""
    if r < 0:
        return 0
    if k >= v:
        return sum(comb(n - k, i) * comb(k, v - i)
                   for i in range(r + 1) if i <= n - k and v - i >= 0)
    return sum(comb(k, i) * comb(n - k, n - v - i)
               for i in range(r + 1) if n - v - i >= 0)


def sign_of(L: Sequence[int]) -> int:
    """det(I_L | I_{L^c}) as +1 or -1, normalized so sign({0..v-1}) = +1."""
    v = len(L)
    e = sum(L) - v * (v - 1) // 2
    return -1 if e % 2 else 1


def hamming_vertices(m: int, n: int, anchor: Sequence[int]) -> List[HammingVertex]:
    """All m-tuples over {0..n-1}, in shell blocks S_0(A^m), S_1(A^m),
    ... around the anchor A (number of coordinates outside A), ties
    lexicographic.
    """
    sA = set(anchor)
    return sorted(product(range(n), repeat=m),
                  key=lambda t: (sum(1 for x in t if x not in sA), t))
