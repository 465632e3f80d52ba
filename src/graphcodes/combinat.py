"""Johnson graph J(n,v) and Hamming graph H(m,n) combinatorics.

A vertex of J(n,v) (a "layer") is a sorted tuple of v distinct integers
in [0, n).  A vertex of H(m,n) is an m-tuple over {0, ..., n-1}.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, List, Sequence, Set, Tuple

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
    """All v-subsets of {0..n-1}, in lexicographic order, or with k in
    k-lex order: by decreasing |L intersect {0..k-1}|, ties broken
    lexicographically.
    """
    if not 0 <= v <= n:
        raise ValueError(f"need 0 <= v <= n, got v={v}, n={n}")
    verts = list(itertools.combinations(range(n), v))
    if k is not None:
        head = set(range(k))
        verts.sort(key=lambda L: (-len(head.intersection(L)), L))
    return verts


def shell_index(L: Sequence[int], A: Sequence[int]) -> int:
    """Generalized distance r with L in S_r(A): min(|L\\A|, |A\\L|)."""
    sL, sA = set(L), set(A)
    return min(len(sL - sA), len(sA - sL))


def graph_params(n: int, v: int, k: int) -> Tuple[int, int, int]:
    """(d1, d2, R) = (min(v, n-k), min(k, n-v), min(d1, d2))."""
    d1 = min(v, n - k)
    d2 = min(k, n - v)
    return d1, d2, min(d1, d2)


def shell(A: Sequence[int], r: int, n: int, v: int) -> Set[Layer]:
    """S_r(A) inside J(n,v)."""
    return {L for L in itertools.combinations(range(n), v) if shell_index(L, A) == r}


def ball(A: Sequence[int], r: int, n: int, v: int) -> Set[Layer]:
    """B_r(A) = union of shells S_0(A), ..., S_r(A) inside J(n,v)."""
    if r < 0:
        return set()
    return {L for L in itertools.combinations(range(n), v) if shell_index(L, A) <= r}


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
    return sorted(itertools.product(range(n), repeat=m),
                  key=lambda t: (sum(1 for x in t if x not in sA), t))


def hamming_shell_index(L: Sequence[int], A: Sequence[int]) -> int:
    """Number of coordinates of the tuple L outside the alphabet subset A."""
    sA = set(A)
    return sum(1 for x in L if x not in sA)


def hamming_ball(A: Sequence[int], r: int, m: int, n: int) -> Set[HammingVertex]:
    """All m-tuples with at most r coordinates outside A."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    sA = set(A)
    return {
        t
        for t in itertools.product(range(n), repeat=m)
        if sum(1 for x in t if x not in sA) <= r
    }


def bruhat_leq(B: Sequence[int], A: Sequence[int]) -> bool:
    """Bruhat order on sorted v-subsets: B <= A iff b_i <= a_i for all i."""
    return all(b <= a for b, a in zip(B, A))


def bruhat_height(L: Sequence[int]) -> int:
    """|L| = sum(l_i - i); counts the adjacent vertices preceding L."""
    return sum(x - i for i, x in enumerate(L))
