"""Reference definitions the tests compare the library against.

Each is the plain, slow form of something the library computes another
way: the shells and balls of J(n,v) and H(m,n) by enumeration (against
ball_size and each code's ball), the identity matrix and a submatrix
(against det, compound and all_minors), and the sum of two polynomials
(against poly_divmod).
"""

import itertools
from typing import List, Sequence, Set, Tuple

from graphcodes.combinat import shell_index
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
