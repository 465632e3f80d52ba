"""Exact arithmetic in GF(q) for prime powers q.

Field elements are integers in [0, q).  For prime q the integer is the
residue mod p.  For q = p^m with m > 1 the integer encodes a polynomial
over GF(p) in base-p digits: digit i is the coefficient of x^i in the
basis {1, x, ..., x^{m-1}} modulo a fixed irreducible polynomial.
"""

from __future__ import annotations

from typing import List, Optional


def _factor_prime_power(q: int) -> Optional[tuple]:
    """Return (p, m) with q = p^m and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            p = q
        if q % p == 0:
            m = 0
            x = q
            while x % p == 0:
                x //= p
                m += 1
            if x != 1:
                return None
            # p is the smallest divisor of q, hence prime
            return (p, m)
    return None


def _poly_mul_mod(a: int, b: int, p: int, m: int, reduction: List[int]) -> int:
    """Multiply base-p encoded polynomials a, b modulo the reduction poly."""
    # coefficient lists, ascending degree
    ca = [(a // p**i) % p for i in range(m)]
    cb = [(b // p**i) % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(ca):
        if x == 0:
            continue
        for j, y in enumerate(cb):
            prod[i + j] = (prod[i + j] + x * y) % p
    # reduce: x^m = -(reduction[0] + ... + reduction[m-1] x^{m-1})
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d]
        if c == 0:
            continue
        prod[d] = 0
        for i in range(m):
            prod[d - m + i] = (prod[d - m + i] - c * reduction[i]) % p
    return sum(prod[i] * p**i for i in range(m))


def _is_irreducible(coeffs: List[int], p: int) -> bool:
    """Test irreducibility of the monic polynomial x^m + sum coeffs[i] x^i
    over GF(p) by trial division with all monic polynomials of degree
    <= m//2 (fields here are tiny)."""
    m = len(coeffs)
    if coeffs[0] == 0:
        return False  # divisible by x
    full = coeffs + [1]

    def poly_mod(num: List[int], den: List[int]) -> List[int]:
        num = list(num)
        dd = len(den) - 1
        inv_lead = pow(den[-1], p - 2, p)
        for i in range(len(num) - 1, dd - 1, -1):
            c = (num[i] * inv_lead) % p
            if c == 0:
                continue
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
        return num

    for deg in range(1, m // 2 + 1):
        for code in range(p**deg):
            den = [(code // p**i) % p for i in range(deg)] + [1]
            rem = poly_mod(full, den)
            if all(c == 0 for c in rem):
                return False
    return True


class FieldSpec:
    """Arithmetic over GF(q), q = p^m.

    Parameters
    ----------
    q : int
        Field size, a prime power.
    reduction : list of int or None
        Coefficients [c_0, ..., c_{m-1}] of a monic irreducible
        x^m + c_{m-1} x^{m-1} + ... + c_0 over GF(p).  Empty for m = 1.
        If None, the smallest irreducible is chosen: candidates are
        ordered by their base-p coefficient integer, so every run picks
        the same polynomial.
    """

    def __init__(self, q: int, reduction: Optional[List[int]] = None):
        pm = _factor_prime_power(q)
        if pm is None:
            raise ValueError(f"{q} is not a prime power")
        p, m = pm
        self.q = q
        self.p = p
        self.m = m
        if m == 1:
            self.reduction = []
        elif reduction is not None:
            if len(reduction) != m or not _is_irreducible(list(reduction), p):
                raise ValueError("reduction polynomial not irreducible of degree m")
            self.reduction = list(reduction)
        else:
            self.reduction = self._smallest_irreducible()
        self._mul_table = None
        self._inv_table = None
        if m > 1:
            self._build_tables()

    def _smallest_irreducible(self) -> List[int]:
        p, m = self.p, self.m
        for code in range(p**m):
            coeffs = [(code // p**i) % p for i in range(m)]
            if _is_irreducible(coeffs, p):
                return coeffs
        raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")

    def _build_tables(self) -> None:
        q = self.q
        self._mul_table = [
            [_poly_mul_mod(a, b, self.p, self.m, self.reduction) for b in range(q)]
            for a in range(q)
        ]
        self._inv_table = [0] * q
        for a in range(1, q):
            row = self._mul_table[a]
            self._inv_table[a] = row.index(1)

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        return sum(
            (((a // p**i) + (b // p**i)) % p) * p**i for i in range(self.m)
        )

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        return sum(((-(a // p**i)) % p) * p**i for i in range(self.m))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._inv_table[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self) -> List[int]:
        return list(range(self.q))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.q == other.q
            and self.reduction == other.reduction
        )

    def __repr__(self) -> str:
        if self.m == 1:
            return f"FieldSpec(q={self.q})"
        return f"FieldSpec(q={self.q}, p={self.p}, m={self.m}, reduction={self.reduction})"


def field_make(q: int) -> FieldSpec:
    """Build GF(q) with the canonical (smallest) irreducible polynomial."""
    return FieldSpec(q)
