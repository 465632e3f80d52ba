"""Exact arithmetic in GF(q) for prime powers q.

Field elements are integers in [0, q).  For prime q the integer is the
residue mod p.  For q = p^m with m > 1 the integer encodes a polynomial
over GF(p) in base-p digits: digit i is the coefficient of x^i in the
basis {1, x, ..., x^{m-1}} modulo a fixed irreducible polynomial.
So the elements are ``range(q)``, and a / b is ``mul(a, inv(b))``.

The library's one polynomial arithmetic, ``poly_trim``, ``poly_mul``
and ``poly_divmod`` (coefficient lists in ascending degree, on a
field's vector operations), sits below ``FieldSpec``.  ``subres`` and
``rs`` use it, and so do the GF(p^m) tables: over GF(p), the reduction
polynomial is the first that trial division with ``poly_divmod`` finds
irreducible, and each power of the primitive element is ``poly_mul``
then ``poly_divmod`` by it.

The arithmetic is chosen once, when the field is built, from q alone;
there is no other path and no option.  For prime q it is plain integer
arithmetic reduced late: a dot product is one ``% p`` of the exact
integer sum, and a row update x - f*y one ``% p`` per entry.  For
q = p^m, m > 1, it is table lookup: add, sub and mul tables of q x q
entries and neg and inv tables of q, built from the base-p digits of
each element (XOR for p = 2) and the log/antilog tables of a primitive
element, so every operation, sub included, is one lookup and none
loops over digits.  The linear algebra in ``matrix`` and the codes is
written on the field's five vector operations (``dot``, ``sub_mul``,
``scale``, ``sum`` and ``column_dots``, many dots at once, one per
column, which ``matrix.all_minors`` runs as whole-vector passes).

Region operations (``FieldSpec.regions``, as in Jerasure) apply one row
to B vectors at once: a region packs B elements into the W-bit slots
of one int, so ``sum(map(mul, row, regions))`` is B dot products, and
``bytes.translate`` reduces every slot mod p at once.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import getitem, mul as _int_mul
from typing import Iterable, List, Optional, Sequence, Tuple

Table = List[List[int]]
Poly = List[int]


def _factor_prime_power(q: int) -> Optional[tuple]:
    """Return (p, m) with q = p^m and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            p = q  # q divides itself, so the loop always returns
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


# the orders a field is built for: below 2^31, so factoring q tries at
# most 46,341 divisors, and at most 2^10 for q = p^m, m > 1, whose q x q
# tables then hold a million entries each
MAX_ORDER, MAX_TABLE_ORDER = 2**31, 2**10


def _check_order(q) -> None:
    """Reject a field order that is not an int (a bool or float
    included), or is MAX_ORDER or more."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError(f"field order {q!r} is not an integer")
    if q >= MAX_ORDER:
        raise ValueError(f"field order {q} is not below 2^31")


def _digits(a: int, base: int, m: int) -> List[int]:
    """The m lowest base-``base`` digits of a, least significant first."""
    out = []
    for _ in range(m):
        a, d = divmod(a, base)
        out.append(d)
    return out


def _from_digits(digits: Sequence[int], base: int) -> int:
    return sum(d * base**i for i, d in enumerate(digits))


def _poly_mul_mod(a: int, b: int, p: int, m: int, reduction: List[int]) -> int:
    """a * b for base-p encoded polynomials a, b, reduced by x^m +
    reduction (reduction holds m coefficients, or none for m = 1, where
    this is a * b mod p)."""
    F = field_make(p)
    modulus = reduction + [0] * (m - len(reduction)) + [1]
    _, rem = poly_divmod(F, poly_mul(F, _digits(a, p, m), _digits(b, p, m)), modulus)
    return _from_digits(rem, p)


def _is_irreducible(coeffs: List[int], p: int) -> bool:
    """Test irreducibility of the monic polynomial x^m + sum coeffs[i] x^i
    over GF(p) by trial division with all monic polynomials of degree
    1 .. m//2, x among them (fields here are tiny)."""
    F = field_make(p)
    full = coeffs + [1]
    return all(poly_divmod(F, full, _digits(code, p, deg) + [1])[1]
               for deg in range(1, len(coeffs) // 2 + 1) for code in range(p**deg))


def _prime_kernel(p: int):
    """dot, sub_mul, scale, sum and column_dots for GF(p): exact integer
    arithmetic reduced once per result entry."""

    def dot(x: Sequence[int], y: Sequence[int]) -> int:
        return sum(map(_int_mul, x, y)) % p

    def sub_mul(x: Sequence[int], f: int, y: Sequence[int]) -> List[int]:
        return [(a - f * b) % p for a, b in zip(x, y)]

    def scale(f: int, x: Sequence[int]) -> List[int]:
        return [f * a % p for a in x]

    def total(x: Iterable[int]) -> int:
        return sum(x) % p

    def column_dots(xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]]) -> List[int]:
        return list(map(p.__rmod__, map(sum, zip(*map(map, repeat(_int_mul), xs, ys)))))

    return dot, sub_mul, scale, total, column_dots


def _table_kernel(add: Table, sub: Table, mul: Table):
    """dot, sub_mul, scale, sum and column_dots for GF(p^m), m > 1: one
    table lookup per addition, subtraction and multiplication."""

    def dot(x: Sequence[int], y: Sequence[int]) -> int:
        s = 0
        for a, b in zip(x, y):
            s = add[s][mul[a][b]]
        return s

    def sub_mul(x: Sequence[int], f: int, y: Sequence[int]) -> List[int]:
        fy = mul[f]
        return [sub[a][fy[b]] for a, b in zip(x, y)]

    def scale(f: int, x: Sequence[int]) -> List[int]:
        fx = mul[f]
        return [fx[a] for a in x]

    def total(x: Iterable[int]) -> int:
        s = 0
        for a in x:
            s = add[s][a]
        return s

    def column_dots(xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]]) -> List[int]:
        terms = (map(getitem, map(mul.__getitem__, x), y) for x, y in zip(xs, ys))
        plus = lambda acc, t: map(getitem, map(add.__getitem__, acc), t)
        first = next(terms, ())  # no vectors: no columns
        return list(reduce(plus, terms, first))

    return dot, sub_mul, scale, total, column_dots


def _ints(b: bytes, size: int) -> List[int]:
    """The little-endian ints of b's consecutive size-byte chunks, cut and
    converted by map, so no Python code runs per chunk."""
    cuts = map(slice, range(0, len(b), size), range(size, len(b) + size, size))
    return list(map(int.from_bytes, map(b.__getitem__, cuts), repeat("little")))


class Regions:
    """Arithmetic on regions: B elements of GF(q) per int, slot b at bits
    [b*W, (b+1)*W); one slot is the element itself.  dot(row, regions)
    and sum(regions) reduce every slot, so equal regions hold equal
    elements; pack makes regions of B values each and unpack lists
    their values.  W is derived from q and ``longest``, the most terms
    a dot or sum is given: a prime's slots hold longest*(p-1)^2 unless
    that takes n bytes with n*(p-1) > 255; then, and for m > 1, a slot
    holds one element and an operation loops over the slots.

    ``width`` is W in bytes, the same for every B at one q and
    ``longest`` (kept, so a run of slots cut out of a region has the
    kernel F.regions(slots, longest)): a region is B*width bytes
    little-endian, slot b in bytes [b*width, (b+1)*width).  to_bytes
    joins the bytes of regions and from_bytes cuts bytes back into
    regions, so regions of one width restack between slot counts as
    bytes: the bytes of G regions of B
    slots are those of one region of G*B slots.  Each runs in C, with no
    Python step per region, and to_bytes raises TypeError on None.
    """

    def __init__(self, F: "FieldSpec", B: int, longest: int):
        p, q = F.p, F.q
        nb = ((longest * (q - 1) ** 2).bit_length() + 7) // 8
        packed = F.m == 1 and nb * (p - 1) < 256
        nb = nb if packed else ((q - 1).bit_length() + 7) // 8
        self.p, self.B, self.width, self.longest, size = p, B, nb, longest, B * nb
        self.top = q if B == 1 else 256 ** size  # a region is an int in [0, top)
        if q <= 256:  # an element is the low byte of its slot
            def as_bytes(xs: Iterable[int]) -> bytes:
                xs = bytes(xs)
                if nb == 1:
                    return xs
                b = bytearray(len(xs) * nb)
                b[::nb] = xs
                return bytes(b)

            values = lambda b: list(b[::nb])
        else:
            as_bytes = lambda xs: b"".join(map(int.to_bytes, xs, repeat(nb), repeat("little")))
            values = lambda b: _ints(b, nb)
        if B == 1:
            self.to_bytes, self.from_bytes = as_bytes, values
            self.pack, self.unpack = (lambda xs: xs), list
            self.dot, self.sum = F.dot, F.sum
            return
        self.to_bytes = lambda regions: b"".join(
            map(int.to_bytes, regions, repeat(size), repeat("little")))
        self.from_bytes = lambda b: _ints(b, size)
        self.pack = lambda xs: self.from_bytes(as_bytes(xs))
        self.unpack = lambda regions: values(self.to_bytes(regions))
        if not packed:
            cols = lambda regions: [xs[b::B] for xs in [self.unpack(regions)] for b in range(B)]
            self.dot = lambda row, regions: self.pack([F.dot(row, c) for c in cols(regions)])[0]
            self.sum = lambda regions: self.pack(list(map(F.sum, cols(regions))))[0]
            return
        # T[j][x] = (x << 8j) mod p reduces byte j of every slot (mask M);
        # the sum of the residues, under n*p, is reduced once more
        T = [bytes((x << 8 * j) % p for x in range(256)) for j in range(nb)]
        M = int.from_bytes(b"\xff".ljust(nb, b"\0") * B, "little")

        def reduce(x: int) -> int:
            acc = int.from_bytes((x & M).to_bytes(size, "little").translate(T[0]), "little")
            for j in range(1, nb):
                acc += int.from_bytes((x >> 8 * j & M).to_bytes(size, "little")
                                      .translate(T[j]), "little")
            return int.from_bytes(acc.to_bytes(size, "little").translate(T[0]), "little")

        self.dot = lambda row, regions: reduce(sum(map(_int_mul, row, regions)))
        self.sum = lambda regions: reduce(sum(regions))


class FieldSpec:
    """Arithmetic over GF(q), q = p^m.

    Parameters
    ----------
    q : int
        Field size, a prime power below 2^31, and at most 2^10 unless
        prime (MAX_ORDER, MAX_TABLE_ORDER).

    The attribute ``reduction`` holds the coefficients [c_0, ...,
    c_{m-1}] of the monic irreducible x^m + c_{m-1} x^{m-1} + ... + c_0
    over GF(p) that the field reduces by, empty for m = 1: the smallest
    one, candidates ordered by their base-p coefficient integer, so
    every run picks the same polynomial.

    Besides the scalar operations (add, sub, neg, mul, inv, pow)
    the field has five vector operations, set when it is built:
    ``dot(x, y)``, the row update ``sub_mul(x, f, y)`` = x - f*y,
    ``scale(f, x)`` = f*x, ``sum(x)`` and ``column_dots(xs, ys)``, the
    dot of column i of xs with column i of ys for every i, that is
    ``[dot(a, b) for a, b in zip(zip(*xs), zip(*ys))]`` for vectors of
    equal length.  Vector arguments are sequences of field elements;
    ``dot`` and ``sub_mul`` stop at the shorter one.
    """

    def __init__(self, q: int):
        _check_order(q)
        pm = _factor_prime_power(q)
        if pm is None:
            raise ValueError(f"{q} is not a prime power")
        p, m = pm
        if m > 1 and q > MAX_TABLE_ORDER:
            raise ValueError(f"field order {q} = {p}^{m} is above 2^10, too large for tables")
        self.q = q
        self.p = p
        self.m = m
        if m == 1:
            self.reduction = []
            kernel = _prime_kernel(p)
        else:
            self.reduction = self._smallest_irreducible()
            self._build_tables()
            kernel = _table_kernel(self._add, self._sub, self._mul)
        self.dot, self.sub_mul, self.scale, self.sum, self.column_dots = kernel
        self._regions: dict = {}
        self._symbols = bytes(range(q)) if q <= 256 else None  # check_symbols deletes them

    def regions(self, B: int, longest: int = 1) -> Regions:
        """Regions of B slots for rows of at most ``longest`` terms, built once."""
        if (B, longest) not in self._regions:
            self._regions[B, longest] = Regions(self, B, longest)
        return self._regions[B, longest]

    def _smallest_irreducible(self) -> List[int]:
        # an irreducible polynomial of every degree exists over GF(p)
        p, m = self.p, self.m
        return next(coeffs for coeffs in (_digits(c, p, m) for c in range(p**m))
                    if _is_irreducible(coeffs, p))

    def _build_tables(self) -> None:
        """add, sub, mul (q x q) and neg, inv (q) tables for m > 1."""
        p, m, q = self.p, self.m, self.q
        if p == 2:
            self._add = [[a ^ b for b in range(q)] for a in range(q)]
            self._neg = list(range(q))
        else:
            # Spread each element's base-p digits into base 2p-1, where
            # the sum of two digit vectors has no carry; wrap[s] reduces
            # such a sum digit by digit mod p.
            B = 2 * p - 1
            digits = [_digits(a, p, m) for a in range(q)]
            spread = [_from_digits(d, B) for d in digits]
            wrap = [_from_digits([d % p for d in _digits(s, B, m)], p)
                    for s in range(B**m)]
            self._add = [[wrap[sa + sb] for sb in spread] for sa in spread]
            self._neg = [_from_digits([-d % p for d in ds], p) for ds in digits]
        neg = self._neg
        self._sub = [[row[nb] for nb in neg] for row in self._add]
        # a * b = g^(log a + log b) for a primitive element g
        exp = self._primitive_powers()
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp2 = exp + exp
        logs = log[1:]
        self._mul = [[0] * q] + [[0] + [exp2[i + j] for j in logs] for i in logs]
        self._inv = [0] + [exp[-i % (q - 1)] for i in logs]

    def _primitive_powers(self) -> List[int]:
        """[g^0, ..., g^(q-2)] for the smallest primitive element g, which
        exists since GF(q)* is cyclic.  g is primitive when g^((q-1)/r)
        != 1 for every prime r dividing q - 1 (each power by squaring),
        and no element of GF(p), the integers below p, is for m > 1; so
        only g's cycle is walked, about q products in all."""
        p, q = self.p, self.q
        mul = lambda a, b: _poly_mul_mod(a, b, p, self.m, self.reduction)

        def power(x: int, e: int) -> int:
            out = x
            for bit in bin(e)[3:]:
                out = mul(mul(out, out), x) if bit == "1" else mul(out, out)
            return out

        primes = [r for r in range(2, q) if (q - 1) % r == 0 and _factor_prime_power(r) == (r, 1)]
        g = next(g for g in range(p, q) if all(power(g, (q - 1) // r) != 1 for r in primes))
        return list(accumulate(repeat(g, q - 2), mul, initial=1))

    def check_symbols(self, xs, where: str, top: Optional[int] = None):
        """xs, or ValueError naming ``where`` and its first bad entry
        unless it is a list or tuple of ints (not bools) in [0, top): top
        is q for symbols, Regions.top for region words.  Checked in bulk,
        for top = q <= 256 as bytes(xs) left empty once the field's symbol
        bytes are deleted; only a failure looks at the entries one by one."""
        top = top or self.q
        if not isinstance(xs, (list, tuple)):
            raise ValueError(f"{where} holds a symbol outside GF({self.q})")
        try:  # bytes(xs) raises on an entry outside [0, 256)
            ok = set(map(type, xs)) == {int} and (
                not bytes(xs).translate(None, self._symbols) if top == self.q <= 256
                else 0 <= min(xs) and max(xs) < top)
        except ValueError:
            ok = False
        if xs and not ok:
            x = next(x for x in xs if type(x) is not int or not 0 <= x < top)
            what = f"an element of GF({self.q})" if top == self.q else "a region"
            raise ValueError(f"{where} holds a symbol outside GF({self.q}): "
                             f"{x!r} is not {what}")
        return xs

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return self._sub[a][b]

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._inv[a]

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


# ----- polynomials over GF(q): coefficient lists in ascending degree,
# no trailing zeros, the zero polynomial the empty list -----

def poly_trim(p: Sequence[int]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(F: FieldSpec, p: Sequence[int], q: Sequence[int]) -> Poly:
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return []
    # coefficient d = sum of p[i] q[d-i]: a slice of p dotted with a
    # slice of q reversed
    lq = len(q)
    rq = q[::-1]
    return poly_trim([F.dot(p[max(0, d - lq + 1):d + 1], rq[max(0, lq - 1 - d):])
                      for d in range(len(p) + lq - 1)])


def poly_divmod(F: FieldSpec, p: Sequence[int], q: Sequence[int]) -> Tuple[Poly, Poly]:
    p, q = poly_trim(p), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [0] * max(len(p) - len(q) + 1, 0)
    inv_lead = F.inv(q[-1])
    lq = len(q)
    for i in range(len(rem) - lq, -1, -1):
        c = F.mul(rem[i + lq - 1], inv_lead)
        if c == 0:
            continue
        quo[i] = c
        rem[i:i + lq] = F.sub_mul(rem[i:i + lq], c, q)
    return poly_trim(quo), poly_trim(rem)


def field_make(q: int) -> FieldSpec:
    """GF(q) with the canonical (smallest) irreducible polynomial.

    A field is not changed after it is built, so one instance per q is
    built and shared: every code over GF(q) holds the same tables.  q is
    checked before the shared instance is looked up, since 8.0 and True
    hash like 8 and 1.
    """
    _check_order(q)
    return _shared_field(q)


@lru_cache(maxsize=None)
def _shared_field(q: int) -> FieldSpec:
    return FieldSpec(q)
