"""Exact arithmetic in Z[sqrt(d)] for squarefree d < 0 with d = 2, 3 mod 4.

Under that hypothesis Z[sqrt(d)] is the full ring of integers and the norm
a^2 - d*b^2 is positive definite.  The units are +-1, and also +-i for d = -1;
`canonical_associate` divides out only the sign, so in Z[i] associates such
as 3 and 3i stay distinct (ROADMAP items 1 and 5).  Norm-based searches make
irreducibility and bounded absolute-irreducibility decidable: one sieve over
the divisors of an element, in increasing norm, lists its irreducible
divisors and so also decides irreducibility.  Primality is only witnessed
(explicit non-prime products, or the Euler criterion for inert rational
primes).  The bounded half-factoriality scan fills one table of length sets
in increasing norm, built bottom-up from the irreducibles of smaller norm.
No cache outlives a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

from .errors import BudgetExceeded, ZeroDivisor, ZeroOrUnit
from .abgroup import DEFAULT_NODE_BUDGET
from .ivpoly import is_prime, smallest_prime_factor


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    while n > 1:
        p = smallest_prime_factor(n)
        n //= p
        if n % p == 0:
            return False
    return True


@dataclass(frozen=True)
class QuadInt:
    """a + b*sqrt(d); the ring supplies d."""

    a: int
    b: int

    def __repr__(self) -> str:
        return f"QuadInt({self.a}, {self.b})"


@dataclass(frozen=True)
class QuadRing:
    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", index(self.d))
        if self.d >= 0:
            raise ValueError("d must be negative")
        if self.d % 4 not in (2, 3):
            raise ValueError("d must be 2 or 3 mod 4 (otherwise not the maximal order)")
        if not _is_squarefree(self.d):
            raise ValueError("d must be squarefree")

    def element(self, a: int, b: int = 0) -> QuadInt:
        return QuadInt(index(a), index(b))

    def sqrt_d(self) -> QuadInt:
        return QuadInt(0, 1)

    def norm(self, z: QuadInt) -> int:
        return z.a * z.a - self.d * z.b * z.b

    def mul(self, x: QuadInt, y: QuadInt) -> QuadInt:
        return QuadInt(x.a * y.a + self.d * x.b * y.b, x.a * y.b + x.b * y.a)

    def conj(self, z: QuadInt) -> QuadInt:
        return QuadInt(z.a, -z.b)

    def neg(self, z: QuadInt) -> QuadInt:
        return QuadInt(-z.a, -z.b)

    def power(self, z: QuadInt, n: int) -> QuadInt:
        out = QuadInt(1, 0)
        for _ in range(n):
            out = self.mul(out, z)
        return out

    def is_unit(self, z: QuadInt) -> bool:
        return self.norm(z) == 1

    def exact_divide(self, z: QuadInt, w: QuadInt) -> QuadInt | None:
        """z / w when exact, else None."""
        nw = self.norm(w)
        if nw == 0:
            raise ZeroDivisor("division by zero")
        t = self.mul(z, self.conj(w))
        if t.a % nw or t.b % nw:
            return None
        return QuadInt(t.a // nw, t.b // nw)


def canonical_associate(z: QuadInt) -> QuadInt:
    """Representative modulo units: first nonzero coordinate positive."""
    if z.a > 0 or (z.a == 0 and z.b > 0):
        return z
    if z.a == 0 and z.b == 0:
        return z
    return QuadInt(-z.a, -z.b)


def elements_of_norm(ring: QuadRing, m: int) -> list[QuadInt]:
    """All a + b*sqrt(d) with norm exactly m (both signs), sorted by (a, b)."""
    if m < 0:
        return []
    absd = -ring.d
    out = set()
    for b in range(math.isqrt(m // absd) + 1):
        a = math.isqrt(m - absd * b * b)
        if a * a + absd * b * b == m:
            out.update(QuadInt(sa, sb) for sa in (a, -a) for sb in (b, -b))
    return sorted(out, key=lambda z: (z.a, z.b))


def _divisors(n: int) -> list[int]:
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


def quad_divides(ring: QuadRing, w: QuadInt, z: QuadInt) -> bool:
    """Exact divisibility w | z."""
    if ring.norm(w) == 0:
        raise ZeroDivisor("division by zero")
    return ring.exact_divide(z, w) is not None


def _irreducible_divisors(ring: QuadRing, t: QuadInt) -> list[QuadInt]:
    """The canonical irreducible divisors of t, in (norm, a, b) order.

    A sieve over the divisors of t in increasing norm: a divisor of norm > 1
    is irreducible exactly when no irreducible divisor of t of strictly
    smaller norm divides it (a proper factor has one; one splits it).
    """
    out: list[QuadInt] = []
    for m in _divisors(ring.norm(t))[1:]:
        smaller = tuple(out)
        for w in elements_of_norm(ring, m):
            if (w == canonical_associate(w) and quad_divides(ring, w, t)
                    and not any(quad_divides(ring, c, w) for c in smaller)):
                out.append(w)
    return out


def quad_is_irreducible(ring: QuadRing, z: QuadInt) -> bool:
    """Every irreducible divisor of z has norm N(z)."""
    nz = ring.norm(z)
    if nz <= 1:
        raise ZeroOrUnit("irreducibility is about nonzero nonunits")
    return all(ring.norm(w) == nz for w in _irreducible_divisors(ring, z))


@dataclass(frozen=True)
class PrimeWitness:
    """Outcome of the primality probe for one element.

    kind "non_prime_witness": z | x*y with z dividing neither factor.
    kind "prime_by_euler": inert odd rational prime (d is a non-residue).
    kind "unknown": neither recipe applies.
    """

    kind: str
    x: QuadInt | None = None
    y: QuadInt | None = None
    detail: str = ""


def quad_is_prime_witness(ring: QuadRing, z: QuadInt) -> PrimeWitness:
    if ring.norm(z) == 0:
        raise ZeroDivisor("primality probe of zero")
    d = ring.d
    if (z.a, z.b) in ((2, 0), (-2, 0)):
        if d % 4 == 2:
            x = y = ring.sqrt_d()
        else:
            x, y = QuadInt(1, 1), QuadInt(1, -1)
        prod = ring.mul(x, y)
        assert quad_divides(ring, z, prod)
        assert not quad_divides(ring, z, x) and not quad_divides(ring, z, y)
        return PrimeWitness("non_prime_witness", x, y,
                            "2 divides the product but neither factor")
    if z.b == 0:
        p = abs(z.a)
        if p > 2 and p % 2 == 1 and is_prime(p) and (2 * d) % p != 0:
            if pow(d % p, (p - 1) // 2, p) == p - 1:
                return PrimeWitness("prime_by_euler", detail=f"d^(({p}-1)/2) = -1 mod {p}")
    return PrimeWitness("unknown", detail="no recipe applies to this element")


def quad_factorizations(ring: QuadRing, t: QuadInt,
                        *, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, tuple[QuadInt, ...]]]:
    """All factorizations of t into irreducibles modulo units.

    Each result is (sign, atoms) with atoms canonical and sorted, such that
    sign * product(atoms) = t.  Units themselves have the empty factorization.
    """
    if ring.norm(t) == 0:
        raise ZeroDivisor("cannot factor zero")
    return _factorizations(ring, t, _irreducible_divisors(ring, t), budget)


def _factorizations(ring: QuadRing, t: QuadInt, cands: list[QuadInt],
                    budget: int) -> list[tuple[int, tuple[QuadInt, ...]]]:
    """`quad_factorizations` of t, given its irreducible divisors in (norm, a, b) order."""
    out: list[tuple[int, tuple[QuadInt, ...]]] = []
    acc: list[QuadInt] = []
    nodes = 0

    def rec(rem: QuadInt, start: int):
        nonlocal nodes
        if ring.is_unit(rem):
            out.append((rem.a, tuple(acc)))
            return
        for i in range(start, len(cands)):
            w = cands[i]
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"factorization search exceeded {budget} divisions")
            q = ring.exact_divide(rem, w)
            if q is not None:
                acc.append(w)
                rec(q, i)
                acc.pop()

    rec(t, 0)
    return out


@dataclass(frozen=True)
class QuadAbsirredResult:
    absolutely_irreducible: bool
    n: int | None = None
    witness_sign: int | None = None
    witness: tuple[QuadInt, ...] | None = None


def quad_brute_absirred(ring: QuadRing, z: QuadInt, n_max: int,
                        *, budget: int = DEFAULT_NODE_BUDGET) -> QuadAbsirredResult:
    """Exhaustively check that z**n factors only as n copies of +-z, n <= n_max.

    One sieve lists the irreducible divisors of z**n_max; those of z and of
    each z**n are its entries that divide them.  `budget` is per power.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    nz = ring.norm(z)
    if nz <= 1:
        raise ZeroOrUnit("irreducibility is about nonzero nonunits")
    sieve = _irreducible_divisors(ring, ring.power(z, n_max))
    if any(ring.norm(w) < nz and quad_divides(ring, w, z) for w in sieve):
        raise ZeroOrUnit("absolute irreducibility is about irreducible elements")
    zc = canonical_associate(z)
    for n in range(1, n_max + 1):
        t = ring.power(z, n)
        cands = [w for w in sieve if quad_divides(ring, w, t)]
        for sign, atoms in _factorizations(ring, t, cands, budget):
            if atoms != (zc,) * n:
                return QuadAbsirredResult(False, n, sign, atoms)
    return QuadAbsirredResult(True)


def half_factorial_check(ring: QuadRing, max_norm: int,
                         *, budget: int = DEFAULT_NODE_BUDGET) -> tuple[bool, QuadInt | None]:
    """All nonzero nonunits of norm <= max_norm have equal-length factorizations.

    Returns (True, None) or (False, counterexample), the counterexample being
    the first canonical element with two lengths in (norm, a, b) order.
    One pass fills a table of length sets, as int bitmasks (bit k set when
    the element has a factorization of length k), in increasing norm:
    L(z) is the union of 1 + L(z/w) over the irreducible w whose norm
    properly divides N(z), and z is irreducible exactly when there is none.
    Elements are (a, b) int pairs: w = (c, e) divides z = (a, b) when N(w)
    divides a*c + |d|*b*e and b*c - a*e, the coordinates of z * conj(w).
    Its memory is linear in max_norm (one slot per norm) and in the number
    of elements of norm <= max_norm.  `budget` counts its exact divisions.
    """
    if max_norm < 2:
        return True, None
    absd = -ring.d
    width = 2 * math.isqrt(max_norm // absd) + 1
    by_norm: dict[int, list[tuple[int, int]]] = {}
    for a in range(math.isqrt(max_norm) + 1):
        bmax = math.isqrt((max_norm - a * a) // absd)
        for b in range(1 if a == 0 else -bmax, bmax + 1):
            n = a * a + absd * b * b
            if n >= 2:
                by_norm.setdefault(n, []).append((a, b))
    # lengths[a * width + b]: the length mask of the canonical (a, b); the index
    # of -(a, b) is its negative, so abs() of an index canonicalizes by sign only
    lengths = [0] * ((math.isqrt(max_norm) + 1) * width)
    # divisors[n]: (c, |d|*e, e, m) for each irreducible (c, e) found so far
    # whose norm m properly divides n, in increasing m, then in scan order
    divisors: list[list[tuple[int, int, int, int]] | None] = [None] * (max_norm + 1)
    for n in by_norm:
        divisors[n] = []
    divisions = 0
    for n in sorted(by_norm):
        cands = divisors[n]
        irreducibles = []
        for a, b in by_norm[n]:
            mask = 0
            divisions += len(cands)  # charged up front: raises iff counting one by one would
            if divisions > budget and cands:
                raise BudgetExceeded(f"half-factorial scan exceeded {budget} divisions")
            for c, de, e, m in cands:
                x, y = a * c + b * de, b * c - a * e
                if not (x % m or y % m):  # then (x, y) / m = z / w
                    mask |= lengths[abs((x * width + y) // m)] << 1
            if not mask:
                mask = 0b10
                irreducibles.append((a, absd * b, b, n))
            elif mask & (mask - 1):
                return False, QuadInt(a, b)
            lengths[a * width + b] = mask
        if irreducibles:
            for multiple in range(2 * n, max_norm + 1, n):
                if divisors[multiple] is not None:
                    divisors[multiple] += irreducibles
    return True, None
