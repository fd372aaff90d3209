"""Exact rational polynomials and integer-valuedness over the rational integers.

Rational arithmetic is kept normalized by fractions.Fraction.  Divisibility
questions live in the ring of polynomials mapping integers to integers;
irreducibility there is never decided in general, only the verified witness
constructions below.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotIntegerValued, NotPrime, PreconditionFailed, ZeroPolynomial


@dataclass(frozen=True)
class RatPoly:
    """Dense polynomial with exact rational coefficients, low degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def of(cls, *coeffs) -> "RatPoly":
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls.of(c)

    @classmethod
    def x(cls) -> "RatPoly":
        return cls.of(0, 1)

    @classmethod
    def from_root(cls, r) -> "RatPoly":
        """The monic linear polynomial x - r."""
        return cls.of(-Fraction(r), 1)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, value) -> Fraction:
        acc = Fraction(0)
        v = Fraction(value)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __add__(self, other) -> "RatPoly":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        pad = lambda cs: cs + (Fraction(0),) * (n - len(cs))
        return RatPoly(tuple(a + b for a, b in zip(pad(self.coeffs), pad(other.coeffs))))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RatPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RatPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "RatPoly":
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = RatPoly.of(1)
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other) -> tuple["RatPoly", "RatPoly"]:
        other = _coerce(other)
        if other.is_zero():
            raise ZeroPolynomial("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            factor = rem[i] / lead
            q[i - d] = factor
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= factor * b
        return RatPoly(tuple(q)), RatPoly(tuple(rem))

    def is_integer_poly(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def denominator_lcm(self) -> int:
        out = 1
        for c in self.coeffs:
            out = math.lcm(out, c.denominator)
        return out

    def __repr__(self) -> str:
        if self.is_zero():
            return "RatPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "RatPoly(" + " + ".join(terms) + ")"


def _coerce(value) -> RatPoly:
    if isinstance(value, RatPoly):
        return value
    return RatPoly.constant(value)


def poly_divides(f: RatPoly, g: RatPoly) -> bool:
    """Exact divisibility in Q[x]."""
    if f.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    _, r = divmod(g, f)
    return r.is_zero()


def _scaled_values(f: RatPoly) -> tuple[int, list[int]]:
    """(D, [D f(0), ..., D f(deg f)]) for a nonzero f, with D the lcm of the
    coefficient denominators: Horner's rule on the integer polynomial D f."""
    d = f.denominator_lcm()
    coeffs = [c.numerator * (d // c.denominator) for c in reversed(f.coeffs)]
    values = []
    for k in range(len(coeffs)):
        acc = 0
        for c in coeffs:
            acc = acc * k + c
        values.append(acc)
    return d, values


def is_integer_valued(f: RatPoly) -> bool:
    """Membership in the ring of integer-valued polynomials.

    Checking the values at 0, ..., deg(f) suffices: those values determine
    the coefficients over the binomial basis through a unimodular triangular
    transform.  f(k) is an integer iff D f(k) is divisible by D, which keeps
    the arithmetic on integers.
    """
    if f.is_zero():
        return True
    d, values = _scaled_values(f)
    return all(v % d == 0 for v in values)


def binomial_basis_coefficients(f: RatPoly) -> tuple[Fraction, ...]:
    """Coefficients of f over the binomial basis, by finite differences.

    f is integer-valued exactly when all of these are integers; kept as a
    cross-check for the value-based test above.  The differences are taken
    on the integer values of D f and divided by D once each.
    """
    if f.is_zero():
        return ()
    d, row = _scaled_values(f)
    out = [row[0]]
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        out.append(row[0])
    return tuple(Fraction(c, d) for c in out)


def fixed_divisor(g: RatPoly) -> int:
    """gcd of the values of an integer polynomial; |c| for constants."""
    if g.is_zero():
        raise ZeroPolynomial("the zero polynomial has no fixed divisor")
    if not g.is_integer_poly():
        raise NotIntegerValued("fixed divisor is defined for integer polynomials")
    if g.is_constant():
        return abs(int(g.coeffs[0]))
    values = [int(g(k)) for k in range(g.degree + 1)]
    return math.gcd(*values)


def divides_in_intz(f: RatPoly, g: RatPoly) -> bool:
    """f | g among integer-valued polynomials: g/f is a polynomial and is
    itself integer-valued."""
    if f.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    if not is_integer_valued(f) or not is_integer_valued(g):
        raise NotIntegerValued("both polynomials must be integer-valued")
    q, r = divmod(g, f)
    return r.is_zero() and is_integer_valued(q)


def binomial_poly(n: int) -> RatPoly:
    """x(x-1)...(x-n+1)/n! — the n-th binomial polynomial."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = RatPoly.of(1)
    for i in range(n):
        num = num * RatPoly.from_root(i)
    return num * Fraction(1, math.factorial(n))


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2, by trial division."""
    n = operator.index(n)
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(p: int) -> bool:
    p = operator.index(p)
    return p >= 2 and smallest_prime_factor(p) == p


def legendre_vp_factorial(p: int, n: int) -> int:
    """v_p(n!) = sum of floor(n / p^i)."""
    p, n = operator.index(p), operator.index(n)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def rp_membership(f: RatPoly, p: int) -> bool:
    """Membership in the subring of integer-valued polynomials whose
    coefficient denominators are powers of p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not is_integer_valued(f):
        return False
    den = f.denominator_lcm()
    while den % p == 0:
        den //= p
    return den == 1


@dataclass(frozen=True)
class ConstantWitnessReport:
    """Nonzero constant c divides the product of x - r over residues mod |c|,
    but divides no individual linear factor."""

    c: int
    residues: tuple[int, ...]
    product: RatPoly
    divides_product: bool
    divides_factor: tuple[bool, ...]
    ok: bool


def constant_residue_product_witness(c: int) -> ConstantWitnessReport:
    """Verify the non-primality pattern of a constant |c| >= 2."""
    if abs(c) < 2:
        raise PreconditionFailed("constant must be a nonzero nonunit")
    residues = tuple(range(abs(c)))
    prod = RatPoly.of(1)
    for r in residues:
        prod = prod * RatPoly.from_root(r)
    const = RatPoly.constant(c)
    div_prod = divides_in_intz(const, prod)
    div_factors = tuple(divides_in_intz(const, RatPoly.from_root(r)) for r in residues)
    ok = div_prod and not any(div_factors)
    return ConstantWitnessReport(c, residues, prod, div_prod, div_factors, ok)


@dataclass(frozen=True)
class NoPrimeWitnessReport:
    """The divisibility contradiction that rules out a non-constant prime.

    With h the product of x - r over residues where the numerator is nonzero
    mod p: both h*G/p and (G+p)*h/p are integer-valued, G does not divide
    G + p even rationally, and h/p is not integer-valued — so G divides the
    product (G+p)*h*G/p without dividing either factor.
    """

    target: RatPoly
    p: int
    numerator: RatPoly
    denominator: int
    zero_residues: tuple[int, ...]
    nonzero_residues: tuple[int, ...]
    h: RatPoly
    product_over_p_integer_valued: bool
    shifted_product_over_p_integer_valued: bool
    target_divides_shift: bool
    h_over_p_integer_valued: bool
    ok: bool


def verify_no_prime_witness(g_poly: RatPoly, p: int) -> NoPrimeWitnessReport:
    """Verify the no-prime construction for a non-constant integer-valued G.

    Preconditions: p prime, the integer numerator of G has a root mod p but
    does not vanish identically mod p (equivalently p does not divide its
    fixed divisor).
    """
    if not is_prime(p):
        raise PreconditionFailed(f"{p} is not prime")
    if g_poly.is_constant():
        raise PreconditionFailed(
            "constant targets are handled by the residue-product witness")
    if not is_integer_valued(g_poly):
        raise PreconditionFailed("target must be integer-valued")
    d = g_poly.denominator_lcm()
    num = g_poly * d
    values = [int(num(r)) % p for r in range(p)]
    zero_res = tuple(r for r in range(p) if values[r] == 0)
    nonzero_res = tuple(r for r in range(p) if values[r] != 0)
    if not zero_res:
        raise PreconditionFailed(f"numerator has no root mod {p}")
    if not nonzero_res:
        raise PreconditionFailed(f"numerator vanishes identically mod {p}")

    h = RatPoly.of(1)
    for r in nonzero_res:
        h = h * RatPoly.from_root(r)

    inv_p = Fraction(1, p)
    clause1 = is_integer_valued(h * g_poly * inv_p)
    clause2 = is_integer_valued((g_poly + p) * h * inv_p)
    clause3 = poly_divides(g_poly, g_poly + p)
    clause4 = is_integer_valued(h * inv_p)
    ok = clause1 and clause2 and (not clause3) and (not clause4)
    return NoPrimeWitnessReport(g_poly, p, num, d, zero_res, nonzero_res, h,
                                clause1, clause2, clause3, clause4, ok)
