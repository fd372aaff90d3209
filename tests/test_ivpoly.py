import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strongatoms.errors import (
    NotIntegerValued,
    NotPrime,
    PreconditionFailed,
    ZeroPolynomial,
)
from strongatoms.ivpoly import (
    RatPoly,
    binomial_basis_coefficients,
    binomial_poly,
    constant_residue_product_witness,
    divides_in_intz,
    fixed_divisor,
    is_integer_valued,
    is_prime,
    legendre_vp_factorial,
    poly_divides,
    rp_membership,
    smallest_prime_factor,
    verify_no_prime_witness,
)

X = RatPoly.x()
HALF = Fraction(1, 2)


def cubic_over_two():
    # x(x^2 + 3)/2
    return X * (X * X + RatPoly.constant(3)) * HALF


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_poly_basics():
    p = RatPoly.of(1, 2, 3)
    assert p.degree == 2
    assert p(2) == 1 + 4 + 12
    z = RatPoly.of(0)
    assert z.is_zero() and z.degree == -1
    assert (p - p).is_zero()
    assert (X ** 3).coeffs == (0, 0, 0, 1)
    q, r = divmod(X * X - RatPoly.constant(1), X - RatPoly.constant(1))
    assert r.is_zero() and q.coeffs == (1, 1)


def test_poly_divmod_random_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        a = RatPoly.of(*[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(rng.randint(1, 5))])
        b = RatPoly.of(*[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert (q * b + r).coeffs == a.coeffs
        assert r.degree < b.degree or r.is_zero()


# ---------------------------------------------------------------------------
# integer-valuedness


def test_is_integer_valued_examples():
    assert is_integer_valued(cubic_over_two())
    assert not is_integer_valued(X * HALF)
    assert is_integer_valued(binomial_poly(5))


def test_integer_valued_cross_check_binomial_basis():
    rng = random.Random(4)
    for _ in range(80):
        deg = rng.randint(0, 5)
        f = RatPoly.of(*[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
                         for _ in range(deg + 1)])
        by_values = is_integer_valued(f)
        coeffs = binomial_basis_coefficients(f)
        by_basis = all(c.denominator == 1 for c in coeffs)
        assert by_values == by_basis
        # the binomial coefficients reconstruct the polynomial
        rebuilt = RatPoly.of(0)
        for k, c in enumerate(coeffs):
            rebuilt = rebuilt + binomial_poly(k) * c
        assert rebuilt.coeffs == f.coeffs


def fraction_route(f):
    """is_integer_valued and binomial_basis_coefficients as computed before
    the integer evaluation: Fraction values f(0..deg f), Fraction differences."""
    if f.is_zero():
        return True, ()
    row = [f(k) for k in range(f.degree + 1)]
    member = all(v.denominator == 1 for v in row)
    out = [row[0]]
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        out.append(row[0])
    return member, tuple(out)


@st.composite
def rational_polys(draw):
    """Degree -1 (zero) to 10, coefficients with denominators 1-12; or an
    integer combination of binomial polynomials, integer-valued with
    non-integer coefficients from degree 2 on."""
    deg = draw(st.integers(-1, 10))
    if draw(st.booleans()):
        terms = draw(st.lists(st.integers(-9, 9), min_size=deg + 1, max_size=deg + 1))
        f = RatPoly.of(0)
        for k, c in enumerate(terms):
            f = f + binomial_poly(k) * c
        return f
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
                           min_size=deg + 1, max_size=deg + 1))
    return RatPoly(tuple(coeffs))


@settings(max_examples=300)
@given(f=rational_polys())
def test_integer_evaluation_matches_fraction_route(f):
    member, coeffs = fraction_route(f)
    assert is_integer_valued(f) == member
    got = binomial_basis_coefficients(f)
    assert got == coeffs and all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("f", [
    RatPoly.of(0), RatPoly.of(7), RatPoly.of(Fraction(-5, 12)),
    X * (X - RatPoly.constant(1)) * HALF, cubic_over_two(), X * HALF,
    *map(binomial_poly, range(11)),
])
def test_integer_evaluation_on_named_polys(f):
    assert (is_integer_valued(f), binomial_basis_coefficients(f)) == fraction_route(f)


# ---------------------------------------------------------------------------
# fixed divisors


def test_fixed_divisor_examples():
    assert fixed_divisor(X * (X - RatPoly.constant(1))) == 2
    falling = RatPoly.of(1)
    for i in range(5):
        falling = falling * RatPoly.from_root(i)
    assert fixed_divisor(falling) == 120
    assert fixed_divisor(X) == 1
    assert fixed_divisor(RatPoly.constant(-7)) == 7
    with pytest.raises(ZeroPolynomial):
        fixed_divisor(RatPoly.of(0))
    with pytest.raises(NotIntegerValued):
        fixed_divisor(X * HALF)


def test_fixed_divisor_divides_all_values():
    rng = random.Random(12)
    for _ in range(40):
        deg = rng.randint(1, 6)
        g = RatPoly.of(*[rng.randint(-9, 9) for _ in range(deg + 1)])
        if g.is_zero():
            continue
        fd = fixed_divisor(g)
        if fd == 0:
            continue
        for k in range(-20, 21):
            assert int(g(k)) % fd == 0


def test_fixed_divisor_product_inclusion():
    rng = random.Random(13)
    strict_seen = False
    for _ in range(60):
        f = RatPoly.of(*[rng.randint(-5, 5) for _ in range(rng.randint(2, 4))])
        g = RatPoly.of(*[rng.randint(-5, 5) for _ in range(rng.randint(2, 4))])
        if f.is_zero() or g.is_zero():
            continue
        lhs = fixed_divisor(f) * fixed_divisor(g)
        rhs = fixed_divisor(f * g)
        assert rhs % lhs == 0
        if rhs != lhs:
            strict_seen = True
    # a recorded strict witness: fd(x) = fd(x+1) = 1 but fd(x(x+1)) = 2
    assert fixed_divisor(X * (X + RatPoly.constant(1))) == 2
    assert strict_seen


# ---------------------------------------------------------------------------
# divisibility


def test_divides_in_intz_examples():
    two = RatPoly.constant(2)
    assert divides_in_intz(two, X * (X - RatPoly.constant(1)))
    assert not divides_in_intz(two, X)

    f = cubic_over_two()
    assert divides_in_intz(f, f * f)

    with pytest.raises(ZeroPolynomial):
        divides_in_intz(RatPoly.of(0), X)
    with pytest.raises(NotIntegerValued):
        divides_in_intz(X * HALF, X)


def test_divisors_of_image_primitive_are_image_primitive():
    # fd(f^2) = 1, and every divisor found for it is image-primitive too
    f = cubic_over_two()
    c1 = X * X * (X * X + RatPoly.constant(3)) * Fraction(1, 4)
    c2 = X * X + RatPoly.constant(3)
    assert divides_in_intz(c1, f * f) and divides_in_intz(c2, f * f)
    for p in (f * f, f, c1, c2):
        values = [p(k) for k in range(p.degree + 1)]
        assert math.gcd(*(int(v) for v in values)) == 1


def test_square_cofactor_witness():
    f = cubic_over_two()
    c1 = X * X * (X * X + RatPoly.constant(3)) * Fraction(1, 4)
    c2 = X * X + RatPoly.constant(3)
    assert (c1 * c2).coeffs == (f * f).coeffs
    assert is_integer_valued(c1) and is_integer_valued(c2)
    # neither cofactor is a rational multiple of f
    for c in (c1, c2):
        assert not (poly_divides(f, c) and poly_divides(c, f))


# ---------------------------------------------------------------------------
# binomial polynomials, valuations, R(p)


def test_binomial_poly():
    assert binomial_poly(0).coeffs == (1,)
    assert binomial_poly(2).coeffs == (0, -HALF, HALF)
    assert is_integer_valued(binomial_poly(2))
    numerator = binomial_poly(6) * math.factorial(6)
    assert fixed_divisor(numerator) == 720
    for n in range(8):
        # values of binom(x, n) at integers are binomial coefficients
        assert binomial_poly(n)(n) == 1
        assert binomial_poly(n)(n - 1) == 0 if n else binomial_poly(0)(0) == 1


def test_legendre_vp_factorial():
    assert legendre_vp_factorial(2, 4) == 3
    assert legendre_vp_factorial(3, 9) == 4
    assert legendre_vp_factorial(5, 5) == 1
    with pytest.raises(NotPrime):
        legendre_vp_factorial(6, 10)
    # oracle: direct factorial valuation
    for p in (2, 3, 5, 7):
        for n in (0, 1, 4, 9, 25, 26):
            fact = math.factorial(n)
            v = 0
            while fact and fact % p == 0:
                fact //= p
                v += 1
            assert legendre_vp_factorial(p, n) == v


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [smallest_prime_factor(n) for n in (2, 9, 15, 49, 97, 221)] == [2, 3, 3, 7, 97, 13]
    # below 2 there is no prime factor to report; is_prime answers without asking
    for n in (1, 0, -7):
        with pytest.raises(ValueError, match="n must be >= 2"):
            smallest_prime_factor(n)
        assert not is_prime(n)


def test_rp_membership_examples():
    f = X * (X - RatPoly.constant(1)) * HALF
    assert rp_membership(f, 2)
    assert not rp_membership(X * (X - RatPoly.constant(1)) * Fraction(1, 3), 3)
    g = X * (X - RatPoly.constant(1)) * (X - RatPoly.constant(2)) * Fraction(1, 6)
    assert not rp_membership(g, 2)
    assert rp_membership(X, 5)
    with pytest.raises(NotPrime):
        rp_membership(X, 4)


# ---------------------------------------------------------------------------
# no-prime witnesses


def test_constant_residue_product_witness():
    for c in (2, 3, 4):
        rep = constant_residue_product_witness(c)
        assert rep.ok
        assert rep.divides_product and not any(rep.divides_factor)
    with pytest.raises(PreconditionFailed):
        constant_residue_product_witness(1)


def test_verify_no_prime_witness_linear():
    rep = verify_no_prime_witness(X, 2)
    assert rep.ok
    assert rep.zero_residues == (0,) and rep.nonzero_residues == (1,)
    assert rep.h.coeffs == (-1, 1)
    assert rep.product_over_p_integer_valued
    assert rep.shifted_product_over_p_integer_valued
    assert not rep.target_divides_shift
    assert not rep.h_over_p_integer_valued


def test_verify_no_prime_witness_quadratic():
    rep = verify_no_prime_witness(X * X + RatPoly.constant(1), 5)
    assert rep.ok
    assert rep.zero_residues == (2, 3)
    assert rep.nonzero_residues == (0, 1, 4)


def test_verify_no_prime_witness_preconditions():
    with pytest.raises(PreconditionFailed):
        verify_no_prime_witness(RatPoly.constant(2), 2)
    with pytest.raises(PreconditionFailed):
        verify_no_prime_witness(X, 4)
    # numerator of x(x^2+3)/2 vanishes identically mod 2
    with pytest.raises(PreconditionFailed):
        verify_no_prime_witness(cubic_over_two(), 2)
    # x^2 + 1 has no root mod 3
    with pytest.raises(PreconditionFailed):
        verify_no_prime_witness(X * X + RatPoly.constant(1), 3)
