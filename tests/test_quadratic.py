import math
import random
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from strongatoms.errors import BudgetExceeded, ZeroDivisor, ZeroOrUnit
from strongatoms.quadratic import (
    QuadAbsirredResult,
    QuadInt,
    QuadRing,
    _divisors,
    _irreducible_divisors,
    canonical_associate,
    elements_of_norm,
    half_factorial_check,
    quad_brute_absirred,
    quad_divides,
    quad_factorizations,
    quad_is_irreducible,
    quad_is_prime_witness,
)

R14 = QuadRing(-14)
R5 = QuadRing(-5)

SQUAREFREE_D = [-k for k in range(1, 131)
                if -k % 4 in (2, 3) and all(k % (p * p) for p in range(2, 12))]

# the rings of the benchmark's quadratic queries: d = -1..-70, squarefree, d = 2, 3 mod 4
POOL_D = [d for d in SQUAREFREE_D if d >= -70]


def test_ring_validation():
    QuadRing(-5)
    QuadRing(-14)
    QuadRing(-6)
    with pytest.raises(ValueError):
        QuadRing(-15)      # 1 mod 4
    with pytest.raises(ValueError):
        QuadRing(-7)       # 1 mod 4
    with pytest.raises(ValueError):
        QuadRing(-12)      # not squarefree
    with pytest.raises(ValueError):
        QuadRing(5)        # positive


def test_norm_and_multiplicativity():
    assert R14.norm(R14.element(2)) == 4
    assert R14.norm(R14.sqrt_d()) == 14
    rng = random.Random(31)
    for _ in range(100):
        x = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
        y = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
        assert R14.norm(R14.mul(x, y)) == R14.norm(x) * R14.norm(y)
        assert R14.norm(x) >= 0
        assert (R14.norm(x) == 0) == (x == QuadInt(0, 0))


def test_units_are_plus_minus_one():
    for d in (-5, -6, -14):
        ring = QuadRing(d)
        units = [z for m in range(1, 3) for z in elements_of_norm(ring, m)
                 if ring.is_unit(z)]
        assert sorted(units, key=lambda z: (z.a, z.b)) == [QuadInt(-1, 0), QuadInt(1, 0)]


def test_elements_of_norm():
    assert elements_of_norm(R14, 2) == []
    assert elements_of_norm(R14, 4) == [QuadInt(-2, 0), QuadInt(2, 0)]
    assert elements_of_norm(R14, 14) == [QuadInt(0, -1), QuadInt(0, 1)]
    assert elements_of_norm(R14, 0) == [QuadInt(0, 0)]
    # exhaustive cross-check against a direct scan
    for m in range(1, 40):
        got = set(elements_of_norm(R5, m))
        want = {QuadInt(a, b) for a in range(-8, 9) for b in range(-4, 5)
                if a * a + 5 * b * b == m}
        assert got == want


def test_irreducibility():
    assert quad_is_irreducible(R14, R14.element(2))
    assert quad_is_irreducible(R14, R14.sqrt_d())
    assert not quad_is_irreducible(R14, R14.element(-14))
    assert not quad_is_irreducible(R14, R14.element(4))
    with pytest.raises(ZeroOrUnit):
        quad_is_irreducible(R14, R14.element(1))
    with pytest.raises(ZeroOrUnit):
        quad_is_irreducible(R14, R14.element(0))


def test_divides():
    assert quad_divides(R14, R14.element(2), R14.element(-14))
    assert not quad_divides(R14, R14.element(2), R14.sqrt_d())
    assert quad_divides(R14, R14.sqrt_d(), R14.element(-14))
    with pytest.raises(ZeroDivisor):
        quad_divides(R14, R14.element(0), R14.element(2))


def test_prime_witness_two():
    w = quad_is_prime_witness(R14, R14.element(2))
    assert w.kind == "non_prime_witness"
    assert w.x == QuadInt(0, 1) and w.y == QuadInt(0, 1)
    # d = 3 mod 4 branch
    r6 = QuadRing(-6)
    w6 = quad_is_prime_witness(r6, r6.element(2))
    assert w6.kind == "non_prime_witness"
    r5w = quad_is_prime_witness(R5, R5.element(2))
    assert r5w.kind == "non_prime_witness"
    assert (r5w.x, r5w.y) == (QuadInt(1, 1), QuadInt(1, -1))
    # the witness: +-2 divides x*y but neither x nor y, in every pool ring
    for d in POOL_D:
        ring = QuadRing(d)
        for two in (ring.element(2), ring.element(-2)):
            w = quad_is_prime_witness(ring, two)
            assert w.kind == "non_prime_witness"
            assert quad_divides(ring, two, ring.mul(w.x, w.y))
            assert not quad_divides(ring, two, w.x) and not quad_divides(ring, two, w.y)


@pytest.mark.parametrize("d", [-1, -5, -14])
def test_prime_witness_rejects_zero_and_units(d):
    # a unit is not prime, and zero is no candidate either
    ring = QuadRing(d)
    units = elements_of_norm(ring, 1)
    assert len(units) == (4 if d == -1 else 2)
    for z in [ring.element(0)] + units:
        with pytest.raises(ZeroOrUnit):
            quad_is_prime_witness(ring, z)


def test_power_takes_nonnegative_integer_exponents():
    z = R5.element(1, 1)
    assert R5.power(z, 0) == QuadInt(1, 0)
    assert R5.power(z, 2) == R5.mul(z, z) == QuadInt(-4, 2)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="negative power"):
            R5.power(z, n)
    with pytest.raises(TypeError):
        R5.power(z, 2.0)


def test_prime_witness_euler():
    w = quad_is_prime_witness(R14, R14.element(11))
    assert w.kind == "prime_by_euler"
    # cross-check: x^2 + 14 has no root mod 11
    assert all((x * x + 14) % 11 for x in range(11))
    w3 = quad_is_prime_witness(R14, R14.element(3))
    assert w3.kind == "unknown"
    # -14 = 1 mod 3 is a square mod 3
    assert any((x * x + 14) % 3 == 0 for x in range(3))


def test_brute_absirred():
    res2 = quad_brute_absirred(R14, R14.element(2), 3)
    assert res2.absolutely_irreducible

    root = R14.sqrt_d()
    res = quad_brute_absirred(R14, root, 2)
    assert not res.absolutely_irreducible
    assert res.n == 2
    assert sorted((z.a, z.b) for z in res.witness) == [(2, 0), (7, 0)]
    # witness remultiplies to root**2 = -14
    prod = QuadInt(1, 0)
    for z in res.witness:
        prod = R14.mul(prod, z)
    prod = R14.mul(prod, QuadInt(res.witness_sign, 0))
    assert prod == R14.power(root, 2)

    res11 = quad_brute_absirred(R14, R14.element(11), 2)
    assert res11.absolutely_irreducible
    with pytest.raises(ZeroOrUnit):
        quad_brute_absirred(R14, R14.element(4), 2)
    # no power checked is no evidence: the witness above lives at n = 2
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            quad_brute_absirred(R14, root, n_max)


def test_factorizations_remultiply():
    rng = random.Random(37)
    for _ in range(30):
        z = QuadInt(rng.randint(-7, 7), rng.randint(-2, 2))
        if R5.norm(z) <= 1:
            continue
        for sign, atoms in quad_factorizations(R5, z):
            prod = QuadInt(sign, 0)
            for w in atoms:
                prod = R5.mul(prod, w)
            assert prod == z
            assert all(quad_is_irreducible(R5, w) for w in atoms)
            assert all(w == canonical_associate(w) for w in atoms)


def test_power_factorizations_remultiply():
    for z in (R14.element(2), R14.element(3), R14.sqrt_d()):
        for n in (1, 2):
            t = R14.power(z, n)
            for sign, atoms in quad_factorizations(R14, t):
                prod = QuadInt(sign, 0)
                for w in atoms:
                    prod = R14.mul(prod, w)
                assert prod == t


def test_half_factorial_small():
    ok, counterexample = half_factorial_check(R5, 100)
    assert ok and counterexample is None


def test_not_half_factorial_detectable():
    # 18 = 2*3*3 = (2 - sqrt(-14))(2 + sqrt(-14)) gives lengths {3, 2}
    ok, z = half_factorial_check(R14, 324)
    assert not ok
    assert z == QuadInt(18, 0)
    facs = quad_factorizations(R14, z)
    assert {len(atoms) for _, atoms in facs} == {2, 3}
    for sign, atoms in facs:
        prod = QuadInt(sign, 0)
        for w in atoms:
            prod = R14.mul(prod, w)
        assert prod == z
        assert all(quad_is_irreducible(R14, w) for w in atoms)


def test_half_factorial_budget_counts_divisions():
    with pytest.raises(BudgetExceeded):
        half_factorial_check(R14, 324, budget=1)
    assert half_factorial_check(R14, 324) == (False, QuadInt(18, 0))


@pytest.mark.parametrize("max_norm", [-1, 0, 1, 2])
def test_half_factorial_below_norm_two(max_norm):
    # no nonzero nonunit has norm below 2; a negative bound once crashed in math.isqrt
    for d in (-1, -2, -5):
        assert half_factorial_check(QuadRing(d), max_norm) == (True, None)


def per_element_half_factorial_check(ring, max_norm):
    """The former scan: list every factorization of each canonical element."""
    for m in range(2, max_norm + 1):
        for z in elements_of_norm(ring, m):
            if z != canonical_associate(z):
                continue
            if len(factorization_lengths(ring, z)) != 1:
                return False, z
    return True, None


@lru_cache(maxsize=None)
def factorization_lengths(ring, z):
    """The lengths of z's factorizations, cached: the scans of one ring to
    different bounds list the same elements."""
    return frozenset(len(atoms) for _, atoms in quad_factorizations(ring, z))


@settings(max_examples=100)
@given(st.sampled_from(SQUAREFREE_D), st.integers(0, 700))
# first counterexamples off the rational line: the scan's order within a norm decides them
@example(-21, 1369)
@example(-33, 2401)
@example(-57, 5329)
def test_half_factorial_table_matches_per_element_scan(d, max_norm):
    ring = QuadRing(d)
    assert half_factorial_check(ring, max_norm) == per_element_half_factorial_check(ring, max_norm)


def class_number(disc):
    """Number of reduced primitive forms a*x^2 + b*x*y + c*y^2 of discriminant disc < 0."""
    h = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            c, r = divmod(b * b - disc, 4 * a)
            if r == 0 and c >= a and not (a == c and b < 0) and math.gcd(a, b, c) == 1:
                h += 1
        a += 1
    return h


def test_class_number_reference():
    assert [class_number(4 * d) for d in (-1, -2, -5, -6, -14, -17, -21, -26)] == [1, 1, 2, 2, 4, 4, 4, 6]


@pytest.mark.parametrize("d", [-1, -2, -5, -6, -10, -13, -14, -17, -21, -26])
def test_half_factorial_matches_carlitz(d):
    # Carlitz (1960): the ring of integers is half-factorial iff its class number is at most 2
    ring = QuadRing(d)
    ok, z = half_factorial_check(ring, (abs(d) + 16) ** 2)
    assert ok == (class_number(4 * d) <= 2)
    if not ok:
        assert len({len(atoms) for _, atoms in quad_factorizations(ring, z)}) == 2


def test_factorizations_budget_counts_divisions():
    # 18 = 2*3*3 = (2 + sqrt(-14))(2 - sqrt(-14)); the search makes 20 divisions
    t = R14.element(18)
    assert len(quad_factorizations(R14, t, budget=20)) == 2
    with pytest.raises(BudgetExceeded, match="exceeded 19 divisions"):
        quad_factorizations(R14, t, budget=19)
    with pytest.raises(BudgetExceeded):
        quad_factorizations(R14, t, budget=1)


def reference_is_irreducible(ring, z):
    """The former irreducibility test: no divisor of norm strictly between
    1 and N(z)."""
    nz = ring.norm(z)
    if nz <= 1:
        raise ZeroOrUnit("irreducibility is about nonzero nonunits")
    for m in _divisors(nz):
        if 1 < m < nz:
            for w in elements_of_norm(ring, m):
                if quad_divides(ring, w, z):
                    return False
    return True


def reference_irreducible_divisors(ring, t):
    """The former candidate list: every canonical divisor of t that passes
    the irreducibility test, sorted by (norm, a, b)."""
    nt = ring.norm(t)
    cands = []
    for m in _divisors(nt):
        if m <= 1:
            continue
        for w in elements_of_norm(ring, m):
            w = canonical_associate(w)
            if w in cands:
                continue
            if reference_is_irreducible(ring, w) and quad_divides(ring, w, t):
                cands.append(w)
    cands.sort(key=lambda z: (ring.norm(z), z.a, z.b))
    return cands


@pytest.mark.parametrize("d", POOL_D)
def test_irreducible_divisor_sieve_matches_former_list(d):
    ring = QuadRing(d)
    for m in range(2, 301):
        for z in elements_of_norm(ring, m):
            assert _irreducible_divisors(ring, z) == reference_irreducible_divisors(ring, z)
            assert quad_is_irreducible(ring, z) == reference_is_irreducible(ring, z)


@settings(max_examples=100)
@given(st.sampled_from(SQUAREFREE_D), st.integers(0, 3000))
def test_half_factorial_table_matches_per_element_scan_to_norm_3000(d, max_norm):
    ring = QuadRing(d)
    assert half_factorial_check(ring, max_norm) == per_element_half_factorial_check(ring, max_norm)


# the divisions the half-factorial scan makes on each pool ring, in POOL_D's
# order, at the benchmark's bound (|d| + 16)^2
HALF_FACTORIAL_DIVISIONS = (2048, 1036, 1069, 797, 725, 706, 303, 237, 477, 714,
                            449, 508, 248, 677, 1438, 988, 873, 1003, 459, 1000,
                            1038, 1155, 1420, 1764, 1615, 1399, 1407, 1510, 1032)


@pytest.mark.parametrize("d, divisions", zip(POOL_D, HALF_FACTORIAL_DIVISIONS))
def test_half_factorial_divisions_at_pool_bounds(d, divisions):
    ring = QuadRing(d)
    max_norm = (abs(d) + 16) ** 2
    expected = per_element_half_factorial_check(ring, max_norm)
    assert half_factorial_check(ring, max_norm, budget=divisions) == expected
    with pytest.raises(BudgetExceeded) as raised:
        half_factorial_check(ring, max_norm, budget=divisions - 1)
    assert str(raised.value) == f"half-factorial scan exceeded {divisions - 1} divisions"


def reference_brute_absirred(ring, z, n_max):
    """The listing route: every factorization of each power z**n, each
    power with its own sieve, until one is not n copies of z."""
    if not quad_is_irreducible(ring, z):
        raise ZeroOrUnit("absolute irreducibility is about irreducible elements")
    zc = canonical_associate(z)
    for n in range(1, n_max + 1):
        for sign, atoms in quad_factorizations(ring, ring.power(z, n)):
            if atoms != (zc,) * n:
                return QuadAbsirredResult(False, n, sign, atoms)
    return QuadAbsirredResult(True)


@pytest.mark.parametrize("d", POOL_D)
def test_brute_absirred_matches_per_power_sieves(d):
    # small elements, and 7 for the benchmark's input: the first irreducible
    # among 3, 2 + sqrt(d), 1 + sqrt(d), 5, 3 + sqrt(d), 7, 3 + 2 sqrt(d)
    ring = QuadRing(d)
    small = [QuadInt(a, b) for a in range(6) for b in range(-2, 3) if ring.norm(QuadInt(a, b)) > 1]
    for z in small + [QuadInt(7, 0)]:
        if not quad_is_irreducible(ring, z):
            with pytest.raises(ZeroOrUnit):
                quad_brute_absirred(ring, z, 2)
            continue
        assert quad_brute_absirred(ring, z, 3) == reference_brute_absirred(ring, z, 3)
    if d == -1:
        # 3 and 3i are both canonical, so 3 = -i * 3i reads as a second factorization
        got = quad_brute_absirred(ring, QuadInt(3, 0), 3)
        assert (got.absolutely_irreducible, got.n) == (False, 1)
    for z in (QuadInt(0, 0), QuadInt(1, 0), QuadInt(-1, 0)):
        with pytest.raises(ZeroOrUnit):
            quad_brute_absirred(ring, z, 2)


@st.composite
def pool_elements(draw, max_norm=300):
    """(ring, z): a pool ring and a nonzero nonunit z = a + b*sqrt(d) with
    a >= 0 and norm <= max_norm."""
    ring = QuadRing(draw(st.sampled_from(POOL_D)))
    absd = -ring.d
    b = draw(st.integers(-math.isqrt(max_norm // absd), math.isqrt(max_norm // absd)))
    z = QuadInt(draw(st.integers(0, math.isqrt(max_norm - absd * b * b))), b)
    assume(ring.norm(z) >= 2)
    return ring, z


@settings(max_examples=300)
@given(pool_elements(), st.integers(1, 4))
# 3 = -i * 3i in Z[i]; w = 2 comes before sqrt(-14) in sieve order, w = 1 - sqrt(-26) after 3
@example((QuadRing(-1), QuadInt(3, 0)), 1)
@example((QuadRing(-14), QuadInt(0, 1)), 2)
@example((QuadRing(-26), QuadInt(3, 0)), 4)
def test_brute_absirred_matches_factorization_listing(ring_z, n_max):
    # the divisibility scan against the listing of every factorization of each
    # power; elements that are not irreducible must be refused
    ring, z = ring_z
    if not reference_is_irreducible(ring, z):
        with pytest.raises(ZeroOrUnit):
            quad_brute_absirred(ring, z, n_max)
        return
    assert quad_brute_absirred(ring, z, n_max) == reference_brute_absirred(ring, z, n_max)
