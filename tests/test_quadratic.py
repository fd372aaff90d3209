import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from strongatoms import quadratic
from strongatoms.abgroup import DEFAULT_NODE_BUDGET
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
            lengths = {len(atoms) for _, atoms in quad_factorizations(ring, z)}
            if len(lengths) != 1:
                return False, z
    return True, None


SQUAREFREE_D = [-k for k in range(1, 131)
                if -k % 4 in (2, 3) and all(k % (p * p) for p in range(2, 12))]


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


# the rings of the benchmark's quadratic queries: d = -1..-70, squarefree, d = 2, 3 mod 4
POOL_D = [d for d in SQUAREFREE_D if d >= -70]


@pytest.mark.parametrize("d", POOL_D)
def test_irreducible_divisor_sieve_matches_former_list(d):
    ring = QuadRing(d)
    for m in range(2, 301):
        for z in elements_of_norm(ring, m):
            assert _irreducible_divisors(ring, z) == reference_irreducible_divisors(ring, z)
            assert quad_is_irreducible(ring, z) == reference_is_irreducible(ring, z)


@pytest.mark.parametrize("d", POOL_D)
def test_brute_absirred_matches_former_list(d, monkeypatch):
    ring = QuadRing(d)
    # the benchmark's input: the first irreducible among a few small elements
    z = next(z for z in (QuadInt(3, 0), QuadInt(2, 1), QuadInt(1, 1), QuadInt(5, 0),
                         QuadInt(3, 1), QuadInt(7, 0), QuadInt(3, 2))
             if reference_is_irreducible(ring, z))
    got = quad_brute_absirred(ring, z, 3)
    with monkeypatch.context() as patched:
        patched.setattr(quadratic, "_irreducible_divisors", reference_irreducible_divisors)
        patched.setattr(quadratic, "quad_is_irreducible", reference_is_irreducible)
        assert quad_brute_absirred(ring, z, 3) == got
    if d == -1:
        # 3 and 3i are both canonical, so 3 = -i * 3i reads as a second factorization
        assert (got.absolutely_irreducible, got.n) == (False, 1)


def reference_half_factorial_check(ring, max_norm, *, budget=DEFAULT_NODE_BUDGET):
    """The former scan on QuadInt elements, dict-keyed tables and one exact
    division per candidate; returns its result and the divisions it made."""
    absd = -ring.d
    by_norm = {}
    for a in range(math.isqrt(max(max_norm, 0)) + 1):
        bmax = math.isqrt((max_norm - a * a) // absd)
        for b in range(1 if a == 0 else -bmax, bmax + 1):
            n = a * a + absd * b * b
            if n >= 2:
                by_norm.setdefault(n, []).append(QuadInt(a, b))
    lengths = {}
    # divisor_norms[n]: the norms of irreducibles found so far that properly divide n
    divisor_norms = {n: [] for n in by_norm}
    irreducibles = {}
    divisions = 0
    for n in sorted(by_norm):
        for z in by_norm[n]:
            mask = 0
            for m in divisor_norms[n]:
                for w in irreducibles[m]:
                    divisions += 1
                    if divisions > budget:
                        raise BudgetExceeded(f"half-factorial scan exceeded {budget} divisions")
                    q = ring.exact_divide(z, w)
                    if q is not None:
                        mask |= lengths[canonical_associate(q)] << 1
            if not mask:
                mask = 0b10
                irreducibles.setdefault(n, []).append(z)
            elif mask & (mask - 1):
                return (False, z), divisions
            lengths[z] = mask
        if n in irreducibles:
            for multiple in range(2 * n, max_norm + 1, n):
                if multiple in divisor_norms:
                    divisor_norms[multiple].append(n)
    return (True, None), divisions


def with_pool_bounds(test):
    """Add an example for every pool ring at the benchmark's bound (|d| + 16)^2."""
    for d in POOL_D:
        test = example(d, (abs(d) + 16) ** 2)(test)
    return test


@settings(max_examples=100)
@given(st.sampled_from(SQUAREFREE_D), st.integers(0, 3000))
@with_pool_bounds
@example(-21, 1369)
@example(-33, 2401)
@example(-57, 5329)
def test_half_factorial_matches_quadint_reference(d, max_norm):
    ring = QuadRing(d)
    expected, least = reference_half_factorial_check(ring, max_norm)
    assert half_factorial_check(ring, max_norm) == expected
    # the same divisions in the same order: both pass at `least` and raise just below it
    assert half_factorial_check(ring, max_norm, budget=least) == expected
    assert reference_half_factorial_check(ring, max_norm, budget=least)[0] == expected
    if least:
        message = f"half-factorial scan exceeded {least - 1} divisions"
        with pytest.raises(BudgetExceeded, match=message):
            half_factorial_check(ring, max_norm, budget=least - 1)
        with pytest.raises(BudgetExceeded, match=message):
            reference_half_factorial_check(ring, max_norm, budget=least - 1)


def reference_brute_absirred(ring, z, n_max, *, budget=DEFAULT_NODE_BUDGET):
    """The former route: a sieve for z, and one more for each power z**n."""
    if not quad_is_irreducible(ring, z):
        raise ZeroOrUnit("absolute irreducibility is about irreducible elements")
    zc = canonical_associate(z)
    for n in range(1, n_max + 1):
        for sign, atoms in quad_factorizations(ring, ring.power(z, n), budget=budget):
            if atoms != (zc,) * n:
                return QuadAbsirredResult(False, n, sign, atoms)
    return QuadAbsirredResult(True)


def least_budget(check):
    """The least budget at which check(budget) does not raise BudgetExceeded."""
    def passes(budget):
        try:
            check(budget)
        except BudgetExceeded:
            return False
        return True
    hi = 1
    while not passes(hi):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid + 1, hi)
    return lo


@pytest.mark.parametrize("d", POOL_D)
def test_brute_absirred_matches_per_power_sieves(d, monkeypatch):
    ring = QuadRing(d)
    small = [QuadInt(a, b) for a in range(6) for b in range(-2, 3) if ring.norm(QuadInt(a, b)) > 1]
    for z in small:
        if not quad_is_irreducible(ring, z):
            with pytest.raises(ZeroOrUnit):
                quad_brute_absirred(ring, z, 2)
            continue
        assert quad_brute_absirred(ring, z, 3) == reference_brute_absirred(ring, z, 3)
    for z in (QuadInt(0, 0), QuadInt(1, 0), QuadInt(-1, 0)):
        with pytest.raises(ZeroOrUnit):
            quad_brute_absirred(ring, z, 2)
    # the benchmark's input: both need the same least budget
    z = next(z for z in (QuadInt(3, 0), QuadInt(2, 1), QuadInt(1, 1), QuadInt(5, 0),
                         QuadInt(3, 1), QuadInt(7, 0), QuadInt(3, 2))
             if quad_is_irreducible(ring, z))
    searched = []
    search = quadratic._factorizations
    with monkeypatch.context() as patched:
        patched.setattr(quadratic, "_factorizations",
                        lambda *args: searched.append(args[1:3]) or search(*args))
        quad_brute_absirred(ring, z, 3)
    # each power is searched over its own irreducible divisors, in sieve order
    assert searched and all(cands == _irreducible_divisors(ring, t) for t, cands in searched)
    least = least_budget(lambda budget: quad_brute_absirred(ring, z, 3, budget=budget))
    assert reference_brute_absirred(ring, z, 3, budget=least) == quad_brute_absirred(ring, z, 3)
    with pytest.raises(BudgetExceeded, match=f"exceeded {least - 1} divisions"):
        reference_brute_absirred(ring, z, 3, budget=least - 1)
