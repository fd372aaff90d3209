"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so value checks are exact equality; each criterion
also carries the stated wall-clock budget.
"""

import json
import time
from fractions import Fraction
from itertools import combinations

from strongatoms.abgroup import FinGenAbelianGroup, abelian_groups_of_order
from strongatoms.cli import main
from strongatoms.ivpoly import (
    RatPoly,
    divides_in_intz,
    is_integer_valued,
    legendre_vp_factorial,
    verify_no_prime_witness,
)
from strongatoms.krull import (
    KrullSpec,
    RepeatedClassWitness,
    check_bg_all_absirred,
    classify_scenario,
    is_absirred_kernel,
    is_absirred_support,
    witness_non_absirred,
)
from strongatoms.nummon import (
    NumericalMonoid,
    nm_atoms,
    nm_factorizations,
    nm_witness_non_absirred,
)
from strongatoms.quadratic import (
    QuadInt,
    QuadRing,
    elements_of_norm,
    half_factorial_check,
    quad_brute_absirred,
    quad_is_irreducible,
    quad_is_prime_witness,
)
from strongatoms.verify import signed_basis_class_set, signed_basis_spec
from strongatoms.zsm import ClassSet, elasticity, enumerate_atoms, length_set

from conftest import atom_product
from factorization_search import search_power_absirred


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(number, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget


def expected_signed_basis_atoms(n):
    """The atom list: e_i(-e_i), f(-f), e_1..e_n(-f), (-e_1)..(-e_n)f."""
    m = 2 * n + 2
    out = set()
    for i in range(n):
        v = [0] * m
        v[i] = v[n + i] = 1
        out.add(tuple(v))
    v = [0] * m
    v[2 * n] = v[2 * n + 1] = 1
    out.add(tuple(v))
    v = [0] * m
    for i in range(n):
        v[i] = 1
    v[2 * n + 1] = 1
    out.add(tuple(v))
    v = [0] * m
    for i in range(n):
        v[n + i] = 1
    v[2 * n] = 1
    out.add(tuple(v))
    return out


def test_criterion_1_signed_basis_atoms():
    ok = True
    worst = 0.0
    for n in (2, 3, 4):
        with Timer() as t:
            cs, _ = signed_basis_class_set(n)
            atoms = enumerate_atoms(cs)
            got = {a.exponents for a in atoms}
            ok &= (len(atoms) == n + 3) and got == expected_signed_basis_atoms(n)
        worst = max(worst, t.elapsed)
    report(1, ok, worst, 1)


def test_criterion_2_length_sets_and_rows():
    ok = True
    worst = 0.0
    for n in (2, 3, 4):
        with Timer() as t:
            cs, _ = signed_basis_class_set(n)
            atoms = enumerate_atoms(cs)
            uv = [0] * (2 * n + 2)
            for i in range(2 * n + 2):
                uv[i] = 1
            seq = cs.sequence(uv)
            ok &= length_set(seq, atoms) == {2, n + 1}
            ok &= elasticity(seq, atoms) == Fraction(n + 1, 2)
        worst = max(worst, t.elapsed)
    with Timer() as t:
        ok &= classify_scenario(signed_basis_spec(2)).row_label == "(-,+,-)"
        ok &= classify_scenario(signed_basis_spec(2, with_zero=True)).row_label == "(-,+,+)"
    worst = max(worst, t.elapsed)
    report(2, ok, worst, 1)


def test_criterion_3_bg_all_absirred_small_orders():
    ok = True
    with Timer() as t:
        for n in range(1, 11):
            for group in abelian_groups_of_order(n):
                w = check_bg_all_absirred(group)
                ok &= (w is None) == (n <= 2)
                if w is not None:
                    prod = w.class_set.empty_sequence()
                    for s in w.factors:
                        prod = prod * s
                    ok &= prod.exponents == (w.atom ** w.power).exponents
    report(3, ok, t.elapsed, 5)


def test_criterion_4_criterion_agreement_suite():
    ok = True
    with Timer() as t:
        for order_n in range(1, 9):
            for group in abelian_groups_of_order(order_n):
                elems = list(group.elements())
                for r in range(1, len(elems) + 1):
                    for combo in combinations(elems, r):
                        cs = ClassSet(group, combo)
                        atoms = enumerate_atoms(cs)
                        vectors = [a.exponents for a in atoms]
                        for u in atoms:
                            by_support = is_absirred_support(u, atoms)
                            by_kernel = is_absirred_kernel(group, u.support())
                            w = witness_non_absirred(u, atoms)
                            ok &= by_support == by_kernel == (w is None)
                            if by_support:
                                # a necessary condition, by factorization
                                # search: u^1..u^4 factor only as powers of u
                                ok &= search_power_absirred(u.exponents, vectors, 4)
                            else:
                                p1 = atom_product(atoms, w.standard)
                                p2 = atom_product(atoms, w.different)
                                ok &= p1 == p2 == (u ** w.n).exponents
                                ok &= w.standard != w.different
                            if not ok:
                                report(4, False, t.elapsed, 60)
    report(4, ok, t.elapsed, 60)


def test_criterion_5_corollary_instance():
    with Timer() as t:
        c2 = FinGenAbelianGroup.cyclic(2)
        cs = ClassSet(c2, (c2.zero(), c2.element((1,))))
        rep = classify_scenario(KrullSpec(cs, (1, 2)))
        ok = rep.has_nonabsirred
        w = rep.nonabsirred_witness
        ok &= isinstance(w, RepeatedClassWitness)
        ok &= all(a <= 2 * b for a, b in zip(w.a_exponents, w.b_exponents))
        ok &= w.b_power_standard != w.b_power_different
        b2 = tuple(2 * e for e in w.b_exponents)
        for fac in (w.b_power_standard, w.b_power_different):
            total = [0] * len(b2)
            for vec in fac:
                total = [x + y for x, y in zip(total, vec)]
            ok &= tuple(total) == b2

        trivial = FinGenAbelianGroup()
        cs0 = ClassSet(trivial, (trivial.zero(),))
        ok &= classify_scenario(KrullSpec(cs0, (1,))).row_label == "(-,-,+)"
    report(5, ok, t.elapsed, 5)


def test_criterion_6_numerical_monoids():
    with Timer() as t:
        ok = True
        for n in range(2, 9):
            m = NumericalMonoid.interval(n)
            for atom in nm_atoms(m):
                w = nm_witness_non_absirred(m, atom)
                ok &= sum(w.copies_of_atom) == sum(w.copies_of_t) == w.element
                facs = nm_factorizations(m, w.element)
                ok &= tuple(sorted(w.copies_of_atom)) in facs
                ok &= tuple(sorted(w.copies_of_t)) in facs
        m1 = NumericalMonoid.interval(1)
        ok &= all(nm_factorizations(m1, x) == [(1,) * x] for x in range(1, 31))
    report(6, ok, t.elapsed, 1)


def test_criterion_7_integer_valued_polynomials():
    with Timer() as t:
        x = RatPoly.x()
        f = x * (x * x + RatPoly.constant(3)) * Fraction(1, 2)
        c1 = x * x * (x * x + RatPoly.constant(3)) * Fraction(1, 4)
        c2 = x * x + RatPoly.constant(3)
        ok = is_integer_valued(f)
        ok &= (c1 * c2).coeffs == (f * f).coeffs
        ok &= is_integer_valued(c1) and is_integer_valued(c2)

        two = RatPoly.constant(2)
        ok &= divides_in_intz(two, x * (x - RatPoly.constant(1)))
        ok &= not divides_in_intz(two, x)
        ok &= not divides_in_intz(two, x - RatPoly.constant(1))

        ok &= verify_no_prime_witness(x, 2).ok
        ok &= verify_no_prime_witness(x * x + RatPoly.constant(1), 5).ok

        ok &= all(legendre_vp_factorial(p, p * p) == p + 1 for p in (2, 3, 5))
    report(7, ok, t.elapsed, 1)


def test_criterion_8_quadratic_minus_14():
    with Timer() as t:
        ring = QuadRing(-14)
        two = ring.element(2)
        root = ring.sqrt_d()
        ok = elements_of_norm(ring, 2) == []
        ok &= quad_is_irreducible(ring, two)
        w = quad_is_prime_witness(ring, two)
        ok &= w.kind == "non_prime_witness" and w.x == QuadInt(0, 1)
        ok &= quad_brute_absirred(ring, two, 3).absolutely_irreducible
        res = quad_brute_absirred(ring, root, 2)
        ok &= not res.absolutely_irreducible and res.witness is not None
        ok &= quad_is_prime_witness(ring, ring.element(11)).kind == "prime_by_euler"
    report(8, ok, t.elapsed, 10)


def test_criterion_9_quadratic_minus_5_half_factorial():
    with Timer() as t:
        ok, counterexample = half_factorial_check(QuadRing(-5), 200)
        ok = ok and counterexample is None
    report(9, ok, t.elapsed, 30)


def test_criterion_10_verify_determinism(capsys):
    with Timer() as t:
        code1 = main(["verify", "--machine"])
        out1 = capsys.readouterr().out
        code2 = main(["verify", "--machine"])
        out2 = capsys.readouterr().out
        ok = code1 == 0 and code2 == 0 and out1 == out2
        payload = json.loads(out1)
        ok &= payload["status"] == "ok" and payload["results"]["failed"] == 0
    with capsys.disabled():
        print()
        report(10, ok, t.elapsed, 30)
