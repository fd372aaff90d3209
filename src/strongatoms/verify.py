"""Bundled verification suite: every desk-scale example the package models.

Each check recomputes a known configuration from scratch and compares
against the frozen expectation.  The CLI's ``verify`` subcommand runs the
whole list and exits nonzero on any mismatch; details are deterministic
strings so machine reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import abgroup, ivpoly, krull, nummon, quadratic, zsm
from .abgroup import INFINITE, FinGenAbelianGroup
from .ivpoly import RatPoly
from .krull import KrullSpec
from .zsm import ClassSet


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def signed_basis_class_set(n: int, with_zero: bool = False) -> tuple[ClassSet, tuple[str, ...]]:
    """Classes {+-e_i, +-f} with f = e_1 + ... + e_n over Z^n, optionally with 0.

    Order: [0,] e1..en, -e1..-en, f, -f; labels follow the same order.
    """
    group = FinGenAbelianGroup.free(n)
    basis = [group.element(tuple(int(i == j) for j in range(n))) for i in range(n)]
    f = group.zero()
    for e in basis:
        f = f + e
    classes = basis + [-e for e in basis] + [f, -f]
    labels = ([f"e{i+1}" for i in range(n)] + [f"-e{i+1}" for i in range(n)]
              + ["f", "-f"])
    if with_zero:
        classes = [group.zero()] + classes
        labels = ["0"] + labels
    return ClassSet(group, tuple(classes)), tuple(labels)


def signed_basis_spec(n: int, with_zero: bool = False) -> KrullSpec:
    cs, _ = signed_basis_class_set(n, with_zero)
    return KrullSpec(cs, (1,) * len(cs))


def _expected_signed_basis_atoms(cs: ClassSet, n: int) -> set[tuple[int, ...]]:
    m = len(cs)

    def vec(pairs):
        v = [0] * m
        for i, e in pairs:
            v[i] = e
        return tuple(v)

    expected = set()
    for i in range(n):
        expected.add(vec([(i, 1), (n + i, 1)]))          # e_i * (-e_i)
    expected.add(vec([(2 * n, 1), (2 * n + 1, 1)]))      # f * (-f)
    expected.add(vec([(i, 1) for i in range(n)] + [(2 * n + 1, 1)]))
    expected.add(vec([(n + i, 1) for i in range(n)] + [(2 * n, 1)]))
    return expected


def check_signed_basis_atoms(n: int) -> Check:
    cs, _ = signed_basis_class_set(n)
    atoms = zsm.enumerate_atoms(cs)
    got = {a.exponents for a in atoms}
    want = _expected_signed_basis_atoms(cs, n)
    absirred = all(krull.is_absirred_support(a, atoms) for a in atoms)
    ok = got == want and len(atoms) == n + 3 and absirred
    return Check(f"signed-basis-n{n}-atoms", ok,
                 f"{len(atoms)} atoms, all absolutely irreducible: {absirred}")


def check_signed_basis_lengths(n: int) -> Check:
    cs, _ = signed_basis_class_set(n)
    atoms = zsm.enumerate_atoms(cs)
    u = [0] * len(cs)
    for i in range(n):
        u[i] = 1                      # e_1 ... e_n
    u[2 * n + 1] = 1                  # -f
    v = [0] * len(cs)
    for i in range(n):
        v[n + i] = 1                  # -e_1 ... -e_n
    v[2 * n] = 1                      # f
    uv = cs.sequence(u) * cs.sequence(v)
    lengths = zsm.length_set(uv, atoms)
    elas = zsm.length_set_elasticity(lengths)
    ok = lengths == {2, n + 1} and elas == Fraction(n + 1, 2)
    return Check(f"signed-basis-n{n}-length-set", ok,
                 f"L(UV) = {sorted(lengths)}, elasticity {elas}")


def check_scenario_rows() -> list[Check]:
    out = []
    rep1 = krull.classify_scenario(signed_basis_spec(2))
    out.append(Check("scenario-row-no-prime-spec", rep1.row_label == "(-,+,-)",
                     f"row {rep1.row_label}"))
    rep2 = krull.classify_scenario(signed_basis_spec(2, with_zero=True))
    out.append(Check("scenario-row-with-prime-spec", rep2.row_label == "(-,+,+)",
                     f"row {rep2.row_label}"))
    return out


def check_bg_small_orders(max_order: int = 10) -> Check:
    bad = []
    for n in range(1, max_order + 1):
        for group in abgroup.abelian_groups_of_order(n):
            w = krull.check_bg_all_absirred(group)
            if (w is None) != (n <= 2):
                bad.append(f"order {n}: verdict {w is None}")
                continue
            if w is not None:
                prod = w.class_set.empty_sequence()
                for s in w.factors:
                    prod = prod * s
                if prod.exponents != (w.atom ** w.power).exponents:
                    bad.append(f"order {n}: witness does not remultiply")
                for s in w.factors + (w.atom,):
                    if not zsm.is_minimal_zero_sum(s):
                        bad.append(f"order {n}: witness factor not an atom")
    return Check("all-absirred-iff-order-le-2", not bad,
                 "; ".join(bad) if bad else f"verified through order {max_order}")


def check_corollary_instance() -> list[Check]:
    g2 = FinGenAbelianGroup.cyclic(2)
    cs = ClassSet(g2, (g2.zero(), g2.element((1,))))
    spec = KrullSpec(cs, (1, 2))
    rep = krull.classify_scenario(spec)
    w = rep.nonabsirred_witness
    ok = (rep.has_nonabsirred and isinstance(w, krull.RepeatedClassWitness)
          and all(x <= 2 * y for x, y in zip(w.a_exponents, w.b_exponents))
          and w.b_power_standard != w.b_power_different)
    checks = [Check("two-divisor-class-forces-nonabsirred", ok,
                    f"row {rep.row_label}, witness a={w.a_exponents} b={w.b_exponents}"
                    if w else "no witness")]
    trivial = FinGenAbelianGroup()
    cs0 = ClassSet(trivial, (trivial.zero(),))
    rep0 = krull.classify_scenario(KrullSpec(cs0, (1,)))
    checks.append(Check("factorial-spec-row", rep0.row_label == "(-,-,+)",
                        f"row {rep0.row_label}"))
    return checks


def check_infinite_order_class_set() -> Check:
    z = FinGenAbelianGroup.free(1)
    g = z.element((1,))
    cs = ClassSet(z, (-g, -2 * g, 3 * g))
    atoms = zsm.enumerate_atoms(cs)
    got = {a.exponents for a in atoms}
    want = {(3, 0, 1), (0, 3, 2), (1, 1, 1)}   # S, S', T
    t = cs.sequence((1, 1, 1))
    s = cs.sequence((3, 0, 1))
    s2 = cs.sequence((0, 3, 2))
    lengths = zsm.length_set(s * s2, atoms)
    t_not_abs = not krull.is_absirred_support(t, atoms)
    s_abs = krull.is_absirred_support(s, atoms) and krull.is_absirred_support(s2, atoms)
    ss_is_t3 = (s * s2).exponents == (t ** 3).exponents
    ok = got == want and lengths == {2, 3} and t_not_abs and s_abs and ss_is_t3
    return Check("infinite-order-three-class-set", ok,
                 f"atoms {sorted(got)}, L(SS') = {sorted(lengths)}")


def check_interval_monoids() -> list[Check]:
    out = []
    bad = []
    for n in range(2, 7):
        m = nummon.NumericalMonoid.interval(n)
        for atom in nummon.nm_atoms(m):
            w = nummon.nm_witness_non_absirred(m, atom)
            facs = nummon.nm_factorizations(m, w.element)
            if tuple(sorted(w.copies_of_atom)) not in facs or tuple(sorted(w.copies_of_t)) not in facs:
                bad.append(f"n={n} atom {atom}")
    out.append(Check("interval-monoid-witnesses-2-6", not bad,
                     "; ".join(bad) if bad else "all atoms have verified witnesses"))
    m1 = nummon.NumericalMonoid.interval(1)
    unique = all(len(nummon.nm_factorizations(m1, x)) == 1 for x in range(1, 31))
    out.append(Check("interval-monoid-1-factorial", unique,
                     "unique factorization up to 30"))
    return out


def check_intz_witnesses() -> list[Check]:
    out = []
    x = RatPoly.x()
    f = x * (x * x + 3) * Fraction(1, 2)
    c1 = x * x * (x * x + 3) * Fraction(1, 4)
    c2 = x * x + RatPoly.constant(3)
    product_ok = (c1 * c2).coeffs == (f * f).coeffs
    iv_ok = all(ivpoly.is_integer_valued(p) for p in (f, c1, c2))
    # neither cofactor is a rational multiple of f
    not_assoc = all(not ivpoly.poly_divides(f, c) or not ivpoly.poly_divides(c, f)
                    for c in (c1, c2))
    out.append(Check("intz-nonabsirred-cubic-over-2", product_ok and iv_ok and not_assoc,
                     "f^2 splits into two integer-valued cofactors, neither associated to f"))

    cw = ivpoly.constant_residue_product_witness(2)
    out.append(Check("intz-constant-2-nonprime", cw.ok,
                     "2 | x(x-1), 2 divides neither factor"))

    w1 = ivpoly.verify_no_prime_witness(x, 2)
    w2 = ivpoly.verify_no_prime_witness(x * x + RatPoly.constant(1), 5)
    out.append(Check("intz-no-prime-witness-x-2", w1.ok, "all four clauses hold"))
    out.append(Check("intz-no-prime-witness-x2p1-5", w2.ok, "all four clauses hold"))

    vp_ok = all(ivpoly.legendre_vp_factorial(p, p * p) == p + 1 for p in (2, 3, 5))
    out.append(Check("vp-of-p-squared-factorial", vp_ok, "v_p(p^2!) = p+1 for p in {2,3,5}"))
    return out


def _rp_nonprime_element(p: int) -> tuple[RatPoly, RatPoly]:
    """(f, full residue product) with f = (x - r_1)...(x - r_p)/p."""
    num = RatPoly.of(1)
    for r in range(p):
        num = num * RatPoly.from_root(r)
    return num * Fraction(1, p), num


def _rp_nonabsirred_triple(p: int) -> tuple[RatPoly, RatPoly, RatPoly]:
    """(f, cofactor1, cofactor2) with f**2 = cofactor1 * cofactor2.

    Built from a complete residue system mod p^2 split into multiples of p
    (replaced by two congruent-to-0 points c1 != c2) and non-multiples.
    """
    e = p + 1                       # v_p(p^2!)
    b_residues = [r for r in range(p * p) if r % p != 0]
    g = RatPoly.of(1)
    for b in b_residues:
        g = g * RatPoly.from_root(b)
    c1, c2 = 0, p * p
    lin1 = RatPoly.from_root(c1)
    lin2 = RatPoly.from_root(c2)
    scale = Fraction(1, p ** e)
    f = g * lin1 * (lin2 ** (e - 1)) * scale
    cof1 = g * (lin1 ** 2) * (lin2 ** (e - 2)) * scale
    cof2 = g * (lin2 ** e) * scale
    return f, cof1, cof2


def check_rp_witnesses(p: int) -> list[Check]:
    out = []
    f, product = _rp_nonprime_element(p)
    member = ivpoly.rp_membership(f, p)
    div_prod = ivpoly.divides_in_intz(f, product)
    div_linear = any(ivpoly.divides_in_intz(f, RatPoly.from_root(r)) for r in range(p))
    out.append(Check(f"rp-{p}-absirred-candidate-nonprime",
                     member and div_prod and not div_linear,
                     "f in R(p), f divides the residue product, no linear factor"))
    f2, cof1, cof2 = _rp_nonabsirred_triple(p)
    members = all(ivpoly.rp_membership(q, p) for q in (f2, cof1, cof2))
    product_ok = (cof1 * cof2).coeffs == (f2 * f2).coeffs
    distinct = cof1.coeffs != f2.coeffs and cof2.coeffs != f2.coeffs \
        and cof1.coeffs != (-f2).coeffs and cof2.coeffs != (-f2).coeffs
    out.append(Check(f"rp-{p}-nonabsirred-square-splits",
                     members and product_ok and distinct,
                     "f^2 = c1*c2 inside R(p), essentially different from f*f"))
    return out


def check_quadratic_minus14() -> Check:
    ring = quadratic.QuadRing(-14)
    two = ring.element(2)
    root = ring.sqrt_d()
    ok = True
    parts = []
    ok &= quadratic.elements_of_norm(ring, 2) == []
    parts.append("no norm-2 elements")
    ok &= quadratic.quad_is_irreducible(ring, two)
    ok &= quadratic.quad_is_irreducible(ring, root)
    w = quadratic.quad_is_prime_witness(ring, two)
    ok &= w.kind == "non_prime_witness"
    res2 = quadratic.quad_brute_absirred(ring, two, 3)
    ok &= res2.absolutely_irreducible
    parts.append("2 absolutely irreducible to n=3")
    resr = quadratic.quad_brute_absirred(ring, root, 2)
    ok &= not resr.absolutely_irreducible and resr.witness is not None
    parts.append(f"sqrt(d) witness at n={resr.n}")
    w11 = quadratic.quad_is_prime_witness(ring, ring.element(11))
    ok &= w11.kind == "prime_by_euler"
    parts.append("11 inert")
    return Check("quadratic-d-minus-14", bool(ok), ", ".join(parts))


def check_quadratic_minus5(max_norm: int = 200) -> Check:
    ring = quadratic.QuadRing(-5)
    ok, counterexample = quadratic.half_factorial_check(ring, max_norm)
    return Check("quadratic-d-minus-5-half-factorial", ok,
                 f"equal length sets for all norms <= {max_norm}"
                 if ok else f"counterexample {counterexample}")


def check_quadratic_krull_consistency() -> Check:
    """The class-group picture of an order with one ramified even prime:
    Z/2 classes, both populated, the nontrivial one at least twice."""
    g2 = FinGenAbelianGroup.cyclic(2)
    cs = ClassSet(g2, (g2.zero(), g2.element((1,))))
    spec = KrullSpec(cs, (INFINITE, 2))
    rep = krull.classify_scenario(spec)
    return Check("quadratic-scenario-consistency", rep.row_label == "(+,+,+)",
                 f"row {rep.row_label}")


def run_bundled_suite() -> list[Check]:
    checks: list[Check] = []
    for n in (2, 3, 4):
        checks.append(check_signed_basis_atoms(n))
        checks.append(check_signed_basis_lengths(n))
    checks.extend(check_scenario_rows())
    checks.append(check_bg_small_orders())
    checks.extend(check_corollary_instance())
    checks.append(check_infinite_order_class_set())
    checks.extend(check_interval_monoids())
    checks.extend(check_intz_witnesses())
    for p in (2, 3):
        checks.extend(check_rp_witnesses(p))
    checks.append(check_quadratic_minus14())
    checks.append(check_quadratic_minus5())
    checks.append(check_quadratic_krull_consistency())
    return checks
