import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from strongatoms.abgroup import (
    INFINITE,
    FinGenAbelianGroup,
    abelian_groups_of_order,
    kernel_lattice,
    positive_kernel_vector,
)
from strongatoms.errors import AtomNotInSet, BudgetExceeded
from strongatoms.krull import (
    KrullSpec,
    RepeatedClassWitness,
    all_irreducibles_absirred,
    angermueller_check,
    brute_force_absirred,
    check_bg_all_absirred,
    classify_scenario,
    exists_absirred_nonprime,
    has_prime_element,
    is_absirred_kernel,
    is_absirred_support,
    repeated_class_witness,
    witness_non_absirred,
)
from strongatoms.zsm import (
    AtomSet,
    ClassSet,
    enumerate_atoms,
    is_minimal_zero_sum,
    minimal_zero_sum_vectors,
    vector_factorizations,
)

from absirred_search_before_elimination import (
    exists_absirred_nonprime_before_elimination,
    is_absirred_kernel_before_elimination,
)
from conftest import atom_product, small_families
from factorization_search import next_index_vector_factorizations, search_power_absirred
from rational_relations_before import rational_relations

C2 = FinGenAbelianGroup.cyclic(2)
C3 = FinGenAbelianGroup.cyclic(3)
Z1 = FinGenAbelianGroup.free(1)


def signed_basis_spec(n, with_zero=False):
    group = FinGenAbelianGroup.free(n)
    basis = [group.element([int(i == j) for j in range(n)]) for i in range(n)]
    f = basis[0]
    for e in basis[1:]:
        f = f + e
    classes = basis + [-e for e in basis] + [f, -f]
    if with_zero:
        classes = [group.zero()] + classes
    cs = ClassSet(group, tuple(classes))
    return KrullSpec(cs, (1,) * len(classes))


def c3_full():
    cs = ClassSet(C3, (C3.element((1,)), C3.element((2,))))
    return cs, enumerate_atoms(cs)


# ---------------------------------------------------------------------------
# single-atom criteria


def test_is_absirred_support_examples():
    spec = signed_basis_spec(2)
    atoms = enumerate_atoms(spec.class_set)
    u = spec.class_set.sequence((1, 1, 0, 0, 0, 1))
    assert is_absirred_support(u, atoms)

    cs3, atoms3 = c3_full()
    assert not is_absirred_support(cs3.sequence((1, 1)), atoms3)

    g = Z1.element((1,))
    cs1 = ClassSet(Z1, (g, -g))
    atoms1 = enumerate_atoms(cs1)
    assert is_absirred_support(cs1.sequence((1, 1)), atoms1)

    with pytest.raises(AtomNotInSet):
        is_absirred_support(cs3.sequence((2, 2)), atoms3)


def test_is_absirred_kernel_examples():
    z2 = FinGenAbelianGroup.free(2)
    e1, e2 = z2.element((1, 0)), z2.element((0, 1))
    assert is_absirred_kernel(z2, [e1, e2, -(e1 + e2)])
    assert is_absirred_kernel(C2, [C2.element((1,))])
    # {g} alone is already Z-dependent in Z/3, so the pair fails
    assert not is_absirred_kernel(C3, [C3.element((1,)), C3.element((2,))])


def test_is_absirred_kernel_mixed_sign_families():
    # the former route (completion search plus Smith normal forms) exceeded
    # its node budget on the first family and did not finish the permuted
    # image of the second in 290 s
    g = FinGenAbelianGroup(3, (6,))
    family = [g.element(c) for c in ((2, 3, -3, 1), (2, -2, -1, 5), (-1, -3, 3, 2),
                                     (-2, 0, 2, 5), (3, -3, 0, 0))]
    assert not is_absirred_kernel(g, family)

    rows = [[10, 21, -38, -5, 5, -10], [28, 31, -24, 20, 11, 6],
            [16, -17, -43, 20, -49, -39], [42, 1, 40, 50, 35, 30],
            [-50, 28, 13, -8, -19, 43]]
    z5 = FinGenAbelianGroup.free(5)
    family = [z5.element(col) for col in zip(*rows)]
    relation = (4085124, -2941318, -1786461, -3832774, -2078712, 5573939)
    assert rational_relations(z5, family) in ([relation], [tuple(-x for x in relation)])
    assert not is_absirred_kernel(z5, family)

    row_perm, col_perm = (3, 0, 4, 2, 1), (5, 2, 0, 4, 1, 3)
    image_rows = [[-rows[i][j] for j in col_perm] for i in row_perm]
    image = [z5.element(col) for col in zip(*image_rows)]
    permuted = tuple(relation[j] for j in col_perm)
    assert rational_relations(z5, image) in ([permuted], [tuple(-x for x in permuted)])
    assert not is_absirred_kernel(z5, image)


def snf_kernel_criterion(group, family):
    """The criterion decided as it first was: a nonnegative relation from
    positive_kernel_vector, and an empty kernel lattice for each subfamily
    omitting one member."""
    if positive_kernel_vector(group, family) is None:
        return False
    subs = (family[:i] + family[i + 1:] for i in range(len(family)))
    return not any(sub and kernel_lattice(group, sub) for sub in subs)


@settings(max_examples=300)
@given(small_families())
def test_is_absirred_kernel_matches_snf_route(case):
    group, family = case
    assert is_absirred_kernel(group, family) == snf_kernel_criterion(group, family)


def test_witness_non_absirred_examples():
    cs3, atoms3 = c3_full()
    t = cs3.sequence((1, 1))
    w = witness_non_absirred(t, atoms3)
    assert w is not None and w.n == 3
    assert atom_product(atoms3, w.standard) == (t ** 3).exponents
    assert atom_product(atoms3, w.different) == (t ** 3).exponents
    assert w.standard == (atoms3.index(t),) * 3
    assert w.different == tuple(sorted(w.different)) != w.standard

    g22 = FinGenAbelianGroup(0, (2, 2))
    nonzero = tuple(g for g in g22.elements() if not g.is_zero())
    cs22 = ClassSet(g22, nonzero)
    atoms22 = enumerate_atoms(cs22)
    t22 = cs22.sequence((1, 1, 1))
    w22 = witness_non_absirred(t22, atoms22)
    assert w22 is not None and w22.n == 2
    assert sorted(len(atoms22[i]) for i in w22.different) == [2, 2, 2]

    spec = signed_basis_spec(2)
    atoms = enumerate_atoms(spec.class_set)
    assert witness_non_absirred(spec.class_set.sequence((1, 1, 0, 0, 0, 1)), atoms) is None


def test_brute_force_absirred_examples():
    spec = signed_basis_spec(2)
    atoms = enumerate_atoms(spec.class_set)
    f_minus_f = spec.class_set.sequence((0, 0, 0, 0, 1, 1))
    assert brute_force_absirred(f_minus_f, atoms, 4)

    # g * 2g: its first power with a second factorization is the cube,
    # g^3 * (2g)^3, so the check holds up to 2 and fails from 3 on
    cs3, atoms3 = c3_full()
    t = cs3.sequence((1, 1))
    assert witness_non_absirred(t, atoms3).n == 3
    assert brute_force_absirred(t, atoms3, 2)
    assert not brute_force_absirred(t, atoms3, 3)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        brute_force_absirred(t, atoms3, 0)

    c2full = ClassSet(C2, (C2.zero(), C2.element((1,))))
    atoms2 = enumerate_atoms(c2full)
    assert brute_force_absirred(c2full.sequence((1, 0)), atoms2, 5)


POWER_CHECK_GROUPS = (*(FinGenAbelianGroup.cyclic(n) for n in range(2, 9)),
                      FinGenAbelianGroup(0, (2, 2)), FinGenAbelianGroup(0, (2, 4)),
                      FinGenAbelianGroup(0, (3, 3)), Z1, FinGenAbelianGroup(1, (2,)))


@st.composite
def small_class_sets(draw):
    """1-5 distinct classes of a finite group of order at most 9, or of Z or
    Z + Z/2 with free coordinate in [-3, 3]."""
    group = draw(st.sampled_from(POWER_CHECK_GROUPS))
    if group.is_finite:
        elems = list(group.elements())
    else:
        elems = [group.element(c)
                 for c in product(range(-3, 4), *(range(d) for d in group.torsion))]
    classes = draw(st.lists(st.sampled_from(elems), min_size=1, max_size=5,
                            unique_by=lambda g: g.coords()))
    return ClassSet(group, tuple(classes))


@settings(max_examples=150)
@given(small_class_sets())
def test_power_check_and_witness_match_factorization_search(cs):
    # the divisibility check against a search for a second factorization of
    # each power, and the greedy cofactor against the search's first
    # factorization; each witness is computed on a set without the support
    # sweep and again on a copy whose sweep is built first
    atoms = enumerate_atoms(cs)
    swept = AtomSet(cs, atoms.atoms, atoms.certificate)
    assert len(swept.support_minimal) == len(atoms)
    vectors = [a.exponents for a in atoms]
    for iu, u in enumerate(atoms):
        for k in range(1, 5):
            assert (brute_force_absirred(u, atoms, k)
                    == search_power_absirred(u.exponents, vectors, k))
        w = witness_non_absirred(u, atoms)
        assert witness_non_absirred(u, swept) == w
        if w is not None:
            iv = atoms.atom_within_support(iu)
            cofactor = (u ** w.n / atoms[iv]).exponents
            first = next_index_vector_factorizations(cofactor, vectors, 1)
            assert w.standard == (iu,) * w.n
            assert w.different == tuple(sorted((iv,) + first[0]))
    assert "support_minimal" not in vars(atoms)


# ---------------------------------------------------------------------------
# all-atoms criteria


def test_all_irreducibles_absirred_examples():
    rep = all_irreducibles_absirred(signed_basis_spec(2))
    assert rep.holds

    cs = ClassSet(C2, (C2.element((1,)),))
    rep2 = all_irreducibles_absirred(KrullSpec(cs, (2,)))
    assert not rep2.holds
    assert rep2.failed_condition == "repeated-class-multiplicity"
    assert rep2.failing_atom.exponents == (2,)

    cs3 = ClassSet(C2, (C2.zero(), C2.element((1,))))
    assert all_irreducibles_absirred(KrullSpec(cs3, (1, 1))).holds


def test_check_bg_all_absirred_small_orders():
    for n in range(1, 11):
        for group in abelian_groups_of_order(n):
            w = check_bg_all_absirred(group)
            assert (w is None) == (n <= 2)
            if w is not None:
                prod = w.class_set.empty_sequence()
                for s in w.factors:
                    prod = prod * s
                assert prod.exponents == (w.atom ** w.power).exponents
                for s in w.factors + (w.atom,):
                    assert is_minimal_zero_sum(s)


def test_check_bg_witness_shapes():
    w3 = check_bg_all_absirred(C3)
    assert w3.power == 3
    assert [s.exponents for s in w3.factors] == [(3, 0), (0, 3)]
    w22 = check_bg_all_absirred(FinGenAbelianGroup(0, (2, 2)))
    assert w22.power == 2
    assert len(w22.factors) == 3
    with pytest.raises(ValueError):
        check_bg_all_absirred(Z1)


def test_has_prime_element():
    assert not has_prime_element(signed_basis_spec(2))
    assert has_prime_element(signed_basis_spec(2, with_zero=True))
    trivial = FinGenAbelianGroup()
    cs = ClassSet(trivial, (trivial.zero(),))
    assert has_prime_element(KrullSpec(cs, (1,)))


def test_exists_absirred_nonprime():
    search = exists_absirred_nonprime(signed_basis_spec(2), 3)
    assert search.found and not search.exhaustive
    witness_family = [signed_basis_spec(2).class_set.classes[i] for i in search.witness]
    assert is_absirred_kernel(FinGenAbelianGroup.free(2), witness_family)

    cs = ClassSet(C2, (C2.zero(), C2.element((1,))))
    search2 = exists_absirred_nonprime(KrullSpec(cs, (1, 2)), 2)
    assert search2.found
    assert [cs.classes[i].coords() for i in search2.witness] == [(1,)]

    trivial = FinGenAbelianGroup()
    cs0 = ClassSet(trivial, (trivial.zero(),))
    search3 = exists_absirred_nonprime(KrullSpec(cs0, (1,)), 3)
    assert not search3.found and search3.exhaustive


def torsion_cone_spec():
    """Z^2 + Z/2 with the zero class and four classes in the positive
    quadrant, so no family meets the kernel criterion."""
    group = FinGenAbelianGroup(2, (2,))
    coords = ((0, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 0))
    cs = ClassSet(group, tuple(group.element(c) for c in coords))
    return KrullSpec(cs, (INFINITE, 1, 2, INFINITE, 1))


@pytest.mark.parametrize("spec, free_rank, families, found", [
    (signed_basis_spec(2), 2, 12, True),
    (signed_basis_spec(3), 3, 27, True),
    (torsion_cone_spec(), 2, 20, False)])
def test_absirred_search_family_count(spec, free_rank, families, found):
    # the budget counts the extensions tried; only independent families are
    # extended, so every bound from free_rank + 1 on tries the same families
    # and only ``exhaustive`` tells the bounds apart
    total = sum(spec.capped_mult())
    assert total > free_rank + 1
    for bound in (free_rank + 1, total):
        with pytest.raises(BudgetExceeded, match=f"absirred-nonprime search exceeded "
                                                 f"{families - 1} families at size"):
            exists_absirred_nonprime(spec, bound, budget=families - 1)
        search = exists_absirred_nonprime(spec, bound, budget=families)
        assert search.found == found
        assert search.exhaustive == (bound == total)


def test_absirred_search_budget_reaches_the_classifier():
    with pytest.raises(BudgetExceeded, match="absirred-nonprime search exceeded 5 "
                                             "families at size 3"):
        classify_scenario(signed_basis_spec(2), 3, budget=5)
    with pytest.raises(BudgetExceeded, match="absirred-nonprime"):
        angermueller_check(signed_basis_spec(2), 3, budget=5)


@st.composite
def krull_specs(draw):
    """(spec, bound): free rank 0-5, a small torsion part, 1-8 distinct
    classes with multiplicities 1, 2, 3 or INFINITE, bound 1-6."""
    group = FinGenAbelianGroup(draw(st.integers(0, 5)),
                               draw(st.sampled_from(((), (2,), (3,), (2, 2), (4,)))))
    coords = st.tuples(*[st.integers(-2, 2)] * group.free_rank,
                       *[st.integers(0, d - 1) for d in group.torsion])
    classes = draw(st.lists(coords, min_size=1, max_size=8, unique=True))
    mult = draw(st.lists(st.sampled_from((1, 2, 3, INFINITE)),
                         min_size=len(classes), max_size=len(classes)))
    cs = ClassSet(group, tuple(group.element(c) for c in classes))
    return KrullSpec(cs, tuple(mult)), draw(st.integers(1, 6))


@settings(max_examples=400)
@given(krull_specs())
def test_absirred_search_matches_search_before_elimination(case):
    spec, bound = case
    assert (exists_absirred_nonprime(spec, bound)
            == exists_absirred_nonprime_before_elimination(spec, bound))


@settings(max_examples=400)
@given(small_families(max_members=7, amp=3, torsions=((), (2,), (3,), (2, 2), (4,))))
def test_is_absirred_kernel_matches_relations_route(case):
    group, family = case
    assert (is_absirred_kernel(group, family)
            == is_absirred_kernel_before_elimination(group, family))


def test_classify_scenarios():
    assert classify_scenario(signed_basis_spec(2)).row_label == "(-,+,-)"
    assert classify_scenario(signed_basis_spec(2, with_zero=True)).row_label == "(-,+,+)"

    cs = ClassSet(C2, (C2.zero(), C2.element((1,))))
    rep = classify_scenario(KrullSpec(cs, (1, 2)))
    assert rep.row_label == "(+,+,+)"
    assert isinstance(rep.nonabsirred_witness, RepeatedClassWitness)

    # same row with infinitely many divisors in the trivial class
    rep_inf = classify_scenario(KrullSpec(cs, (INFINITE, 2)))
    assert rep_inf.row_label == "(+,+,+)"

    trivial = FinGenAbelianGroup()
    cs0 = ClassSet(trivial, (trivial.zero(),))
    assert classify_scenario(KrullSpec(cs0, (1,))).row_label == "(-,-,+)"


def test_classify_undecided_within_bounds():
    # bound 1 cannot see the two-element witness families of the free spec
    rep = classify_scenario(signed_basis_spec(2), 1)
    assert rep.has_absirred_nonprime is None
    assert rep.row_label == "(-,?,-)"


def test_repeated_class_witness_verifies():
    cs = ClassSet(C2, (C2.zero(), C2.element((1,))))
    spec = KrullSpec(cs, (1, 2))
    rep = all_irreducibles_absirred(spec)
    w = repeated_class_witness(spec, rep.failing_atom, rep.failing_class_index)
    assert w.n == 2
    assert w.a_exponents == (2, 0) and w.b_exponents == (1, 1)
    assert all(a <= 2 * b for a, b in zip(w.a_exponents, w.b_exponents))
    assert w.b_power_standard != w.b_power_different
    # both factorizations re-multiply to b**2 componentwise
    b2 = tuple(2 * e for e in w.b_exponents)
    for fac in (w.b_power_standard, w.b_power_different):
        total = [0] * len(b2)
        for vec in fac:
            total = [x + y for x, y in zip(total, vec)]
        assert tuple(total) == b2


def searched_b_square_factorizations(spec, atom, class_index):
    """The symbol atoms of a repeated-class witness found by search, and every
    factorization of b**2 over them, each as a tuple of exponent vectors."""
    g = spec.class_set.classes[class_index]
    others = [i for i, e in enumerate(atom.exponents) if e and i != class_index]
    values = [g, g] + [spec.class_set.classes[i] for i in others]
    symbol_atoms = minimal_zero_sum_vectors(spec.group, values)
    rest = tuple(atom.exponents[i] for i in others)
    b_sq = (2 * atom.exponents[class_index] - 2, 2) + tuple(2 * e for e in rest)
    facs = vector_factorizations(b_sq, symbol_atoms)
    return symbol_atoms, [tuple(symbol_atoms[i] for i in f) for f in facs]


def test_repeated_class_witness_matches_symbol_level_search():
    # every atom of minimal support repeating a class, over groups of order
    # at most 6 and up to three classes: the constructed a, b, a' are symbol
    # atoms, and b**2 has exactly the factorizations b*b and a'*a
    checked = 0
    for n in range(2, 7):
        for group in abelian_groups_of_order(n):
            for r in range(1, 4):
                for combo in combinations(list(group.elements()), r):
                    cs = ClassSet(group, combo)
                    spec = KrullSpec(cs, (2,) * r)
                    atoms = enumerate_atoms(cs)
                    for i, u in enumerate(atoms):
                        if atoms.atom_within_support(i) is not None:
                            continue
                        for j in (j for j, e in enumerate(u.exponents) if e > 1):
                            w = repeated_class_witness(spec, u, j)
                            symbol_atoms, facs = searched_b_square_factorizations(spec, u, j)
                            assert w.a_exponents in symbol_atoms
                            assert w.b_exponents in symbol_atoms
                            assert sorted(facs) == sorted(
                                [w.b_power_standard, w.b_power_different])
                            assert w.b_power_different == tuple(sorted(w.b_power_different))
                            checked += 1
    assert checked > 100


def test_repeated_class_witness_input_checks():
    cs = ClassSet(C3, (C3.element((1,)), C3.element((2,))))
    spec = KrullSpec(cs, (2, 2))
    with pytest.raises(ValueError, match="not an atom"):
        repeated_class_witness(spec, cs.sequence((3, 3)), 0)
    with pytest.raises(ValueError, match="not an atom"):
        repeated_class_witness(spec, cs.sequence((2, 0)), 0)
    with pytest.raises(ValueError, match="does not repeat"):
        repeated_class_witness(spec, cs.sequence((1, 1)), 0)
    with pytest.raises(ValueError, match="single prime divisor"):
        repeated_class_witness(KrullSpec(cs, (1, 2)), cs.sequence((3, 0)), 0)
    w = repeated_class_witness(spec, cs.sequence((3, 0)), 0)
    assert (w.a_exponents, w.b_exponents) == ((3, 0), (2, 1))
    assert w.b_power_different == ((1, 2), (3, 0))


def test_angermueller_examples():
    trivial = FinGenAbelianGroup()
    cs0 = ClassSet(trivial, (trivial.zero(),))
    assert angermueller_check(KrullSpec(cs0, (1,)))
    assert angermueller_check(signed_basis_spec(2))
    cs = ClassSet(C2, (C2.zero(), C2.element((1,))))
    assert angermueller_check(KrullSpec(cs, (1, 2)))


def test_angermueller_sweep_finite_specs():
    # with an exhaustive bound the equivalence holds on every finite spec
    for n in range(1, 6):
        for group in abelian_groups_of_order(n):
            elems = list(group.elements())
            for r in range(1, len(elems) + 1):
                for combo in combinations(elems, r):
                    cs = ClassSet(group, combo)
                    for m in (1, 2):
                        spec = KrullSpec(cs, (m,) * len(cs))
                        bound = sum(spec.capped_mult())
                        assert angermueller_check(spec, bound)


# ---------------------------------------------------------------------------
# agreement and structural properties


def test_criterion_agreement_orders_up_to_5():
    for n in range(1, 6):
        for group in abelian_groups_of_order(n):
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
                        assert by_support == by_kernel == (w is None)
                        if by_support:
                            assert search_power_absirred(u.exponents, vectors, 4)


def test_corollary_full_class_set_sweep():
    # with every class populated twice, all-absirred holds only for the
    # trivial group
    for n in range(1, 7):
        for group in abelian_groups_of_order(n):
            cs = ClassSet(group, tuple(group.elements()))
            spec = KrullSpec(cs, (2,) * len(cs))
            rep = all_irreducibles_absirred(spec)
            assert rep.holds == (n == 1)
    c2full = ClassSet(C2, tuple(C2.elements()))
    rep = classify_scenario(KrullSpec(c2full, (2, 2)))
    assert rep.has_nonabsirred


def test_mult_monotonicity():
    rng = random.Random(23)
    groups = [C2, C3, FinGenAbelianGroup.cyclic(4), FinGenAbelianGroup(0, (2, 2))]
    for _ in range(20):
        group = rng.choice(groups)
        elems = list(group.elements())
        size = rng.randint(1, len(elems))
        classes = tuple(rng.sample(elems, size))
        cs = ClassSet(group, classes)
        mult = tuple(rng.choice((1, 2)) for _ in classes)
        bigger = tuple(m + rng.choice((0, 1)) for m in mult)
        rep_small = classify_scenario(KrullSpec(cs, mult))
        rep_big = classify_scenario(KrullSpec(cs, bigger))
        if rep_small.has_nonabsirred:
            assert rep_big.has_nonabsirred


def test_transfer_consistency_all_mult_one():
    # with one divisor per class the element level equals the block level
    for spec in (signed_basis_spec(2), signed_basis_spec(3)):
        atoms = enumerate_atoms(spec.class_set)
        block_all = all(is_absirred_support(a, atoms) for a in atoms)
        assert all_irreducibles_absirred(spec).holds == block_all


def test_spec_validation():
    cs = ClassSet(C2, (C2.element((1,)),))
    with pytest.raises(ValueError):
        KrullSpec(cs, (0,))
    with pytest.raises(Exception):
        KrullSpec(cs, (1, 1))
    spec = KrullSpec(cs, (INFINITE,))
    assert spec.capped_mult() == (2,)
    assert spec.g1_indices() == ()
