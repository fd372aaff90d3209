import math
import random
from fractions import Fraction
from itertools import combinations, count, product

import pytest
from hypothesis import given, settings, strategies as st

from strongatoms.abgroup import (
    INFINITE,
    FinGenAbelianGroup,
    _fundamental_circuits,
    abelian_groups_of_order,
    first_relation,
    is_z_independent,
    kernel_lattice,
    minimal_nonneg_kernel,
    order,
    positive_kernel_vector,
    smith_normal_form,
    zero_sum_columns,
)
from strongatoms.errors import BudgetExceeded, DimensionMismatch
from strongatoms.ivpoly import is_prime, legendre_vp_factorial, smallest_prime_factor
from strongatoms.krull import brute_force_absirred
from strongatoms.nummon import NumericalMonoid, nm_factorizations
from strongatoms.quadratic import QuadInt, QuadRing
from strongatoms.zsm import ClassSet, Sequence, enumerate_atoms

from conftest import (
    brute_kernel_vectors,
    brute_nonneg_kernel_exists,
    cofactor_det,
    group_combination,
    in_lattice,
    matmul,
    nonneg_relation_exists,
    rational_rank,
    small_families,
)

Z2 = FinGenAbelianGroup.free(2)
C3 = FinGenAbelianGroup.cyclic(3)


# ---------------------------------------------------------------------------
# groups and elements


def test_group_equals_its_presentation():
    assert FinGenAbelianGroup(0, (2, 2)) != FinGenAbelianGroup(0, (4,))
    assert FinGenAbelianGroup(1, ()) != FinGenAbelianGroup(0, ())
    # isomorphic presentations are different groups
    assert FinGenAbelianGroup(0, (2, 3)) != FinGenAbelianGroup(0, (6,))
    assert FinGenAbelianGroup(0, (4, 2)) != FinGenAbelianGroup(0, (2, 4))
    # equal presentations are equal, hash equal, and one dict key
    a, b = FinGenAbelianGroup(1, (2, 3)), FinGenAbelianGroup(True, [2, 3])
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: "a", b: "b"} == {a: "b"}
    assert FinGenAbelianGroup.cyclic(1) == FinGenAbelianGroup() == FinGenAbelianGroup.free(0)
    x, y = a.element((1, 1, 2)), b.element((1, 3, 5))
    assert x == y and hash(x) == hash(y) and {x: 1}[y] == 1
    assert x != a.element((1, 1, 1)) and x != a.element((2, 1, 2))
    # class sets over Z/2 + Z/3 and over Z/6 differ, though both hold the
    # generator, and their elements cannot meet
    g23, g6 = FinGenAbelianGroup(0, (2, 3)), FinGenAbelianGroup.cyclic(6)
    assert ClassSet(g23, (g23.element((1, 1)),)) != ClassSet(g6, (g6.element((1,)),))
    assert g23.element((1, 1)) != g6.element((5,))
    with pytest.raises(DimensionMismatch):
        g23.element((1, 1)) + g6.element((5,))


def test_bad_group_arguments():
    with pytest.raises(ValueError):
        FinGenAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FinGenAbelianGroup(0, (0,))
    with pytest.raises(ValueError):
        FinGenAbelianGroup(-1, ())


C3_PAIR = ClassSet(C3, (C3.element((1,)), C3.element((2,))))


@pytest.mark.parametrize("make", [
    lambda: FinGenAbelianGroup(0, (2.5,)),
    lambda: FinGenAbelianGroup.cyclic(2.5),
    lambda: FinGenAbelianGroup(1.5),
    lambda: C3.element((1.9,)),
    lambda: ClassSet(Z2, (Z2.element((1, 0)), Z2.element((-1, 0)))).sequence(
        (Fraction(7, 2), 0)),
    lambda: QuadRing(-5).element(2.7, 0.5),
    lambda: QuadRing(-5).element(2, 0.5),
    lambda: QuadRing(-5.0),
    lambda: NumericalMonoid.interval(2.5),
    lambda: Sequence(C3_PAIR, (1.5, 0)),
    lambda: Sequence(C3_PAIR, (Fraction(3), 0)),
    lambda: C3_PAIR.sequence((1, 1)) ** 1.5,
    lambda: brute_force_absirred(C3_PAIR.sequence((1, 1)), enumerate_atoms(C3_PAIR), 2.5),
    lambda: QuadInt(1.5, 0),
    lambda: QuadInt(1, Fraction(1, 2)),
    lambda: nm_factorizations(NumericalMonoid(2), 6.0),
    lambda: legendre_vp_factorial(3, 9.0),
    lambda: legendre_vp_factorial(2.0, 4),
    lambda: is_prime(7.0),
    lambda: smallest_prime_factor(9.0),
], ids=["torsion", "cyclic", "free-rank", "element", "sequence", "quad-element",
        "quad-element-b", "quad-ring", "interval", "sequence-direct-float",
        "sequence-direct-fraction", "power", "brute-force-nmax", "quadint-a", "quadint-b",
        "nm-factorizations", "legendre-n", "legendre-p", "is-prime", "smallest-prime-factor"])
def test_constructors_reject_non_integers(make):
    # a float or Fraction is refused, never truncated or kept as an exponent
    # (the power check would answer n_max = 2.5 from u ** 2.5)
    with pytest.raises(TypeError):
        make()


def test_integer_like_values_become_plain_ints():
    class Three:
        def __index__(self):
            return 3
    s = Sequence(C3_PAIR, [Three(), True])
    assert s.exponents == (3, 1) and type(s.exponents) is tuple
    assert all(type(e) is int for e in (s ** Three()).exponents)
    assert QuadInt(Three(), False) == QuadInt(3, 0)
    assert nm_factorizations(NumericalMonoid(2), Three()) == [(3,)]


def test_element_reduction_and_arithmetic():
    g = C3.element((5,))
    assert g.torsion_part == (2,)
    assert (g + g).torsion_part == (1,)
    assert (-g).torsion_part == (1,)
    assert (3 * g).is_zero()
    mixed = FinGenAbelianGroup(1, (4,))
    e = mixed.element((2, 7))
    assert e.coords() == (2, 3)
    assert (e - e).is_zero()


def test_element_dimension_checks():
    with pytest.raises(DimensionMismatch):
        C3.element((1, 2))
    with pytest.raises(DimensionMismatch):
        Z2.element((1, 0)) + FinGenAbelianGroup.free(3).element((1, 0, 0))


def test_order_examples():
    assert order(Z2, Z2.element((1, 1))) == INFINITE
    assert order(C3, C3.element((1,))) == 3
    # 6/gcd(6,4) = 3, cross-checked by repeated addition below
    c6 = FinGenAbelianGroup.cyclic(6)
    assert order(c6, c6.element((4,))) == 3


def test_order_matches_repeated_addition():
    for n in (2, 3, 4, 6, 12):
        group = FinGenAbelianGroup.cyclic(n)
        for g in group.elements():
            k, acc = 1, g
            while not acc.is_zero():
                acc = acc + g
                k += 1
            assert order(group, g) == k
    g22 = FinGenAbelianGroup(0, (2, 2))
    for g in g22.elements():
        assert order(g22, g) in (1, 2)


def test_abelian_groups_of_order():
    assert [g.torsion for g in abelian_groups_of_order(1)] == [()]
    assert [g.torsion for g in abelian_groups_of_order(8)] == [(2, 2, 2), (2, 4), (8,)]
    assert len(abelian_groups_of_order(36)) == 4


# ---------------------------------------------------------------------------
# Smith normal form


def _snf_checks(rows, ncols):
    u, d, v = smith_normal_form(rows, ncols)
    assert matmul(matmul(u, rows, ncols), v, ncols) == d
    assert abs(cofactor_det(u)) == 1
    assert abs(cofactor_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(rows), ncols))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    for i in range(len(rows)):
        for j in range(ncols):
            if i != j:
                assert d[i][j] == 0
    return diag


def test_snf_examples():
    _, d, _ = smith_normal_form([[1, 0], [0, 1]], 2)
    assert d == ((1, 0), (0, 1))

    diag = _snf_checks([[2, 4], [6, 8]], 2)
    # |det| = 8 computed independently; d1 = gcd of entries = 2
    assert cofactor_det([[2, 4], [6, 8]]) == -8
    assert diag == [2, 4]

    _, d0, _ = smith_normal_form([[0]], 1)
    assert d0 == ((0,),)


def test_snf_shapes_and_ragged_rows():
    u, d, v = smith_normal_form([], 3)
    assert u == () and d == ()
    assert v == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert smith_normal_form([[], []], 0) == (((1, 0), (0, 1)), ((), ()), ())
    with pytest.raises(DimensionMismatch):
        smith_normal_form([[1, 2], [3]], 2)
    with pytest.raises(DimensionMismatch):
        smith_normal_form([[1, 2]], 3)


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        _snf_checks([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], m)


def test_snf_determinantal_divisors():
    # product of the first k diagonal entries = gcd of all k x k minors,
    # minors computed by independent cofactor expansion
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        _, d, _ = smith_normal_form(rows, n)
        diag = [d[i][i] for i in range(n)]
        for k in range(1, n + 1):
            minors = []
            for rset in combinations(range(n), k):
                for cset in combinations(range(n), k):
                    sub = [[rows[i][j] for j in cset] for i in rset]
                    minors.append(cofactor_det(sub))
            gcd_minors = math.gcd(*minors) if minors else 0
            prod = 1
            for x in diag[:k]:
                prod *= x
            assert abs(prod) == gcd_minors


def test_snf_large_entries_exact():
    rows = [[10**30, 1], [1, 10**30]]
    u, d, v = smith_normal_form(rows, 2)
    assert matmul(matmul(u, rows, 2), v, 2) == d
    assert d[0][0] == 1
    assert d[1][1] == 10**60 - 1


# ---------------------------------------------------------------------------
# kernels of families


def e(i):
    return Z2.element((1, 0)) if i == 0 else Z2.element((0, 1))


def test_kernel_lattice_examples():
    e1 = e(0)
    basis = kernel_lattice(Z2, [e1, -e1])
    assert len(basis) == 1 and basis[0] in ((1, 1), (-1, -1))

    assert kernel_lattice(Z2, [e(0), e(1)]) == []

    basis3 = kernel_lattice(C3, [C3.element((1,))])
    assert len(basis3) == 1 and basis3[0] in ((3,), (-3,))
    # derived by brute force over [-6, 6]
    brute = [v for v in brute_kernel_vectors([C3.element((1,))], 6) if any(v)]
    assert all(in_lattice(basis3, v) for v in brute)


def test_kernel_lattice_brute_force_membership():
    rng = random.Random(3)
    groups = [Z2, C3, FinGenAbelianGroup.cyclic(4),
              FinGenAbelianGroup(1, (2,)), FinGenAbelianGroup(0, (2, 4))]
    for _ in range(40):
        group = rng.choice(groups)
        m = rng.randint(1, 3)
        dim = group.free_rank + len(group.torsion)
        family = [group.element([rng.randint(-2, 2) for _ in range(dim)])
                  for _ in range(m)]
        basis = kernel_lattice(group, family)
        for vec in basis:
            assert group_combination(family, vec).is_zero()
        for v in brute_kernel_vectors(family, 5):
            assert in_lattice(basis, v), (group, [g.coords() for g in family], v)


def test_is_z_independent_examples():
    assert is_z_independent(Z2, [e(0), e(1)])
    c2 = FinGenAbelianGroup.cyclic(2)
    assert not is_z_independent(c2, [c2.element((1,))])
    z = FinGenAbelianGroup.free(1)
    g = z.element((1,))
    assert not is_z_independent(z, [3 * g, -g, -2 * g])
    assert is_z_independent(Z2, [])
    with pytest.raises(DimensionMismatch):
        is_z_independent(Z2, [C3.element((1,))])


def test_is_z_independent_matches_brute_force_small_exponent():
    # with all element orders <= 6 the [-6, 6] window is an exact oracle
    rng = random.Random(5)
    groups = [FinGenAbelianGroup.cyclic(n) for n in (2, 3, 4, 6)]
    groups.append(FinGenAbelianGroup(0, (2, 2)))
    for _ in range(40):
        group = rng.choice(groups)
        m = rng.randint(1, 4)
        dim = group.free_rank + len(group.torsion)
        family = [group.element([rng.randint(-3, 3) for _ in range(dim)])
                  for _ in range(m)]
        brute_only_zero = all(
            not any(v) for v in brute_kernel_vectors(family, 6))
        assert is_z_independent(group, family) == brute_only_zero


def test_is_z_independent_two_sided():
    # independent verdicts must survive a brute-force search; dependent
    # verdicts must exhibit an explicit relation
    rng = random.Random(6)
    groups = [FinGenAbelianGroup.cyclic(16), Z2, FinGenAbelianGroup.free(3),
              FinGenAbelianGroup(1, (4,)), FinGenAbelianGroup(0, (2, 8))]
    for _ in range(40):
        group = rng.choice(groups)
        m = rng.randint(1, 4)
        dim = group.free_rank + len(group.torsion)
        family = [group.element([rng.randint(-3, 3) for _ in range(dim)])
                  for _ in range(m)]
        if is_z_independent(group, family):
            assert all(not any(v) for v in brute_kernel_vectors(family, 6))
        else:
            basis = kernel_lattice(group, family)
            assert basis and any(any(v) for v in basis)
            for vec in basis:
                assert group_combination(family, vec).is_zero()


def free_rank_deficiency(family):
    """The number of independent rational relations of the free parts."""
    return len(family) - rational_rank([g.free_part for g in family])


@settings(max_examples=300)
@given(small_families())
def test_is_z_independent_matches_rational_rank(case):
    group, family = case
    assert is_z_independent(group, family) == (free_rank_deficiency(family) == 0)


@settings(max_examples=300)
@given(small_families(max_members=6, amp=50, torsions=((), (2,), (6,), (2, 2))))
def test_is_z_independent_matches_rational_rank_on_wide_entries(case):
    group, family = case
    assert is_z_independent(group, family) == (free_rank_deficiency(family) == 0)


def test_first_relation_examples():
    assert first_relation(Z2, []) is None
    assert first_relation(Z2, [e(0), e(1)]) is None
    # free rank 0: every member is torsion, so the first is a relation by itself
    c6 = FinGenAbelianGroup.cyclic(6)
    assert first_relation(c6, [c6.element((1,)), c6.element((3,))]) == [1]
    g = FinGenAbelianGroup.free(1).element((1,))
    assert first_relation(g.group, [2 * g, -3 * g]) == [3, 2]
    with pytest.raises(DimensionMismatch):
        first_relation(Z2, [C3.element((1,))])


@settings(max_examples=200)
@given(small_families(max_members=6, amp=50, torsions=((),)))
def test_fundamental_circuits_span_the_rational_relations(case):
    # entries in +-50 are far outside what the Smith normal form handles
    group, family = case
    m = len(family)
    rels = []
    for indices, relation in _fundamental_circuits([g.free_part for g in family]):
        v = [0] * m
        for i, x in zip(indices, relation):
            v[i] = x
        rels.append(tuple(v))
    assert len(rels) == free_rank_deficiency(family)
    if rels:
        assert rational_rank(rels) == len(rels)
    for v in rels:
        assert math.gcd(*v) == 1
        assert all(sum(x * g.free_part[i] for x, g in zip(v, family)) == 0
                   for i in range(group.free_rank))


def test_positive_kernel_vector_examples():
    e1, e2 = e(0), e(1)
    assert positive_kernel_vector(Z2, [e1, -e1]) == (1, 1)
    assert positive_kernel_vector(Z2, [e1, e2]) is None
    f = e1 + e2
    assert positive_kernel_vector(Z2, [e1, e2, -f]) == (1, 1, 1)
    # two rational relations: the first one-signed fundamental circuit, (0, 1, 2)
    assert positive_kernel_vector(Z2, [e1, e2, -e1 - 2 * e2, -2 * e1 - e2]) == (1, 2, 1, 0)
    c4 = FinGenAbelianGroup(1, (4,))
    assert positive_kernel_vector(c4, [c4.element((1, 1)), c4.element((-1, 0))]) == (4, 4)
    with pytest.raises(DimensionMismatch):
        positive_kernel_vector(Z2, [C3.element((1,))])


def test_positive_kernel_vector_budget_counts_extensions():
    # both fundamental circuits, (0, 1, 3) and (0, 1, 4), are mixed, so the
    # walk runs on the members in their support, 0, 1, 3 and 4 (member 2 is
    # in no relation): (0), (0,1), (0,1,3), (0,1,4), (0,3), (0,3,4), (0,4),
    # (1), (1,3), (1,3,4), (1,4), (3), (3,4) (a one-signed circuit), (4)
    Z3 = FinGenAbelianGroup.free(3)
    e1, e2, e3 = (Z3.element([int(i == j) for j in range(3)]) for i in range(3))
    family = [e1, e2, e3, e1 - e2, e2 - e1]
    assert positive_kernel_vector(Z3, family, budget=14) == (0, 0, 0, 1, 1)
    with pytest.raises(BudgetExceeded) as info:
        positive_kernel_vector(Z3, family, budget=13)
    assert str(info.value) == "nonnegative-relation search exceeded 13 families at size 1"
    # a one-signed fundamental circuit answers without the walk
    assert positive_kernel_vector(Z3, [e1, e2, -e1 - e2], budget=0) == (1, 1, 1)


def test_positive_kernel_vector_large_families_at_default_budget():
    # the walk over 24 independent members would try 2^24 - 1 families
    n = 24
    group = FinGenAbelianGroup(n, (6,))
    units = [group.element([int(i == j) for j in range(n)] + [1]) for i in range(n)]
    assert positive_kernel_vector(group, units) is None
    # one relation, all ones; the torsion sum 24 - 23 = 1 has order 6
    last = group.element([-1] * n + [-23])
    assert positive_kernel_vector(group, units + [last]) == (6,) * (n + 1)
    # one mixed-sign relation
    assert positive_kernel_vector(group, units + [group.element([1] * n + [0])]) is None
    # two relations, the second one-signed, and a member outside both
    free = FinGenAbelianGroup.free(n + 1)
    basis = [free.element([int(i == j) for j in range(n + 1)]) for i in range(n + 1)]
    family = basis[:n] + [basis[0] - basis[1], -sum(basis[:n], free.zero()), basis[n]]
    assert positive_kernel_vector(free, family) == (1,) * n + (0, 1, 0)


def test_positive_kernel_vector_matches_brute_force_small_exponent():
    # element orders <= 6 make the [0, 6] window an exact oracle
    rng = random.Random(9)
    groups = [FinGenAbelianGroup.cyclic(n) for n in (2, 3, 5, 6)]
    groups.append(FinGenAbelianGroup(0, (2, 2)))
    for _ in range(40):
        group = rng.choice(groups)
        m = rng.randint(1, 4)
        dim = group.free_rank + len(group.torsion)
        family = [group.element([rng.randint(-2, 2) for _ in range(dim)])
                  for _ in range(m)]
        vec = positive_kernel_vector(group, family)
        assert (vec is not None) == brute_nonneg_kernel_exists(family, 6)
        if vec is not None:
            assert any(vec) and all(x >= 0 for x in vec)
            assert group_combination(family, vec).is_zero()


def test_positive_kernel_vector_two_sided():
    rng = random.Random(10)
    groups = [FinGenAbelianGroup.cyclic(8), Z2, FinGenAbelianGroup(1, (3,))]
    for _ in range(40):
        group = rng.choice(groups)
        m = rng.randint(1, 4)
        dim = group.free_rank + len(group.torsion)
        family = [group.element([rng.randint(-2, 2) for _ in range(dim)])
                  for _ in range(m)]
        vec = positive_kernel_vector(group, family)
        if vec is None:
            assert not brute_nonneg_kernel_exists(family, 6)
        else:
            assert any(vec) and all(x >= 0 for x in vec)
            assert group_combination(family, vec).is_zero()


def test_positive_kernel_vector_mixed_sign_line():
    # one mixed-sign rational relation; the SNF of this matrix explodes
    rows = [[10, 21, -38, -5, 5, -10], [28, 31, -24, 20, 11, 6],
            [16, -17, -43, 20, -49, -39], [42, 1, 40, 50, 35, 30],
            [-50, 28, 13, -8, -19, 43]]
    group = FinGenAbelianGroup.free(5)
    family = [group.element([row[j] for row in rows]) for j in range(6)]
    assert positive_kernel_vector(group, family) is None


def _check_positive_kernel_vector(group, family, vec):
    """vec is None exactly when vertex enumeration finds no nonnegative
    relation of the free parts, and otherwise a nonzero nonnegative group
    relation; with one rational relation, the one that generates them all."""
    assert (vec is not None) == nonneg_relation_exists([g.free_part for g in family])
    if vec is not None:
        assert len(vec) == len(family) and any(vec) and all(x >= 0 for x in vec)
        assert group_combination(family, vec).is_zero()
        if free_rank_deficiency(family) == 1:
            # the integer relations are the multiples of the least multiple
            # of the primitive w that is one
            common = math.gcd(*vec)
            least = next(v for v in (tuple(n * x // common for x in vec) for n in count(1))
                         if group_combination(family, v).is_zero())
            assert in_lattice([vec], least)


@settings(max_examples=300)
@given(small_families())
def test_positive_kernel_vector_matches_rank_and_vertex_enumeration(case):
    group, family = case
    _check_positive_kernel_vector(group, family, positive_kernel_vector(group, family))


@settings(max_examples=300)
@given(small_families(max_members=6, amp=4,
                      torsions=((), (2,), (3,), (2, 4), (6,), (5,), (2, 2))))
def test_positive_kernel_vector_matches_vertex_enumeration(case):
    group, family = case
    _check_positive_kernel_vector(group, family, positive_kernel_vector(group, family))


def generated_families():
    """3,864 families from 4,000 draws: torsion none, (2), (3), (2, 4), (6),
    (5) or (2, 2), free rank 0-3 (the draws over the trivial group skipped),
    1-5 members, each free coordinate 0 with probability 0.2 and otherwise
    +-1..4, each torsion residue nonzero."""
    rng = random.Random(4000)
    for _ in range(4000):
        torsion = rng.choice(((), (2,), (3,), (2, 4), (6,), (5,), (2, 2)))
        group = FinGenAbelianGroup(rng.randint(0, 3), torsion)
        if group.free_rank == 0 and not torsion:
            continue
        family = []
        for _ in range(rng.randint(1, 5)):
            free = [0 if rng.random() < 0.2 else rng.choice((-1, 1)) * rng.randint(1, 4)
                    for _ in range(group.free_rank)]
            family.append(group.element(free + [rng.randint(1, d - 1) for d in torsion]))
        yield group, family


# draws on which the former route (the Bareiss relations, then the pruned
# completion search with limit=1) exceeded budget 20,000, with whether a
# nonnegative relation exists; that search at budget 10^6 agrees
FORMER_BUDGET_FAILURES = {340: False, 516: True, 1802: False, 2726: False,
                          2910: True, 2915: True}


def test_positive_kernel_vector_on_generated_families_needs_no_budget():
    families = list(generated_families())
    assert len(families) == 3864
    for i, (group, family) in enumerate(families):
        vec = positive_kernel_vector(group, family, budget=30)  # 30 is the most tried here
        if i in FORMER_BUDGET_FAILURES:
            assert (vec is not None) == FORMER_BUDGET_FAILURES[i]
        _check_positive_kernel_vector(group, family, vec)


def test_minimal_nonneg_kernel_simple_systems():
    # x - y = 0
    assert minimal_nonneg_kernel([(1,), (-1,)]) == [(1, 1)]
    # x + 2y - 3z = 0: minimal solutions (3,0,1), (1,1,1), (0,3,2)
    sols = sorted(minimal_nonneg_kernel([(1,), (2,), (-3,)]))
    assert sols == [(0, 3, 2), (1, 1, 1), (3, 0, 1)]
    # independent columns: nothing
    assert minimal_nonneg_kernel([(1, 0), (0, 1)]) == []


def test_minimal_nonneg_kernel_minimality_and_completeness():
    cols = [(2,), (3,), (-4,)]
    sols = minimal_nonneg_kernel(cols)
    for s in sols:
        assert sum(a * c[0] for a, c in zip(s, cols)) == 0
    for s, t in product(sols, sols):
        if s != t:
            assert not all(a <= b for a, b in zip(s, t))
    # every brute solution dominates some minimal one
    for v in product(range(7), repeat=3):
        if any(v) and sum(a * c[0] for a, c in zip(v, cols)) == 0:
            assert any(all(a >= b for a, b in zip(v, s)) for s in sols)


def test_minimal_nonneg_kernel_matches_box_minimal_solutions():
    # two-row systems, compared against the minimal elements of the solution
    # set inside a box that provably contains all minimal solutions
    systems = [
        [(1, 1), (2, -1), (-3, 0), (0, -1)],
        [(1, 0), (-1, 2), (1, -2), (-1, 0)],
        [(2, 1), (-1, 1), (0, -3)],
    ]
    bound = 8
    for cols in systems:
        sols = minimal_nonneg_kernel(cols)
        assert all(max(s) <= bound for s in sols)
        m = len(cols)
        box = [v for v in product(range(bound + 1), repeat=m)
               if any(v) and all(
                   sum(a * c[i] for a, c in zip(v, cols)) == 0
                   for i in range(2))]
        box_minimal = [v for v in box
                       if not any(t != v and all(a <= b for a, b in zip(t, v))
                                  for t in box)]
        assert sorted(sols) == sorted(box_minimal)


def linear_scan_minimal_nonneg_kernel(columns, budget, freeze=False, prune=False):
    """The completion search testing every frontier node and every child
    against every solution found so far, with A*t kept explicitly.  Returns
    the solutions and the number of frontier insertions.

    With ``freeze``, coordinates are frozen as in the library: the unit e_i
    starts with {j < i} frozen, and each candidate coordinate of an expansion
    is frozen for the later siblings, so no child is reached twice.

    ``prune`` implies ``freeze`` and drops children as the library does.  A
    node also carries a blocked set: an expansion first adds every candidate
    i whose child t + e_i dominates a solution found so far, and every child
    inherits the enlarged set.  A child is then dropped, uninserted, when
    some nonzero entry of A*child has no column outside its frozen and
    blocked sets with an entry of the opposite sign in that row."""
    freeze = freeze or prune
    m = len(columns)
    height = len(columns[0]) if m else 0
    zero = (0,) * height
    sols = []

    def dominates_some_solution(t):
        return any(all(tj >= sj for tj, sj in zip(t, s)) for s in sols)

    def bump(t, i):
        return t[:i] + (t[i] + 1,) + t[i + 1:]

    def cannot_reach_zero(v, closed):
        return any(x and all(col[r] * x >= 0 for j, col in enumerate(columns)
                             if j not in closed)
                   for r, x in enumerate(v))

    frontier = {}
    for i in range(m):
        unit = tuple(int(i == j) for j in range(m))
        frontier[unit] = (columns[i], frozenset(range(i) if freeze else ()),
                          frozenset())
    nodes = 0
    while frontier:
        for t, (v, _, _) in frontier.items():
            if v == zero and not dominates_some_solution(t):
                sols.append(t)
        nxt = {}
        for t, (v, frozen, blocked) in frontier.items():
            if v == zero or dominates_some_solution(t):
                continue
            candidates = [i for i in range(m)
                          if i not in frozen | blocked
                          and sum(a * b for a, b in zip(v, columns[i])) < 0]
            if prune:
                blocked = blocked | {i for i in candidates
                                     if dominates_some_solution(bump(t, i))}
            for i in candidates:
                col = columns[i]
                child = bump(t, i)
                child_frozen = frozen
                if freeze:
                    frozen = frozen | {i}
                if child in nxt:
                    assert not freeze, f"{child} reached twice"
                    continue
                if dominates_some_solution(child):
                    continue
                child_v = tuple(a + b for a, b in zip(v, col))
                if prune and cannot_reach_zero(child_v, child_frozen | blocked):
                    continue
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(f"exceeded {budget} nodes")
                nxt[child] = (child_v, child_frozen, blocked)
        frontier = nxt
    return sols, nodes


@st.composite
def small_systems(draw):
    """1-6 columns of height 1-3 with entries in +-3, optionally with one
    torsion residue row and its slack column -d."""
    m = draw(st.integers(1, 6))
    height = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    cols = [tuple(draw(st.lists(entry, min_size=height, max_size=height)))
            for _ in range(m)]
    d = draw(st.one_of(st.none(), st.integers(2, 6)))
    if d is not None:
        cols = [c + (draw(st.integers(0, d - 1)),) for c in cols]
        cols.append((0,) * height + (-d,))
    return cols


def assert_matches_linear_scan(cols, cap):
    """The library's solutions, in order, are the linear scan's, and its
    insertion count is the pruned scan's.  A few percent of the inputs need
    more than ``cap`` insertions even pruned; there the library must stop
    where the pruned scan stops.  The scan without pruning, run when it
    stays within 2,000 insertions, checks the pruned one."""
    try:
        want, n = linear_scan_minimal_nonneg_kernel(cols, cap, prune=True)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            minimal_nonneg_kernel(cols, budget=cap)
        return
    try:
        unfrozen_want, unfrozen_nodes = linear_scan_minimal_nonneg_kernel(cols, 2000)
    except BudgetExceeded:
        pass
    else:
        frozen_want, frozen_nodes = linear_scan_minimal_nonneg_kernel(cols, 2000, freeze=True)
        assert frozen_want == unfrozen_want == want
        assert n <= frozen_nodes <= unfrozen_nodes
    assert_least_completion_budget(cols, n, want)


def assert_least_completion_budget(cols, budget, want):
    """The library returns ``want`` at ``budget`` insertions and names the
    budget when it stops one below."""
    assert minimal_nonneg_kernel(cols, budget=budget) == want
    if budget:
        with pytest.raises(BudgetExceeded,
                           match=f"^completion search exceeded {budget - 1} nodes "):
            minimal_nonneg_kernel(cols, budget=budget - 1)


@settings(max_examples=300)
@given(small_systems())
def test_minimal_nonneg_kernel_matches_linear_scan(cols):
    assert_matches_linear_scan(cols, 2000)


@settings(max_examples=200)
@given(small_families(max_members=5, amp=3,
                      torsions=((2,), (3,), (2, 4), (6,), (5,), (2, 2))))
def test_minimal_nonneg_kernel_matches_linear_scan_on_group_families(case):
    # free parts next to torsion residues and their slack columns -d
    assert_matches_linear_scan(zero_sum_columns(*case), 20000)


def _signed_basis_columns(n):
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ones = (1,) * n
    return basis + [tuple(-x for x in b) for b in basis] + [ones, tuple(-x for x in ones)]


def _larger_systems():
    for n in range(3, 13):
        yield f"signed basis n={n}", _signed_basis_columns(n)
    for order_ in range(7, 10):
        for g in abelian_groups_of_order(order_):
            nonzero = [x for x in g.elements() if not x.is_zero()]
            name = "+".join(f"Z/{d}" for d in g.torsion)
            yield f"B({name} minus 0)", zero_sum_columns(g, nonzero)
    for values in ((-1, -2, 3), (-3, -5, 7), (-2, -7, 5), (-1, -4, 6),
                   (-3, -4, 5), (-5, -6, 7), (-2, -5, 9), (-4, -7, 3, 6)):
        yield f"rank 1 {values}", [(v,) for v in values]


# the least budget of the completion search on each of _larger_systems(), in order
LARGER_SYSTEM_BUDGETS = (14, 19, 24, 29, 34, 39, 44, 49, 54, 59,
                         197, 108, 221, 295, 415, 579,
                         8, 34, 39, 14, 21, 38, 31, 79)


@pytest.mark.parametrize("cols, budget", [
    (cols, budget) for (_, cols), budget in zip(_larger_systems(), LARGER_SYSTEM_BUDGETS)],
    ids=[name for name, _ in _larger_systems()])
def test_minimal_nonneg_kernel_matches_linear_scan_on_larger_systems(cols, budget):
    want, _ = linear_scan_minimal_nonneg_kernel(cols, 10_000)
    assert_least_completion_budget(cols, budget, want)


# the six inputs with the most insertions among those drawn for
# test_minimal_nonneg_kernel_matches_linear_scan_on_group_families (the
# search before pruning needed up to 20,000 on these draws), with the
# library's least budget
FORMER_INPUT_BUDGETS = [
    ([(2, 0, -3, 3), (-2, -2, 0, 5), (2, 2, 2, 3), (-3, -1, 3, 0), (-1, 3, -2, 0),
      (0, 0, 0, -6)], 7235),
    ([(-1, -2, 1, 2), (-3, -3, 0, 3), (2, -2, 1, 1), (1, 3, 0, 2), (3, 0, 0, 0),
      (0, 0, -2, 0), (0, 0, 0, -4)], 4548),
    ([(-1, 3, 1, 3), (2, 3, 3, 0), (3, -3, -3, 0), (-3, 0, 0, 5), (3, -3, -3, 3),
      (0, 0, 0, -6)], 4464),
    ([(2, 3, 3), (2, 1, 0), (3, 0, 3), (-1, -1, 4), (-2, 0, 5), (0, 0, -6)], 2568),
    ([(3, -2, 0), (0, 3, 1), (-3, -2, 2), (-1, 1, 2), (1, -2, 2), (0, 0, -5)], 1464),
    ([(-3, 3, 0, 3), (2, 2, 1, 1), (-2, 2, 0, 1), (-1, -1, 1, 2), (1, -3, 0, 3),
      (0, 0, -2, 0), (0, 0, 0, -4)], 1416),
]


@pytest.mark.parametrize("cols, budget", FORMER_INPUT_BUDGETS)
def test_minimal_nonneg_kernel_insertions_on_former_inputs(cols, budget):
    # the scan without pruning would need 4,574 to 210,758 insertions here
    want, nodes = linear_scan_minimal_nonneg_kernel(cols, budget, prune=True)
    assert nodes == budget
    assert_least_completion_budget(cols, budget, want)


@pytest.mark.parametrize("n", range(3, 17))
def test_minimal_nonneg_kernel_signed_basis_in_5n_minus_1_insertions(n):
    # {+-e_i, +-f}: the atoms are e_i + (-e_i), f + (-f), f + sum(-e_i) and
    # (-f) + sum(e_i); without dropping, the search inserts 2^(n+1) + n - 1
    cols = _signed_basis_columns(n)
    assert len(minimal_nonneg_kernel(cols, budget=5 * n - 1)) == n + 3
    with pytest.raises(BudgetExceeded,
                       match=f"^completion search exceeded {5 * n - 2} nodes "):
        minimal_nonneg_kernel(cols, budget=5 * n - 2)


def test_completion_budget_message_names_progress():
    # x + 2y - 3z = 0: (1, 1, 1) is found at degree 3, and the sixth
    # insertion has degree 4
    with pytest.raises(BudgetExceeded) as info:
        minimal_nonneg_kernel([(1,), (2,), (-3,)], budget=5)
    assert str(info.value) == ("completion search exceeded 5 nodes at degree 4 "
                               "(minimal solutions found so far: 1)")


def test_snf_wider_random_matrices():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        _snf_checks([[rng.randint(-30, 30) for _ in range(m)] for _ in range(n)], m)
