import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from strongatoms.abgroup import FinGenAbelianGroup, abelian_groups_of_order
from strongatoms.errors import (
    AtomNotInSet,
    BudgetExceeded,
    DimensionMismatch,
    InfiniteGroupNoBound,
    NotZeroSum,
)
from strongatoms.zsm import (
    ClassSet,
    Factorization,
    atom_length_bound,
    elasticity,
    enumerate_atoms,
    factorizations,
    is_minimal_zero_sum,
    length_set,
    vector_factorizations,
    vector_length_mask,
)

Z2 = FinGenAbelianGroup.free(2)
Z1 = FinGenAbelianGroup.free(1)
C3 = FinGenAbelianGroup.cyclic(3)


def signed_basis_set(n):
    group = FinGenAbelianGroup.free(n)
    basis = [group.element([int(i == j) for j in range(n)]) for i in range(n)]
    f = basis[0]
    for e in basis[1:]:
        f = f + e
    classes = basis + [-e for e in basis] + [f, -f]
    return ClassSet(group, tuple(classes))


def brute_force_atoms(cs, bound=None):
    """Oracle: every exponent vector up to the length bound, filtered by the
    minimality test."""
    if bound is None:
        bound = atom_length_bound(cs)
    m = len(cs)
    out = set()
    for length in range(1, bound + 1):
        for combo in combinations_with_replacement(range(m), length):
            exps = [0] * m
            for i in combo:
                exps[i] += 1
            if is_minimal_zero_sum(cs.sequence(exps)):
                out.add(tuple(exps))
    return sorted(out)


# ---------------------------------------------------------------------------
# class sets and sequences


def test_class_set_validation():
    e1 = Z2.element((1, 0))
    with pytest.raises(ValueError):
        ClassSet(Z2, (e1, e1))
    with pytest.raises(ValueError):
        ClassSet(Z2, ())
    with pytest.raises(DimensionMismatch):
        ClassSet(Z2, (Z1.element((1,)),))


def test_sequence_basics():
    cs = signed_basis_set(2)
    empty = cs.empty_sequence()
    assert empty.sigma().is_zero() and len(empty) == 0 and empty.support() == ()

    # e1 e2 (-f)
    s = cs.sequence((1, 1, 0, 0, 0, 1))
    assert s.sigma().is_zero()
    assert len(s) == 3
    assert s.support_indices() == (0, 1, 5)

    g3 = ClassSet(C3, (C3.element((1,)),)).sequence((3,))
    assert g3.sigma().is_zero() and len(g3) == 3


def test_sequence_arithmetic():
    cs = ClassSet(C3, (C3.element((1,)), C3.element((2,))))
    a = cs.sequence((1, 1))
    assert (a * a).exponents == (2, 2)
    assert (a ** 3).exponents == (3, 3)
    assert a.divides(a ** 2)
    assert ((a ** 2) / a).exponents == (1, 1)
    with pytest.raises(ValueError):
        _ = a / (a * a)
    with pytest.raises(ValueError):
        cs.sequence((-1, 0))


def test_is_minimal_zero_sum_examples():
    e1 = Z2.element((1, 0))
    cs = ClassSet(Z2, (e1, -e1))
    assert is_minimal_zero_sum(cs.sequence((1, 1)))

    cs4 = ClassSet(Z2, (e1, -e1, Z2.element((0, 1)), -Z2.element((0, 1))))
    assert not is_minimal_zero_sum(cs4.sequence((1, 1, 1, 1)))

    g = Z1.element((1,))
    csz = ClassSet(Z1, (-g, -2 * g, 3 * g))
    assert is_minimal_zero_sum(csz.sequence((1, 1, 1)))

    assert not is_minimal_zero_sum(cs.sequence((1, 0)))  # not zero-sum
    with pytest.raises(ValueError):
        is_minimal_zero_sum(cs.sequence((0, 0)))


# ---------------------------------------------------------------------------
# atom enumeration


def test_enumerate_atoms_signed_basis():
    cs = signed_basis_set(2)
    atoms = enumerate_atoms(cs)
    got = {a.exponents for a in atoms}
    assert got == {
        (1, 0, 1, 0, 0, 0),   # e1 (-e1)
        (0, 1, 0, 1, 0, 0),   # e2 (-e2)
        (0, 0, 0, 0, 1, 1),   # f (-f)
        (1, 1, 0, 0, 0, 1),   # e1 e2 (-f)
        (0, 0, 1, 1, 1, 0),   # (-e1)(-e2) f
    }


def test_enumerate_atoms_c2_with_zero():
    c2 = FinGenAbelianGroup.cyclic(2)
    cs = ClassSet(c2, (c2.zero(), c2.element((1,))))
    atoms = enumerate_atoms(cs)
    assert [a.exponents for a in atoms] == [(0, 2), (1, 0)]


def test_enumerate_atoms_c3():
    cs = ClassSet(C3, (C3.element((1,)), C3.element((2,))))
    atoms = enumerate_atoms(cs)
    got = [a.exponents for a in atoms]
    assert got == [(0, 3), (1, 1), (3, 0)]
    assert got == brute_force_atoms(cs)


def test_atoms_lex_sorted_and_minimal():
    cs = ClassSet(FinGenAbelianGroup.cyclic(6),
                  tuple(FinGenAbelianGroup.cyclic(6).element((i,)) for i in (1, 2, 3)))
    atoms = enumerate_atoms(cs)
    exps = [a.exponents for a in atoms]
    assert exps == sorted(exps)
    assert all(is_minimal_zero_sum(a) for a in atoms)


def test_atom_certificate():
    cs = signed_basis_set(2)
    atoms = enumerate_atoms(cs)
    assert atoms.certificate["method"] == "completion-search"
    assert atoms.certificate["columns"] == 6


def test_oracle_equivalence_small_orders():
    for n in range(1, 7):
        for group in abelian_groups_of_order(n):
            elems = list(group.elements())
            for r in range(1, len(elems) + 1):
                for combo in combinations(elems, r):
                    cs = ClassSet(group, combo)
                    got = [a.exponents for a in enumerate_atoms(cs)]
                    assert got == brute_force_atoms(cs), (group, combo)


@pytest.mark.slow
def test_oracle_equivalence_orders_7_8():
    for n in (7, 8):
        for group in abelian_groups_of_order(n):
            elems = list(group.elements())
            for r in range(1, len(elems) + 1):
                for combo in combinations(elems, r):
                    cs = ClassSet(group, combo)
                    got = [a.exponents for a in enumerate_atoms(cs)]
                    assert got == brute_force_atoms(cs), (group, combo)


def test_enumeration_sound_on_mixed_groups():
    # free rank + torsion: every enumerated atom is minimal, and brute force
    # up to the longest enumerated length finds nothing extra
    rng = random.Random(29)
    groups = [FinGenAbelianGroup(1, ()), FinGenAbelianGroup(1, (2,)),
              FinGenAbelianGroup(1, (3,)), FinGenAbelianGroup(2, ())]
    for _ in range(25):
        group = rng.choice(groups)
        dim = group.free_rank + len(group.torsion)
        seen = set()
        classes = []
        while len(classes) < rng.randint(1, 4):
            g = group.element([rng.randint(-2, 2) for _ in range(dim)])
            if g.coords() not in seen:
                seen.add(g.coords())
                classes.append(g)
        cs = ClassSet(group, tuple(classes))
        atoms = enumerate_atoms(cs)
        assert all(is_minimal_zero_sum(a) for a in atoms)
        exps = [a.exponents for a in atoms]
        assert exps == sorted(set(exps))
        maxlen = max((len(a) for a in atoms), default=0)
        if maxlen:
            assert exps == brute_force_atoms(cs, bound=maxlen)


def test_atom_length_bound():
    c6 = FinGenAbelianGroup.cyclic(6)
    assert atom_length_bound(ClassSet(c6, (c6.element((1,)),))) == 6
    g22 = FinGenAbelianGroup(0, (2, 2))
    assert atom_length_bound(ClassSet(g22, tuple(g22.elements()))) == 4
    with pytest.raises(InfiniteGroupNoBound):
        atom_length_bound(signed_basis_set(2))
    # torsion-only classes inside a mixed group still get the torsion bound
    mixed = FinGenAbelianGroup(1, (4,))
    cs = ClassSet(mixed, (mixed.element((0, 1)),))
    assert atom_length_bound(cs) == 4


# ---------------------------------------------------------------------------
# factorizations


def test_factorizations_uv_example():
    cs = signed_basis_set(2)
    atoms = enumerate_atoms(cs)
    u = cs.sequence((1, 1, 0, 0, 0, 1))
    v = cs.sequence((0, 0, 1, 1, 1, 0))
    uv = u * v
    facs = factorizations(uv, atoms)
    assert len(facs) == 2
    lengths = {len(f) for f in facs}
    assert lengths == {2, 3}
    products = [f.product(atoms).exponents for f in facs]
    assert all(p == uv.exponents for p in products)
    iu, iv = atoms.index(u), atoms.index(v)
    assert Factorization((iu, iv)) in facs


def test_factorizations_t_cubed():
    cs = ClassSet(C3, (C3.element((1,)), C3.element((2,))))
    atoms = enumerate_atoms(cs)
    t = cs.sequence((1, 1))
    facs = factorizations(t ** 3, atoms)
    it = atoms.index(t)
    ig3 = atoms.index(cs.sequence((3, 0)))
    ih3 = atoms.index(cs.sequence((0, 3)))
    assert Factorization((it, it, it)) in facs
    assert Factorization((ig3, ih3)) in facs


def test_factorization_of_single_atom_and_empty():
    cs = ClassSet(C3, (C3.element((1,)),))
    atoms = enumerate_atoms(cs)
    facs = factorizations(cs.sequence((3,)), atoms)
    assert facs == [Factorization((0,))]
    assert factorizations(cs.empty_sequence(), atoms) == [Factorization(())]


def test_factorizations_not_zero_sum():
    cs = ClassSet(C3, (C3.element((1,)),))
    atoms = enumerate_atoms(cs)
    with pytest.raises(NotZeroSum):
        factorizations(cs.sequence((1,)), atoms)


def test_factorizations_budget():
    cs = signed_basis_set(3)
    atoms = enumerate_atoms(cs)
    u = cs.sequence((1, 1, 1, 0, 0, 0, 0, 1))
    v = cs.sequence((0, 0, 0, 1, 1, 1, 1, 0))
    with pytest.raises(BudgetExceeded):
        factorizations((u * v) ** 3, atoms, budget=5)


def recursive_vector_factorizations(target, atom_vectors, limit=None):
    """Reference: the former recursive search, one atom per call frame in
    nondecreasing index order, with suffix-cover pruning."""
    m = len(target)
    n = len(atom_vectors)
    masks = [sum(1 << j for j in range(m) if v[j]) for v in atom_vectors]
    suffix_cover = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | masks[i]
    lengths = [sum(v) for v in atom_vectors]
    out = []
    rem = list(target)
    acc = []

    def rec(total, start):
        if total == 0:
            out.append(tuple(acc))
            return limit is not None and len(out) >= limit
        needed = sum(1 << j for j in range(m) if rem[j])
        if needed & ~suffix_cover[start]:
            return False
        for i in range(start, n):
            v = atom_vectors[i]
            if lengths[i] > total:
                continue
            if all(v[j] <= rem[j] for j in range(m)):
                for j in range(m):
                    rem[j] -= v[j]
                acc.append(i)
                stop = rec(total - lengths[i], i)
                acc.pop()
                for j in range(m):
                    rem[j] += v[j]
                if stop:
                    return True
        return False

    rec(sum(target), 0)
    return out


@st.composite
def factorization_systems(draw):
    """(target, atom vectors): 1-4 coordinates, 1-6 nonzero atom vectors with
    entries 0-3, target entries 0-6."""
    m = draw(st.integers(1, 4))
    entry = st.integers(0, 3)
    atom = st.lists(entry, min_size=m, max_size=m).filter(any).map(tuple)
    atoms = draw(st.lists(atom, min_size=1, max_size=6))
    target = tuple(draw(st.lists(st.integers(0, 6), min_size=m, max_size=m)))
    return target, atoms


@settings(max_examples=400)
@given(factorization_systems())
def test_vector_factorizations_matches_recursive_search(system):
    target, atoms = system
    for limit in (None, 1, 2):
        assert (vector_factorizations(target, atoms, limit=limit)
                == recursive_vector_factorizations(target, atoms, limit))


@settings(max_examples=400)
@given(factorization_systems())
def test_vector_length_mask_matches_listed_lengths(system):
    target, atoms = system
    mask = vector_length_mask(target, atoms)
    assert mask == sum(1 << k for k in {len(f) for f in vector_factorizations(target, atoms)})


def test_vector_factorizations_deep_target():
    # 1000 copies of one atom, more than the default recursion limit allows
    # for a search with one call frame per atom taken
    cs = ClassSet(C3, (C3.element((1,)), C3.element((2,))))
    atoms = enumerate_atoms(cs)
    ig3 = atoms.index(cs.sequence((3, 0)))
    facs = vector_factorizations((3000, 0), [a.exponents for a in atoms])
    assert facs == [(ig3,) * 1000]


def test_random_atom_products_factor_back():
    rng = random.Random(17)
    class_sets = [
        signed_basis_set(2),
        ClassSet(C3, (C3.element((1,)), C3.element((2,)))),
        ClassSet(FinGenAbelianGroup.cyclic(5),
                 tuple(FinGenAbelianGroup.cyclic(5).element((i,)) for i in (1, 2, 4))),
        ClassSet(FinGenAbelianGroup(0, (2, 2)),
                 tuple(g for g in FinGenAbelianGroup(0, (2, 2)).elements() if not g.is_zero())),
    ]
    for cs in class_sets:
        atoms = enumerate_atoms(cs)
        for _ in range(10):
            u = atoms[rng.randrange(len(atoms))]
            v = atoms[rng.randrange(len(atoms))]
            uv = u * v
            facs = factorizations(uv, atoms)
            assert Factorization(tuple(sorted((atoms.index(u), atoms.index(v))))) in facs
            for f in facs:
                assert len(f) >= 2 or uv.is_empty()
                assert f.product(atoms).exponents == uv.exponents


def test_length_set_and_elasticity():
    cs = signed_basis_set(2)
    atoms = enumerate_atoms(cs)
    uv = cs.sequence((1, 1, 1, 1, 1, 1))
    assert length_set(uv, atoms) == {2, 3}
    assert elasticity(uv, atoms) == Fraction(3, 2)

    u = cs.sequence((1, 1, 0, 0, 0, 1))
    assert length_set(u, atoms) == {1}
    assert elasticity(u, atoms) == 1


def test_length_set_infinite_order_classes():
    g = Z1.element((1,))
    cs = ClassSet(Z1, (-g, -2 * g, 3 * g))
    atoms = enumerate_atoms(cs)
    s = cs.sequence((3, 0, 1))
    s2 = cs.sequence((0, 3, 2))
    lengths = length_set(s * s2, atoms)
    assert 2 in lengths and 3 in lengths


def test_atom_set_index_and_support_masks():
    cs = signed_basis_set(3)
    atoms = enumerate_atoms(cs)
    for i, a in enumerate(atoms):
        assert atoms.index(cs.sequence(a.exponents)) == i
        assert atoms.contains(a)
        assert atoms.support_masks[i] == sum(1 << j for j in a.support_indices())
    missing = cs.sequence((1,) * len(cs))
    assert not atoms.contains(missing)
    with pytest.raises(AtomNotInSet):
        atoms.index(missing)



def assert_lengths_match_listing(b, atoms):
    """The table's length set and elasticity against the listed factorizations."""
    want = {len(f) for f in factorizations(b, atoms)}
    assert length_set(b, atoms) == want
    assert elasticity(b, atoms) == (Fraction(max(want), min(want)) if want != {0} else 1)


@st.composite
def class_sets_with_products(draw):
    """(atoms, a product of up to 4 random atom powers of exponent 1-3) over
    2-4 classes of a cyclic group, C2 x C2, Z or Z^2, with or without the
    zero class at a random position."""
    kind = draw(st.sampled_from(["cyclic", "klein", "rank1", "rank2"]))
    if kind == "cyclic":
        group = FinGenAbelianGroup.cyclic(draw(st.integers(3, 7)))
        pool = [g for g in group.elements() if not g.is_zero()]
    elif kind == "klein":
        group = FinGenAbelianGroup(0, (2, 2))
        pool = [g for g in group.elements() if not g.is_zero()]
    elif kind == "rank1":
        group = Z1
        pool = [group.element((v,)) for v in (-3, -2, -1, 1, 2, 3)]
    else:
        group = Z2
        pool = [group.element((a, b)) for a in (-1, 0, 1) for b in (-2, -1, 0, 1, 2)
                if (a, b) != (0, 0)]
    classes = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4,
                            unique_by=lambda g: g.coords()))
    if draw(st.booleans()):
        classes.insert(draw(st.integers(0, len(classes))), group.zero())
    cs = ClassSet(group, tuple(classes))
    atoms = enumerate_atoms(cs)
    b = cs.empty_sequence()
    if len(atoms):
        for i in draw(st.lists(st.integers(0, len(atoms) - 1), max_size=4)):
            b = b * atoms[i] ** draw(st.integers(1, 3))
    return atoms, b


@settings(max_examples=150)
@given(class_sets_with_products())
def test_length_set_and_elasticity_match_listing(case):
    atoms, b = case
    assert_lengths_match_listing(b, atoms)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_length_set_matches_listing_on_signed_basis(n):
    # verify's signed-basis cases: U = e_1...e_n (-f), V = (-e_1)...(-e_n) f
    cs = signed_basis_set(n)
    atoms = enumerate_atoms(cs)
    u = cs.sequence([1] * n + [0] * n + [0, 1])
    v = cs.sequence([0] * n + [1] * n + [1, 0])
    for k in (1, 2, 3):
        assert_lengths_match_listing((u * v) ** k, atoms)
    assert length_set(u * v, atoms) == {2, n + 1}


def test_length_set_checks_and_empty_sequence():
    cs = ClassSet(C3, (C3.element((1,)), C3.element((2,))))
    atoms = enumerate_atoms(cs)
    assert length_set(cs.empty_sequence(), atoms) == {0}
    assert elasticity(cs.empty_sequence(), atoms) == 1
    with pytest.raises(NotZeroSum):
        length_set(cs.sequence((1, 0)), atoms)
    with pytest.raises(DimensionMismatch):
        length_set(signed_basis_set(2).empty_sequence(), atoms)
    assert length_set(cs.sequence((3000, 0)), atoms) == {1000}


def test_length_set_budget_counts_table_states():
    cs = signed_basis_set(3)
    atoms = enumerate_atoms(cs)
    uv = cs.sequence((1,) * 8)
    with pytest.raises(BudgetExceeded, match="length table"):
        length_set(uv ** 3, atoms, budget=1)
    with pytest.raises(BudgetExceeded, match="length table"):
        elasticity(uv ** 3, atoms, budget=1)
    assert length_set(uv ** 3, atoms) == {6, 8, 10, 12}
