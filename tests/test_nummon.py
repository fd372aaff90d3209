from functools import lru_cache

import pytest

from strongatoms import nummon
from strongatoms.errors import NoWitness, NotMember
from strongatoms.nummon import (
    NumericalMonoid,
    nm_atoms,
    nm_factorizations,
    nm_witness_non_absirred,
)
from strongatoms.zsm import vector_length_mask


def table_lengths(m, x):
    """The factorization lengths of x from zsm's length table over the
    one-coordinate atoms of m (no factorization is listed)."""
    mask = vector_length_mask((x,), [(a,) for a in nm_atoms(m)])
    return {k for k in range(mask.bit_length()) if mask >> k & 1}


def count_representations(atoms, x):
    """DP oracle: number of multisets of atoms summing to x."""

    @lru_cache(maxsize=None)
    def ways(rem, i):
        if rem == 0:
            return 1
        if i == len(atoms) or atoms[i] > rem:
            return 0
        return ways(rem - atoms[i], i) + ways(rem, i + 1)

    return ways(x, 0)


def test_interval_atoms():
    assert nm_atoms(NumericalMonoid.interval(2)) == (2, 3)
    assert nm_atoms(NumericalMonoid.interval(1)) == (1,)
    assert nm_atoms(NumericalMonoid.interval(4)) == (4, 5, 6, 7)


def test_constructor_validation():
    with pytest.raises(ValueError):
        NumericalMonoid.interval(0)
    with pytest.raises(ValueError):
        NumericalMonoid.generated(2, 4)
    with pytest.raises(ValueError):
        NumericalMonoid.generated()


def test_membership():
    m2 = NumericalMonoid.interval(2)
    assert m2.contains(0) and m2.contains(2) and not m2.contains(1)
    g = NumericalMonoid.generated(3, 5)
    hits = [x for x in range(12) if g.contains(x)]
    assert hits == [0, 3, 5, 6, 8, 9, 10, 11]


def test_factorizations_examples():
    m2 = NumericalMonoid.interval(2)
    assert nm_factorizations(m2, 6) == [(2, 2, 2), (3, 3)]
    assert table_lengths(m2, 6) == {2, 3}
    assert nm_factorizations(m2, 2) == [(2,)]
    assert nm_factorizations(m2, 5) == [(2, 3)]
    with pytest.raises(NotMember):
        nm_factorizations(m2, 1)
    with pytest.raises(NotMember):
        nm_factorizations(m2, 0)


def test_witness_examples():
    w = nm_witness_non_absirred(NumericalMonoid.interval(2), 2)
    assert (w.t, w.element) == (3, 6)
    assert w.copies_of_atom == (2, 2, 2) and w.copies_of_t == (3, 3)

    w3 = nm_witness_non_absirred(NumericalMonoid.interval(3), 4)
    assert w3.t == 3 and w3.element == 12
    assert w3.copies_of_atom == (4, 4, 4)
    assert w3.copies_of_t == (3, 3, 3, 3)

    with pytest.raises(NoWitness):
        nm_witness_non_absirred(NumericalMonoid.interval(1), 1)
    with pytest.raises(NotMember):
        nm_witness_non_absirred(NumericalMonoid.interval(2), 5)


def test_every_interval_atom_has_witness():
    for n in range(2, 9):
        m = NumericalMonoid.interval(n)
        for atom in nm_atoms(m):
            w = nm_witness_non_absirred(m, atom)
            assert sum(w.copies_of_atom) == sum(w.copies_of_t) == w.element
            facs = nm_factorizations(m, w.element)
            assert tuple(sorted(w.copies_of_atom)) in facs
            assert tuple(sorted(w.copies_of_t)) in facs


def test_interval_1_factorial():
    m1 = NumericalMonoid.interval(1)
    for x in range(1, 31):
        assert nm_factorizations(m1, x) == [(1,) * x]


def test_generated_minimal_generators():
    assert nm_atoms(NumericalMonoid.generated(2, 3, 4)) == (2, 3)
    assert nm_atoms(NumericalMonoid.generated(4, 6, 9)) == (4, 6, 9)
    assert nm_atoms(NumericalMonoid.generated(3, 5, 7)) == (3, 5, 7)
    assert nm_atoms(NumericalMonoid.generated(2, 5, 9)) == (2, 5)


GENERATOR_SETS = [(3, 5), (4, 6, 9), (2, 5, 9, 11), (5, 7, 11, 13), (7, 11),
                  (2, 3, 4), (2, 5, 9), (6, 10, 15), (1,), (1, 4, 9)]


def sums_of_generators(gens, limit):
    """Oracle: the values 0..limit reachable by adding generators, grown as a
    set closure."""
    reached = {0}
    frontier = {0}
    while frontier:
        frontier = {v + g for v in frontier for g in gens if v + g <= limit} - reached
        reached |= frontier
    return reached


@pytest.mark.parametrize("gens", GENERATOR_SETS)
def test_generated_membership_and_atoms_match_closure(gens):
    m = NumericalMonoid.generated(*gens)
    reached = sums_of_generators(m.data, 60)
    assert [x for x in range(-3, 61) if m.contains(x)] == sorted(reached)
    # an atom is a generator that is no sum of two nonzero members
    want = tuple(g for g in m.data
                 if not any(a in reached and g - a in reached for a in range(1, g)))
    assert nm_atoms(m) == want


def test_membership_keeps_no_process_global_cache():
    m = NumericalMonoid.generated(7, 11)
    assert [m.contains(x) for x in range(1000, 1010)] == [True] * 10
    assert not [name for name, obj in vars(nummon).items() if hasattr(obj, "cache_info")]


def test_generated_factorization_counts_match_dp():
    cases = [
        NumericalMonoid.generated(3, 5),
        NumericalMonoid.generated(4, 6, 9),
        NumericalMonoid.generated(2, 5, 9, 11),
        NumericalMonoid.generated(5, 7, 11, 13),
    ]
    for m in cases:
        atoms = nm_atoms(m)
        for x in range(1, 41):
            if m.contains(x):
                assert len(nm_factorizations(m, x)) == count_representations(atoms, x)


def test_generated_data_sorted_without_repeats():
    # the constructor, not only NumericalMonoid.generated, normalizes the generators
    assert NumericalMonoid("generated", (3, 2)) == NumericalMonoid.generated(2, 3)
    assert NumericalMonoid("generated", (3, 2)).data == (2, 3)
    assert nm_factorizations(NumericalMonoid("generated", (3, 2)), 2) == [(2,)]
    repeated = NumericalMonoid("generated", (2, 2, 3))
    assert repeated.data == (2, 3)
    assert nm_atoms(repeated) == (2, 3)
    assert nm_factorizations(repeated, 6) == [(2, 2, 2), (3, 3)]


def test_generated_factorizations_sum_back():
    m = NumericalMonoid.generated(4, 6, 9)
    for x in (13, 18, 24, 31):
        if m.contains(x):
            for f in nm_factorizations(m, x):
                assert sum(f) == x
                assert all(a in nm_atoms(m) for a in f)


def test_length_set_matches_listed_lengths():
    monoids = [NumericalMonoid.interval(n) for n in (1, 2, 3, 4)] + [
        NumericalMonoid.generated(3, 5),
        NumericalMonoid.generated(4, 6, 9),
        NumericalMonoid.generated(2, 5, 9, 11),
    ]
    for m in monoids:
        for x in range(1, 41):
            assert table_lengths(m, x) == (
                {len(f) for f in nm_factorizations(m, x)} if m.contains(x) else set())


@pytest.mark.parametrize("n, x", [(2, 2500), (3, 2000), (5, 4321)])
def test_length_set_deep_interval(n, x):
    # x is a sum of k atoms from [n, 2n-1] iff n*k <= x <= (2n-1)*k
    want = set(range(-(-x // (2 * n - 1)), x // n + 1))
    assert table_lengths(NumericalMonoid.interval(n), x) == want
