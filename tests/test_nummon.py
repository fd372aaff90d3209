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
        NumericalMonoid(-3)
    assert NumericalMonoid.interval(5) == NumericalMonoid(5)
    assert NumericalMonoid.interval(5).n == 5


def test_membership():
    m2 = NumericalMonoid.interval(2)
    assert m2.contains(0) and m2.contains(2) and not m2.contains(1)
    m5 = NumericalMonoid.interval(5)
    hits = [x for x in range(-3, 12) if m5.contains(x)]
    assert hits == [0, 5, 6, 7, 8, 9, 10, 11]


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


def test_membership_keeps_no_process_global_cache():
    m = NumericalMonoid.interval(7)
    assert [m.contains(x) for x in range(1000, 1010)] == [True] * 10
    assert not [name for name, obj in vars(nummon).items() if hasattr(obj, "cache_info")]


@pytest.mark.parametrize("n", range(1, 8))
def test_interval_factorization_counts_match_dp(n):
    m = NumericalMonoid.interval(n)
    atoms = nm_atoms(m)
    for x in range(1, 61):
        if not m.contains(x):
            continue
        facs = nm_factorizations(m, x)
        assert len(facs) == len(set(facs)) == count_representations(atoms, x)
        for f in facs:
            assert sum(f) == x and list(f) == sorted(f)
            assert all(n <= a < 2 * n for a in f)


def test_length_set_matches_listed_lengths():
    for m in map(NumericalMonoid.interval, range(1, 8)):
        for x in range(1, 41):
            assert table_lengths(m, x) == (
                {len(f) for f in nm_factorizations(m, x)} if m.contains(x) else set())


@pytest.mark.parametrize("n, x", [(2, 2500), (3, 2000), (5, 4321)])
def test_length_set_deep_interval(n, x):
    # x is a sum of k atoms from [n, 2n-1] iff n*k <= x <= (2n-1)*k
    want = set(range(-(-x // (2 * n - 1)), x // n + 1))
    assert table_lengths(NumericalMonoid.interval(n), x) == want
