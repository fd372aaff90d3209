import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from strongatoms import krull, zsm
from strongatoms.abgroup import (
    DEFAULT_NODE_BUDGET,
    FinGenAbelianGroup,
    abelian_groups_of_order,
    minimal_nonneg_kernel,
    zero_sum_columns,
)
from strongatoms.errors import (
    AtomNotInSet,
    BudgetExceeded,
    DimensionMismatch,
    NotZeroSum,
)
from strongatoms.zsm import (
    ClassSet,
    elasticity,
    enumerate_atoms,
    factorizations,
    is_minimal_zero_sum,
    length_set,
    minimal_zero_sum_vectors,
    vector_factorizations,
    vector_length_mask,
)

from conftest import B_ZN_FACTOR_TARGETS, atom_product
from factorization_search import next_index_vector_factorizations

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
    minimality test.  The bound defaults to |G| (finite groups only): no
    minimal zero-sum sequence over a finite group is longer."""
    if bound is None:
        bound = cs.group.cardinality()
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


def walk_is_minimal_zero_sum(s):
    """Reference for is_minimal_zero_sum: a recursive walk over every
    sub-exponent vector of a zero-sum s, stopping at the first proper
    nonempty zero-sum one."""
    if not s.is_zero_sum():
        return False
    exps = s.exponents
    classes = s.class_set.classes
    idx = [i for i, e in enumerate(exps) if e]
    zero = s.class_set.group.zero()

    def walk(pos, partial, taken):
        if pos == len(idx):
            return 0 < taken < len(s) and partial == zero
        g = classes[idx[pos]]
        cur = partial
        for c in range(exps[idx[pos]] + 1):
            if walk(pos + 1, cur, taken + c):
                return True
            cur = cur + g
        return False

    return not walk(0, zero, 0)


SEQUENCE_PRESENTATIONS = tuple(FinGenAbelianGroup(r, t) for r, t in (
    (0, (6,)), (0, (2, 4)), (0, (3, 3)), (0, (2, 2, 2)), (0, (12,)),
    (1, ()), (2, ()), (3, ()), (1, (2,)), (1, (4,))))


@st.composite
def nonempty_sequences(draw):
    """A nonempty sequence over up to five distinct classes with exponents up
    to 4, free coordinates in [-3, 3]; mostly completed to a zero-sum one by
    the negative of its sum."""
    group = draw(st.sampled_from(SEQUENCE_PRESENTATIONS))
    coords = st.tuples(*(st.integers(-3, 3) for _ in range(group.free_rank)),
                       *(st.integers(0, d - 1) for d in group.torsion))
    classes = draw(st.lists(coords.map(group.element), min_size=1, max_size=5,
                            unique_by=lambda g: g.coords()))
    exps = draw(st.lists(st.integers(0, 4), min_size=len(classes), max_size=len(classes)))
    if draw(st.integers(0, 3)):
        total = -ClassSet(group, tuple(classes)).sequence(exps).sigma()
        if total in classes:
            exps[classes.index(total)] += 1
        else:
            classes.append(total)
            exps.append(1)
    if not any(exps):
        exps[0] = 1
    return ClassSet(group, tuple(classes)).sequence(exps)


@settings(derandomize=True, max_examples=300)
@given(nonempty_sequences())
def test_is_minimal_zero_sum_matches_walk(s):
    assert is_minimal_zero_sum(s) == walk_is_minimal_zero_sum(s)


def test_is_minimal_zero_sum_long_cyclic_atom():
    # 1^24 2^12 3^8 4^6 6^4 8^3 12^2 24 over Z/192: positive integers summing
    # to 192, so every proper subsum lies strictly between 0 and 192.  The
    # walk above needs seconds here; the subsum set holds at most 192 classes.
    group = FinGenAbelianGroup.cyclic(192)
    cs = ClassSet(group, tuple(group.element((k,)) for k in (1, 2, 3, 4, 6, 8, 12, 24)))
    atom = cs.sequence((24, 12, 8, 6, 4, 3, 2, 1))
    assert is_minimal_zero_sum(atom)
    assert not is_minimal_zero_sum(atom * cs.sequence((0,) * 7 + (8,)))
    assert not is_minimal_zero_sum(atom / cs.sequence((1,) + (0,) * 7))


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


def test_atom_certificate_finite_class_set():
    # torsion-only classes, also inside a group of positive free rank, are
    # enumerated over the torsion part
    c6 = FinGenAbelianGroup.cyclic(6)
    mixed = FinGenAbelianGroup(1, (4,))
    for cs, order in ((ClassSet(c6, (c6.element((1,)), c6.element((2,)))), 6),
                      (ClassSet(mixed, (mixed.element((0, 1)), mixed.zero())), 4)):
        assert enumerate_atoms(cs, budget=50).certificate == {
            "method": "zero-sum-free-search", "columns": 2, "group_order": order,
            "node_budget": 50}


FINITE_PRESENTATIONS = (FinGenAbelianGroup(0, (6,)), FinGenAbelianGroup(0, (2, 4)),
                        FinGenAbelianGroup(0, (2, 3)), FinGenAbelianGroup(0, (3, 3)),
                        FinGenAbelianGroup(0, (2, 2, 2)), FinGenAbelianGroup(1, (4,)))


@st.composite
def finite_value_lists(draw):
    """(group, values): up to seven torsion-only values, repeats and the zero
    class allowed, in one of the presentations above."""
    group = draw(st.sampled_from(FINITE_PRESENTATIONS))
    coords = st.tuples(*(st.integers(0, d - 1) for d in group.torsion))
    values = draw(st.lists(coords, max_size=7))
    return group, [group.element((0,) * group.free_rank + c) for c in values]


@settings(derandomize=True, max_examples=300)
@given(finite_value_lists())
@example((FinGenAbelianGroup(0, (6,)), [FinGenAbelianGroup(0, (6,)).element((k,))
                                        for k in (0, 2, 2, 3, 0, 5)]))
@example((FinGenAbelianGroup(1, (4,)), [FinGenAbelianGroup(1, (4,)).element((0, k))
                                        for k in (1, 1, 0, 3, 2)]))
def test_zero_sum_free_search_matches_completion(case):
    group, values = case
    m = len(values)
    want = sorted(s[:m] for s in minimal_nonneg_kernel(zero_sum_columns(group, values)))
    assert minimal_zero_sum_vectors(group, values) == want


@pytest.mark.parametrize("torsion, nodes", [((2, 2, 2, 2), 1380), ((12,), 1079)])
def test_zero_sum_free_search_node_count(torsion, nodes):
    # the budget counts the nonempty zero-sum-free multisets: over C2^4 \ 0
    # those are the 15 + 105 + 420 + 840 independent sets
    group = FinGenAbelianGroup(0, torsion)
    cs = ClassSet(group, tuple(g for g in group.elements() if not g.is_zero()))
    with pytest.raises(BudgetExceeded, match=f"zero-sum-free search exceeded {nodes - 1} nodes"):
        enumerate_atoms(cs, budget=nodes - 1)
    enumerate_atoms(cs, budget=nodes)


def test_large_torsion_part_goes_to_completion_search():
    # a subsum mask over Z/10^12 or (Z/2)^40 would not fit in memory; the
    # completion search finds these atoms within a small budget
    big = FinGenAbelianGroup.cyclic(10**12)
    atoms = enumerate_atoms(ClassSet(big, (big.element((5 * 10**11,)),)), budget=2)
    assert [a.exponents for a in atoms] == [(2,)]
    assert atoms.certificate["method"] == "completion-search"
    c2_40 = FinGenAbelianGroup(0, (2,) * 40)
    e0, e1 = (c2_40.element((1,) * k + (0,) * (40 - k)) for k in (1, 2))
    atoms = enumerate_atoms(ClassSet(c2_40, (e0, e1, e0 + e1)), budget=100)
    assert [a.exponents for a in atoms] == [(0, 0, 2), (0, 2, 0), (1, 1, 1), (2, 0, 0)]
    assert atoms.certificate["method"] == "completion-search"


@pytest.mark.parametrize("order, method", [
    (zsm.ZERO_SUM_FREE_MAX_ORDER, "zero-sum-free-search"),
    (zsm.ZERO_SUM_FREE_MAX_ORDER + 1, "completion-search")])
def test_search_choice_at_the_order_threshold(order, method):
    group = FinGenAbelianGroup.cyclic(order)
    values = (group.element((1,)), group.element((order // 2,)))
    atoms = enumerate_atoms(ClassSet(group, values), budget=10**5)
    assert atoms.certificate["method"] == method
    want = zsm._zero_sum_free_search(group, values, 10**5)
    assert want == sorted(s[:2] for s in minimal_nonneg_kernel(zero_sum_columns(group, values)))
    assert [a.exponents for a in atoms] == want


def test_oracle_equivalence_small_orders():
    for n in range(1, 7):
        for group in abelian_groups_of_order(n):
            elems = list(group.elements())
            for r in range(1, len(elems) + 1):
                for combo in combinations(elems, r):
                    cs = ClassSet(group, combo)
                    got = [a.exponents for a in enumerate_atoms(cs)]
                    assert got == brute_force_atoms(cs), (group, combo)


def check_every_class_set(orders):
    # The atoms of B(S), S a subset of G, are the atoms of B(G) supported in
    # S: a zero-sum subsequence of a sequence over S is itself over S, and
    # the length bound is |G| for both.  So the oracle runs once per group.
    for n in orders:
        for group in abelian_groups_of_order(n):
            elems = list(group.elements())
            oracle = brute_force_atoms(ClassSet(group, tuple(elems)))
            for r in range(1, len(elems) + 1):
                for combo in combinations(range(len(elems)), r):
                    cs = ClassSet(group, tuple(elems[i] for i in combo))
                    got = [a.exponents for a in enumerate_atoms(cs)]
                    outside = set(range(len(elems))) - set(combo)
                    want = sorted(tuple(a[i] for i in combo) for a in oracle
                                  if not any(a[i] for i in outside))
                    assert got == want, (group, combo)


@pytest.mark.slow
def test_oracle_equivalence_orders_7_8():
    check_every_class_set((7, 8))


@pytest.mark.slow
def test_oracle_equivalence_orders_9_10():
    check_every_class_set((9, 10))


# Closed forms for the atoms of B(G minus 0) over groups beyond the brute
# force's reach.  They check the output, not the method.


@lru_cache(maxsize=None)
def nonzero_atom_lengths(torsion):
    """The lengths of the atoms of B(G minus 0), G = Z/d_1 + ... + Z/d_k."""
    group = FinGenAbelianGroup(0, torsion)
    cs = ClassSet(group, tuple(g for g in group.elements() if not g.is_zero()))
    return tuple(len(a) for a in enumerate_atoms(cs))


@pytest.mark.parametrize("torsion", [(2,) * 5, (4, 4), (2, 8), (3, 3, 3), (16,)],
                         ids=lambda t: "+".join(f"Z{d}" for d in t))
def test_longest_atom_is_olson_davenport_constant(torsion):
    # Olson (J. Number Theory 1, 1969): for a p-group the longest minimal
    # zero-sum sequence has length D(G) = 1 + sum(n_i - 1)
    assert max(nonzero_atom_lengths(torsion)) == 1 + sum(d - 1 for d in torsion)


@pytest.mark.parametrize("r, count", [(4, 323), (5, 20367)])
def test_atom_count_of_elementary_2_group(r, count):
    # the atoms of B(C2^r minus 0) are the g^2 and the circuits of F_2^r:
    # k independent vectors and their sum, counted (k+1)! times as ordered
    # k-tuples of independent vectors
    circuits = sum(math.prod(2**r - 2**i for i in range(k)) // math.factorial(k + 1)
                   for k in range(2, r + 1))
    assert (2**r - 1) + circuits == count
    assert len(nonzero_atom_lengths((2,) * r)) == count


def partitions_into_parts(n, parts):
    """The number of partitions of n into exactly ``parts`` positive parts."""
    if parts == 0:
        return int(n == 0)
    if n < parts:
        return 0
    # either some part is 1, or every part is at least 2
    return partitions_into_parts(n - 1, parts - 1) + partitions_into_parts(n - parts, parts)


@pytest.mark.parametrize("n", range(5, 17))
def test_long_atoms_over_cyclic_groups_savchev_chen(n):
    # Savchev & Chen (Discrete Math. 307, 2007): a minimal zero-sum sequence
    # over Z/n of length l >= n//2 + 2 is (x_1 g)...(x_l g) for a generator g
    # and positive x_i summing to n, so there are phi(n) * p(n, l) of them
    lengths = nonzero_atom_lengths((n,))
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    for length in range(n // 2 + 2, n + 1):
        assert lengths.count(length) == phi * partitions_into_parts(n, length), length


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
    assert all(atom_product(atoms, f) == uv.exponents for f in facs)
    iu, iv = atoms.index(u), atoms.index(v)
    assert tuple(sorted((iu, iv))) in facs


def test_factorizations_is_the_table_list():
    # zsm.factorizations hands back vector_factorizations' list as it is:
    # ascending index tuples in lexicographic order
    cs = signed_basis_set(2)
    atoms = enumerate_atoms(cs)
    b = cs.sequence((2, 2, 2, 2, 2, 2))
    facs = factorizations(b, atoms)
    assert facs == vector_factorizations(b.exponents, [a.exponents for a in atoms])
    assert facs == sorted(facs) and len(facs) > 2
    assert all(type(f) is tuple and f == tuple(sorted(f)) for f in facs)


def test_factorizations_t_cubed():
    cs = ClassSet(C3, (C3.element((1,)), C3.element((2,))))
    atoms = enumerate_atoms(cs)
    t = cs.sequence((1, 1))
    facs = factorizations(t ** 3, atoms)
    it = atoms.index(t)
    ig3 = atoms.index(cs.sequence((3, 0)))
    ih3 = atoms.index(cs.sequence((0, 3)))
    assert (it, it, it) in facs
    assert tuple(sorted((ig3, ih3))) in facs


def test_factorization_of_single_atom_and_empty():
    cs = ClassSet(C3, (C3.element((1,)),))
    atoms = enumerate_atoms(cs)
    facs = factorizations(cs.sequence((3,)), atoms)
    assert facs == [(0,)]
    assert factorizations(cs.empty_sequence(), atoms) == [()]


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
def test_vector_factorizations_matches_next_index_search(system):
    target, atoms = system
    full = vector_factorizations(target, atoms)
    for limit in (None, 1, 2):
        assert next_index_vector_factorizations(target, atoms, limit) == full[:limit]


@settings(max_examples=400)
@given(factorization_systems())
def test_vector_length_mask_matches_listed_lengths(system):
    target, atoms = system
    mask = vector_length_mask(target, atoms)
    assert mask == sum(1 << k for k in {len(f) for f in vector_factorizations(target, atoms)})


@settings(max_examples=1200)
@given(factorization_systems(), st.randoms(use_true_random=False))
def test_vector_factorizations_matches_next_index_search_on_reordered_atoms(system, rng):
    # atoms as drawn, in lexicographic order as an AtomSet keeps them, and
    # shuffled with a duplicate, where the least budget names itself one below
    target, atoms = system
    shuffled = atoms + [atoms[rng.randrange(len(atoms))]]
    rng.shuffle(shuffled)
    for vectors in (atoms, sorted(atoms), shuffled):
        full = vector_factorizations(target, vectors)
        for limit in (None, 1, 2, 3, len(full) + 1):
            assert next_index_vector_factorizations(target, vectors, limit) == full[:limit]
    if any(target):
        assert_least_budget(lambda b: vector_factorizations(target, shuffled, budget=b),
                            "factorization table exceeded {} nodes")


def test_vector_factorizations_many_first_class_atoms():
    # more atoms in the target's first class than the default recursion
    # limit, so a search with one call frame per such atom could not return
    atoms = [(1, i) for i in range(3000)] + [(0, 2999)]
    assert vector_factorizations((1, 2999), atoms) == [(0, 3000), (2999,)]


def test_vector_factorizations_budget_bounds_block_listing():
    # one state with about 2.25 million blocks: the budget must stop the
    # listing of the blocks, not only the states
    atoms = [(1, i) for i in range(3000)] + [(0, 1)]
    with pytest.raises(BudgetExceeded, match="factorization table exceeded 10 nodes"):
        vector_factorizations((2, 2999), atoms, budget=10)


def test_vector_factorizations_budget_bounds_merged_entries():
    # e_k and 2 e_k on 30 classes: 31 states and few blocks, but 2^30
    # factorizations of (2,) * 30; the merged entries count as nodes
    m = 30
    atoms = []
    for k in range(m):
        for x in (1, 2):
            atoms.append(tuple(x if s == k else 0 for s in range(m)))
    with pytest.raises(BudgetExceeded, match="factorization table exceeded 1000 nodes"):
        vector_factorizations((2,) * m, atoms, budget=1000)
    assert len(vector_factorizations((2,) * 8, [a[:8] for a in atoms[:16]])) == 2 ** 8


def least_budget(search):
    """The least budget of at least 1 at which ``search(budget)`` returns."""
    hi = 1
    while True:
        try:
            search(hi)
            break
        except BudgetExceeded:
            hi *= 2
    lo = hi // 2          # raises there, or is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            search(mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


def assert_least_budget(search, message):
    """``search`` returns at its least budget b, and at b - 1 raises
    BudgetExceeded with ``message`` formatted with b - 1; returns b."""
    budget = least_budget(search)
    with pytest.raises(BudgetExceeded) as raised:
        search(budget - 1)
    assert str(raised.value) == message.format(budget - 1)
    return budget


# least budgets of the factorization table on the factor targets of the
# lengths benchmark workload: listing the entries as the table builds them
# walks no other node than when every entry was sorted again
B_ZN_FACTOR_LEAST_BUDGETS = (414, 9338, 3034, 5952, 4624, 2124, 2941, 8594, 1501, 1088)


@pytest.mark.parametrize("n, target, budget", [
    (n, target, budget)
    for (n, target), budget in zip(B_ZN_FACTOR_TARGETS, B_ZN_FACTOR_LEAST_BUDGETS)])
def test_factorization_table_on_benchmark_targets(n, target, budget):
    group = FinGenAbelianGroup.cyclic(n)
    vectors = minimal_zero_sum_vectors(group, [group.element((k,)) for k in range(1, n)])
    search = lambda b: vector_factorizations(target, vectors, budget=b)
    assert assert_least_budget(search, "factorization table exceeded {} nodes") == budget
    full = search(budget)
    assert full == next_index_vector_factorizations(target, vectors)
    assert vector_length_mask(target, vectors) == sum(1 << k for k in {len(f) for f in full})


@st.composite
def wide_factorization_systems(draw):
    """(target, atom vectors) on 1-4 or 30-34 classes with entries up to
    2^40: 1-6 atoms with 1-3 nonzero classes and counts 1-3, the target a
    sum of 0-2 copies of each (one class sometimes one more), then class j
    scaled by its own factor s_j, so the target's entries are at most
    2^K - 1.  A class whose target count is 1 may get s_j = 2^K - 1 (a
    field that fills all but its guard bit), and the first such class
    always does; classes no atom copy reaches stay 0."""
    m = draw(st.one_of(st.integers(1, 4), st.integers(30, 34)))
    atom = st.dictionaries(st.integers(0, m - 1), st.integers(1, 3),
                           min_size=1, max_size=3)
    counts = draw(st.lists(atom, min_size=1, max_size=6))
    target = [0] * m
    for a in counts:
        copies = draw(st.integers(0, 2))
        for s, x in a.items():
            target[s] += copies * x
    if draw(st.booleans()):
        target[draw(st.integers(0, m - 1))] += 1
    full = 2 ** draw(st.integers(1, 40)) - 1
    filled = False
    scale = []
    for t in target:
        if t == 1 and (not filled or draw(st.booleans())):
            scale.append(full)
            filled = True
        else:
            scale.append(draw(st.integers(1, max(1, full // max(t, 1)))))
    atoms = [tuple(a.get(s, 0) * scale[s] for s in range(m)) for a in counts]
    return tuple(t * x for t, x in zip(target, scale)), atoms


@settings(max_examples=300)
@given(wide_factorization_systems(), st.randoms(use_true_random=False))
def test_packed_tables_match_next_index_search(system, rng):
    target, atoms = system
    shuffled = atoms + [atoms[rng.randrange(len(atoms))]]
    rng.shuffle(shuffled)
    for vectors in (atoms, shuffled):
        factor = lambda b: vector_factorizations(target, vectors, budget=b)
        lengths = lambda b: vector_length_mask(target, vectors, budget=b)
        full = factor(DEFAULT_NODE_BUDGET)
        assert full == next_index_vector_factorizations(target, vectors)
        assert lengths(DEFAULT_NODE_BUDGET) == sum(1 << k for k in {len(f) for f in full})
        if any(target):
            assert_least_budget(factor, "factorization table exceeded {} nodes")
            assert_least_budget(lengths, "length table exceeded {} states")


# (classes, target, atoms, least factorization budget, least length budget):
# wide systems drawn for test_packed_tables_match_next_index_search, with
# classes and atoms written sparsely: the most nodes on one, two and three
# classes, the most on 30 classes or more, and fields filled up to their
# guard bit (2^31 - 1, 2^37 - 1)
WIDE_SYSTEM_BUDGETS = [
    (1, {0: 3638}, [{0: 642}, {0: 214}, {0: 428}, {0: 428}, {0: 214}, {0: 642}], 4880, 18),
    (2, {0: 2558772, 1: 26},
     [{0: 284308}, {0: 568616, 1: 6}, {1: 2}, {0: 284308}, {0: 568616, 1: 6}, {0: 284308},
      {0: 568616, 1: 6}], 1172, 39),
    (3, {0: 555720, 1: 2493, 2: 12298},
     [{0: 50520, 1: 277, 2: 1118}, {0: 101040, 1: 277, 2: 1118}, {0: 151560, 1: 277, 2: 2236},
      {0: 50520, 1: 554, 2: 3354}, {0: 151560, 1: 554, 2: 1118}, {0: 50520, 1: 277, 2: 1118},
      {0: 101040, 1: 277, 2: 1118}], 955, 203),
    (33, {4: 2, 7: 15, 9: 5, 12: 10, 20: 2, 22: 6, 24: 4, 31: 4},
     [{7: 3, 9: 1, 12: 2}, {7: 3, 9: 1, 12: 2}, {7: 3, 9: 1, 12: 2}, {20: 1, 24: 2, 31: 2},
      {7: 3, 9: 1, 12: 2}, {4: 1, 22: 3}, {7: 3, 9: 1, 12: 2}], 381, 10),
    (34, {4: 708, 6: 84240, 11: 2115, 20: 82062, 24: 2 ** 37 - 1, 33: 127746},
     [{4: 236, 20: 41031}, {15: 25014}, {4: 236, 20: 41031}, {9: 5273},
      {6: 42120, 11: 705, 33: 42582}, {4: 236, 11: 705, 33: 42582},
      {4: 236, 11: 705, 33: 42582}], 20, 13),
    (31, {5: 2 ** 31 - 1, 7: 580080, 10: 9926, 15: 3, 20: 2 ** 31 - 1, 23: 576, 29: 1650,
          30: 8565},
     [{29: 825}, {5: 2 ** 31 - 1, 10: 9926, 23: 576}, {3: 10362, 16: 784, 17: 1984780482},
      {7: 290040}, {5: 2 ** 31 - 1, 10: 9926, 23: 576}, {15: 3, 20: 2 ** 31 - 1, 30: 8565},
      {29: 825}], 22, 7),
]


@pytest.mark.parametrize("m, target, atoms, factor_budget, length_budget", WIDE_SYSTEM_BUDGETS)
def test_packed_table_budgets_on_wide_systems(m, target, atoms, factor_budget, length_budget):
    target, *atoms = (tuple(v.get(j, 0) for j in range(m)) for v in (target, *atoms))
    assert assert_least_budget(lambda b: vector_factorizations(target, atoms, budget=b),
                               "factorization table exceeded {} nodes") == factor_budget
    assert assert_least_budget(lambda b: vector_length_mask(target, atoms, budget=b),
                               "length table exceeded {} states") == length_budget


def test_packed_tables_on_zero_and_one_class_targets():
    for m in (1, 3):
        zero = (0,) * m
        atoms = [(1,) * m, (2,) * m]
        assert vector_factorizations(zero, atoms, budget=0) == [()]
        assert vector_length_mask(zero, atoms, budget=0) == 1
    parts = [(4,), (1,), (3,), (2,)]
    full = vector_factorizations((6,), parts)
    assert full == next_index_vector_factorizations((6,), parts)
    assert len(full) == 9
    assert vector_length_mask((6,), parts) == 0b1111100
    wide = 2 ** 40 - 1
    atoms = [(wide // 3,), (wide,), (wide // 5,)]
    assert vector_factorizations((wide,), atoms) == [(0, 0, 0), (1,), (2, 2, 2, 2, 2)]
    assert vector_length_mask((wide,), atoms) == 0b101010
    assert vector_factorizations((wide - 1,), atoms) == []
    assert vector_length_mask((wide - 1,), atoms) == 0
    # every count of copies from 0 to 21, each stepped down to 1
    for n in range(64):
        assert (vector_factorizations((n,), [(3,), (1,)])
                == next_index_vector_factorizations((n,), [(3,), (1,)]))


def test_block_listing_finds_large_counts_in_few_subtractions():
    # 2^39 copies fit, yet the last candidate's count is one division: it
    # cannot close its class, so no block is listed
    assert vector_factorizations((2 ** 40 + 1,), [(2,)]) == []
    assert vector_factorizations((2 ** 40, 2 ** 40 - 1), [(1, 1)]) == []
    # four copies of (1, 4, 0) would carry 16 out of class 1's 4-bit field
    # into class 2, where one guarded subtraction would not see it
    assert vector_factorizations((4, 4, 1), [(0, 1, 0), (1, 4, 0)]) == []
    # any other candidate is taken one copy, and one node, at a time
    with pytest.raises(BudgetExceeded, match="factorization table exceeded 1000 nodes"):
        vector_factorizations((2 ** 40 + 1,), [(2,), (4,)], budget=1000)


def test_block_walk_copies_no_partial_block():
    # 200,000 partial blocks, each one copy of (2,) longer than the last: a
    # walk that copied each one would copy about 2 * 10^10 indices
    with pytest.raises(BudgetExceeded, match="factorization table exceeded 200000 nodes"):
        vector_factorizations((2 ** 40 + 1,), [(2,), (4,)], budget=200_000)


def test_block_walk_nodes_on_two_classes():
    # (1, 1) taken k times for k = 0..3000, closed by (3, 0) when 3 divides
    # 3000 - k: 3,001 partial blocks in the target's state, 1,000 further
    # states, (0, 3000 - k) from (0, 3) alone, and 2,001 merged entries
    atoms = [(0, 3), (1, 1), (3, 0)]
    assert len(vector_factorizations((3000, 3000), atoms, budget=6002)) == 1001
    with pytest.raises(BudgetExceeded, match="factorization table exceeded 6001 nodes"):
        vector_factorizations((3000, 3000), atoms, budget=6001)


@pytest.mark.parametrize("search", [vector_factorizations, vector_length_mask])
def test_vector_tables_reject_inputs_outside_their_domain(search):
    for target, atoms in (((1,), [(1, 0)]), ((1, 1), [(1,)])):
        with pytest.raises(DimensionMismatch):
            search(target, atoms)
    for target, atoms in (((1, 1), [(1, -1), (0, 2)]), ((-1,), [(-1,)]),
                          ((-1, 2), [(1, 1)]), ((2,), [(0,), (1,)])):
        with pytest.raises(ValueError, match="nonnegative and atom vectors nonzero"):
            search(target, atoms)


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
            assert tuple(sorted((atoms.index(u), atoms.index(v)))) in facs
            for f in facs:
                assert len(f) >= 2 or uv.is_empty()
                assert f == tuple(sorted(f))
                assert atom_product(atoms, f) == uv.exponents


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



SMALL_GROUPS = tuple(g for n in range(2, 17) for g in abelian_groups_of_order(n))


@st.composite
def small_group_subsets(draw):
    """1-7 distinct classes, the zero class allowed, of an abelian group of
    order at most 16."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    elements = list(group.elements())
    picked = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=7, unique=True))
    return ClassSet(group, tuple(picked))


@st.composite
def free_class_sets(draw):
    """2-5 distinct classes of Z, Z^2 or Z^3 with coordinates in [-2, 2]."""
    group = FinGenAbelianGroup.free(draw(st.integers(1, 3)))
    coords = st.tuples(*(st.integers(-2, 2) for _ in range(group.free_rank)))
    classes = draw(st.lists(coords, min_size=2, max_size=5, unique=True))
    return ClassSet(group, tuple(map(group.element, classes)))


@st.composite
def shared_support_class_sets(draw):
    """g, 2g and up to three more classes of Z/n, n = 5..16: g^(n-2) 2g and
    g^(n-4) (2g)^2 are two atoms with one support."""
    n = draw(st.integers(5, 16))
    extra = draw(st.lists(st.integers(0, n - 1).filter(lambda k: k not in (1, 2)),
                          max_size=3, unique=True))
    group = FinGenAbelianGroup.cyclic(n)
    return ClassSet(group, tuple(group.element((k,)) for k in (1, 2, *extra)))


def atoms_within_support(atoms):
    """For each atom, the indices of the other atoms whose support lies in its
    own, by comparing supports as sets: the sweep's reference."""
    supports = [set(a.support_indices()) for a in atoms]
    return [[j for j, t in enumerate(supports) if j != i and t <= s]
            for i, s in enumerate(supports)]


def assert_sweep_matches_scan(atoms):
    inside = atoms_within_support(atoms)
    assert atoms.support_minimal == tuple(not js for js in inside)
    assert [atoms.atom_within_support(i) for i in range(len(atoms))] == [
        js[0] if js else None for js in inside]
    return atoms


@settings(max_examples=200)
@given(cs=st.one_of(small_group_subsets(), free_class_sets()))
def test_support_sweep_matches_per_atom_scan(cs):
    assert_sweep_matches_scan(enumerate_atoms(cs))


@settings(max_examples=200)
@given(cs=st.one_of(small_group_subsets(), free_class_sets()))
def test_one_atom_verdicts_match_the_sweep(cs):
    # krull's one-atom verdicts against the set-containment scan
    atoms = enumerate_atoms(cs)
    for u, inside in zip(atoms, atoms_within_support(atoms)):
        assert krull.is_absirred_support(u, atoms) == (not inside)
        assert (krull.witness_non_absirred(u, atoms) is None) == (not inside)


@settings(max_examples=60)
@given(cs=shared_support_class_sets())
def test_support_sweep_matches_per_atom_scan_on_shared_supports(cs):
    atoms = assert_sweep_matches_scan(enumerate_atoms(cs))
    masks = atoms.support_masks
    assert len(set(masks)) < len(masks)


@settings(max_examples=200)
@given(vectors=st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4).filter(any),
                        min_size=1, max_size=12, unique_by=tuple))
def test_support_sweep_matches_per_atom_scan_on_any_vectors(vectors):
    # an AtomSet built by hand from any distinct vectors: there two of them
    # can share a support that holds no other, which no genuine atom set has
    group = FinGenAbelianGroup.free(1)
    cs = ClassSet(group, tuple(group.element((k,)) for k in (1, 2, 3, 4)))
    assert_sweep_matches_scan(zsm.AtomSet(cs, tuple(map(cs.sequence, sorted(vectors)))))


def test_support_sweep_on_a_shared_minimal_support():
    group = FinGenAbelianGroup.free(1)
    cs = ClassSet(group, (group.element((1,)), group.element((2,))))
    atoms = zsm.AtomSet(cs, (cs.sequence((1, 1)), cs.sequence((1, 2)), cs.sequence((2, 1))))
    assert atoms.support_minimal == (False, False, False)


@pytest.mark.parametrize("torsion", [(12,), (2, 2, 2, 2), (4, 4), (16,)])
def test_support_sweep_on_full_groups(torsion):
    # B(G \ 0): the atoms g^ord(g) alone are support-minimal
    group = FinGenAbelianGroup(0, torsion)
    atoms = enumerate_atoms(ClassSet(group, tuple(group.elements())[1:]))
    assert_sweep_matches_scan(atoms)
    assert [a for a, m in zip(atoms, atoms.support_minimal) if m] == [
        a for a in atoms if len(a.support_indices()) == 1]


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
