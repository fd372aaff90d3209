"""Shared independent oracles for the test suite, and the map of its
references: each layer has one reference that shares no method with the
library, and literal pins stand in for what only a copy of former library
code checked (result order, node and division counts, budget boundaries,
report bytes).  A new fast path adds inputs to its layer's reference.

- Rational relations, kernel criterion, existence walk: ``rational_rank``,
  ``solve_rational``, ``nonneg_relation_exists`` and ``in_lattice`` here, with
  ``kernel_criterion`` and ``first_absirred_family`` (every class multiset)
  on them; pins: the relation in ``test_krull.py``'s mixed-sign families,
  ``test_absirred_search_family_count``, ``FORMER_BUDGET_FAILURES``.
- Kernel lattices and Smith normal form: ``cofactor_det`` and
  ``brute_kernel_vectors`` here (``in_lattice`` for membership).
- Completion search: the linear scan and the box-minimal brute force in
  ``test_abgroup.py``; pins: ``LARGER_SYSTEM_BUDGETS``,
  ``FORMER_INPUT_BUDGETS``, the signed basis's 5n - 1 insertions.
- Atom enumeration: ``brute_force_atoms`` and ``walk_is_minimal_zero_sum`` in
  ``test_zsm.py``.
- Factorization tables and reports: ``next_index_vector_factorizations`` in
  ``factorization_search.py``; pins: ``B_ZN_FACTOR_LEAST_BUDGETS`` and
  ``WIDE_SYSTEM_BUDGETS`` in ``test_zsm.py``, ``FACTOR_REPORT_SHA256`` in
  ``test_cli.py``.
- Z[sqrt d]: ``per_element_half_factorial_check``, ``reference_is_irreducible``
  and ``reference_brute_absirred`` in ``test_quadratic.py``; pins:
  ``HALF_FACTORIAL_DIVISIONS``.

Determinants are cofactor expansions, linear solving and ranks are rational
Gaussian elimination, kernel searches are bounded brute force, and the
existence of a nonnegative relation is decided by vertex enumeration.  The
hypothesis strategy at the end only builds inputs with the library's group
classes.  The suite's hypothesis profile is registered and loaded here.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from hypothesis import settings, strategies as st

from strongatoms.abgroup import FinGenAbelianGroup

# Property tests replay the same examples on every run and are never timed out.
settings.register_profile("strongatoms", derandomize=True, deadline=None)
settings.load_profile("strongatoms")


def cofactor_det(rows):
    """Determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def matmul(a, b, ncols):
    """The product of the matrices with rows a and b, as a tuple of row
    tuples; ``ncols`` is the column count of b, needed when b has no rows."""
    return tuple(tuple(sum(x * row[j] for x, row in zip(arow, b)) for j in range(ncols))
                 for arow in a)


def solve_rational(columns, target):
    """Solve sum_i c_i * columns[i] = target over Q; None if inconsistent.

    Assumes the columns are linearly independent, so the solution is unique
    when it exists.
    """
    if not columns:
        return [] if not any(target) else None
    rows = len(columns[0])
    ncols = len(columns)
    aug = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])]
           for i in range(rows)]
    for col in range(ncols):
        hit = next((r for r in range(col, rows) if aug[r][col]), None)
        if hit is None:
            return None  # columns not independent; caller should not rely on this
        aug[col], aug[hit] = aug[hit], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(rows):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    if any(aug[r][-1] for r in range(ncols, rows)):
        return None
    return [aug[r][-1] for r in range(ncols)]


def rational_rank(rows):
    """Rank over Q of the matrix with the given rows (Gaussian elimination)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        hit = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if hit is None:
            continue
        mat[rank], mat[hit] = mat[hit], mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def nonneg_relation_exists(vectors):
    """A nonzero x >= 0 with sum_i x_i * vectors[i] = 0 exists over Q.

    Such an x, scaled, lies in the polytope {x >= 0 : sum_i x_i = 1,
    sum_i x_i * vectors[i] = 0}, which is nonempty exactly when it has a
    vertex: a solution supported on linearly independent columns.  So every
    subfamily of the augmented columns (vector, 1) is tried, by rational
    Gaussian elimination, for a nonnegative solution.
    """
    cols = [tuple(v) + (1,) for v in vectors]
    target = (0,) * (len(cols[0]) - 1) + (1,)
    return any(
        (sol := solve_rational([cols[i] for i in subset], target)) is not None
        and all(x >= 0 for x in sol)
        for k in range(1, len(cols) + 1) for subset in combinations(range(len(cols)), k))


def in_lattice(basis, vector):
    """vector is an integer combination of the (independent) basis vectors."""
    if not basis:
        return not any(vector)
    sol = solve_rational(basis, vector)
    return sol is not None and all(c.denominator == 1 for c in sol)


def kernel_criterion(family):
    """The kernel criterion by definition: every proper subfamily is
    Z-independent and the family has a nonzero nonnegative relation.  Both
    are read off the free parts: integer and rational independence agree,
    and a nonnegative rational relation, cleared of denominators and
    multiplied by the exponent of the torsion, is a group relation."""
    vectors = tuple(g.free_part for g in family)
    # an independent family has no relation at all: skip vertex enumeration
    return (not independent(vectors)
            and all(independent(vectors[:i] + vectors[i + 1:]) for i in range(len(vectors)))
            and nonneg_relation_exists(vectors))


@lru_cache(maxsize=1 << 14)
def independent(vectors):
    """The vectors (a tuple) are linearly independent over Q: no more of
    them than their length, and of full rank.  Cached: the multiset
    enumeration asks again for every family one member larger."""
    return not vectors or (len(vectors) <= len(vectors[0])
                           and rational_rank(vectors) == len(vectors))


def first_absirred_family(spec, support_bound):
    """The first multiset of class indices, by size and then
    lexicographically, with at most ``support_bound`` members and at most
    ``spec.capped_mult()[i]`` copies of class i, whose classes meet the
    kernel criterion; the single zero class does not count.  None if no
    multiset does."""
    classes = spec.class_set.classes
    caps = spec.capped_mult()
    zero = (spec.class_set.zero_class_index(),)
    for size in range(1, support_bound + 1):
        for combo in combinations_with_replacement(range(len(classes)), size):
            if combo != zero and all(combo.count(i) <= caps[i] for i in combo) and (
                    kernel_criterion([classes[i] for i in combo])):
                return combo
    return None

def group_combination(family, alphas):
    """sum alpha_i * g_i using the library's group arithmetic."""
    total = family[0].group.zero()
    for a, g in zip(alphas, family):
        total = total + a * g
    return total


def brute_kernel_vectors(family, bound):
    """Yield every alpha in [-bound, bound]^m with sum alpha_i g_i = 0
    (including 0), lazily, so that a caller may stop at the first it needs."""
    for alphas in product(range(-bound, bound + 1), repeat=len(family)):
        if group_combination(family, alphas).is_zero():
            yield alphas


def brute_nonneg_kernel_exists(family, bound):
    m = len(family)
    for alphas in product(range(bound + 1), repeat=m):
        if any(alphas) and group_combination(family, alphas).is_zero():
            return True
    return False


SMALL_TORSIONS = ((), (2,), (3,), (2, 4), (6,))

def atom_product(atom_set, indices):
    """The exponent vector of the product of the atoms at ``indices`` (an
    index may repeat), summed coordinate by coordinate."""
    total = [0] * len(atom_set.class_set)
    for i in indices:
        total = [t + e for t, e in zip(total, atom_set[i].exponents)]
    return tuple(total)


# (n, target): the factor targets of the lengths benchmark workload
# (perfbench/workloads.py), exponent vectors over B(Z/n \ 0), whose classes
# are 1, ..., n - 1 in this order
B_ZN_FACTOR_TARGETS = (
    (4, (16, 16, 16)), (5, (10, 10, 10, 10)), (5, (8, 8, 8, 8)), (5, (10, 9, 10, 8)),
    (6, (6, 6, 6, 6, 6)), (6, (5, 6, 4, 6, 5)), (6, (6, 5, 6, 5, 6)),
    (7, (4, 4, 4, 4, 4, 4)), (7, (3, 4, 3, 4, 3, 2)), (7, (3, 3, 3, 3, 3, 3)))


@st.composite
def small_families(draw, max_members=4, amp=2, torsions=SMALL_TORSIONS):
    """(group, family): free rank 0-3, one of the given torsions, 1 to
    max_members members with coordinates in [-amp, amp]."""
    group = FinGenAbelianGroup(draw(st.integers(0, 3)), draw(st.sampled_from(torsions)))
    dim = group.free_rank + len(group.torsion)
    coords = st.lists(st.integers(-amp, amp), min_size=dim, max_size=dim)
    members = draw(st.lists(coords, min_size=1, max_size=max_members))
    return group, [group.element(c) for c in members]

