"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: determinants are
cofactor expansions, linear solving and ranks are rational Gaussian
elimination, kernel searches are bounded brute force, and the existence of
a nonnegative relation is decided by vertex enumeration.  The hypothesis
strategy at the end only builds inputs with the library's group classes.
The suite's hypothesis profile is registered and loaded here.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
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
    aug = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])]
           for i in range(rows)]
    ncols = len(columns)
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        hit = None
        for r in range(pivot_row, rows):
            if aug[r][col] != 0:
                hit = r
                break
        if hit is None:
            continue
        aug[pivot_row], aug[hit] = aug[hit], aug[pivot_row]
        pv = aug[pivot_row][col]
        aug[pivot_row] = [x / pv for x in aug[pivot_row]]
        for r in range(rows):
            if r != pivot_row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    if len(pivots) < ncols:
        return None  # columns not independent; caller should not rely on this
    for r in range(pivot_row, rows):
        if aug[r][-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][-1]
    return sol


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


@pytest.fixture
def oracles():
    return {
        "cofactor_det": cofactor_det,
        "in_lattice": in_lattice,
        "brute_kernel_vectors": brute_kernel_vectors,
        "brute_nonneg_kernel_exists": brute_nonneg_kernel_exists,
    }
