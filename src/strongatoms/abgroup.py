"""Finitely generated abelian groups with exact integer linear algebra.

Groups are presented as Z^r + Z/d_1 + ... + Z/d_k, and a group is its
presentation: two groups are equal exactly when their free ranks and torsion
tuples are, so Z/2 + Z/3 and Z/6 differ, and every operation refuses an
element of another presentation (DimensionMismatch).  All arithmetic uses
arbitrary-precision integers; there is no fixed-width path, since no fixed
width bounds the entries of the echelon rows below.

Questions about rational dependence are decided by one integer elimination
(``_eliminate``): the free parts of a family are reduced one at a time
against fraction-free echelon rows, each carrying its coefficients over the
members.  A family is Z-independent exactly when every member reduces to a
nonzero remainder, since a rational relation, cleared of denominators and
multiplied by the exponent of the torsion, kills the torsion part too.
``one_signed_circuit`` walks independent sets of members on the same rows to
the first circuit with a one-signed relation, for the existence search of
``krull`` and for ``positive_kernel_vector``, which is exact by circuits: one pass gives a circuit per dependent member, and the walk runs
only when two or more of them, none one-signed, leave the answer open.
Smith normal form, on plain row tuples, remains only behind
``kernel_lattice``, the source of explicit Z-bases, which nothing else in
the package calls.

Congruence conditions coming from torsion components are reduced to pure
integer kernels by appending one slack column with coefficient -d_j per
torsion component.  The slack coordinates of a kernel vector are uniquely
determined by the leading coordinates, so projecting away the slack part is
a bijection on solutions that preserves the componentwise order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations_with_replacement, product, zip_longest
from operator import add, ge, mul
from typing import Iterable, Iterator, Sequence as Seq

from .errors import BudgetExceeded, DimensionMismatch

#: Sentinel for infinite element order / infinitely many prime divisors.
INFINITE = float("inf")

DEFAULT_NODE_BUDGET = 10**7


# ---------------------------------------------------------------------------
# Smith normal form


Rows = tuple[tuple[int, ...], ...]


def smith_normal_form(rows: Seq[Seq[int]], ncols: int) -> tuple[Rows, Rows, Rows]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, for the n x ncols
    matrix A with the given rows; each is a tuple of row tuples.

    D is diagonal with nonnegative entries satisfying d_i | d_{i+1}; zero
    entries come last.  ``ncols`` is needed for a matrix with no rows.
    """
    M = [list(row) for row in rows]
    if any(len(row) != ncols for row in M):
        raise DimensionMismatch("ragged matrix rows")
    n, m = len(M), ncols
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src, mirrored on U
        mdst, msrc = M[dst], M[src]
        for jj in range(m):
            mdst[jj] += q * msrc[jj]
        udst, usrc = U[dst], U[src]
        for jj in range(n):
            udst[jj] += q * usrc[jj]

    def add_col(dst, src, q):
        for row in M:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def eliminate(t: int) -> bool:
        """Clear row and column t below/right of a pivot; False if submatrix is zero."""
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = M[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            return False
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, n):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    add_row(i, t, -q)
                    if M[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    add_col(j, t, -q)
                    if M[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                return True

    rank = 0
    while rank < min(n, m) and eliminate(rank):
        rank += 1

    def fix_pair(i: int):
        # block [a 0; 0 b] with a not dividing b -> diag(gcd, +-lcm),
        # using operations confined to rows/columns i and i+1
        add_row(i, i + 1, 1)
        while M[i][i + 1]:
            q = M[i][i + 1] // M[i][i]
            add_col(i + 1, i, -q)
            if M[i][i + 1]:
                swap_cols(i, i + 1)
        if M[i + 1][i]:
            q = M[i + 1][i] // M[i][i]
            add_row(i + 1, i, -q)

    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if M[i + 1][i + 1] % M[i][i] != 0:
                fix_pair(i)
                changed = True

    for i in range(min(n, m)):
        if M[i][i] < 0:
            M[i] = [-x for x in M[i]]
            U[i] = [-x for x in U[i]]

    return tuple(map(tuple, U)), tuple(map(tuple, M)), tuple(map(tuple, V))


# ---------------------------------------------------------------------------
# groups and elements


@dataclass(frozen=True)
class FinGenAbelianGroup:
    """Z^free_rank + Z/d_1 + ... + Z/d_k, equal to another group exactly when
    the presentations are: the free ranks and the torsion tuples agree."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free_rank", operator.index(self.free_rank))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(map(operator.index, self.torsion)))
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion order {d} < 2")

    @classmethod
    def free(cls, r: int) -> "FinGenAbelianGroup":
        return cls(free_rank=r)

    @classmethod
    def cyclic(cls, n: int) -> "FinGenAbelianGroup":
        n = operator.index(n)
        if n < 1:
            raise ValueError("cyclic order must be >= 1")
        return cls() if n == 1 else cls(torsion=(n,))

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def cardinality(self) -> int | float:
        if not self.is_finite:
            return INFINITE
        return math.prod(self.torsion)

    def element(self, coords: Iterable[int]) -> "GroupElement":
        coords = tuple(map(operator.index, coords))
        r, k = self.free_rank, len(self.torsion)
        if len(coords) != r + k:
            raise DimensionMismatch(
                f"expected {r + k} coordinates, got {len(coords)}")
        free = coords[:r]
        tors = tuple(coords[r + j] % self.torsion[j] for j in range(k))
        return GroupElement(self, free, tors)

    def zero(self) -> "GroupElement":
        return self.element((0,) * (self.free_rank + len(self.torsion)))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements of a finite group, in lexicographic coordinate order."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for coords in product(*(range(d) for d in self.torsion)):
            yield GroupElement(self, (), coords)

    def __repr__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return "FinGenAbelianGroup(" + (" + ".join(parts) if parts else "trivial") + ")"


@dataclass(frozen=True)
class GroupElement:
    """Element of a FinGenAbelianGroup; torsion residues stored reduced.
    Equal elements have equal groups and equal coordinates."""

    group: FinGenAbelianGroup
    free_part: tuple[int, ...]
    torsion_part: tuple[int, ...]

    def coords(self) -> tuple[int, ...]:
        return self.free_part + self.torsion_part

    def _check_partner(self, other: "GroupElement"):
        if not isinstance(other, GroupElement):
            raise TypeError("expected a GroupElement")
        if other.group != self.group:
            raise DimensionMismatch("elements of differently presented groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_partner(other)
        free = tuple(a + b for a, b in zip(self.free_part, other.free_part))
        tors = tuple((a + b) % d for a, b, d in
                     zip(self.torsion_part, other.torsion_part, self.group.torsion))
        return GroupElement(self.group, free, tors)

    def __neg__(self) -> "GroupElement":
        free = tuple(-a for a in self.free_part)
        tors = tuple((-a) % d for a, d in zip(self.torsion_part, self.group.torsion))
        return GroupElement(self.group, free, tors)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, k: int) -> "GroupElement":
        if not isinstance(k, int):
            return NotImplemented
        free = tuple(k * a for a in self.free_part)
        tors = tuple((k * a) % d for a, d in zip(self.torsion_part, self.group.torsion))
        return GroupElement(self.group, free, tors)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.free_part) and not any(self.torsion_part)

    def __repr__(self) -> str:
        return f"GroupElement{self.coords()}"


def order(group: FinGenAbelianGroup, g: GroupElement) -> int | float:
    """Least n >= 1 with n*g = 0, or INFINITE when the free part is nonzero."""
    if g.group != group:
        raise DimensionMismatch("element does not belong to the group")
    if any(g.free_part):
        return INFINITE
    n = 1
    for t, d in zip(g.torsion_part, group.torsion):
        n = math.lcm(n, d // math.gcd(d, t))
    return n


# ---------------------------------------------------------------------------
# kernels of group-element families


def zero_sum_columns(group: FinGenAbelianGroup,
                     family: Seq[GroupElement]) -> list[tuple[int, ...]]:
    """Columns of the augmented system for sum_i x_i * g_i = 0 in the group.

    One column per family member (free coordinates, then torsion residues),
    followed by one slack column per torsion component carrying -d_j.
    """
    r, torsion = group.free_rank, group.torsion
    k = len(torsion)
    cols = []
    for g in family:
        if g.group != group:
            raise DimensionMismatch("family element from a different group")
        cols.append(g.free_part + g.torsion_part)
    for j, d in enumerate(torsion):
        cols.append(tuple(0 for _ in range(r)) +
                    tuple(-d if i == j else 0 for i in range(k)))
    return cols


def kernel_lattice(group: FinGenAbelianGroup,
                   family: Seq[GroupElement]) -> list[tuple[int, ...]]:
    """Lattice basis of {alpha in Z^m : sum_i alpha_i * g_i = 0 in the group}."""
    if not family:
        raise ValueError("family must be nonempty")
    m = len(family)
    cols = zero_sum_columns(group, family)
    _, d, v = smith_normal_form(list(zip(*cols)), len(cols))
    rank = sum(1 for i in range(min(len(d), len(cols))) if d[i][i])
    return [tuple(row[j] for row in v[:m]) for j in range(rank, len(cols))]


def _free_parts(group: FinGenAbelianGroup,
                family: Seq[GroupElement]) -> list[tuple[int, ...]]:
    for g in family:
        if g.group != group:
            raise DimensionMismatch("family element from a different group")
    return [g.free_part for g in family]


def _eliminate(rows, vector: Seq[int]):
    """Reduce a free part against the echelon rows of an independent family.

    A row (p, w, c) holds w = sum_i c_i * v_i over the members' free parts
    v_i, with w[p] != 0 and w zero at the pivots of earlier rows.  The result
    (p, x, c) has x = sum_i c_i * v_i + c_m * vector zero at every pivot,
    c_m != 0, entries divided by their gcd, and p the first nonzero position
    of x: the next row.  p is None when x = 0, and c is then the one relation.
    """
    x = list(vector)
    c = [0] * len(rows) + [1]
    for p, w, cw in rows:
        f = x[p]
        if f:
            q = w[p]
            x = [q * a - f * b for a, b in zip(x, w)]
            c = [q * a - f * b for a, b in zip_longest(c, cw, fillvalue=0)]
    common = math.gcd(*x, *c)
    x = [a // common for a in x]
    c = [a // common for a in c]
    return next((i for i, a in enumerate(x) if a), None), x, c


def _fundamental_circuits(vectors: Seq[Seq[int]]) -> Iterator[tuple[list[int], list[int]]]:
    """Reduce the vectors in order, each against the echelon rows of the
    independent ones before it; for each vector k that reduces to zero, yield
    (indices, relation): its primitive relation over those independent
    vectors and k, which is nonzero at k and supported on a circuit.  These
    relations are a basis of the rational relations."""
    rows, basis = (), []
    for k, v in enumerate(vectors):
        pivot, x, c = _eliminate(rows, v)
        if pivot is None:
            yield basis + [k], c
        else:
            rows += ((pivot, x, c),)
            basis.append(k)


def first_relation(group: FinGenAbelianGroup,
                   family: Seq[GroupElement]) -> list[int] | None:
    """Reduce the members' free parts in order; the primitive relation of the
    first member k that depends on those before it, as coefficients over
    members 0..k, or None when the free parts are linearly independent."""
    return next((c for _, c in _fundamental_circuits(_free_parts(group, family))), None)


def one_signed_circuit(vectors: Seq[Seq[int]], size_bound: int,
                       *, skip: int | None = None, budget: int,
                       layer: str) -> tuple[tuple[int, ...], list[int]] | None:
    """The first set of indices, by size and then lexicographically, whose
    vectors form a circuit with a one-signed relation: (indices, relation),
    or None.

    A family has at most ``size_bound`` members, and the singleton (skip,)
    does not count.  A depth-first walk adds indices in increasing order to
    independent families only, each carrying its echelon rows, so one
    ``_eliminate`` pass per extension: a dependent family's one relation
    vanishes on every member added later, so no superset is a circuit, and
    every circuit is reached through its independent prefixes.  No index is
    added twice: a second copy of j reduces to zero with relation e_j - e_j',
    never one-signed.  After a circuit of size s only smaller families are
    built.  ``budget`` bounds the extensions tried; past it,
    BudgetExceeded names ``layer`` and the size reached.
    """
    found = None
    limit = size_bound
    tried = 0
    # frames: a family (indices), its echelon rows, the next index to add
    stack = [((), (), 0)]
    while stack:
        family, rows, j = stack.pop()
        if j == len(vectors) or len(family) >= limit:
            continue
        stack.append((family, rows, j + 1))
        tried += 1
        if tried > budget:
            raise BudgetExceeded(f"{layer} search exceeded {budget} families"
                                 f" at size {len(family) + 1}")
        child = family + (j,)
        pivot, x, c = _eliminate(rows, vectors[j])
        if pivot is not None:
            stack.append((child, rows + ((pivot, x, c),), j + 1))
        elif child != (skip,) and (min(c) > 0 or max(c) < 0):
            found, limit = (child, c), len(child) - 1
    return found


def is_z_independent(group: FinGenAbelianGroup,
                     family: Seq[GroupElement]) -> bool:
    """True iff the family has no nonzero integer relation; empty families qualify.

    Integer and rational independence agree: a rational relation of the free
    parts, cleared of denominators and multiplied by the exponent of the
    torsion, kills the torsion part too.
    """
    return first_relation(group, family) is None


def positive_kernel_vector(group: FinGenAbelianGroup,
                           family: Seq[GroupElement],
                           *, budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, ...] | None:
    """Some nonzero alpha >= 0 with sum_i alpha_i * g_i = 0, or None.

    Exact by circuits: a nonzero nonnegative relation of the free parts is a
    conformal sum of relations with minimal support (Rockafellar, "The
    elementary vectors of a subspace of R^N", 1969), so one exists exactly
    when some circuit of the family has a one-signed relation.  One pass of
    the elimination gives the fundamental circuits, one per dependent
    member, whose relations span all relations.  The first one-signed one is
    the answer; with none, and fewer than two, there is none.  Only with two
    or more relations, none one-signed, does ``one_signed_circuit`` walk the
    members in their support; ``budget`` counts the extensions it tries.  The
    answer is the circuit's relation made nonnegative, zero off the circuit,
    times the order of its torsion sum.
    """
    if not family:
        raise ValueError("family must be nonempty")
    vectors = _free_parts(group, family)
    circuits = list(_fundamental_circuits(vectors))
    found = next(((s, c) for s, c in circuits if not min(c) < 0 < max(c)), None)
    if found is None and len(circuits) > 1:
        support = sorted({i for s, c in circuits for i, x in zip(s, c) if x})
        walk = one_signed_circuit([vectors[i] for i in support], len(support),
                                  budget=budget, layer="nonnegative-relation")
        if walk is not None:
            found = [support[i] for i in walk[0]], walk[1]
    if found is None:
        return None
    vec = [0] * len(family)
    for i, x in zip(*found):
        vec[i] = abs(x)
    k = order(group, sum((x * g for x, g in zip(vec, family)), group.zero()))
    return tuple(k * x for x in vec)


# ---------------------------------------------------------------------------
# minimal nonnegative kernel vectors (completion search)


def minimal_nonneg_kernel(columns: Seq[tuple[int, ...]],
                          *, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, ...]]:
    """All minimal nonzero x in N^m with sum_i x_i * columns[i] = 0.

    Contejean-Devie completion with frozen coordinates (Inf. Comput. 113,
    1994): a breadth-first search starting from the unit vectors,
    incrementing coordinate i of a partial solution t only when
    <A*t, A*e_i> < 0, and discarding anything that dominates a solution found
    earlier.  The search advances one total degree per level, so solutions
    are found in order of length and the domination filter is exact.

    Each node carries a set of frozen coordinates it may not increment.  The
    unit e_i starts with {j < i} frozen.  Node t is expanded by walking its
    unfrozen coordinates in increasing order; each i with <A*t, A*e_i> < 0
    gives the child t + e_i, which inherits t's frozen set plus every earlier
    candidate of this expansion, and i is then frozen for the later siblings,
    whether or not its child survives the domination test.
    - Tree: if two paths first diverge at u by coordinates a < b, then a is
      frozen below u + e_b, so that branch never exceeds u_a in coordinate a,
      while the other does.
    - Complete: for a minimal solution s, start at e_k, k = min supp(s), and
      always step on the least i with t_i < s_i and <A*t, A*e_i> < 0; it
      exists since <A*t, A*(s - t)> = -|A*t|^2 < 0, and every coordinate
      frozen on this path already equals s there.
    That path is also the least one to s in the order of the coordinates
    stepped on, by which the search without freezing first reaches s, so
    solutions come out in the same order as there.

    Only a new child needs the domination test.  A node t of degree d was
    tested when it was inserted, against every solution of degree < d; it
    cannot dominate another vector of its own degree.  Its child t + e_i
    dominates a solution s only if s_i = t_i + 1 (otherwise s <= t) and
    supp(s) lies in supp(t) + {i}.  Solutions are therefore kept in buckets
    keyed by (coordinate j, value s_j) for each j in supp(s), with supp(s) as
    a bitmask, and a child is compared, mask first, with its one bucket.

    Children that can no longer reach a solution are dropped.  Coordinate i
    is blocked at t when t + e_i dominates a solution found so far; since t
    only grows, it stays blocked for every descendant, so an expansion first
    tests all its candidates and then freezes the blocked ones for all the
    children, not only the later siblings.  A child u is then dropped,
    uninserted and uncounted, when some nonzero row r of A*u has no column
    outside u's frozen set whose entry in row r has the opposite sign: every
    descendant adds only such columns, so row r never reaches 0 and no
    solution lies below u.  Freezing for later siblings does not depend on
    whether a child is kept, so the solutions and their order are those of
    the tree without dropping, which inserts a superset of the nodes.  On the signed bases {+-e_i, +-f} in Z^n this
    takes the insertions from 2^(n+1) + n - 1 to 5n - 1.  A*u is not
    stored: (A*u)_r is computed only for a row r with all its positive or
    all its negative columns frozen, the only rows that can drop u.

    The inner products come from the Gram matrix G[i][j] = <A*e_i, A*e_j>.
    Each node stores the vector (<A*t, A*e_j>)_j and the integer |A*t|^2; the
    child t + e_i gets d + G[i] and n + 2*d[i] + G[i][i], and A*t = 0 exactly
    when |A*t|^2 = 0.  All arithmetic is exact.

    Terminates on every input; ``budget`` caps insertions into the tree and
    raises BudgetExceeded beyond it, naming the degree reached and the
    solutions found.  The tree's nodes are among those of the search
    without freezing, so it never inserts more.  Each inserted node later
    tries at most m children, each try costing at most one bucket scan, k
    mask tests for A with k rows and one row of m multiplications per row
    that can drop the child, and, when the child is inserted, one row of m
    additions.
    """
    m = len(columns)
    gram = [[0] * m for _ in columns]
    for i, j in combinations_with_replacement(range(m), 2):     # each pair once
        gram[i][j] = gram[j][i] = sum(map(mul, columns[i], columns[j]))
    rows = list(zip(*columns))
    # the columns with a positive / a negative entry, per row, as bitmasks
    pos = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in rows]
    neg = [sum(1 << j for j, x in enumerate(row) if x < 0) for row in rows]
    sols: list[tuple[int, ...]] = []
    # buckets[j][x]: (support bitmask, s) for each solution s with s_j = x > 0
    buckets: list[dict[int, list[tuple[int, tuple[int, ...]]]]] = [
        {} for _ in range(m)]

    # (t, <A*t, A*e_j> for each j, |A*t|^2, support bitmask, frozen bitmask)
    frontier = [(tuple(int(i == j) for j in range(m)), gram[i], gram[i][i],
                 1 << i, (1 << i) - 1) for i in range(m)]
    nodes = 0
    while frontier:
        for t, _, norm, mask, _ in frontier:
            if norm == 0:
                sols.append(t)
                for j, x in enumerate(t):
                    if x:
                        buckets[j].setdefault(x, []).append((mask, t))
        nxt = []
        for t, d, norm, mask, frozen in frontier:
            if norm == 0:
                continue
            kept = []
            for i, di in enumerate(d):
                if di >= 0 or frozen >> i & 1:
                    continue
                ti = t[i] + 1
                child = t[:i] + (ti,) + t[i + 1:]
                outside = ~(mask | 1 << i)
                for smask, s in buckets[i].get(ti, ()):
                    if not smask & outside and all(map(ge, child, s)):
                        frozen |= 1 << i  # blocked
                        break
                else:
                    kept.append((i, di, child))
            for i, di, child in kept:
                free = ~frozen
                for row, p, q in zip(rows, pos, neg):
                    if not p & free or not q & free:
                        x = sum(map(mul, child, row))
                        if x and not (q if x > 0 else p) & free:
                            break
                else:
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceeded(
                            f"completion search exceeded {budget} nodes at "
                            f"degree {sum(child)} (minimal solutions found so "
                            f"far: {len(sols)})")
                    gi = gram[i]
                    nxt.append((child, tuple(map(add, d, gi)),
                                norm + 2 * di + gi[i], mask | 1 << i, frozen))
                frozen |= 1 << i
        frontier = nxt
    return sols


# ---------------------------------------------------------------------------
# misc group utilities


def abelian_groups_of_order(n: int) -> list[FinGenAbelianGroup]:
    """One group per isomorphism class of abelian groups of order n."""
    if n < 1:
        raise ValueError("order must be positive")

    def chains(remaining: int, bound: int | None):
        if remaining == 1:
            yield ()
            return
        for d in range(2, remaining + 1):
            if remaining % d == 0 and (bound is None or bound % d == 0):
                for rest in chains(remaining // d, d):
                    yield (d,) + rest

    groups = []
    for chain in chains(n, None):
        groups.append(FinGenAbelianGroup(torsion=tuple(reversed(chain))))
    groups.sort(key=lambda g: g.torsion)
    return groups
