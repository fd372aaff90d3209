"""Sequences over a finite class set and the monoid of zero-sum sequences.

A sequence is an exponent vector over an ordered list of distinct group
elements.  Atoms (minimal zero-sum sequences) over classes that all lie in
a torsion part of order at most :data:`ZERO_SUM_FREE_MAX_ORDER` are
enumerated by a search over zero-sum-free sequences (see
:func:`_zero_sum_free_search`); over other class sets, by the completion
algorithm from :mod:`strongatoms.abgroup`, which terminates on mixed
free/torsion groups without an a-priori degree bound.

Factorizations and length sets both come from tables keyed by the remaining
exponent vector packed into one int (one field per class, see
:func:`_packed`), each filled in one post-order pass on an explicit stack.
The factorization table splits each factorization uniquely into its
*block*, the atoms nonzero in the remainder's first nonzero class, and a
factorization of what the block leaves (see :func:`vector_factorizations`);
each multiset of atoms is therefore produced exactly once.  Over atoms in
lexicographic order, as an :class:`AtomSet` keeps them, every entry comes out
as an ascending index tuple, so only the target's list is sorted, once.
:func:`factorizations` returns that list as it is, and the ``factor``
command reports its tuples as they are.  Length sets and
elasticity list no factorization: their table holds length bitmasks and
steps one atom of the first nonzero class at a time, so it reaches a
multiset of atoms once for each of its atoms in that class and gives
lengths, not factorization counts.  Support minimality, the strong-atom
test of a Krull monoid, is decided for every atom at once by one sweep
(:attr:`AtomSet.support_minimal`), which one-atom questions read too.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import le
from typing import Iterable, Iterator, Mapping, Sequence as Seq

from .abgroup import (
    DEFAULT_NODE_BUDGET,
    FinGenAbelianGroup,
    GroupElement,
    minimal_nonneg_kernel,
    zero_sum_columns,
)
from .errors import (
    AtomNotInSet,
    BudgetExceeded,
    DimensionMismatch,
    NotZeroSum,
)


@dataclass(frozen=True)
class ClassSet:
    """An ordered list of distinct group elements (the support universe G0)."""

    group: FinGenAbelianGroup
    classes: tuple[GroupElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ValueError("class set must be nonempty")
        seen = set()
        for g in self.classes:
            if g.group != self.group:
                raise DimensionMismatch("class from a different group")
            key = g.coords()
            if key in seen:
                raise ValueError(f"duplicate class {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.classes)

    def sequence(self, exponents: Seq[int]) -> "Sequence":
        return Sequence(self, exponents)

    def empty_sequence(self) -> "Sequence":
        return self.sequence((0,) * len(self.classes))

    def zero_class_index(self) -> int | None:
        for i, c in enumerate(self.classes):
            if c.is_zero():
                return i
        return None


@dataclass(frozen=True)
class Sequence:
    """Element of the free abelian monoid over a class set (an exponent vector).
    Exponents are coerced with ``operator.index``, so a float or ``Fraction``
    raises TypeError instead of being kept."""

    class_set: ClassSet
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(map(operator.index, self.exponents)))
        if len(self.exponents) != len(self.class_set):
            raise DimensionMismatch("exponent vector length does not match class set")
        if min(self.exponents) < 0:     # the class set, so the vector, is nonempty
            raise ValueError("exponents must be nonnegative")

    def sigma(self) -> GroupElement:
        """The sum of the sequence in the ambient group."""
        total = self.class_set.group.zero()
        for e, g in zip(self.exponents, self.class_set.classes):
            if e:
                total = total + e * g
        return total

    def __len__(self) -> int:
        return sum(self.exponents)

    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents) if e)

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(self.class_set.classes[i] for i in self.support_indices())

    def is_zero_sum(self) -> bool:
        return self.sigma().is_zero()

    def is_empty(self) -> bool:
        return not any(self.exponents)

    def __mul__(self, other: "Sequence") -> "Sequence":
        if self.class_set != other.class_set:
            raise DimensionMismatch("sequences over different class sets")
        return Sequence(self.class_set,
                        tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, n: int) -> "Sequence":
        n = operator.index(n)
        if n < 0:
            raise ValueError("negative power of a sequence")
        return Sequence(self.class_set, tuple(n * e for e in self.exponents))

    def divides(self, other: "Sequence") -> bool:
        if len(self.exponents) != len(other.exponents):
            raise DimensionMismatch("sequences over different class sets")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other: "Sequence") -> "Sequence":
        if not other.divides(self):
            raise ValueError("not a subsequence")
        return Sequence(self.class_set,
                        tuple(a - b for a, b in zip(self.exponents, other.exponents)))


def support_mask(exponents: Seq[int]) -> int:
    """Bitmask with bit i set exactly when exponents[i] is nonzero."""
    mask = 0
    for i, e in enumerate(exponents):
        if e:
            mask |= 1 << i
    return mask


def is_minimal_zero_sum(s: Sequence) -> bool:
    """True iff s is a nonempty zero-sum sequence with no proper nonempty
    zero-sum subsequence.

    A proper nonempty zero-sum subsequence of a zero-sum s, or the rest of s
    beside it, misses one copy of s's last class.  So s is minimal exactly
    when 0 is not a nonempty subsum of T, s less that copy.  T's nonempty
    subsums are collected class by class into one set, which over a finite
    group holds at most |G| elements.
    """
    if s.is_empty():
        raise ValueError("the empty sequence is the unit, not an atom candidate")
    if not s.is_zero_sum():
        return False
    exps = list(s.exponents)
    exps[s.support_indices()[-1]] -= 1
    zero = s.class_set.group.zero()
    sums: set[GroupElement] = set()
    for e, g in zip(exps, s.class_set.classes):
        if not e:
            continue
        multiples = [g]
        for _ in range(e - 1):
            multiples.append(multiples[-1] + g)
        sums |= {x + y for x in (zero, *sums) for y in multiples}
        if zero in sums:
            return False
    return True


# ---------------------------------------------------------------------------
# atom enumeration


@dataclass(frozen=True)
class AtomSet:
    """Complete list of atoms of the zero-sum monoid over a class set.

    Atoms are stored in lexicographic exponent order, which fixes the indices
    used by factorizations and reports.  :attr:`support_minimal` decides for
    every atom at once whether it is the only atom whose support lies in its
    own, with one sweep over the distinct supports that is kept with the set;
    one-atom questions read it too.
    """

    class_set: ClassSet
    atoms: tuple[Sequence, ...]
    certificate: Mapping[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self.atoms)

    def __getitem__(self, i: int) -> Sequence:
        return self.atoms[i]

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        positions: dict[tuple[int, ...], int] = {}
        for i, a in enumerate(self.atoms):
            positions.setdefault(a.exponents, i)
        return positions

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        """The support of each atom as a bitmask over class indices."""
        return tuple(support_mask(a.exponents) for a in self.atoms)

    @cached_property
    def support_minimal(self) -> tuple[bool, ...]:
        """For each atom, True iff no other atom's support lies inside its own.

        The distinct support masks are swept in increasing popcount, keeping
        each mask that holds no kept mask: a mask is kept exactly when no
        other support lies strictly inside it, since a support that is not
        kept holds a kept one.  An atom is support-minimal iff its mask was
        kept and no other atom shares it.  (The relations on a minimal
        support form a rank-1 lattice, so in the atom set of a class set a
        kept mask belongs to one atom; a set built by hand may repeat it.)
        """
        shared = Counter(self.support_masks)
        kept: list[int] = []
        for m in sorted(shared, key=int.bit_count):
            if all(k & ~m for k in kept):
                kept.append(m)
        unique = {m for m in kept if shared[m] == 1}
        return tuple(m in unique for m in self.support_masks)

    def atom_within_support(self, i: int) -> int | None:
        """Index of the first other atom whose support lies in atom i's, or
        None when :attr:`support_minimal` marks atom i minimal; only a
        non-minimal atom is scanned for, and it has such an atom."""
        if self.support_minimal[i]:
            return None
        masks = self.support_masks
        return next(j for j, mj in enumerate(masks) if j != i and not mj & ~masks[i])

    def index(self, s: Sequence) -> int:
        try:
            return self._positions[s.exponents]
        except KeyError:
            raise AtomNotInSet(
                f"sequence {s.exponents} is not an atom of this set") from None

    def contains(self, s: Sequence) -> bool:
        return s.exponents in self._positions


def _torsion_only(values: Seq[GroupElement]) -> bool:
    """True iff every value has free part zero, so that all of them lie in
    the finite torsion part of the group."""
    return not any(any(g.free_part) for g in values)


def _zero_sum_free_search(group: FinGenAbelianGroup, values: Seq[GroupElement],
                          budget: int) -> list[tuple[int, ...]]:
    """The minimal zero-sum vectors over torsion-only ``values``, sorted.

    A nonempty sequence is a minimal zero-sum sequence iff it is T * (-sigma(T))
    for a zero-sum-free T.  The search walks the tree of zero-sum-free
    multisets T over value positions, in nondecreasing position order, on an
    explicit stack.  Elements of the torsion part Z/d_1 + ... + Z/d_k are
    indexed in mixed radix (coordinate i weighs d_1 * ... * d_(i-1)), and
    each node carries -sigma(T) as an index and the set of T's nonempty
    subsums as an int bitmask over the indices.  T * g stays zero-sum-free iff
    g != 0 and -g is no subsum of T, and then its subsums are those of T,
    g, and those of T plus g; adding g rotates the bitmask's blocks once per
    nonzero coordinate of g.  T * v_j is an atom when v_j = -sigma(T), and is
    recorded only for j at least T's last position, so each atom, the zero
    class's included, is found exactly once (at T = the atom less one copy of
    its last position).  ``budget`` counts the nonempty zero-sum-free
    multisets."""
    for g in values:
        if g.group != group:
            raise DimensionMismatch("family element from a different group")
    order = 1
    weights = []
    for d in group.torsion:
        weights.append(order)
        order *= d
    full = (1 << order) - 1

    def index(g: GroupElement) -> int:
        return sum(x * w for x, w in zip(g.torsion_part, weights))

    def nonzero(g: GroupElement) -> list[tuple[int, int, int]]:
        """(coordinate, order, weight) for each nonzero coordinate of g."""
        return [(x, d, w) for x, d, w in zip(g.torsion_part, group.torsion, weights) if x]

    def rotation(x: int, d: int, w: int) -> tuple[int, int, int, int]:
        """Shifts and masks that add x to the coordinate of order d and weight
        w in every index of a subsum mask: within each block of d*w indices,
        those whose coordinate is below d - x move up by x*w, the others down
        by (d - x)*w."""
        low = ((1 << (d - x) * w) - 1) * (full // ((1 << d * w) - 1))
        return x * w, low, (d - x) * w, full ^ low

    m = len(values)
    codes = [index(g) for g in values]
    negs = [index(-g) for g in values]
    rotations = [[rotation(x, d, w) for x, d, w in nonzero(g)] for g in values]
    # adding -g to an index: coordinate c becomes c + d - x if c < x, else c - x
    steps = [[(w, d, x, (d - x) * w, -x * w) for x, d, w in nonzero(g)] for g in values]
    at: dict[int, list[int]] = {}
    for p, c in enumerate(codes):
        at.setdefault(c, []).append(p)

    out: list[tuple[int, ...]] = []
    nodes = 0
    # (first position, candidate positions, -sigma(T), subsum mask, exponents)
    stack = [(0, [p for p in range(m) if codes[p]], 0, 0, (0,) * m)]
    while stack:
        start, candidates, nu, sums, exps = stack.pop()
        for j in at.get(nu, ()):
            if j >= start:
                out.append(exps[:j] + (exps[j] + 1,) + exps[j + 1:])
        alive = [p for p in candidates if not sums >> negs[p] & 1]
        for i, p in enumerate(alive):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"zero-sum-free search exceeded {budget} nodes")
            shifted = sums
            for up, lo, down, hi in rotations[p]:
                shifted = ((shifted & lo) << up) | ((shifted & hi) >> down)
            child = nu
            for w, d, x, up, down in steps[p]:
                child += up if child // w % d < x else down
            stack.append((p, alive[i:], child, sums | shifted | 1 << codes[p],
                          exps[:p] + (exps[p] + 1,) + exps[p + 1:]))
    out.sort()
    return out


#: Largest torsion order searched by :func:`_zero_sum_free_search`.  Each of
#: its nodes costs a few operations on a mask of that many bits, and one
#: class of large order makes about as many nodes, so on sparse class sets
#: of larger groups the completion search is faster (one generator of Z/n
#: breaks even near this order), and the masks, not the node budget, would
#: bound the memory.
ZERO_SUM_FREE_MAX_ORDER = 4096


def _atom_search(group: FinGenAbelianGroup, values: Seq[GroupElement],
                 budget: int) -> tuple[dict, list[tuple[int, ...]]]:
    """The certificate fields naming the search that ran on ``values``, and
    the sorted minimal zero-sum vectors it found."""
    order = math.prod(group.torsion)
    if _torsion_only(values) and order <= ZERO_SUM_FREE_MAX_ORDER:
        return ({"method": "zero-sum-free-search", "group_order": order},
                _zero_sum_free_search(group, values, budget))
    m = len(values)
    sols = minimal_nonneg_kernel(zero_sum_columns(group, values), budget=budget)
    return ({"method": "completion-search", "slack_columns": len(group.torsion)},
            sorted(sol[:m] for sol in sols))


def minimal_zero_sum_vectors(group: FinGenAbelianGroup,
                             values: Seq[GroupElement],
                             *, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, ...]]:
    """Exponent vectors of all minimal zero-sum sequences over ``values``,
    sorted lexicographically.

    ``values`` may contain repeated group elements (used when distinct prime
    divisors share a class); positions are kept apart.  When every value has
    free part zero and the torsion part has order at most
    :data:`ZERO_SUM_FREE_MAX_ORDER`, a search over the zero-sum-free
    sequences of the torsion part (:func:`_zero_sum_free_search`), whose
    ``budget`` counts zero-sum-free nodes; otherwise the completion search
    :func:`~strongatoms.abgroup.minimal_nonneg_kernel` on the columns with one
    slack column per torsion factor, whose ``budget`` counts its insertions.
    """
    return _atom_search(group, values, budget)[1]


def enumerate_atoms(class_set: ClassSet,
                    *, budget: int = DEFAULT_NODE_BUDGET) -> AtomSet:
    """All minimal zero-sum sequences over the class set, with a certificate
    naming the search that ran (see :func:`minimal_zero_sum_vectors`):
    ``"zero-sum-free-search"`` with the order of the torsion part it searched,
    or ``"completion-search"`` with its slack columns."""
    method, vectors = _atom_search(class_set.group, class_set.classes, budget)
    atoms = tuple(class_set.sequence(v) for v in vectors)
    cert = {**method, "columns": len(class_set), "node_budget": budget}
    return AtomSet(class_set, atoms, cert)


# ---------------------------------------------------------------------------
# factorizations


def _packed(target: Seq[int], atom_vectors: Seq[tuple[int, ...]]) -> tuple:
    """``target`` and the atoms that fit it packed into ints, class s in bits
    s*w .. s*w + w - 1 (w - 1 bits hold target's largest entry; G masks the
    top, guard, bits): A fits R iff ``((R | G) - A) & G == G``, and then
    R - A is ``((R | G) - A) ^ G``.  Returns w, G, the packed target and the
    fitting atoms grouped by first nonzero class, as increasing indices and
    packed.  Raises DimensionMismatch for an atom vector not as long as
    ``target``, and ValueError for a negative entry or a zero atom vector."""
    if any(len(v) != len(target) for v in atom_vectors):
        raise DimensionMismatch("atom vector length does not match the target")
    if min(0, *target, *map(min, atom_vectors)) < 0 or not all(map(any, atom_vectors)):
        raise ValueError("entries must be nonnegative and atom vectors nonzero")
    w = max(target, default=0).bit_length() + 1

    def pack(v: Seq[int]) -> int:
        return sum(x << s * w for s, x in enumerate(v))
    by_first: list[list[int]] = [[] for _ in target]
    for i, v in enumerate(atom_vectors):
        if all(map(le, v, target)):
            by_first[next(j for j, x in enumerate(v) if x)].append(i)
    return (w, pack([1 << (w - 1)] * len(target)), pack(target), by_first,
            [[pack(atom_vectors[i]) for i in fitting] for fitting in by_first])


def _blocks(rem: int, j: int, w: int, candidates: list[int], packed: list[int],
            guard: int, nodes: int, budget: int) -> tuple[list, int]:
    """The blocks of the packed remainder ``rem`` (fields w bits wide, class
    j its first nonzero one) from the candidates, the atoms whose first
    nonzero class is j, as pairs (atom indices, rem minus the block), with
    ``nodes`` plus one for each partial block walked, the empty one included.
    Every candidate but the last is taken one copy at a time, in
    nondecreasing position; at each partial block the last is taken
    c = r_j // a_j times if that is exact and c copies fit (c times its
    largest entry in w - 1 bits, so that no field overflows, then one
    guarded subtraction).  Partial blocks are linked (index, rest) cells,
    made tuples in increasing position only when listed.  Raises
    BudgetExceeded once nodes pass ``budget``."""
    if not candidates:
        return [], nodes + 1
    out = []
    last, a, field = candidates[-1], packed[-1], (1 << w) - 1
    a_j = a >> j * w & field
    a_max = max(a >> s & field for s in range(0, a.bit_length(), w))
    stack = [(rem, 0, None)]              # (remainder, first position, cells)
    while stack:
        rem, pos, cells = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"factorization table exceeded {budget} nodes")
        r = rem | guard
        c, left = divmod(rem >> j * w & field, a_j)
        if not left and c * a_max <= field >> 1 and (d := r - c * a) & guard == guard:
            block, link = [], cells
            while link:
                i, link = link
                block.append(i)
            block.reverse()
            out.append((tuple(block) + (last,) * c, d ^ guard))
        for p in range(pos, len(packed) - 1):
            if (d := r - packed[p]) & guard == guard:
                stack.append((d ^ guard, p, (candidates[p], cells)))
    return out, nodes


def vector_factorizations(target: Seq[int],
                          atom_vectors: Seq[tuple[int, ...]],
                          *, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, ...]]:
    """All multisets of nonzero atom vectors summing to ``target``, as sorted
    index tuples in lexicographic order.

    A table keyed by remainders packed into ints: F(0) = [()], and otherwise,
    with j rem's first nonzero class, every atom that fits rem is zero before
    j, so a factorization of rem splits uniquely into its block (its atoms
    that are nonzero in class j, whose class-j entries sum to rem[j]) and a
    factorization of rem minus the block's sum, which is zero through j.
    F(rem) holds each entry of F(rem - block) followed by the block.  When
    the atom vectors are in lexicographic order, the order of an
    :class:`AtomSet`, every entry is ascending: the atoms of a factorization
    of rem - block are nonzero first after class j, so they are
    lexicographically smaller than the block's atoms and come first, and the
    block lists its indices in increasing position.  Otherwise each entry of
    F(target) is sorted once.  Either way only F(target) is sorted as a list,
    once.  The table is filled in one post-order pass on an explicit stack: a
    state lists its blocks, pushes the unfilled remainders they leave, and
    merges its list once all of them are filled.  ``budget`` counts the
    table's states, the atoms the block walk takes (see :func:`_blocks`) and
    the merged entries, each checked before what it counts is listed, so it
    bounds the walk and the lists, kept until the call returns.
    """
    w, guard, top, by_first, packed = _packed(target, atom_vectors)
    ascending = all(map(le, atom_vectors, atom_vectors[1:]))
    table: dict[int, list[tuple[int, ...]]] = {0: [()]}
    stack: list[tuple[int, list | None]] = [(top, None)]
    nodes = 0
    while stack:
        rem, blocks = stack[-1]
        if blocks is None:
            if rem in table:
                stack.pop()
                continue
            j = ((rem & -rem).bit_length() - 1) // w
            blocks, nodes = _blocks(rem, j, w, by_first[j], packed[j], guard, nodes, budget)
            stack[-1] = (rem, blocks)
            pending = [(c, None) for _, c in blocks if c not in table]
            if pending:
                stack.extend(pending)
                continue
        nodes += sum(len(table[c]) for _, c in blocks)
        if nodes > budget:
            raise BudgetExceeded(f"factorization table exceeded {budget} nodes")
        merged = (f + block for block, c in blocks for f in table[c])
        if rem != top:
            table[rem] = list(merged)
        else:
            table[rem] = sorted(merged if ascending else (tuple(sorted(f)) for f in merged))
        stack.pop()
    return table[top]


def vector_length_mask(target: Seq[int],
                       atom_vectors: Seq[tuple[int, ...]],
                       *, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """The lengths of the factorizations of ``target`` as a bitmask: bit k is
    set iff some k nonzero atom vectors sum to ``target``.

    A table keyed by remainders packed into ints: L(0) = 1, and otherwise
    L(rem) is the OR of L(rem - a) << 1 over the atoms a <= rem whose first
    nonzero class is j, rem's first nonzero class.  Every factorization of
    rem takes one of them, since an atom that fits rem is zero before j.  The
    table is filled from an explicit stack; ``budget`` counts its states.
    """
    w, guard, top, _, by_first = _packed(target, atom_vectors)
    table = {0: 1}
    stack: list[tuple[int, list | None]] = [(top, None)]
    while stack:
        rem, children = stack[-1]
        if children is None:
            if rem in table:
                stack.pop()
                continue
            r = rem | guard
            children = [d ^ guard for a in by_first[((rem & -rem).bit_length() - 1) // w]
                        if (d := r - a) & guard == guard]
            stack[-1] = (rem, children)
            pending = [(c, None) for c in children if c not in table]
            if pending:
                stack.extend(pending)
                continue
        mask = 0
        for c in children:
            mask |= table[c]
        table[rem] = mask << 1
        if len(table) > budget:
            raise BudgetExceeded(f"length table exceeded {budget} states")
        stack.pop()
    return table[top]


def _atom_vectors_for(b: Sequence, atom_set: AtomSet) -> list[tuple[int, ...]]:
    """The atoms' exponent vectors, in the atom set's (lexicographic) order,
    once b is known to be a zero-sum sequence over its class set; raises
    DimensionMismatch or NotZeroSum otherwise."""
    if b.class_set != atom_set.class_set:
        raise DimensionMismatch("sequence and atom set over different class sets")
    if not b.is_zero_sum():
        raise NotZeroSum(f"sigma of {b.exponents} is nonzero")
    return [a.exponents for a in atom_set.atoms]


def factorizations(b: Sequence, atom_set: AtomSet,
                   *, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, ...]]:
    """Complete, duplicate-free list of factorizations of b into atoms, each
    an ascending tuple of atom indices, in lexicographic order: the table's
    list from :func:`vector_factorizations`, as it is.

    The empty sequence has exactly the empty factorization.  Raises
    NotZeroSum unless sigma(b) = 0.
    """
    return vector_factorizations(b.exponents, _atom_vectors_for(b, atom_set), budget=budget)


def length_set(b: Sequence, atom_set: AtomSet,
               *, budget: int = DEFAULT_NODE_BUDGET) -> set[int]:
    """The lengths of the factorizations of b, from the length table (the
    factorizations themselves are not listed).  Raises NotZeroSum unless
    sigma(b) = 0."""
    mask = vector_length_mask(b.exponents, _atom_vectors_for(b, atom_set), budget=budget)
    return {k for k in range(mask.bit_length()) if mask >> k & 1}


def length_set_elasticity(lengths: Iterable[int]) -> Fraction:
    """max/min of a nonempty length set; {0} (the empty sequence) gives 1."""
    lengths = set(lengths)
    if lengths == {0}:
        return Fraction(1)
    return Fraction(max(lengths), min(lengths))


def elasticity(b: Sequence, atom_set: AtomSet,
               *, budget: int = DEFAULT_NODE_BUDGET) -> Fraction:
    """max/min factorization length; the empty sequence has elasticity 1."""
    return length_set_elasticity(length_set(b, atom_set, budget=budget))
