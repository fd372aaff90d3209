"""Sequences over a finite class set and the monoid of zero-sum sequences.

A sequence is an exponent vector over an ordered list of distinct group
elements.  Atoms (minimal zero-sum sequences) are enumerated with the
completion algorithm from :mod:`strongatoms.abgroup`, which terminates on
mixed free/torsion groups without an a-priori degree bound; factorizations
into atoms are enumerated by choosing atom multiplicities in turn on an
explicit stack, so each multiset of atoms is produced exactly once.  Length
sets and elasticity list no factorization: they come from a table of length
bitmasks keyed by the remaining exponent vector.  That table reaches a
multiset of atoms once for each of its atoms in the remainder's first class,
so it gives lengths, not factorization counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
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
    InfiniteGroupNoBound,
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
            if not self.group.same_presentation(g.group):
                raise DimensionMismatch("class from a different group")
            key = g.coords()
            if key in seen:
                raise ValueError(f"duplicate class {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.classes)

    def sequence(self, exponents: Seq[int]) -> "Sequence":
        return Sequence(self, tuple(int(e) for e in exponents))

    def empty_sequence(self) -> "Sequence":
        return self.sequence((0,) * len(self.classes))

    def zero_class_index(self) -> int | None:
        for i, c in enumerate(self.classes):
            if c.is_zero():
                return i
        return None


@dataclass(frozen=True)
class Sequence:
    """Element of the free abelian monoid over a class set (an exponent vector)."""

    class_set: ClassSet
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.class_set):
            raise DimensionMismatch("exponent vector length does not match class set")
        if any(e < 0 for e in self.exponents):
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
    zero-sum subsequence."""
    if s.is_empty():
        raise ValueError("the empty sequence is the unit, not an atom candidate")
    if not s.is_zero_sum():
        return False
    exps = s.exponents
    classes = s.class_set.classes
    idx = [i for i, e in enumerate(exps) if e]
    zero = s.class_set.group.zero()

    # DFS over subexponent vectors, accumulating partial sums coordinate by
    # coordinate; stops at the first proper nonempty zero-sum subsequence.
    def walk(pos: int, partial: GroupElement, taken: int) -> bool:
        if pos == len(idx):
            return 0 < taken < len(s) and partial == zero
        i = idx[pos]
        g = classes[i]
        cur = partial
        for c in range(exps[i] + 1):
            if walk(pos + 1, cur, taken + c):
                return True
            cur = cur + g
        return False

    return not walk(0, zero, 0)


# ---------------------------------------------------------------------------
# atom enumeration


@dataclass(frozen=True)
class AtomSet:
    """Complete list of atoms of the zero-sum monoid over a class set.

    Atoms are stored in lexicographic exponent order, which fixes the indices
    used by factorizations and reports.
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

    def atom_within_support(self, i: int) -> int | None:
        """Index of the first other atom whose support lies in atom i's, or None."""
        masks = self.support_masks
        inside = (j for j, mj in enumerate(masks) if j != i and not mj & ~masks[i])
        return next(inside, None)

    def index(self, s: Sequence) -> int:
        try:
            return self._positions[s.exponents]
        except KeyError:
            raise AtomNotInSet(
                f"sequence {s.exponents} is not an atom of this set") from None

    def contains(self, s: Sequence) -> bool:
        return s.exponents in self._positions


def minimal_zero_sum_vectors(group: FinGenAbelianGroup,
                             values: Seq[GroupElement],
                             *, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, ...]]:
    """Exponent vectors of all minimal zero-sum sequences over ``values``.

    ``values`` may contain repeated group elements (used when distinct prime
    divisors share a class); positions are kept apart.
    """
    m = len(values)
    cols = zero_sum_columns(group, values)
    sols = minimal_nonneg_kernel(cols, budget=budget)
    return sorted(sol[:m] for sol in sols)


def enumerate_atoms(class_set: ClassSet,
                    *, budget: int = DEFAULT_NODE_BUDGET) -> AtomSet:
    """All minimal zero-sum sequences over the class set, with certificate."""
    vectors = minimal_zero_sum_vectors(class_set.group, class_set.classes,
                                       budget=budget)
    atoms = tuple(class_set.sequence(v) for v in vectors)
    cert = {
        "method": "completion-search",
        "columns": len(class_set),
        "slack_columns": len(class_set.group.torsion),
        "node_budget": budget,
    }
    return AtomSet(class_set, atoms, cert)


def atom_length_bound(class_set: ClassSet) -> int:
    """Upper bound for atom lengths: the order of the (finite) torsion part.

    Valid because the maximal length of a minimal zero-sum sequence over a
    finite group never exceeds the group order.  Raises when any class has a
    nonzero free part, since no uniform bound exists then.
    """
    for g in class_set.classes:
        if any(g.free_part):
            raise InfiniteGroupNoBound(
                "class set touches the free part; supply an explicit bound")
    bound = 1
    for d in class_set.group.torsion:
        bound *= d
    return bound


# ---------------------------------------------------------------------------
# factorizations


@dataclass(frozen=True)
class Factorization:
    """Multiset of atom indices, stored sorted ascending."""

    atom_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "atom_indices", tuple(sorted(self.atom_indices)))

    def __len__(self) -> int:
        return len(self.atom_indices)

    def product(self, atom_set: AtomSet) -> Sequence:
        out = atom_set.class_set.empty_sequence()
        for i in self.atom_indices:
            out = out * atom_set[i]
        return out


def vector_factorizations(target: Seq[int],
                          atom_vectors: Seq[tuple[int, ...]],
                          *, budget: int = DEFAULT_NODE_BUDGET,
                          limit: int | None = None) -> list[tuple[int, ...]]:
    """All multisets of nonzero atom vectors summing to ``target``, as sorted
    index tuples in lexicographic order.

    Takes atoms in increasing index order, each with as many copies as fit and
    then one fewer at a time, on a stack of (atom, copies) pairs as deep as
    the number of atoms.  The next atom is looked up among those whose support
    lies inside the remainder's (one next-index table per distinct support),
    and a remainder that the later atoms cannot cover ends the choices.
    ``budget`` counts the pairs pushed: nonzero counts set or stepped down by
    one; ``limit`` stops once that many factorizations are found.
    """
    n = len(atom_vectors)
    supports = [tuple(j for j, x in enumerate(v) if x) for v in atom_vectors]
    masks = [support_mask(v) for v in atom_vectors]
    suffix_cover = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | masks[i]
    # need -> nxt, where nxt[i] is the first atom from i on whose support lies
    # inside need (n if none)
    fitting: dict[int, list[int]] = {}

    out: list[tuple[int, ...]] = []
    rem = list(target)
    need = support_mask(rem)              # the support of rem
    stack: list[tuple[int, int]] = []     # (atom, copies taken), atoms increasing
    start = 0                             # the next atom taken is at least this
    nodes = 0
    while True:
        if nodes > budget:
            raise BudgetExceeded(f"factorization search exceeded {budget} divisions")
        if not need:
            out.append(tuple(i for i, c in stack for _ in range(c)))
            if limit is not None and len(out) >= limit:
                return out
        elif not need & ~suffix_cover[start]:
            nxt = fitting.get(need)
            if nxt is None:
                nxt = [n] * (n + 1)
                for i in range(n - 1, -1, -1):
                    nxt[i] = nxt[i + 1] if masks[i] & ~need else i
                fitting[need] = nxt
            c = 0
            i = nxt[start]
            while i < n and not need & ~suffix_cover[i]:
                v = atom_vectors[i]
                c = min(rem[j] // v[j] for j in supports[i])
                if c:
                    break
                i = nxt[i + 1]
            if c:
                nodes += 1
                for j in supports[i]:
                    rem[j] -= c * v[j]
                    if not rem[j]:
                        need &= ~(1 << j)
                stack.append((i, c))
                start = i + 1
                continue
        # backtrack to the deepest atom whose count can step down by one, or
        # to zero if later atoms may replace it; stepping down only adds to
        # the need, so an uncovered step ends that atom's choices
        while stack:
            i, c = stack.pop()
            need |= masks[i]
            v = atom_vectors[i]
            if need & ~suffix_cover[i + 1]:
                for j in supports[i]:
                    rem[j] += c * v[j]
                continue
            for j in supports[i]:
                rem[j] += v[j]
            if c > 1:
                nodes += 1
                stack.append((i, c - 1))
            start = i + 1
            break
        else:
            return out


def vector_length_mask(target: Seq[int],
                       atom_vectors: Seq[tuple[int, ...]],
                       *, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """The lengths of the factorizations of ``target`` as a bitmask: bit k is
    set iff some k nonzero atom vectors sum to ``target``.

    A table over remainders: L(0) = 1, and otherwise L(rem) is the OR of
    L(rem - a) << 1 over the atoms a <= rem whose first nonzero class is j,
    rem's first nonzero class.  Every factorization of rem takes one of them,
    since an atom that fits rem is zero before j.  The table is filled from
    an explicit stack; ``budget`` counts its states.
    """
    by_first: list[list[tuple[int, ...]]] = [[] for _ in target]
    for v in atom_vectors:
        if all(x <= t for x, t in zip(v, target)):
            by_first[next(j for j, x in enumerate(v) if x)].append(v)
    table = {(0,) * len(target): 1}
    stack: list[tuple[tuple[int, ...], list | None]] = [(tuple(target), None)]
    while stack:
        rem, children = stack[-1]
        if children is None:
            if rem in table:
                stack.pop()
                continue
            j = next(j for j, r in enumerate(rem) if r)
            children = [tuple(r - x for r, x in zip(rem, a)) for a in by_first[j]
                        if all(x <= r for x, r in zip(a, rem))]
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
    return table[tuple(target)]


def _factorable(b: Sequence, atom_set: AtomSet) -> list[tuple[int, ...]]:
    """The atoms' exponent vectors, once b is known to be a zero-sum sequence
    over the atom set's class set."""
    if b.class_set != atom_set.class_set:
        raise DimensionMismatch("sequence and atom set over different class sets")
    if not b.is_zero_sum():
        raise NotZeroSum(f"sigma of {b.exponents} is nonzero")
    return [a.exponents for a in atom_set.atoms]


def factorizations(b: Sequence, atom_set: AtomSet,
                   *, budget: int = DEFAULT_NODE_BUDGET,
                   limit: int | None = None) -> list[Factorization]:
    """Complete, duplicate-free list of factorizations of b into atoms.

    The empty sequence has exactly the empty factorization.  Raises
    NotZeroSum unless sigma(b) = 0.
    """
    vecs = _factorable(b, atom_set)
    found = vector_factorizations(b.exponents, vecs, budget=budget, limit=limit)
    return [Factorization(ix) for ix in found]


def length_set(b: Sequence, atom_set: AtomSet,
               *, budget: int = DEFAULT_NODE_BUDGET) -> set[int]:
    """The lengths of the factorizations of b, from the length table (the
    factorizations themselves are not listed).  Raises NotZeroSum unless
    sigma(b) = 0."""
    mask = vector_length_mask(b.exponents, _factorable(b, atom_set), budget=budget)
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
