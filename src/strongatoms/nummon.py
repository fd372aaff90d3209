"""Interval numerical monoids {0} u (n + N0).

Only the additive exponent structure is modeled here.  Multiplicative
distinctions of an ambient ring (unit groups, coefficient fields) are out of
scope: the interval monoid with n = 1 is factorial as a monoid regardless of
what a surrounding ring does.  The atoms are the interval [n, 2n - 1].
Length sets are not computed here: zsm's length table
(``vector_length_mask``) takes the atoms as one-coordinate vectors.  The
factorization search keeps only branches that end in a factorization (see
``nm_factorizations``).  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .abgroup import DEFAULT_NODE_BUDGET
from .errors import BudgetExceeded, NoWitness, NotMember


@dataclass(frozen=True)
class NumericalMonoid:
    """The interval monoid {0} u (n + N0), n a positive integer."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        if self.n < 1:
            raise ValueError("interval monoid needs n >= 1")

    @classmethod
    def interval(cls, n: int) -> "NumericalMonoid":
        return cls(n)

    def contains(self, x: int) -> bool:
        return x == 0 or x >= self.n


def nm_atoms(m: NumericalMonoid) -> tuple[int, ...]:
    """Atoms: the full interval [n, 2n-1]."""
    return tuple(range(m.n, 2 * m.n))


def nm_factorizations(m: NumericalMonoid, x: int) -> list[tuple[int, ...]]:
    """All multisets of atoms summing to x, each as a sorted tuple, in
    lexicographic order.  x is coerced with ``operator.index``.

    The search takes atoms in nondecreasing order and keeps only branches
    that end in a factorization: it takes atom a at remainder rem only when
    r = rem - a is a sum of atoms from [a, t], t = 2n - 1.  k atoms from an
    interval [a, t] sum to exactly the integers in [k a, k t], so r qualifies
    iff ceil(r / t) a <= r (r = 0 with k = 0).  The search thus visits at
    most the number of factorizations times x // n nodes.  Listing more than
    ``DEFAULT_NODE_BUDGET`` factorizations raises BudgetExceeded.  The search
    recurses once per atom taken, so an x with x // n near Python's recursion
    limit (1,000 by default) still raises RecursionError.
    """
    x = index(x)
    if x <= 0 or not m.contains(x):
        raise NotMember(f"{x} is not a positive element of the monoid")
    t = 2 * m.n - 1
    budget = DEFAULT_NODE_BUDGET
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def rec(rem: int, low: int):
        if rem == 0:
            if len(out) == budget:
                raise BudgetExceeded(
                    f"interval-monoid factorization search exceeded {budget} factorizations")
            out.append(tuple(acc))
            return
        for a in range(low, min(rem, t) + 1):
            r = rem - a
            if -(-r // t) * a <= r:
                acc.append(a)
                rec(r, a)
                acc.pop()

    rec(x, m.n)
    return out


@dataclass(frozen=True)
class NmWitness:
    """Two essentially different factorizations of the element atom * t."""

    atom: int
    t: int
    element: int
    copies_of_atom: tuple[int, ...]   # t copies of the atom
    copies_of_t: tuple[int, ...]      # atom copies of t


def nm_witness_non_absirred(m: NumericalMonoid, atom: int) -> NmWitness:
    """For an interval monoid with n >= 2: the power of an atom that also
    splits into copies of a different atom t."""
    if m.n == 1:
        raise NoWitness("the n = 1 interval monoid is factorial")
    atoms = nm_atoms(m)
    if atom not in atoms:
        raise NotMember(f"{atom} is not an atom of the monoid")
    t = next(t for t in atoms if t != atom)
    return NmWitness(atom, t, atom * t, (atom,) * t, (t,) * atom)
