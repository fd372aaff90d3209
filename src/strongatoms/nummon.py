"""Interval numerical monoids {0} u (n + N0).

Only the additive exponent structure is modeled here.  Multiplicative
distinctions of an ambient ring (unit groups, coefficient fields) are out of
scope: the interval monoid with n = 1 is factorial as a monoid regardless of
what a surrounding ring does.  The atoms are the interval [n, 2n - 1].
Length sets are not computed here: zsm's length table
(``vector_length_mask``) takes the atoms as one-coordinate vectors.  All
operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import NoWitness, NotMember


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
    """All multisets of atoms summing to x, each as a sorted tuple."""
    if x <= 0 or not m.contains(x):
        raise NotMember(f"{x} is not a positive element of the monoid")
    atoms = nm_atoms(m)
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def rec(rem: int, start: int):
        if rem == 0:
            out.append(tuple(acc))
            return
        for i in range(start, len(atoms)):
            a = atoms[i]
            if a > rem:
                break
            acc.append(a)
            rec(rem - a, i)
            acc.pop()

    rec(x, 0)
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
    element = atom * t
    f1 = (atom,) * t
    f2 = (t,) * atom
    assert sum(f1) == element and sum(f2) == element
    return NmWitness(atom, t, element, f1, f2)
