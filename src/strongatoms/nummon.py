"""Numerical monoids: interval monoids {0} u (n + N0) and finitely generated ones.

Only the additive exponent structure is modeled here.  Multiplicative
distinctions of an ambient ring (unit groups, coefficient fields) are out of
scope: the interval monoid with n = 1 is factorial as a monoid regardless of
what a surrounding ring does.  The generated kind is a small extension kept
for reuse.  Length sets are not computed here: zsm's length table
(``vector_length_mask``) takes the atoms as one-coordinate vectors.  All
operations are pure, and no membership table outlives the call that built
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoWitness, NotMember


@dataclass(frozen=True)
class NumericalMonoid:
    kind: str                  # "interval" | "generated"
    data: tuple[int, ...]

    def __post_init__(self):
        if self.kind == "interval":
            (n,) = self.data
            if n < 1:
                raise ValueError("interval monoid needs n >= 1")
        elif self.kind == "generated":
            if not self.data or any(g < 1 for g in self.data):
                raise ValueError("generators must be positive")
            if math.gcd(*self.data) != 1:
                raise ValueError("generators must have gcd 1")
            # nm_atoms and nm_factorizations read the generators ascending, once each
            object.__setattr__(self, "data", tuple(sorted(set(self.data))))
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def interval(cls, n: int) -> "NumericalMonoid":
        return cls("interval", (int(n),))

    @classmethod
    def generated(cls, *gens: int) -> "NumericalMonoid":
        return cls("generated", tuple(int(g) for g in gens))

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x == 0:
            return True
        if self.kind == "interval":
            return x >= self.data[0]
        return _members_up_to(self.data, x)[x]


def _members_up_to(gens: tuple[int, ...], limit: int) -> list[bool]:
    """Entry v tells whether v is a sum of generators, for v = 0..limit."""
    ok = [False] * (limit + 1)
    ok[0] = True
    for v in range(1, limit + 1):
        for g in gens:
            if g <= v and ok[v - g]:
                ok[v] = True
                break
    return ok


def nm_atoms(m: NumericalMonoid) -> tuple[int, ...]:
    """Atoms: the full interval [n, 2n-1], or the minimal generators."""
    if m.kind == "interval":
        n = m.data[0]
        return tuple(range(n, 2 * n))
    member = _members_up_to(m.data, max(m.data))
    # g is an atom unless it splits as a sum of two nonzero members
    return tuple(g for g in m.data
                 if not any(member[a] and member[g - a] for a in range(1, g)))


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
    if m.kind != "interval":
        raise ValueError("witness construction applies to interval monoids")
    n = m.data[0]
    if n == 1:
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
