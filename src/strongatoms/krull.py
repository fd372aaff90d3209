"""Absolute-irreducibility criteria and the eight-scenario classifier.

A Krull-monoid specification is a class group, the set G0 of classes that
contain prime divisors, and a multiplicity per class (how many prime divisors
it contains).  Prime divisors are never materialized individually: every
criterion decided here depends only on class values and on the distinction
"exactly one divisor" versus "more than one", so multiplicities above 2 are
capped at 2 for the existence searches.

Three routes to absolute irreducibility of an atom are implemented and kept
in agreement: support minimality within the atom set (decided for every atom
at once by ``AtomSet.support_minimal``, or for one atom by a scan when that
sweep is not built), the kernel criterion on the support
family (nonnegative dependence of the whole family, integer independence of
every proper subfamily), and explicit power-factorization witnesses, whose
two factorizations are ascending tuples of atom indices as
``zsm.factorizations`` lists them.  A power check over small powers
cross-checks them: u**n has a second factorization exactly when another atom
divides it, so one divisibility scan of u**n_max decides every n up to
n_max.  An atom that repeats a class holding two prime divisors is not
absolutely irreducible; its witness is built from the atom's exponents (see
``repeated_class_witness``), with no atom search or factorization listing.

The kernel criterion is decided as a circuit test: it holds exactly when the
free parts of the family have a one-dimensional space of rational relations,
spanned by a vector whose entries are all nonzero and of one sign.  Both it
and the existence search run on the package's one integer elimination in
``abgroup``: members are reduced one at a time against integer echelon rows
(``first_relation``), and the search (``one_signed_circuit``) extends only
independent families on the same rows, so it never builds a family larger
than free_rank + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as Seq

from .abgroup import (
    DEFAULT_NODE_BUDGET,
    INFINITE,
    FinGenAbelianGroup,
    GroupElement,
    first_relation,
    one_signed_circuit,
)
from .errors import DimensionMismatch
from .zsm import (
    AtomSet,
    ClassSet,
    Sequence,
    enumerate_atoms,
    is_minimal_zero_sum,
)


@dataclass(frozen=True)
class KrullSpec:
    """Class group, classes containing prime divisors, and their multiplicities.

    ``mult[i]`` is the number of prime divisors in class ``class_set.classes[i]``
    (a positive integer or INFINITE).  The set G1 of classes containing exactly
    one prime divisor is derived, never stored.
    """

    class_set: ClassSet
    mult: tuple[int | float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mult", tuple(self.mult))
        if len(self.mult) != len(self.class_set):
            raise DimensionMismatch("one multiplicity per class required")
        for m in self.mult:
            if m == INFINITE:
                continue
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"multiplicity {m!r} must be a positive integer or INFINITE")

    @property
    def group(self) -> FinGenAbelianGroup:
        return self.class_set.group

    def g1_indices(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mult) if m == 1)

    def capped_mult(self) -> tuple[int, ...]:
        # two divisors in one class already decide every criterion used here
        return tuple(2 if m == INFINITE or m > 2 else int(m) for m in self.mult)


# ---------------------------------------------------------------------------
# absolute irreducibility of a single atom


def is_absirred_support(u: Sequence, atom_set: AtomSet) -> bool:
    """True iff u is the unique atom whose support is contained in supp(u)
    (:meth:`AtomSet.is_support_minimal`)."""
    return atom_set.is_support_minimal(atom_set.index(u))


def is_absirred_kernel(group: FinGenAbelianGroup,
                       family: Seq[GroupElement]) -> bool:
    """Kernel criterion on a family of classes (repeats = distinct divisors).

    The family must admit a nonzero nonnegative relation while every proper
    subfamily is integrally independent.  Integer and rational independence
    agree (a rational relation of the free parts, scaled by its denominators
    and the exponent of the torsion, is an integer relation), and a subfamily
    omitting member i is dependent exactly when some relation vanishes at i.
    So the criterion is a circuit test: all members but the last are
    independent, and the last reduces to zero with a relation whose entries
    are all nonzero and of one sign.
    """
    if not family:
        raise ValueError("family must be nonempty")
    c = first_relation(group, family)
    return c is not None and len(c) == len(family) and (min(c) > 0 or max(c) < 0)


@dataclass(frozen=True)
class PowerWitness:
    """Two essentially different factorizations of atom**n, each an
    ascending tuple of atom indices."""

    atom: Sequence
    n: int
    standard: tuple[int, ...]    # n copies of the atom
    different: tuple[int, ...]


def witness_non_absirred(u: Sequence, atom_set: AtomSet) -> PowerWitness | None:
    """A power of u with an essentially different factorization, or None.

    Picks the first atom v != u supported inside supp(u), raises u to the
    smallest power divisible by v, and factors the cofactor greedily: each
    atom in index order is taken as often as it fits.  The remainder stays a
    zero-sum sequence, so every atom that fits it occurs in one of its
    factorizations, and the result is the cofactor's lexicographically first
    factorization.  Only atoms supported inside supp(u) can fit, and apart
    from u they have index at least v's, so the pass reads those from v on.
    v with that factorization is an ascending index tuple as built: u never
    fits (u dividing u**n / v would make v divide u**(n-1)).  Returns None
    exactly when u has minimal support (:meth:`AtomSet.is_support_minimal`).
    """
    iu = atom_set.index(u)
    iv = atom_set.atom_within_support(iu)
    if iv is None:
        return None
    v = atom_set[iv]
    n = max(-(-v.exponents[j] // u.exponents[j]) for j in v.support_indices())
    rem = list((u ** n / v).exponents)
    taken = [iv]
    masks = atom_set.support_masks
    for i in range(iv, len(atom_set)):
        if masks[i] & ~masks[iu]:
            continue
        a = atom_set[i]
        support = a.support_indices()
        c = min(rem[j] // a.exponents[j] for j in support)
        if c:
            for j in support:
                rem[j] -= c * a.exponents[j]
            taken += [i] * c
    return PowerWitness(u, n, (iu,) * n, tuple(taken))


def brute_force_absirred(u: Sequence, atom_set: AtomSet, n_max: int) -> bool:
    """No power u**n with n <= n_max has a second factorization.

    u**n has one exactly when some atom v != u divides it: u**n / v is then a
    zero-sum sequence, which factors.  An atom dividing u**n divides
    u**n_max, so one divisibility test per atom decides every n <= n_max.
    This is a necessary-condition test; witnesses may live beyond n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    iu = atom_set.index(u)
    power = u ** n_max
    return not any(a.divides(power) for i, a in enumerate(atom_set) if i != iu)


# ---------------------------------------------------------------------------
# all-atoms criteria


@dataclass(frozen=True)
class AllAbsirredReport:
    """Outcome of the every-irreducible-is-absolutely-irreducible test."""

    holds: bool
    atom_set: AtomSet
    failing_atom: Sequence | None = None
    failed_condition: str | None = None      # "support-minimality" | "repeated-class-multiplicity"
    failing_class_index: int | None = None


def all_irreducibles_absirred(spec: KrullSpec,
                              *, budget: int = DEFAULT_NODE_BUDGET) -> AllAbsirredReport:
    """Every irreducible of the modeled monoid is absolutely irreducible.

    Holds iff (a) every atom of the zero-sum monoid over G0 has minimal
    support, and (b) atoms never repeat a class that contains more than one
    prime divisor.
    """
    atom_set = enumerate_atoms(spec.class_set, budget=budget)
    g1 = set(spec.g1_indices())
    for u, minimal in zip(atom_set, atom_set.support_minimal):
        if not minimal:
            return AllAbsirredReport(False, atom_set, u, "support-minimality")
        for j, e in enumerate(u.exponents):
            if e > 1 and j not in g1:
                return AllAbsirredReport(False, atom_set, u,
                                         "repeated-class-multiplicity", j)
    return AllAbsirredReport(True, atom_set)


@dataclass(frozen=True)
class BgWitness:
    """Atoms S, S' (, S'') and T over a small class set with prod = T**power."""

    class_set: ClassSet
    factors: tuple[Sequence, ...]
    atom: Sequence
    power: int


def check_bg_all_absirred(group: FinGenAbelianGroup) -> BgWitness | None:
    """For finite G: every atom of the full zero-sum monoid is absolutely
    irreducible iff |G| <= 2.  Returns None then, and otherwise an explicit
    witness that some atom is not."""
    if not group.is_finite:
        raise ValueError("finite groups only; infinite cases need an explicit class set")
    if group.cardinality() <= 2:
        return None

    # some cyclic component of order >= 3, if any
    for j, d in enumerate(group.torsion):
        if d >= 3:
            g = group.element(tuple(int(i == j) for i in range(len(group.torsion))))
            cs = ClassSet(group, (g, -g))
            s = cs.sequence((d, 0))
            s2 = cs.sequence((0, d))
            t = cs.sequence((1, 1))
            return BgWitness(cs, (s, s2), t, d)

    # otherwise an elementary 2-group with at least two independent involutions
    k = len(group.torsion)
    g = group.element(tuple(int(i == 0) for i in range(k)))
    h = group.element(tuple(int(i == 1) for i in range(k)))
    cs = ClassSet(group, (g, h, g + h))
    s = cs.sequence((2, 0, 0))
    s2 = cs.sequence((0, 2, 0))
    s3 = cs.sequence((0, 0, 2))
    t = cs.sequence((1, 1, 1))
    return BgWitness(cs, (s, s2, s3), t, 2)


# ---------------------------------------------------------------------------
# scenario classification


def has_prime_element(spec: KrullSpec) -> bool:
    """A prime element exists iff the trivial class contains a prime divisor."""
    return spec.class_set.zero_class_index() is not None


@dataclass(frozen=True)
class AbsirredSearch:
    """Bounded search for an absolutely irreducible nonprime element.

    ``witness`` lists class indices with repetition standing for distinct
    prime divisors of equal class; it is the first witness by size, then
    lexicographically.  ``exhaustive`` is True when the bound covered every
    family (it reaches the sum of the caps), making a negative answer exact.
    Only independent families are extended, so a bound above free_rank + 1
    searches no more families.  ``per_class_cap`` records the capped divisor
    counts actually searched (multiplicities above 2 decide nothing further).
    """

    found: bool
    witness: tuple[int, ...] | None
    exhaustive: bool
    support_bound: int
    per_class_cap: tuple[int, ...] = ()
    family_semantics: str = "multiset over classes"


def exists_absirred_nonprime(spec: KrullSpec, support_bound: int,
                             *, budget: int = DEFAULT_NODE_BUDGET) -> AbsirredSearch:
    """Search families of prime divisors for an absolutely irreducible support.

    Families are multisets of classes with per-class multiplicity at most the
    (capped) number of divisors in that class; the single divisor of class 0
    is excluded, since that element is prime.  The walk is
    ``abgroup.one_signed_circuit``: it adds classes in nondecreasing index
    order to independent families only (a dependent family's relation
    vanishes on every added member) and, after a witness of size s, builds
    only smaller families.  ``budget`` bounds the extensions.
    """
    if support_bound < 1:
        raise ValueError("support_bound must be >= 1")
    caps = spec.capped_mult()
    found = one_signed_circuit([g.free_part for g in spec.class_set.classes], caps,
                               support_bound, skip=spec.class_set.zero_class_index(),
                               budget=budget, layer="absirred-nonprime")
    witness = found[0] if found else None
    exhaustive = support_bound >= sum(caps)
    return AbsirredSearch(witness is not None, witness, exhaustive, support_bound, caps)


@dataclass(frozen=True)
class RepeatedClassWitness:
    """Witness for an atom repeating a class with a second prime divisor.

    Modeling the two divisors p, q of the repeated class as separate symbols,
    ``a`` (all copies on p) divides ``b**2`` (one copy moved to q), and b**2
    acquires a factorization essentially different from b*b.  Exponent vectors
    are over ``symbol_classes``: two symbols for the repeated class first,
    then one per remaining support class.
    """

    atom: Sequence
    class_index: int
    symbol_classes: tuple[int, ...]
    a_exponents: tuple[int, ...]
    b_exponents: tuple[int, ...]
    n: int
    b_power_standard: tuple[tuple[int, ...], ...]
    b_power_different: tuple[tuple[int, ...], ...]


def repeated_class_witness(spec: KrullSpec, atom: Sequence,
                           class_index: int) -> RepeatedClassWitness:
    """The a | b**2 witness for an atom u repeating a class g, by construction.

    With m copies of g in u, a = (m, 0, rest), b = (m-1, 1, rest) and
    a' = (m-2, 2, rest) over the symbols, so that b**2 = a * a'.  Each maps
    onto u, so each is an atom: a proper nonempty zero-sum subsequence would
    map onto one of u.  When u has minimal support, u * u is the only
    factorization of u**2 over the classes, so b**2 has exactly the two
    factorizations b * b and a' * a (in the lexicographic order of the symbol
    atoms).
    """
    if not is_minimal_zero_sum(atom):
        raise ValueError("not an atom: the sequence is not a minimal zero-sum sequence")
    if spec.mult[class_index] < 2:
        raise ValueError("the class contains a single prime divisor")
    m_g = atom.exponents[class_index]
    if m_g < 2:
        raise ValueError("atom does not repeat the class")
    others = [(i, e) for i, e in enumerate(atom.exponents) if e and i != class_index]
    symbol_classes = (class_index, class_index) + tuple(i for i, _ in others)
    rest = tuple(e for _, e in others)
    a_vec = (m_g, 0) + rest
    b_vec = (m_g - 1, 1) + rest
    a2_vec = (m_g - 2, 2) + rest
    return RepeatedClassWitness(atom, class_index, symbol_classes, a_vec, b_vec, 2,
                                (b_vec, b_vec), (a2_vec, a_vec))


@dataclass(frozen=True)
class ScenarioReport:
    """Which of the three element kinds exist, in the table's column order
    (non-absolutely-irreducible, absolutely-irreducible-nonprime, prime).

    ``has_absirred_nonprime`` is None when the bounded search neither found a
    witness nor exhausted the family space; the row label then carries '?'.
    """

    has_prime: bool
    has_absirred_nonprime: bool | None
    has_nonabsirred: bool
    row_label: str
    absirred_search: AbsirredSearch
    nonabsirred_witness: PowerWitness | RepeatedClassWitness | None


def _sign(value: bool | None) -> str:
    if value is None:
        return "?"
    return "+" if value else "-"


def classify_scenario(spec: KrullSpec, support_bound: int = 4,
                      *, budget: int = DEFAULT_NODE_BUDGET) -> ScenarioReport:
    """Fill the scenario row for a specification, with verified witnesses.
    ``support_bound`` and ``budget`` bound the existence search as in
    :func:`exists_absirred_nonprime`; ``budget`` also bounds the atom search."""
    prime = has_prime_element(spec)
    search = exists_absirred_nonprime(spec, support_bound, budget=budget)
    if search.found:
        absnp: bool | None = True
    elif search.exhaustive:
        absnp = False
    else:
        absnp = None
    allabs = all_irreducibles_absirred(spec, budget=budget)
    witness: PowerWitness | RepeatedClassWitness | None = None
    if not allabs.holds:
        if allabs.failed_condition == "support-minimality":
            witness = witness_non_absirred(allabs.failing_atom, allabs.atom_set)
        else:
            witness = repeated_class_witness(spec, allabs.failing_atom,
                                             allabs.failing_class_index)
    has_nonabs = not allabs.holds
    label = f"({_sign(has_nonabs)},{_sign(absnp)},{_sign(prime)})"
    return ScenarioReport(prime, absnp, has_nonabs, label, search, witness)


def angermueller_check(spec: KrullSpec, support_bound: int = 4,
                       *, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Cross-consistency: all absolutely irreducibles found within the bounds
    (those of :func:`exists_absirred_nonprime`) are prime exactly when the
    spec is factorial (G0 inside the trivial class)."""
    search = exists_absirred_nonprime(spec, support_bound, budget=budget)
    all_absirred_prime = not search.found
    factorial = all(g.is_zero() for g in spec.class_set.classes)
    return all_absirred_prime == factorial
