"""The absolutely-irreducible-nonprime search and the kernel criterion as they
were before the search extended only independent families, kept verbatim
(only renamed) so that tests can compare the elimination walk with them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Sequence as Seq

from strongatoms.abgroup import FinGenAbelianGroup, GroupElement, rational_relations
from strongatoms.krull import AbsirredSearch, KrullSpec


def is_absirred_kernel_before_elimination(group: FinGenAbelianGroup,
                                          family: Seq[GroupElement]) -> bool:
    """Kernel criterion on a family of classes (repeats = distinct divisors).

    The family must admit a nonzero nonnegative relation while every proper
    subfamily is integrally independent.  Integer and rational independence
    agree (a rational relation of the free parts, scaled by its denominators
    and the exponent of the torsion, is an integer relation), and a subfamily
    omitting member i is dependent exactly when some relation vanishes at i.
    So the criterion is a circuit test: the rational relations form one line,
    spanned by a vector whose entries are all nonzero and of one sign.
    """
    if not family:
        raise ValueError("family must be nonempty")
    relations = rational_relations(group, family)
    if len(relations) != 1:
        return False
    v = relations[0]
    return all(x > 0 for x in v) or all(x < 0 for x in v)


def exists_absirred_nonprime_before_elimination(spec: KrullSpec,
                                                support_bound: int) -> AbsirredSearch:
    """Search families of prime divisors for an absolutely irreducible support.

    Families are multisets of classes with per-class multiplicity at most the
    (capped) number of divisors in that class; the single divisor of class 0
    is excluded, since that element is prime.
    """
    if support_bound < 1:
        raise ValueError("support_bound must be >= 1")
    classes = spec.class_set.classes
    caps = spec.capped_mult()
    zero_idx = spec.class_set.zero_class_index()
    total = sum(caps)
    exhaustive = support_bound >= total
    for size in range(1, support_bound + 1):
        for combo in combinations_with_replacement(range(len(classes)), size):
            if any(combo.count(i) > caps[i] for i in set(combo)):
                continue
            if size == 1 and combo[0] == zero_idx:
                continue
            family = [classes[i] for i in combo]
            if is_absirred_kernel_before_elimination(spec.group, family):
                return AbsirredSearch(True, combo, exhaustive, support_bound, caps)
    return AbsirredSearch(False, None, exhaustive, support_bound, caps)
