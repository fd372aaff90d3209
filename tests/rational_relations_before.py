"""Rational dependence as it was decided before the one integer elimination:
``rational_relations``, the fraction-free Bareiss elimination, kept verbatim,
and ``positive_kernel_vector`` on it, kept verbatim (only renamed) except
that its completion fallback is the copy of the search before pruning, the
last one that still stops at the first solution (``limit=1``).  Tests use
them as references for ``is_z_independent`` and ``positive_kernel_vector``.
"""

from __future__ import annotations

import math
from typing import Sequence as Seq

from strongatoms.abgroup import (
    DEFAULT_NODE_BUDGET,
    FinGenAbelianGroup,
    GroupElement,
    order,
    zero_sum_columns,
)
from strongatoms.errors import DimensionMismatch

from completion_before_pruning import minimal_nonneg_kernel_before_pruning


def rational_relations(group: FinGenAbelianGroup,
                       family: Seq[GroupElement]) -> list[tuple[int, ...]]:
    """Basis of {x in Q^m : sum_i x_i * g_i has free part 0}, as primitive
    integer vectors.

    One fraction-free Gauss-Jordan elimination (Bareiss 1968) on the matrix
    whose columns are the free parts.  Every intermediate entry is a minor of
    that matrix, so each division by the previous pivot is exact and entries
    stay polynomially bounded.  At the end each pivot row holds the last
    pivot d in its own pivot column and 0 in the other pivot columns, so each
    non-pivot column f gives the relation with d at f and minus row i's entry
    at row i's pivot column, made primitive with a positive entry at f.
    """
    for g in family:
        if g.group != group:
            raise DimensionMismatch("family element from a different group")
    m = len(family)
    rows = [[g.free_part[i] for g in family] for i in range(group.free_rank)]
    pivots: list[int] = []
    prev = 1
    for c in range(m):
        k = len(pivots)
        hit = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[k], rows[hit] = rows[hit], rows[k]
        top = rows[k]
        p = top[c]
        for i, row in enumerate(rows):
            if i != k:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
    sign = 1 if prev > 0 else -1
    relations = []
    for f in range(m):
        if f in pivots:
            continue
        vec = [0] * m
        vec[f] = sign * prev
        for row, c in zip(rows, pivots):
            vec[c] = -sign * row[f]
        common = math.gcd(*vec)
        relations.append(tuple(x // common for x in vec))
    return relations


def positive_kernel_vector_before_circuits(group: FinGenAbelianGroup,
                                           family: Seq[GroupElement],
                                           *, budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, ...] | None:
    """Some nonzero alpha >= 0 with sum_i alpha_i * g_i = 0, or None.

    Decided on ``rational_relations``.  Without a relation the family is
    Z-independent.  With one, v (primitive), the integer relations are the
    multiples of order(sum_i v_i * g_i) * v, so there is a nonnegative one
    exactly when v has no entries of opposite sign.  Two or more relations
    fall back to the completion search for a minimal solution.
    """
    if not family:
        raise ValueError("family must be nonempty")
    relations = rational_relations(group, family)
    if not relations:
        return None
    if len(relations) == 1:
        v = relations[0]
        if any(x > 0 for x in v) and any(x < 0 for x in v):
            return None
        w = tuple(abs(x) for x in v)
        k = order(group, sum((x * g for x, g in zip(w, family)), group.zero()))
        return tuple(k * x for x in w)
    m = len(family)
    cols = zero_sum_columns(group, family)
    sols = minimal_nonneg_kernel_before_pruning(cols, budget=budget, limit=1)
    return sols[0][:m] if sols else None
