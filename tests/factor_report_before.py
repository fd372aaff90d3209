"""The ``factor`` report as it was built before rows came straight from the
factorization table: ``vector_factorizations``, which sorted every entry of
the target's list, and ``cli._factor_payload``, which wrapped each
factorization in a ``zsm.Factorization`` and copied it back into a list, kept
verbatim (only renamed), with ``factorizations`` wired to that table
(``atom_vectors_for`` was then named ``_factorable``).  Tests use them as
references for the report bytes and the table's lists.
"""

from __future__ import annotations

from typing import Sequence as Seq

from strongatoms import zsm
from strongatoms.abgroup import DEFAULT_NODE_BUDGET
from strongatoms.cli import _seq_dict
from strongatoms.errors import BudgetExceeded
from strongatoms.zsm import AtomSet, Factorization, Sequence, _blocks, _packed, atom_vectors_for


def vector_factorizations_before(target: Seq[int],
                                 atom_vectors: Seq[tuple[int, ...]],
                                 *, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, ...]]:
    """All multisets of nonzero atom vectors summing to ``target``, as sorted
    index tuples in lexicographic order.

    A table keyed by remainders packed into ints: F(0) = [()], and otherwise,
    with j rem's first nonzero class, every atom that fits rem is zero before
    j, so a factorization of rem splits uniquely into its block (its atoms
    that are nonzero in class j, whose class-j entries sum to rem[j]) and a
    factorization of rem minus the block's sum, which is zero through j.
    F(rem) holds each entry of F(rem - block) followed by the block, and only
    F(target) is sorted, entries and all.  The table is filled in one
    post-order pass on an explicit stack: a state lists its blocks, pushes the
    unfilled remainders they leave, and merges its list once all of them are
    filled.  ``budget`` counts the table's states, the atoms the block walk
    takes (see :func:`_blocks`) and the merged entries, each checked before
    what it counts is listed, so it bounds the walk and the lists, kept until
    the call returns.
    """
    w, guard, top, by_first, packed = _packed(target, atom_vectors)
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
        table[rem] = sorted(tuple(sorted(f)) for f in merged) if rem == top else list(merged)
        stack.pop()
    return table[top]


def factorizations_before(b: Sequence, atom_set: AtomSet,
                          *, budget: int = DEFAULT_NODE_BUDGET) -> list[Factorization]:
    """Complete, duplicate-free list of factorizations of b into atoms.

    The empty sequence has exactly the empty factorization.  Raises
    NotZeroSum unless sigma(b) = 0.
    """
    vecs = atom_vectors_for(b, atom_set)
    found = vector_factorizations_before(b.exponents, vecs, budget=budget)
    return [Factorization(ix) for ix in found]


def factor_payload_before(spec, labels, seq, budget):
    atoms = zsm.enumerate_atoms(spec.class_set, budget=budget)
    facs = factorizations_before(seq, atoms, budget=budget)
    payload = {
        "sequence": _seq_dict(seq, labels),
        "atoms": [_seq_dict(a, labels) for a in atoms],
        "factorizations": [{"atom_indices": list(f.atom_indices)} for f in facs],
        "count": len(facs),
        "lengths": sorted({len(f) for f in facs}),
    }
    if facs:
        payload["elasticity"] = str(zsm.length_set_elasticity(payload["lengths"]))
    return payload
