"""The completion search as it was before children that can no longer reach
a solution were dropped, kept verbatim (only renamed) so that tests can
compare the answers and the insertion counts of the pruned search with it.
"""

from __future__ import annotations

from operator import add, ge
from typing import Sequence as Seq

from strongatoms.abgroup import DEFAULT_NODE_BUDGET
from strongatoms.errors import BudgetExceeded


def minimal_nonneg_kernel_before_pruning(columns: Seq[tuple[int, ...]],
                                          *, budget: int = DEFAULT_NODE_BUDGET,
                                          limit: int | None = None) -> list[tuple[int, ...]]:
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

    The inner products come from the Gram matrix G[i][j] = <A*e_i, A*e_j>.
    Each node stores the vector (<A*t, A*e_j>)_j and the integer |A*t|^2; the
    child t + e_i gets d + G[i] and n + 2*d[i] + G[i][i], and A*t = 0 exactly
    when |A*t|^2 = 0.  All arithmetic is exact.

    Terminates on every input; ``budget`` caps insertions into the tree and
    raises BudgetExceeded beyond it.  The tree's nodes are among those of the
    search without freezing, so it never inserts more.  Each inserted node
    later tries at most m children, each try costing at most one bucket scan
    and, when the child is inserted, one row of m additions.  A ``limit`` of
    at least 1 returns the first ``limit`` minimal solutions in search order.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    m = len(columns)
    gram = [tuple(sum(a * b for a, b in zip(ci, cj)) for cj in columns)
            for ci in columns]
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
                if limit is not None and len(sols) >= limit:
                    return sols
                for j, x in enumerate(t):
                    if x:
                        buckets[j].setdefault(x, []).append((mask, t))
        nxt = []
        for t, d, norm, mask, frozen in frontier:
            if norm == 0:
                continue
            for i, di in enumerate(d):
                if di >= 0 or frozen >> i & 1:
                    continue
                ti = t[i] + 1
                child = t[:i] + (ti,) + t[i + 1:]
                cmask = mask | (1 << i)
                outside = ~cmask
                for smask, s in buckets[i].get(ti, ()):
                    if not smask & outside and all(map(ge, child, s)):
                        break
                else:
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceeded(
                            f"completion search exceeded {budget} nodes")
                    gi = gram[i]
                    nxt.append((child, tuple(map(add, d, gi)),
                                norm + 2 * di + gi[i], cmask, frozen))
                frozen |= 1 << i
        frontier = nxt
    return sols
