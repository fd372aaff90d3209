"""The factorization search kept as an independent reference for the tests:
an explicit-stack search over atom multiplicities, with a ``limit`` that
stops it at the ``limit``-th factorization in lexicographic order, and the
power check built on it.
"""


def next_index_vector_factorizations(target, atom_vectors, limit=None):
    """Every multiset of atom vectors summing to ``target``, as nondecreasing
    index tuples in lexicographic order (the first ``limit`` of them).

    Atoms are taken in increasing index order, each with as many copies as
    fit and then one fewer at a time, the next atom looked up among those
    whose support lies inside the remainder's."""
    n = len(atom_vectors)
    supports = [tuple(j for j, x in enumerate(v) if x) for v in atom_vectors]
    masks = [sum(1 << j for j in s) for s in supports]
    suffix_cover = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | masks[i]
    fitting = {}
    out = []
    rem = list(target)
    need = sum(1 << j for j, r in enumerate(rem) if r)
    stack = []
    start = 0
    while True:
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
                for j in supports[i]:
                    rem[j] -= c * v[j]
                    if not rem[j]:
                        need &= ~(1 << j)
                stack.append((i, c))
                start = i + 1
                continue
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
                stack.append((i, c - 1))
            start = i + 1
            break
        else:
            return out


def search_power_absirred(u, atom_vectors, n_max):
    """True iff u**n, for every n <= n_max, has no factorization into
    ``atom_vectors`` but n copies of u, by asking the search for two."""
    iu = atom_vectors.index(tuple(u))
    return all(next_index_vector_factorizations(tuple(n * x for x in u), atom_vectors, 2)
               == [(iu,) * n] for n in range(1, n_max + 1))
