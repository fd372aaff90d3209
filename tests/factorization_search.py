"""Factorization searches kept as independent references for the tests:
the former recursive search and the former explicit-stack search over atom
multiplicities, each with a ``limit`` that stops it at the ``limit``-th
factorization in lexicographic order, and the power check and witness
cofactor built on them.
"""


def recursive_vector_factorizations(target, atom_vectors, limit=None):
    """Reference: the former recursive search, one atom per call frame in
    nondecreasing index order, with suffix-cover pruning."""
    m = len(target)
    n = len(atom_vectors)
    masks = [sum(1 << j for j in range(m) if v[j]) for v in atom_vectors]
    suffix_cover = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | masks[i]
    lengths = [sum(v) for v in atom_vectors]
    out = []
    rem = list(target)
    acc = []

    def rec(total, start):
        if total == 0:
            out.append(tuple(acc))
            return limit is not None and len(out) >= limit
        needed = sum(1 << j for j in range(m) if rem[j])
        if needed & ~suffix_cover[start]:
            return False
        for i in range(start, n):
            v = atom_vectors[i]
            if lengths[i] > total:
                continue
            if all(v[j] <= rem[j] for j in range(m)):
                for j in range(m):
                    rem[j] -= v[j]
                acc.append(i)
                stop = rec(total - lengths[i], i)
                acc.pop()
                for j in range(m):
                    rem[j] += v[j]
                if stop:
                    return True
        return False

    rec(sum(target), 0)
    return out


def next_index_vector_factorizations(target, atom_vectors, limit=None):
    """Reference: the former explicit-stack search over atom multiplicities,
    taking atoms in increasing index order, each with as many copies as fit
    and then one fewer at a time, the next atom looked up among those whose
    support lies inside the remainder's."""
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
