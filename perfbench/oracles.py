"""Independent answer checks for the benchmark.

Nothing here imports strongatoms.  Each check recomputes an answer by a
different route from the library's own:

* atoms over a finite class set: grow zero-sum-free sequences while keeping
  their subsum sets; every atom is T * (-sigma(T)) for a zero-sum-free T;
* atoms over a rank-1 class set (classes in Z): brute force under the length
  bound "at most max|negative| positive terms and max(positive) negative ones";
* atoms of the signed-basis class sets: the closed form of n + 3 atoms;
* factorization counts and length sets: a table keyed by the remaining
  exponent vector, filled one atom kind at a time (no listing);
* the kernel criterion: rank of the free parts over Q (Fraction elimination)
  is m - 1 and the kernel is spanned by a vector with nonzero entries of one
  sign;
* class numbers of discriminant 4d from reduced binary quadratic forms, for
  Carlitz's theorem (Z[sqrt(d)] is half-factorial iff h <= 2);
* interval numerical monoids: partition counts by a coin-change table;
* integer-valued polynomials: inputs built from binomial polynomials, so the
  answer is known by construction.

``self_test()`` runs every check on hand-checkable cases.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# atoms


def atoms_finite(torsion, classes):
    """Exponent vectors of all atoms over ``classes`` (residue tuples) in
    Z/d_1 + ... + Z/d_k, by growing zero-sum-free sequences."""
    torsion = tuple(torsion)
    k = len(classes)
    radix = []
    acc = 1
    for d in torsion:
        radix.append(acc)
        acc *= d
    order = acc

    def code(vec):
        return sum((x % d) * r for x, d, r in zip(vec, torsion, radix))

    def decode(c):
        return tuple((c // r) % d for d, r in zip(torsion, radix))

    elems = [decode(c) for c in range(order)]
    add = [[code(tuple(a + b for a, b in zip(elems[x], elems[y])))
            for y in range(order)] for x in range(order)]
    neg = [code(tuple(-a for a in elems[x])) for x in range(order)]
    cls = [code(c) for c in classes]
    where = {c: i for i, c in enumerate(cls)}

    found = set()
    exps = [0] * k

    # explicit stack of (next class index, subsum set, sigma, exps snapshot)
    stack = [(0, frozenset(), 0, tuple(exps))]
    while stack:
        start, sums, sigma, ex = stack.pop()
        j = where.get(neg[sigma])
        if j is not None:
            atom = list(ex)
            atom[j] += 1
            found.add(tuple(atom))
        for i in range(start, k):
            g = cls[i]
            if g == 0:
                continue
            new = set(sums)
            new.add(g)
            for s in sums:
                new.add(add[s][g])
            if 0 in new:
                continue
            nex = list(ex)
            nex[i] += 1
            stack.append((i, frozenset(new), add[sigma][g], tuple(nex)))
    return found


def _is_minimal_int(vec, values):
    """Nonempty integer zero-sum vector with no proper nonempty zero-sum part."""
    total = sum(vec)
    for sub in product(*(range(e + 1) for e in vec)):
        n = sum(sub)
        if 0 < n < total and sum(e * v for e, v in zip(sub, values)) == 0:
            return False
    return True


def atoms_rank1(values):
    """Atoms over integer classes ``values`` (a class set inside Z)."""
    pos = [v for v in values if v > 0]
    negs = [-v for v in values if v < 0]
    max_pos = max(pos, default=0)
    max_neg = max(negs, default=0)
    found = set()
    if 0 in values:
        found.add(tuple(int(v == 0) for v in values))
    ranges = []
    for v in values:
        if v > 0:
            ranges.append(range(max_neg + 1))
        elif v < 0:
            ranges.append(range(max_pos + 1))
        else:
            ranges.append(range(1))
    for vec in product(*ranges):
        if not any(vec):
            continue
        if sum(e for e, v in zip(vec, values) if v > 0) > max_neg:
            continue
        if sum(e for e, v in zip(vec, values) if v < 0) > max_pos:
            continue
        if sum(e * v for e, v in zip(vec, values)) != 0:
            continue
        if _is_minimal_int(vec, values):
            found.add(tuple(vec))
    return found


def atoms_signed_basis(classes):
    """Closed form for {+-e_i} u {+-F} (plus optionally 0) in Z^n, n >= 2,
    where F has every coordinate equal to +-1: n + 3 atoms, plus {0}."""
    classes = [tuple(c) for c in classes]
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    n = len(classes[0])

    def vec(idx):
        v = [0] * k
        for i in idx:
            v[i] += 1
        return tuple(v)

    found = set()
    zero = (0,) * n
    if zero in index:
        found.add(vec([index[zero]]))
    for c in classes:
        if c != zero:
            found.add(vec([index[c], index[tuple(-x for x in c)]]))
    wide = [c for c in classes if sum(1 for x in c if x) > 1]
    for big in wide:
        parts = []
        for j, x in enumerate(big):
            unit = tuple((1 if x > 0 else -1) if i == j else 0 for i in range(n))
            parts.append(index[unit])
        found.add(vec(parts + [index[tuple(-x for x in big)]]))
    return found


def support_minimal(atoms):
    """Map atom -> True iff no other atom's support lies inside its support."""
    supports = {a: frozenset(i for i, e in enumerate(a) if e) for a in atoms}
    return {a: not any(b != a and supports[b] <= supports[a] for b in atoms)
            for a in atoms}


# ---------------------------------------------------------------------------
# factorizations


def factorization_table(target, atoms):
    """(count, length set) of factorizations of ``target`` into ``atoms``.

    A table keyed by the remaining exponent vector: atoms are taken one kind
    at a time, each any number of times, so every multiset is counted once.
    A coordinate that no later atom touches must already be used up, which
    keeps the table to the remainders that can still reach zero.  Length
    sets are carried as integer bitmasks.
    """
    target = tuple(target)
    m = len(target)
    atoms = [tuple(a) for a in atoms if any(a)]
    last = {}
    for i, a in enumerate(atoms):
        for j in range(m):
            if a[j]:
                last[j] = i
    if any(target[j] and j not in last for j in range(m)):
        return 0, set()
    states = {target: (1, 1)}
    for i, a in enumerate(atoms):
        done = [j for j in range(m) if last.get(j) == i]
        nxt = {}
        for w, (count, mask) in states.items():
            t = 0
            while True:
                if not any(w[j] for j in done):
                    old = nxt.get(w)
                    shifted = mask << t
                    nxt[w] = (count, shifted) if old is None else (old[0] + count, old[1] | shifted)
                w = tuple(x - y for x, y in zip(w, a))
                if min(w) < 0:
                    break
                t += 1
        states = nxt
    count, mask = states.get((0,) * m, (0, 0))
    return count, {i for i in range(mask.bit_length()) if mask >> i & 1}


def power_absirred(u, atoms, n_max):
    """No power u**n, n <= n_max, has a second factorization: equivalently no
    other atom divides u**n_max."""
    return not any(v != u and all(x <= n_max * y for x, y in zip(v, u)) for v in atoms)


# ---------------------------------------------------------------------------
# kernel criterion by rational rank


def rational_kernel(rows, m):
    """Basis of the rational kernel of the matrix with the given rows (m columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(m):
        hit = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


def kernel_criterion(free_rank, family):
    """Kernel criterion on a family given as coordinate tuples (free parts
    first; torsion residues are irrelevant to it)."""
    m = len(family)
    rows = [[g[i] for g in family] for i in range(free_rank)]
    basis = rational_kernel(rows, m)
    if len(basis) != 1:
        return False
    v = basis[0]
    return all(x > 0 for x in v) or all(x < 0 for x in v)


def absirred_nonprime_search(classes, free_rank, caps, zero_index, bound):
    """(minimal witness size or None, exhaustive) over families of classes."""
    k = len(classes)
    exhaustive = bound >= sum(caps)
    for size in range(1, bound + 1):
        for combo in _multisets(k, size):
            if any(combo.count(i) > caps[i] for i in set(combo)):
                continue
            if size == 1 and combo[0] == zero_index:
                continue
            if kernel_criterion(free_rank, [classes[i] for i in combo]):
                return size, exhaustive
    return None, exhaustive


def _multisets(k, size, start=0):
    if size == 0:
        yield ()
        return
    for i in range(start, k):
        for rest in _multisets(k, size - 1, i):
            yield (i,) + rest


def scenario_row(atoms, mult, zero_index, kernel_found, exhaustive):
    """The classifier row (non-absirred, absirred-nonprime, prime) as a string."""
    minimal = support_minimal(atoms)
    nonabs = (not all(minimal.values())
              or any(e > 1 and mult[j] != 1 for a in atoms for j, e in enumerate(a)))
    if kernel_found:
        absnp = "+"
    elif exhaustive:
        absnp = "-"
    else:
        absnp = "?"
    sign = lambda b: "+" if b else "-"
    return f"({sign(nonabs)},{absnp},{sign(zero_index is not None)})"


# ---------------------------------------------------------------------------
# imaginary quadratic rings


def class_number(disc):
    """Number of reduced primitive forms (a, b, c) of discriminant disc < 0."""
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


class Quad:
    """Minimal arithmetic in Z[sqrt(d)], d < 0, elements as (a, b) pairs."""

    def __init__(self, d):
        self.d = d

    def norm(self, z):
        return z[0] * z[0] - self.d * z[1] * z[1]

    def mul(self, x, y):
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def div(self, z, w):
        """z / w if exact, else None."""
        n = self.norm(w)
        a = z[0] * w[0] - self.d * z[1] * w[1]
        b = z[1] * w[0] - z[0] * w[1]
        if a % n or b % n:
            return None
        return (a // n, b // n)

    def of_norm(self, m):
        out = []
        b = 0
        while -self.d * b * b <= m:
            rest = m + self.d * b * b
            a = math.isqrt(rest)
            if a * a == rest:
                for sa in {a, -a}:
                    for sb in {b, -b}:
                        out.append((sa, sb))
            b += 1
        return out

    @staticmethod
    def canon(z):
        return z if (z[0] > 0 or (z[0] == 0 and z[1] > 0)) else (-z[0], -z[1])

    @staticmethod
    def divisors(n):
        """Divisors of n greater than 1, from its prime factorization."""
        out = [1]
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out = [x * p ** i for x in out for i in range(e + 1)]
            p += 1
        if n > 1:
            out = [x * f for x in out for f in (1, n)]
        return sorted(x for x in out if x > 1)

    def irreducible(self, z):
        n = self.norm(z)
        if n <= 1:
            return False
        return not any(self.div(z, w) is not None
                       for m in self.divisors(n) if m < n for w in self.of_norm(m))

    def irreducible_divisors(self, z):
        """Canonical irreducible divisors of z (norm >= 2)."""
        out = set()
        for m in self.divisors(self.norm(z)):
            for w in self.of_norm(m):
                if self.div(z, w) is not None and self.irreducible(w):
                    out.add(self.canon(w))
        return out

    def length_set(self, z, memo=None):
        memo = {} if memo is None else memo
        key = self.canon(z)
        if self.norm(z) == 1:
            return {0}
        if key in memo:
            return memo[key]
        out = set()
        for w in self.irreducible_divisors(z):
            q = self.div(z, w)
            out |= {1 + x for x in self.length_set(q, memo)}
        memo[key] = out
        return out

    def power_absirred(self, z, n_max):
        """(True, None) or (False, least n): an irreducible non-associate of z
        divides z**n."""
        zc = self.canon(z)
        p = (1, 0)
        for n in range(1, n_max + 1):
            p = self.mul(p, z)
            if any(w != zc for w in self.irreducible_divisors(p)):
                return False, n
        return True, None


# ---------------------------------------------------------------------------
# numerical monoids and integer-valued polynomials


def interval_factorization_count(n, x):
    """Multisets of parts in [n, 2n-1] summing to x."""
    ways = [0] * (x + 1)
    ways[0] = 1
    for part in range(n, 2 * n):
        for v in range(part, x + 1):
            ways[v] += ways[v - part]
    return ways[x]


def binomial_monomials(k):
    """Monomial coefficients (low degree first) of x(x-1)...(x-k+1)/k!."""
    coeffs = [Fraction(1)]
    for i in range(k):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= i * c
        coeffs = nxt
    fact = math.factorial(k)
    return [c / fact for c in coeffs]


def poly_from_binomial(coeffs_over_binomials):
    """Monomial coefficients of sum_k c_k * binom(x, k)."""
    deg = len(coeffs_over_binomials) - 1
    out = [Fraction(0)] * (deg + 1)
    for k, c in enumerate(coeffs_over_binomials):
        for j, b in enumerate(binomial_monomials(k)):
            out[j] += c * b
    return out


# ---------------------------------------------------------------------------
# self-test on hand-checkable cases


def self_test():
    """Raise AssertionError if a check disagrees with a hand-computed case."""
    # Z/3: g^3, (2g)^3, g*2g
    assert atoms_finite((3,), [(1,), (2,)]) == {(3, 0), (0, 3), (1, 1)}
    # Z/4 \ 0: g^4, (3g)^4, (2g)^2, g*3g, g^2*2g, (3g)^2*2g
    assert atoms_finite((4,), [(1,), (2,), (3,)]) == {
        (4, 0, 0), (0, 0, 4), (0, 2, 0), (1, 0, 1), (2, 1, 0), (0, 1, 2)}
    # Z/2 + Z/2 \ 0 = {a, b, a+b}: a^2, b^2, (a+b)^2, a*b*(a+b)
    assert atoms_finite((2, 2), [(1, 0), (0, 1), (1, 1)]) == {
        (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)}
    # {-g, -2g, 3g} in Z: (-g)^3 3g, (-g)(-2g)(3g), (-2g)^3 (3g)^2
    assert atoms_rank1([-1, -2, 3]) == {(3, 0, 1), (1, 1, 1), (0, 3, 2)}
    assert atoms_rank1([0, 1, -1]) == {(1, 0, 0), (0, 1, 1)}
    # signed basis n = 2: e1(-e1), e2(-e2), f(-f), e1 e2 (-f), (-e1)(-e2) f
    sb2 = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    assert atoms_signed_basis(sb2) == {
        (1, 0, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0), (0, 0, 0, 0, 1, 1),
        (1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 0)}
    assert atoms_signed_basis(sb2) == atoms_rank1_free(sb2)
    assert support_minimal({(3, 0), (0, 3), (1, 1)}) == {
        (3, 0): True, (0, 3): True, (1, 1): False}
    # Z/3: g^3 (2g)^3 = (g^3)(2g^3) = (g 2g)^3
    assert factorization_table((3, 3), [(3, 0), (0, 3), (1, 1)]) == (2, {2, 3})
    assert factorization_table((0, 0), [(3, 0)]) == (1, {0})
    assert factorization_table((6, 0), [(3, 0), (0, 3), (1, 1)]) == (1, {2})
    assert power_absirred((3, 0), [(3, 0), (0, 3), (1, 1)], 5)
    assert not power_absirred((1, 1), [(3, 0), (0, 3), (1, 1)], 3)
    assert power_absirred((1, 1), [(3, 0), (0, 3), (1, 1)], 2)
    # kernel criterion
    assert kernel_criterion(0, [(1,)])                    # g in Z/3
    assert kernel_criterion(1, [(1,), (-1,)])             # e, -e in Z
    assert not kernel_criterion(2, [(1, 0), (0, 1)])      # independent
    assert not kernel_criterion(1, [(1,), (2,)])          # no positive relation
    assert not kernel_criterion(1, [(1,), (-1,), (2,), (-2,)])
    assert kernel_criterion(2, [(1, 0), (0, 1), (-1, -1)])
    # classifier rows from the paper: signed basis (-,+,-), with 0 added (-,+,+)
    size, exh = absirred_nonprime_search(sb2, 2, (1,) * 6, None, 4)
    assert scenario_row(atoms_signed_basis(sb2), (1,) * 6, None, size, exh) == "(-,+,-)"
    sb2z = [(0, 0)] + sb2
    size, exh = absirred_nonprime_search(sb2z, 2, (1,) * 7, 0, 4)
    assert scenario_row(atoms_signed_basis(sb2z), (1,) * 7, 0, size, exh) == "(-,+,+)"
    # class numbers: h(-4) = 1, h(-20) = 2, h(-56) = 4, h(-84) = 4
    assert [class_number(D) for D in (-4, -8, -20, -56, -84)] == [1, 1, 2, 4, 4]
    # Z[sqrt(-5)]: 6 = 2*3 = (1+s)(1-s) has lengths {2}; 3 is irreducible but
    # 3^2 = (2+s)(2-s), so it is not absolutely irreducible
    q = Quad(-5)
    assert q.length_set((6, 0)) == {2}
    assert q.irreducible((3, 0)) and not q.irreducible((6, 0))
    assert q.power_absirred((3, 0), 3) == (False, 2)
    # Z[sqrt(-14)]: 18 = 2*3*3 = (2+s)(2-s) has lengths {2, 3}
    assert Quad(-14).length_set((18, 0)) == {2, 3}
    # interval monoid n = 2: 6 = 2+2+2 = 3+3
    assert interval_factorization_count(2, 6) == 2
    assert interval_factorization_count(3, 10) == 2   # 3+3+4, 5+5
    # binomial polynomials: binom(x, 2) = (x^2 - x)/2
    assert binomial_monomials(2) == [0, Fraction(-1, 2), Fraction(1, 2)]
    assert poly_from_binomial([1, 1]) == [1, 1]
    return True


def atoms_rank1_free(classes):
    """Brute-force atoms over a small class set in Z^n (test helper for the
    closed forms): vectors with entries <= 2 that are minimal zero-sum."""
    k = len(classes)
    n = len(classes[0])
    found = set()
    for vec in product(range(3), repeat=k):
        if not any(vec):
            continue
        if any(sum(e * c[i] for e, c in zip(vec, classes)) for i in range(n)):
            continue
        minimal = True
        for sub in product(*(range(e + 1) for e in vec)):
            if 0 < sum(sub) < sum(vec) and not any(
                    sum(e * c[i] for e, c in zip(sub, classes)) for i in range(n)):
                minimal = False
                break
        if minimal:
            found.add(vec)
    return found


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
