"""The four workloads: seeded inputs, the queries of one round, and their checks.

A workload is one round of queries, each on a distinct input; a run attempts
whole rounds of the same queries.  Base inputs come from fixed generators.
The seed moves them only by symmetries that leave the work counts unchanged:
a signed permutation of the free coordinates in rank 2 and up (it keeps
every inner product the completion search uses, and the number of minus
signs a report echoes), fresh labels of one width, the order of the queries
in a round, and in ``domains`` the order of the rings and the integer-valued
polynomials' coefficients.  So the counts of
the traced run are the same for every seed, and the spread between seeds is
mostly the machine's.  A group automorphism or a new class order would
change the search trees themselves.

Each query carries a ``canon`` function that reduces the program's answer to
a comparable value and a ``check`` function that tests that value against a
computation from ``oracles`` made apart from the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import oracles as orc


@dataclass
class Query:
    key: str                          # identifies the input; equal keys, equal answers
    run: Callable[[], object]
    canon: Callable[[object], object]
    check: Callable[[object], bool]
    expect_failure: type | None = None


class Ctx:
    """What a workload's queries share: the seeded generator, the program's
    modules (replaced at each fresh import) and the spec directory."""

    def __init__(self, mods, seed, name, outdir, tracer):
        self.mods = mods
        self.rng = random.Random(f"{name}:{seed}")
        self.outdir = outdir
        self.tracer = tracer
        self.nspec = 0

    def write_spec(self, free_rank, torsion, classes, mult=None, tag="spec"):
        """Write a spec with fresh labels; return (path, labels, mult)."""
        mult = [1] * len(classes) if mult is None else list(mult)
        labels = [f"c{self.rng.randrange(10**6):06d}_{i:02d}" for i in range(len(classes))]
        self.nspec += 1
        path = os.path.join(self.outdir, f"{tag}-{self.nspec}.json")
        with open(path, "w") as fh:
            json.dump({"group": {"free_rank": free_rank, "torsion": list(torsion)},
                       "classes": [list(c) for c in classes], "labels": labels,
                       "mult": mult}, fh)
        return path, labels, mult

    def cli(self, argv):
        """Run the CLI in-process; return (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.mods.cli.main(argv)
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.report_bytes += len(text)
        return rc, text


# ---------------------------------------------------------------------------
# symmetries


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return lambda c: tuple(signs[i] * c[perm[i]] for i in range(n))


def nonzero_elements(torsion):
    return [c for c in product(*(range(d) for d in torsion)) if any(c)]


def signed_basis(n, with_zero=False):
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    f = (1,) * n
    classes = basis + [tuple(-x for x in b) for b in basis] + [f, tuple(-x for x in f)]
    return ([(0,) * n] if with_zero else []) + classes


# ---------------------------------------------------------------------------
# CLI answers


def canon_atoms(out):
    rc, text = out
    rep = json.loads(text)
    res = rep["results"]
    return (rc, res["count"], tuple(tuple(a["exponents"]) for a in res["atoms"]),
            tuple(a["absolutely_irreducible"] for a in res["atoms"]))


def check_atoms(atoms_fn):
    def check(ans):
        rc, count, atoms, absirred = ans
        expected = atoms_fn()
        minimal = orc.support_minimal(expected)
        return (rc == 0 and count == len(expected) and set(atoms) == expected
                and list(atoms) == sorted(atoms) and len(set(atoms)) == len(atoms)
                and all(minimal[a] == f for a, f in zip(atoms, absirred)))
    return check


def canon_factor(out):
    rc, text = out
    res = json.loads(text)["results"]
    facs = res.get("factorizations")
    return (rc, tuple(res["lengths"]), res.get("elasticity"),
            None if facs is None else tuple(tuple(f["atom_indices"]) for f in facs),
            res.get("count"))


def check_factor(target, atoms_fn):
    def check(ans):
        rc, lengths, elasticity, facs, count = ans
        atoms = sorted(atoms_fn())
        n, want = orc.factorization_table(target, atoms)
        want_el = str(Fraction(max(want), min(want)) if want != {0} else Fraction(1))
        ok = rc == 0 and set(lengths) == want and list(lengths) == sorted(want)
        ok = ok and elasticity == want_el
        if facs is not None:
            ok = ok and count == n == len(facs) == len(set(facs))
            for f in facs:
                total = [0] * len(target)
                for i in f:
                    total = [a + b for a, b in zip(total, atoms[i])]
                ok = ok and tuple(total) == tuple(target) and list(f) == sorted(f)
        return ok
    return check


# ---------------------------------------------------------------------------
# atoms


def build_atoms(ctx, specs_dir):
    rng = ctx.rng
    pool = random.Random("atoms-pool")
    items = []                              # (free rank, torsion, classes, oracle)

    def finite(torsion, classes):
        items.append((0, torsion, classes, lambda: orc.atoms_finite(torsion, classes)))

    for n in range(7, 13):
        finite((n,), nonzero_elements((n,)))
    for torsion in ((2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 2, 2, 2)):
        finite(torsion, nonzero_elements(torsion))
    for n in range(3, 13):
        sp = signed_permutation(rng, n)
        image = [sp(c) for c in signed_basis(n)]
        items.append((n, (), image, lambda image=image: orc.atoms_signed_basis(image)))
    for values in ((-1, -2, 3), (-3, -5, 7), (-2, -7, 5), (-1, -4, 6),
                   (-3, -4, 5), (-5, -6, 7), (-2, -5, 9), (-4, -7, 3, 6)):
        classes = [(v,) for v in values]
        items.append((1, (), classes,
                      lambda classes=classes: orc.atoms_rank1([c[0] for c in classes])))
    subset_groups = ((13,), (14,), (15,), (16,), (2, 2, 2, 2), (3, 3), (5, 5), (2, 2, 2))
    for i in range(26):
        torsion = subset_groups[i % len(subset_groups)]
        elems = nonzero_elements(torsion)
        finite(torsion, sorted(pool.sample(elems, min(len(elems), pool.randint(4, 7)))))

    queries = []
    for free_rank, torsion, classes, oracle in items:
        path, _, _ = ctx.write_spec(free_rank, torsion, classes, tag="atoms")
        queries.append(Query(f"atoms:{path}",
                             lambda path=path: ctx.cli(["atoms", "--spec", path, "--machine"]),
                             canon_atoms, check_atoms(oracle)))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# lengths


def build_lengths(ctx, specs_dir):
    rng = ctx.rng
    queries = []

    def add(cmd, path, target, atoms, label=None, expect_failure=None):
        seq = label or ",".join(map(str, target))
        queries.append(Query(f"{cmd}:{path}:{seq}",
                             lambda: ctx.cli([cmd, "--spec", path, "--sequence", seq,
                                              "--machine"]),
                             canon_factor, check_factor(target, atoms), expect_failure))

    for n, target in ((4, (16, 16, 16)), (5, (10, 10, 10, 10)), (5, (8, 8, 8, 8)),
                      (5, (10, 9, 10, 8)), (6, (6, 6, 6, 6, 6)), (6, (5, 6, 4, 6, 5)),
                      (6, (6, 5, 6, 5, 6)), (7, (4, 4, 4, 4, 4, 4)), (7, (3, 4, 3, 4, 3, 2)),
                      (7, (3, 3, 3, 3, 3, 3))):
        classes = nonzero_elements((n,))
        path, _, _ = ctx.write_spec(0, (n,), classes, tag="lengths")
        for cmd in ("lengths", "factor"):
            add(cmd, path, target, lambda n=n, classes=classes: orc.atoms_finite((n,), classes))

    # (U*V)^k with U = e_1...e_n (-f), V = (-e_1)...(-e_n) f: every class k times
    for n, k in ((2, 8), (3, 6), (4, 5), (5, 4), (6, 3)):
        sp = signed_permutation(rng, n)
        image = [sp(c) for c in signed_basis(n)]
        path, _, _ = ctx.write_spec(n, (), image, tag="lengths")
        add("factor", path, (k,) * len(image), lambda image=image: orc.atoms_signed_basis(image))

    # (-g)^3k (-2g)^3k (3g)^3k over {-g, -2g, 3g}
    path, _, _ = ctx.write_spec(1, (), [(-1,), (-2,), (3,)], tag="lengths")
    for k in (4, 6):
        for cmd in ("lengths", "factor"):
            add(cmd, path, (3 * k,) * 3, lambda: orc.atoms_rank1([-1, -2, 3]))

    # the bundled Z/3 spec, unchanged: g^3000 overflows the recursive search
    add("lengths", os.path.join(specs_dir, "cyclic3_full.json"), (3000, 0),
        lambda: orc.atoms_finite((3,), [(1,), (2,)]), label="g^3000",
        expect_failure=RecursionError)

    # early-stop power checks through the library
    for n, n_max in ((4, 6), (5, 4), (6, 3), (7, 3), (3, 8), (8, 3)):
        image = nonzero_elements((n,))

        def run(n=n, image=image, n_max=n_max):
            lib = ctx.mods.lib
            group = lib.FinGenAbelianGroup(0, (n,))
            cs = lib.ClassSet(group, tuple(group.element(c) for c in image))
            atoms = lib.enumerate_atoms(cs)
            return [(a.exponents, lib.brute_force_absirred(a, atoms, n_max)) for a in atoms]

        def check(ans, n=n, image=image, n_max=n_max):
            expected = sorted(orc.atoms_finite((n,), image))
            return ([a for a, _ in ans] == expected
                    and all(v == orc.power_absirred(a, expected, n_max) for a, v in ans))

        queries.append(Query(f"brute:{n}:{image}", run,
                             lambda ans: tuple((tuple(a), v) for a, v in ans), check))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# classify

KERNEL_TORSIONS = ((), (2,), (3,), (2, 4), (6,))


def kernel_family_pool(count):
    """Base families for the kernel criterion: free rank 0-3, torsion none,
    (2), (3), (2,4) or (6), 1-5 members, free coordinates in +-3 to +-5."""
    pool = random.Random("classify-kernel-pool")
    out = []
    while len(out) < count:
        r = pool.randint(0, 3)
        torsion = pool.choice(KERNEL_TORSIONS)
        if r == 0 and not torsion:
            continue
        amp = pool.randint(3, 5)
        m = pool.randint(1, 5)
        fam = [tuple(pool.randint(-amp, amp) for _ in range(r))
               + tuple(pool.randrange(d) for d in torsion) for _ in range(m)]
        out.append((r, torsion, fam))
    return out


def exists_spec_pool():
    """Free-rank-4/5 class sets (no zero class) for the bounded existence
    search, with support bounds at or below the rank."""
    pool = random.Random("classify-exists-pool")
    out = []
    for r, k, bound in ((4, 6, 3), (4, 7, 3), (4, 6, 4), (5, 7, 3), (5, 6, 4),
                        (5, 8, 3), (4, 8, 3), (5, 7, 4), (4, 7, 4), (5, 6, 5)):
        classes = set()
        while len(classes) < k:
            c = tuple(pool.randint(-2, 2) for _ in range(r))
            if any(c):
                classes.add(c)
        out.append((r, sorted(classes), bound))
    return out


def build_classify(ctx, specs_dir):
    rng = ctx.rng
    queries = []
    lib = lambda: ctx.mods.lib

    for idx, (r, torsion, fam) in enumerate(kernel_family_pool(85)):
        sp = signed_permutation(rng, r)
        image = [sp(g[:r]) + g[r:] for g in fam]

        def run(r=r, torsion=torsion, image=image):
            group = lib().FinGenAbelianGroup(r, torsion)
            return lib().is_absirred_kernel(group, [group.element(c) for c in image])

        queries.append(Query(f"kernel:{idx}", run, bool,
                             lambda ans, r=r, image=image: ans == orc.kernel_criterion(r, image)))

    for idx, (r, classes, bound) in enumerate(exists_spec_pool()):
        sp = signed_permutation(rng, r)
        image = [sp(c) for c in classes]

        def run(r=r, image=image, bound=bound):
            L = lib()
            group = L.FinGenAbelianGroup(r, ())
            cs = L.ClassSet(group, tuple(group.element(c) for c in image))
            res = L.exists_absirred_nonprime(L.KrullSpec(cs, (1,) * len(image)), bound)
            return res.found, res.witness, res.exhaustive

        def check(ans, r=r, image=image, bound=bound):
            found, witness, exhaustive = ans
            size, exh = orc.absirred_nonprime_search(image, r, (1,) * len(image), None, bound)
            if found != (size is not None) or exhaustive != exh:
                return False
            return witness is None if size is None else (
                len(witness) == size and len(set(witness)) == size
                and orc.kernel_criterion(r, [image[i] for i in witness]))

        queries.append(Query(f"exists:{idx}", run, lambda ans: ans, check))

    # classify on the bundled specs and the paper's examples
    examples = []
    for fname in sorted(os.listdir(specs_dir)):
        if fname.endswith(".json"):
            with open(os.path.join(specs_dir, fname)) as fh:
                data = json.load(fh)
            g = data["group"]
            examples.append((g.get("free_rank", 0), tuple(g.get("torsion", [])),
                             [tuple(c) for c in data["classes"]], data.get("mult")))
    for n in (3, 4):
        for zero in (False, True):
            examples.append((n, (), signed_basis(n, zero), None))
    examples.append((0, (2,), [(0,), (1,)], [1, "inf"]))
    for idx, (r, torsion, classes, mult) in enumerate(examples):
        if r > 1:
            sp = signed_permutation(rng, r)
            classes = [sp(c) for c in classes]
        path, labels, mult = ctx.write_spec(r, torsion, classes, mult, tag="classify")
        queries.append(Query(f"classify:{idx}",
                             lambda path=path: ctx.cli(["classify", "--spec", path, "--machine"]),
                             canon_classify,
                             check_classify(r, torsion, classes, labels, mult)))
    rng.shuffle(queries)
    return queries


def canon_classify(out):
    rc, text = out
    res = json.loads(text)["results"]
    search = res["absirred_nonprime_search"]
    w = res["nonabsirred_witness"]
    return (rc, res["row_label"], res["has_prime"], res["has_absirred_nonprime"],
            res["has_nonabsirred"], search["found"],
            None if search["witness_classes"] is None else tuple(search["witness_classes"]),
            search["exhaustive"], json.dumps(w, sort_keys=True))


def spec_atoms(r, torsion, classes):
    if r == 0:
        return orc.atoms_finite(torsion, classes)
    if r == 1 and not torsion:
        return orc.atoms_rank1([c[0] for c in classes])
    return orc.atoms_signed_basis(classes)


def check_classify(r, torsion, classes, labels, mult):
    def check(ans):
        rc, row, has_prime, absnp, nonabs, found, witness, exhaustive, wjson = ans
        atoms = spec_atoms(r, torsion, classes)
        zero = next((i for i, c in enumerate(classes) if not any(c)), None)
        caps = tuple(2 if m == "inf" or m > 2 else m for m in mult)
        size, exh = orc.absirred_nonprime_search(classes, r, caps, zero, 4)
        want_row = orc.scenario_row(atoms, mult, zero, size, exh)
        ok = (rc == 0 and row == want_row and found == (size is not None)
              and exhaustive == exh and has_prime == (zero is not None)
              and nonabs == (want_row[1] == "+"))
        if size is not None:
            index = {lab: i for i, lab in enumerate(labels)}
            fam = [classes[index[lab]] for lab in witness]
            ok = ok and len(fam) == size and orc.kernel_criterion(r, fam)
        w = json.loads(wjson)
        if nonabs:
            ok = ok and w is not None and _witness_ok(w, sorted(atoms))
        else:
            ok = ok and w is None
        return ok
    return check


def _witness_ok(w, atoms):
    """The non-absolute-irreducibility witness multiplies out."""
    if w["kind"] == "power-factorization":
        n, atom = w["n"], tuple(w["atom"])
        total = [0] * len(atom)
        for i in w["different"]:
            total = [a + b for a, b in zip(total, atoms[i])]
        return (tuple(total) == tuple(n * x for x in atom)
                and sorted(w["different"]) != sorted(w["standard"]))
    b2 = [2 * x for x in w["b"]]
    sums = []
    for fac in (w["b_power_standard"], w["b_power_different"]):
        total = [0] * len(b2)
        for v in fac:
            total = [a + x for a, x in zip(total, v)]
        sums.append(total)
    return (sums[0] == b2 == sums[1] and w["b_power_standard"] != w["b_power_different"]
            and all(a <= b for a, b in zip(w["a"], b2)))


# ---------------------------------------------------------------------------
# domains

def ring_pool():
    """Z[sqrt(d)], d squarefree, d = 2, 3 mod 4, 1 <= -d <= 70, with the norm
    bound (|d| + 16)^2.  Within this range every ring of class number above 2
    has an element with two factorization lengths below its bound, so the
    bounded scan and Carlitz's theorem must agree."""
    out = []
    for k in range(1, 71):
        d = -k
        if d % 4 in (2, 3) and all(k % (p * p) for p in range(2, 9)):
            out.append((d, (k + 16) ** 2))
    return out


def build_domains(ctx, specs_dir):
    rng = ctx.rng
    lib = lambda: ctx.mods.lib
    queries = []
    rings = ring_pool()
    rng.shuffle(rings)
    for d, bound in rings:
        q = orc.Quad(d)

        def hf(d=d, bound=bound):
            ok, z = lib().half_factorial_check(lib().QuadRing(d), bound)
            return ok, None if z is None else (z.a, z.b)

        def hf_check(ans, q=q, d=d, bound=bound):
            ok, z = ans
            h = orc.class_number(4 * d)
            if ok:
                return h <= 2
            return h > 2 and q.norm(z) <= bound and len(q.length_set(z)) > 1

        queries.append(Query(f"hf:{d}", hf, lambda a: a, hf_check))

        # the first irreducible among a few small elements
        z = next(z for z in ((3, 0), (2, 1), (1, 1), (5, 0), (3, 1), (7, 0), (3, 2))
                 if q.irreducible(z))

        def brute(d=d, z=z):
            res = lib().quad_brute_absirred(lib().QuadRing(d), lib().QuadInt(*z), 3)
            return res.absolutely_irreducible, res.n

        queries.append(Query(f"quadabs:{d}:{z}", brute, lambda a: a,
                             lambda ans, q=q, z=z: ans == q.power_absirred(z, 3)))

    for n, x in ((3, 150), (4, 140), (5, 130), (6, 120), (7, 120), (4, 120)):

        def nm(n=n, x=x):
            return tuple(lib().nm_factorizations(lib().NumericalMonoid.interval(n), x))

        def nm_check(ans, n=n, x=x):
            return (len(ans) == len(set(ans)) == orc.interval_factorization_count(n, x)
                    and all(sum(f) == x and list(f) == sorted(f)
                            and all(n <= p < 2 * n for p in f) for f in ans))

        queries.append(Query(f"nm:{n}:{x}", nm, lambda a: a, nm_check))

    def nm_deep():
        return tuple(lib().nm_factorizations(lib().NumericalMonoid.interval(2), 2500))

    queries.append(Query("nm:2:2500", nm_deep, lambda a: a,
                         lambda ans: len(ans) == len(set(ans))
                         == orc.interval_factorization_count(2, 2500),
                         expect_failure=RecursionError))

    for j in range(76 - len(queries)):
        deg = 6 + j % 4
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)]
        coeffs[-1] = Fraction(rng.choice((1, -1)) * rng.randint(1, 9))
        integral = j % 2 == 0
        if not integral:
            coeffs[rng.randrange(1, deg + 1)] += Fraction(1, rng.choice((2, 3, 5, 7)))
        mono = orc.poly_from_binomial(coeffs)

        def iv(mono=mono):
            f = lib().RatPoly(tuple(mono))
            return lib().is_integer_valued(f), lib().binomial_basis_coefficients(f)

        queries.append(Query(f"iv:{j}", iv, lambda a: a,
                             lambda ans, c=tuple(coeffs), integral=integral:
                             ans[0] == integral and tuple(ans[1]) == c))
    return queries


BUILDERS = {"atoms": build_atoms, "lengths": build_lengths,
            "classify": build_classify, "domains": build_domains}
