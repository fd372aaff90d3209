"""Command-line interface.

Subcommands: atoms | factor | lengths | absirred | classify | verify.
Human-readable tables by default; ``--machine`` switches to JSON with sorted
keys, which is the stability contract (timing is shown only in human mode so
machine reports are byte-identical across runs).  A machine report is exactly
``json.dumps(report, sort_keys=True, separators=(",", ":"))`` plus a newline:
one compact, ASCII-only line from the standard library's C encoder (called
with ``check_circular=False``: a report is a fresh tree).  Report
version 3 gives every sequence (an atom, or the sequence factored) as its
``exponents`` alone, beside the verdicts on it; human mode derives each
display, length and support from the exponents and ``inputs.spec.labels``
when it prints.  ``factor`` lists each factorization by its
``atom_indices``, into ``results["atoms"]``: the ascending index tuples of
:func:`strongatoms.zsm.factorizations` as the table lists them (over atoms
in lexicographic order, no entry is sorted again), and the report's lengths
are the tuples' lengths.  ``atoms`` and ``absirred``, for one atom or all,
read every verdict from the atom set's one support sweep
(:attr:`strongatoms.zsm.AtomSet.support_minimal`).
``build_parser`` builds the parser once per process; in-process callers of
``main`` share it.

Exit codes: 0 success, 1 verification mismatch, 2 input error,
3 search budget exceeded, 4 internal error or standard output closed
before the report was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import krull, zsm
from .abgroup import DEFAULT_NODE_BUDGET
from .errors import BudgetExceeded, NotZeroSum
from .specfile import SpecFileError, load_spec, spec_to_dict
from .verify import run_bundled_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

REPORT_VERSION = 3


def _display(exponents, labels) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(labels[i])
        elif e > 1:
            parts.append(f"{labels[i]}^{e}")
    return " ".join(parts) if parts else "1"


def _row(seq: zsm.Sequence) -> dict:
    return {"exponents": list(seq.exponents)}


def parse_sequence(text: str, class_set: zsm.ClassSet, labels) -> zsm.Sequence:
    """Either a comma-separated exponent vector, or a multiset of labels
    (each optionally carrying ^k).  Exponents and powers k are plain decimal
    digits; an exponent may carry a minus sign, which the sequence rejects."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise SpecFileError("empty sequence")
    if len(tokens) == len(class_set) and all(_digits(t.removeprefix("-")) for t in tokens):
        return class_set.sequence([int(t) for t in tokens])
    exps = [0] * len(class_set)
    index = {lab: i for i, lab in enumerate(labels)}
    for tok in tokens:
        name, caret, power = tok.partition("^")
        k = 1
        if caret:
            if not _digits(power) or int(power) < 1:
                raise SpecFileError(f"bad multiplicity in token {tok!r}")
            k = int(power)
        if name not in index:
            raise SpecFileError(f"unknown class label {name!r}")
        exps[index[name]] += k
    return class_set.sequence(exps)


def _digits(s: str) -> bool:
    """s is one or more plain decimal digits: no sign, space or underscore,
    which ``int`` would accept."""
    return s.isascii() and s.isdigit()


# ---------------------------------------------------------------------------
# subcommand payloads


def _atoms_payload(spec, budget):
    atoms = zsm.enumerate_atoms(spec.class_set, budget=budget)
    rows = [{"exponents": list(a.exponents), "absolutely_irreducible": minimal}
            for a, minimal in zip(atoms, atoms.support_minimal)]
    return {"atoms": rows, "count": len(rows),
            "certificate": dict(atoms.certificate)}


def _factor_payload(spec, seq, budget):
    atoms = zsm.enumerate_atoms(spec.class_set, budget=budget)
    facs = zsm.factorizations(seq, atoms, budget=budget)
    lengths = sorted({len(f) for f in facs})
    return {
        "sequence": _row(seq),
        "atoms": [_row(a) for a in atoms],
        "factorizations": [{"atom_indices": f} for f in facs],
        "count": len(facs),
        "lengths": lengths,
        "elasticity": str(zsm.length_set_elasticity(lengths)),
    }


def _lengths_payload(spec, seq, budget):
    atoms = zsm.enumerate_atoms(spec.class_set, budget=budget)
    lengths = sorted(zsm.length_set(seq, atoms, budget=budget))
    return {"sequence": _row(seq), "lengths": lengths,
            "elasticity": str(zsm.length_set_elasticity(lengths))}


def _absirred_payload(spec, seq, budget, nmax):
    atoms = zsm.enumerate_atoms(spec.class_set, budget=budget)

    def verdict(a):
        entry = _row(a)
        entry["support_criterion"] = krull.is_absirred_support(a, atoms)
        entry["kernel_criterion"] = krull.is_absirred_kernel(spec.group, a.support())
        w = krull.witness_non_absirred(a, atoms)
        if w is None:
            entry["witness"] = None
        else:
            entry["witness"] = {
                "n": w.n,
                "standard": list(w.standard),
                "different": list(w.different),
            }
        if nmax is not None:
            entry["brute_force_up_to_nmax"] = krull.brute_force_absirred(a, atoms, nmax)
        return entry

    if seq is not None:
        if not atoms.contains(seq):
            raise SpecFileError(f"sequence {seq.exponents} is not an atom")
        return {"atoms": [verdict(seq)]}
    return {"atoms": [verdict(a) for a in atoms]}


def _witness_dict(w, labels):
    if w is None:
        return None
    if isinstance(w, krull.PowerWitness):
        return {
            "kind": "power-factorization",
            "atom": list(w.atom.exponents),
            "n": w.n,
            "standard": list(w.standard),
            "different": list(w.different),
        }
    return {
        "kind": "repeated-class",
        "atom": list(w.atom.exponents),
        "class": labels[w.class_index],
        "symbol_classes": [labels[i] for i in w.symbol_classes],
        "a": list(w.a_exponents),
        "b": list(w.b_exponents),
        "n": w.n,
        "b_power_standard": [list(v) for v in w.b_power_standard],
        "b_power_different": [list(v) for v in w.b_power_different],
    }


def _classify_payload(spec, labels, support_bound, budget):
    rep = krull.classify_scenario(spec, support_bound, budget=budget)
    return {
        "row_label": rep.row_label,
        "columns": ["non_absolutely_irreducible_exists",
                    "absolutely_irreducible_nonprime_exists",
                    "prime_exists"],
        "has_prime": rep.has_prime,
        "has_absirred_nonprime": rep.has_absirred_nonprime,
        "has_nonabsirred": rep.has_nonabsirred,
        "absirred_nonprime_search": {
            "found": rep.absirred_search.found,
            "witness_classes": (None if rep.absirred_search.witness is None
                                else [labels[i] for i in rep.absirred_search.witness]),
            "exhaustive": rep.absirred_search.exhaustive,
            "support_bound": rep.absirred_search.support_bound,
            "per_class_divisor_cap": list(rep.absirred_search.per_class_cap),
            "family_semantics": rep.absirred_search.family_semantics,
        },
        "nonabsirred_witness": _witness_dict(rep.nonabsirred_witness, labels),
        "bounds": {"support_bound": support_bound, "budget": budget},
    }


def _verify_payload():
    checks = run_bundled_suite()
    return {
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "passed": sum(c.ok for c in checks),
        "failed": sum(not c.ok for c in checks),
    }, all(c.ok for c in checks)


# ---------------------------------------------------------------------------
# output


def _emit(report: dict, machine: bool, elapsed: float):
    if machine:
        print(json.dumps(report, sort_keys=True, separators=(",", ":"), check_circular=False))
        return
    print(f"command: {report['command']}")
    results = report["results"]
    cmd = report["command"]

    def display(row):
        return _display(row["exponents"], report["inputs"]["spec"]["labels"])

    if cmd == "atoms":
        print(f"{results['count']} atoms")
        for i, a in enumerate(results["atoms"]):
            mark = "absolutely irreducible" if a["absolutely_irreducible"] else "NOT absolutely irreducible"
            print(f"  [{i}] {display(a):<30} length {sum(a['exponents']):<3} {mark}")
    elif cmd in ("factor", "lengths"):
        if "factorizations" in results:
            print(f"{results['count']} factorizations of {display(results['sequence'])}")
            shown = [f"({display(a)})" for a in results["atoms"]]
            for f in results["factorizations"]:
                print("  " + (" * ".join(shown[i] for i in f["atom_indices"]) or "1"))
        print(f"lengths: {results['lengths']}  elasticity: {results['elasticity']}")
    elif cmd == "absirred":
        for a in results["atoms"]:
            ok = a["support_criterion"]
            print(f"  {display(a):<30} absolutely irreducible: {ok}")
            if a["witness"]:
                print(f"      witness: n={a['witness']['n']} "
                      f"indices {a['witness']['different']}")
    elif cmd == "classify":
        print(f"row {results['row_label']}  "
              f"(non-absirred, absirred-nonprime, prime)")
        search = results["absirred_nonprime_search"]
        print(f"  prime element: {results['has_prime']}")
        print(f"  absirred nonprime: {results['has_absirred_nonprime']} "
              f"(witness {search['witness_classes']}, exhaustive {search['exhaustive']})")
        print(f"  non-absirred: {results['has_nonabsirred']}")
    elif cmd == "verify":
        for c in results["checks"]:
            print(f"  {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
        print(f"{results['passed']} passed, {results['failed']} failed")
    print(f"elapsed: {elapsed:.3f}s")


def _write(report: dict, machine: bool, t0: float, code: int) -> int:
    """Emit the report and return ``code``, or EXIT_INTERNAL with one stderr
    line when standard output is closed before the report is written (a
    reader such as ``head`` exits early).  fd 1 then points at os.devnull,
    so the interpreter's last flush of stdout at exit stays quiet."""
    try:
        _emit(report, machine, time.perf_counter() - t0)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("internal error: standard output closed before the report was written",
              file=sys.stderr)
        return EXIT_INTERNAL
    return code


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; ``main`` uses it
    too, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="strongatoms",
        description="irreducibles, primes, and absolutely irreducible elements "
                    "of explicitly presented monoids")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("--spec", required=True, help="path to a JSON spec file")
        p.add_argument("--machine", action="store_true",
                       help="machine-readable JSON report (stable schema)")
        p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET,
                       help="search node budget")

    p_atoms = sub.add_parser("atoms", help="enumerate atoms with verdicts")
    common(p_atoms)

    p_factor = sub.add_parser("factor", help="all factorizations of a sequence")
    common(p_factor)
    p_factor.add_argument("--sequence", required=True,
                          help="exponent vector '1,0,2' or labels 'e1,e2,-f' / 'g^3'")

    p_len = sub.add_parser("lengths", help="length set and elasticity")
    common(p_len)
    p_len.add_argument("--sequence", required=True)

    p_abs = sub.add_parser("absirred", help="absolute-irreducibility verdicts")
    common(p_abs)
    p_abs.add_argument("--sequence", help="restrict to one atom")
    p_abs.add_argument("--nmax", type=int,
                       help="also check that no power u^n with n <= NMAX has a second "
                            "factorization (no other atom divides u^NMAX)")

    p_cls = sub.add_parser("classify", help="existence scenario row")
    common(p_cls)
    p_cls.add_argument("--bound", type=int, default=4,
                       help="support-size bound for the absirred-nonprime search")

    p_ver = sub.add_parser("verify", help="run the bundled example suite")
    common(p_ver, needs_spec=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    report: dict = {"command": args.command, "report_version": REPORT_VERSION}
    try:
        if args.command == "verify":
            report["inputs"] = {}
            results, ok = _verify_payload()
            report["results"] = results
            report["status"] = "ok" if ok else "mismatch"
            return _write(report, args.machine, t0, EXIT_OK if ok else EXIT_MISMATCH)

        spec, labels = load_spec(args.spec)
        report["inputs"] = {"spec": spec_to_dict(spec, labels)}
        if args.command == "atoms":
            report["inputs"]["options"] = {"budget": args.budget}
            report["results"] = _atoms_payload(spec, args.budget)
        elif args.command in ("factor", "lengths"):
            seq = parse_sequence(args.sequence, spec.class_set, labels)
            report["inputs"]["options"] = {"budget": args.budget,
                                           "sequence": list(seq.exponents)}
            fn = _factor_payload if args.command == "factor" else _lengths_payload
            report["results"] = fn(spec, seq, args.budget)
        elif args.command == "absirred":
            seq = (parse_sequence(args.sequence, spec.class_set, labels)
                   if args.sequence else None)
            report["inputs"]["options"] = {"budget": args.budget, "nmax": args.nmax}
            report["results"] = _absirred_payload(spec, seq, args.budget, args.nmax)
        elif args.command == "classify":
            report["inputs"]["options"] = {"support_bound": args.bound,
                                           "budget": args.budget}
            report["results"] = _classify_payload(spec, labels, args.bound, args.budget)
        report["status"] = "ok"
    except (SpecFileError, NotZeroSum, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return _write(report, args.machine, t0, EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
