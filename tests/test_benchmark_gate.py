"""The CI benchmark check allows ``domains`` one failed query per round
(``nm:2:2500``, an expected RecursionError) and reads the round count as
``attempted // N``.  N is written into ``.github/workflows/tier1.yml``; it
must stay the number of queries in one ``domains`` round.  The work counts
of one ``atoms`` round (queries, atoms, and the search each query ran) are
pinned as well, so that a change to the benchmark's inputs or to the choice
of atom search shows here."""

import json
import pathlib
import re
import sys
import types
from collections import Counter

import strongatoms
import strongatoms.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_source(monkeypatch, name):
    """A perfbench module executed from its source, without writing bytecode
    next to it, and importable by its name for the rest of the test."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(name)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_domains_round_size_matches_ci_check(monkeypatch, tmp_path):
    load_source(monkeypatch, "oracles")
    workloads = load_source(monkeypatch, "workloads")
    mods = types.SimpleNamespace(lib=strongatoms, cli=strongatoms.cli)
    ctx = workloads.Ctx(mods, 1, "domains", str(tmp_path), None)
    queries = workloads.build_domains(ctx, str(ROOT / "specs"))
    expected = [q.key for q in queries if q.expect_failure is not None]
    assert expected == ["nm:2:2500"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    sizes = re.findall(r'r\["attempted"\] // (\d+) if w == "domains"', workflow)
    assert sizes == [str(len(queries))]


def test_atoms_round_work_counts(monkeypatch, tmp_path):
    # the seed-1 atoms round: its query, atom and certificate counts, which
    # the workload's symmetries keep the same for every seed
    load_source(monkeypatch, "oracles")
    workloads = load_source(monkeypatch, "workloads")
    mods = types.SimpleNamespace(lib=strongatoms, cli=strongatoms.cli)
    ctx = workloads.Ctx(mods, 1, "atoms", str(tmp_path), None)
    queries = workloads.build_atoms(ctx, str(ROOT / "specs"))
    methods = []
    atoms = 0
    for q in queries:
        code, text = q.run()
        assert code == 0
        results = json.loads(text)["results"]
        atoms += results["count"]
        methods.append(results["certificate"]["method"])
    assert len(queries) == 55
    assert atoms == 3314
    assert Counter(methods) == {"zero-sum-free-search": 37, "completion-search": 18}
