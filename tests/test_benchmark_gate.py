"""The CI benchmark check allows ``domains`` one failed query per round
(``nm:2:2500``, an expected RecursionError) and reads the round count as
``attempted // N``.  N is written into ``.github/workflows/tier1.yml``; it
must stay the number of queries in one ``domains`` round."""

import pathlib
import re
import sys
import types

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
