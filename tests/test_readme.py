"""The README's library example and CLI commands, run as written.

The ``python`` block under "## Library example" is executed one top-level
statement at a time.  The value of each bare expression is kept, so a
trailing comment that states a value can be checked against it.
"""

import ast
import shlex
from fractions import Fraction
from pathlib import Path

from strongatoms import abgroup, cli
from strongatoms.verify import run_bundled_suite

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_library_example():
    """(namespace, {expression source: (value, trailing comment)})."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    ns, values = {}, {}
    for stmt in ast.parse(block).body:
        line = lines[stmt.lineno - 1]
        comment = line.partition("#")[2].strip()
        if isinstance(stmt, ast.Expr):
            code = ast.get_source_segment(block, stmt)
            values[code] = (eval(compile(ast.Expression(stmt.value), "README", "eval"), ns),
                            comment)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)
    return ns, values


def test_readme_library_example():
    ns, values = run_library_example()
    assert [a.exponents for a in ns["atoms"]] == [(0, 3), (1, 1), (3, 0)]
    w = ns["w"]
    assert (w.n, w.standard, w.different) == (3, (1, 1, 1), (0, 2))

    support, comment = values["is_absirred_support(t, atoms)"]
    assert support is False and comment == "False"
    ratio, comment = values["elasticity(t ** 3, atoms)"]
    assert ratio == Fraction(3, 2) and comment == repr(ratio)


def readme_cli_commands():
    """The argument lists of the ``strongatoms`` commands under "## CLI"."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()]


def test_no_smith_normal_form_on_a_live_path(monkeypatch, capsys):
    # every bundled check and every README command runs without it
    def refuse(*args, **kwargs):
        raise AssertionError("smith_normal_form called")
    monkeypatch.setattr(abgroup, "smith_normal_form", refuse)
    checks = run_bundled_suite()
    assert [c.name for c in checks if not c.ok] == [] and len(checks) == 26
    monkeypatch.chdir(ROOT)
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == [
        "atoms", "factor", "lengths", "absirred", "classify", "verify"]
    for argv in commands:
        for mode in (["--machine"], []):
            assert cli.main(argv + mode) == 0, argv + mode
    capsys.readouterr()


def test_ci_installs_with_the_readme_line():
    block = README.read_text(encoding="utf-8").split("## Install and test", 1)[1]
    install = block.split("```sh\n", 1)[1].splitlines()[0].partition("#")[0].strip()
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert f"run: {install}\n" in workflow
