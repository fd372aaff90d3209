"""The README's library example, run as written.

The ``python`` block under "## Library example" is executed one top-level
statement at a time.  The value of each bare expression is kept, so a
trailing comment that states a value can be checked against it.
"""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
