"""Traced benchmark runs must be able to start: the tracer in
``perfbench/spans.py`` wraps the library functions it names, and an absent
name would crash every traced run before its first query."""

import importlib
import pathlib
import types

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """The tracer module, executed from its source without writing bytecode
    next to it."""
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_on_every_wrapped_module():
    spans = load_spans()
    modules = [importlib.import_module(f"strongatoms.{mod}") for mod in spans.WRAPPED]
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    try:
        tracer.install()
        quadratic = importlib.import_module("strongatoms.quadratic")
        assert quadratic.quad_is_irreducible(quadratic.QuadRing(-14), quadratic.QuadInt(2, 0))
        assert "quadratic.quad_is_irreducible" in {s[0] for s in tracer.spans}
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
