"""The benchmark's traced run (perfbench/run.py --trace 1) wraps every
function its span table names, in every module its callers look it up."""

import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_span_table_names_the_program(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)

    bindings = [
        (importlib.import_module(f"drdplan.{name}"), target.split(".")[1])
        for target, lookups in tracing.SPANS
        for name in lookups
    ]
    originals = [getattr(mod, attr) for mod, attr in bindings]
    # installed() raises when a named function or lookup module has moved.
    with tracing.Tracer().installed():
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(bindings, originals))
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(bindings, originals))
