"""The benchmark's span tracer (perfbench/spans.py) wraps package callables
by module or class attribute. A callable it binds that is renamed, moved or
deleted would only show when a traced benchmark run fails, so this checks
every binding against the package as it stands."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py as a module, loaded without installing a tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_defined_on_its_owner():
    traced = load_spans().TRACED
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, bindings in traced.items()
               for owner, attr in bindings if attr not in owner.__dict__]
    assert not missing
    assert "bfa.swim_loop" in traced and "irrigation.evaluate" in traced
