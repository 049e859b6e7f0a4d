"""The benchmark's tracer (perfbench/tracing.py) wraps certctrl functions
and methods by name, so deleting one of them makes a traced benchmark run
raise AttributeError."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import certctrl  # noqa: E402
import certctrl.cli  # noqa: E402,F401  (loads every module the tracer patches)
from perfbench.tracing import LOCATED_CHECK, TRACED, Tracer  # noqa: E402


def test_every_traced_name_exists_and_is_restored():
    tracer = Tracer()
    tracer.instrument()  # AttributeError if a traced name is gone
    tracer.enable(False)
    names = [(getattr(certctrl, mod), fn) for mod, fn in TRACED]
    names += [(getattr(certctrl.selector, cls), meth) for cls, meth in LOCATED_CHECK]
    for owner, name in names:
        # functools.wraps marks the tracer's wrappers with __wrapped__
        assert not hasattr(getattr(owner, name), "__wrapped__"), f"{owner.__name__}.{name} still traced"
    assert certctrl.evt.Functional.__module__ == "certctrl.evt"
