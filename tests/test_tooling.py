"""The benchmark's span tracer must resolve every target it names in the
package: it patches functions by name, so a renamed or removed function
breaks only the traced benchmark run, which no other test starts."""

import os
import sys

import trihill  # noqa: F401  (loads every submodule)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def test_span_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    def bindings():
        """Every name bound in a trihill module or in a traced class."""
        out = {
            name: dict(vars(module))
            for name, module in sys.modules.items()
            if name.split(".")[0] == "trihill"
        }
        for modname, attr, _ in spans.TARGETS:
            if "." in attr:
                cls = getattr(sys.modules[f"trihill.{modname}"], attr.split(".")[0])
                out[f"{modname}.{cls.__name__}"] = dict(vars(cls))
        return out

    before = bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for modname, attr, _ in spans.TARGETS:
            owner = sys.modules[f"trihill.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                patched = vars(getattr(owner, cls_name))[meth]
            else:
                patched = getattr(owner, attr)
            assert hasattr(patched, "__wrapped__"), f"{modname}.{attr} is not traced"
    finally:
        tracer.uninstall()
    assert bindings() == before
