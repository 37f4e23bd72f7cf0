"""The benchmark's tracer wraps package names it lists by path; each must exist.

perfbench/tracing.py is loaded read-only (no bytecode written next to it), and
every (module, attribute path) in its TARGETS is resolved on ffmzv the way the
tracer installs it: a method must be defined on its class itself.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, path, span in tracing.TARGETS:
        mod = importlib.import_module(f"ffmzv.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(mod, cls_name)), (mod_name, path, span)
        else:
            assert callable(getattr(mod, path, None)), (mod_name, path, span)
