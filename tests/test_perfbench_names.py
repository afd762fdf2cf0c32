"""Every amalgam name the benchmark wraps or calls resolves in src/.

perfbench/spans.py wraps its TARGETS by name, and perfbench/workloads.py
calls amalgam.X directly; a missing name would otherwise show up only in a
traced benchmark run.
"""

import importlib
import importlib.util
import pathlib
import re

import amalgam

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_span_targets_resolve():
    targets = _load_spans().TARGETS
    assert ("words", "validate_spec") in targets
    missing = [
        (module, attr)
        for module, attr in targets
        if not _resolves(importlib.import_module(f"amalgam.{module}"), attr)
    ]
    assert missing == []


def test_workload_names_resolve():
    text = (PERFBENCH / "workloads.py").read_text()
    names = sorted(set(re.findall(r"(?<![\w.])amalgam\.(\w+(?:\.\w+)*)", text)))
    assert "validate_spec" in names
    assert [name for name in names if not _resolves(amalgam, name)] == []
