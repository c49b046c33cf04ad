"""The package API that the benchmark under benchmarks/ reads must exist.

The benchmark's own tests run apart from this suite, so these checks
read its sources with ``ast`` and look each name up in ``fdbridge``.
"""

import ast
import importlib
from pathlib import Path

import fdbridge

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _module_ast(name: str) -> ast.Module:
    return ast.parse((BENCHMARKS / name).read_text())


def test_tracer_targets_resolve():
    tree = _module_ast("tracer.py")
    (targets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    targets = ast.literal_eval(targets)
    assert targets
    for module, qualname in targets:
        obj = importlib.import_module(f"fdbridge.{module}")
        for part in qualname.split("."):
            assert hasattr(obj, part), f"tracer target {module}.{qualname} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"tracer target {module}.{qualname} is not callable"


def test_workload_names_exist():
    tree = _module_ast("workloads.py")
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "fb"
    }
    assert "reconstruct" in read  # the file still reads the package as ``fb``
    assert sorted(name for name in read if not hasattr(fdbridge, name)) == []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("fdbridge."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"workloads imports missing {node.module}.{alias.name}"
