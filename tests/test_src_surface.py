"""Every name defined in src/ has a caller outside the tests.

The package keeps only what the engine, the CLI, the suite, the scripts and
the benchmark call; a helper that only tests use belongs in tests/helpers.py.
Module-level functions and classes and every method that is not a dunder
count as defined.  A name is used when it appears as an `ast.Name` or
`ast.Attribute` in src/, perfbench/ or scripts/ outside its own definition
(so recursion alone is no use), or in a dotted path of the benchmark
tracer's TARGETS.  A re-export in the package's `__init__.py` is not a use.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ffmzv"


def _definitions(tree: ast.Module):
    """(name, node) of the module-level functions and classes and of the
    methods that are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub.name, sub


def _uses(tree: ast.Module, own: dict) -> set[str]:
    """Names and attributes in tree, except those inside a definition of the
    same name (own: name -> list of (first line, last line))."""
    used = set()
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name and not any(lo <= node.lineno <= hi for lo, hi in own.get(name, ())):
            used.add(name)
    return used


def _tracer_targets() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {part for _, path, _ in ast.literal_eval(node.value) for part in path.split(".")}
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_src_name_has_a_caller_outside_the_tests():
    defined: dict[str, str] = {}
    used = _tracer_targets()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own: dict = {}
        for name, node in _definitions(tree):
            defined.setdefault(name, path.name)
            own.setdefault(name, []).append((node.lineno, node.end_lineno))
        used |= _uses(tree, own)
    for folder in ("perfbench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _uses(ast.parse(path.read_text()), {})
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"defined in src/ but called only by tests, or not at all: {unused}"
