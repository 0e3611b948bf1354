"""Every definition in src/tautilt is reached from a command or a traced span.

The roots are every definition in `cli.py`, each span that `TRACED` in
`perfbench/trace_child.py` names (the tracer rebinds them by name, so they
must exist), and `algebra.opposite_algebra`, whose cache the tracer reads.
A definition reaches every definition whose name it mentions, as a name or
as an attribute; a reached class reaches its dunder methods and its
class-level statements.  The pass goes by name, so it over-approximates:
whatever it reports has no caller that a command or a span can run.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tautilt"
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


def _definitions(package: Path) -> dict[str, tuple[list[ast.AST], list[str]]]:
    """Map each "module.qualname" to the nodes its mentions are read from and
    the definitions it reaches whatever it mentions."""
    defs = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = ([node], [])
            elif isinstance(node, ast.ClassDef):
                key = f"{module}.{node.name}"
                methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
                rest = [s for s in node.body if s not in methods]
                defs[key] = (rest + node.bases + node.decorator_list,
                             [f"{key}.{m.name}" for m in methods if m.name.startswith("__")])
                for m in methods:
                    defs[f"{key}.{m.name}"] = ([m], [key])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[f"{module}.{t.id}"] = ([node], [])
    return defs


def _mentions(nodes: list[ast.AST]) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _traced() -> dict[str, list[str]]:
    for node in ast.parse(TRACE_CHILD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/trace_child.py defines no TRACED")


def unreached() -> set[str]:
    defs = _definitions(PACKAGE)
    by_name: dict[str, set[str]] = {}
    for key in defs:
        by_name.setdefault(key.rsplit(".", 1)[1], set()).add(key)
    roots = {key for key in defs if key.startswith("cli.")}
    roots |= {f"{module}.{name}" for module, names in _traced().items() for name in names}
    roots.add("algebra.opposite_algebra")
    missing = roots - defs.keys()
    assert not missing, f"roots with no definition: {sorted(missing)}"
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        nodes, implied = defs[key]
        todo.extend(implied)
        for name in _mentions(nodes):
            todo.extend(by_name.get(name, ()))
    return set(defs) - reached


def test_every_definition_is_reached():
    assert unreached() == set()

