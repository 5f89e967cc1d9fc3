"""Rules on the source of src/colp, read with ast: no plain assert, since
`python -O` strips it; no recursion, so that no result depends on the
recursion limit; and no function without a caller, so no dead code stays."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "colp"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_no_plain_assert():
    bad = [f"{path.name}:{node.lineno}" for path, tree in _modules()
           for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert bad == []


def _call_graph(tree):
    """Each function of a module, as (enclosing class or None, name), with
    the functions of the module it calls: a bare name resolves to a
    function of the module, self.x to a method of the same class."""
    defs, calls = {}, []
    todo = [(tree, None, None)]  # (node, enclosing class, enclosing function)
    while todo:
        node, cls, fn = todo.pop()
        for n in ast.iter_child_nodes(node):
            key, f = fn, getattr(n, "func", None)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (cls if isinstance(node, ast.ClassDef) else None, n.name)
                defs[key] = set()
            elif isinstance(f, ast.Name) and fn:
                calls.append((fn, (None, f.id)))
            elif (isinstance(f, ast.Attribute) and fn
                  and getattr(f.value, "id", "") == "self"):
                calls.append((fn, (cls, f.attr)))
            todo.append((n, n.name if isinstance(n, ast.ClassDef) else cls,
                         key))
    for caller, callee in calls:
        if callee in defs:
            defs[caller].add(callee)
    return defs


def test_no_recursion():
    bad = []
    for path, tree in _modules():
        defs = _call_graph(tree)
        for f in defs:
            seen, todo = set(), list(defs[f])
            while todo:
                g = todo.pop()
                if g not in seen:
                    seen.add(g)
                    todo += defs[g]
            if f in seen:
                bad.append(f"{path.name}: " + ".".join(filter(None, f)))
    assert bad == []



# Functions with no caller in src/colp that stay, each with its reason.
UNCALLED = {
    "index_of": "perfbench/tracer.py rebinds Universe.index_of to count "
                "calls; the tests call it too",
}


def test_every_function_has_a_caller():
    """Each function or method of src/colp is named somewhere in it, as a
    Name, an Attribute or an __all__ string, or is a dunder or on
    UNCALLED."""
    defined, named = [], set()
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", "") == "__all__"
                          for t in node.targets)):
                named |= {e.value for e in node.value.elts}
    bad = [f"{module}: {name}" for module, name in defined
           if name not in named and name not in UNCALLED
           and not (name.startswith("__") and name.endswith("__"))]
    assert bad == []
