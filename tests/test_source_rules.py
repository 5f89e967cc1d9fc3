"""Rules on the source of src/colp, read with ast: no plain assert, since
`python -O` strips it; no recursion, so that no result depends on the
recursion limit; no function without a caller, so no dead code stays; no
private name imported from another module, so each module's underscore
names are its own; no private attribute used off self or cls; and no field
of a term, atom or clause assigned, as they are immutable by this rule
alone."""
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


def test_no_private_name_crosses_a_module():
    bad = [f"{path.name}:{node.lineno}: {alias.name}"
           for path, tree in _modules() for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom)
           for alias in node.names if alias.name.startswith("_")]
    assert bad == []


def test_private_attributes_are_used_on_self_only():
    """An underscore attribute that is not a dunder is read or written on
    self or cls only, so each class's private state stays its own."""
    bad = [f"{path.name}:{node.lineno}: {node.attr}"
           for path, tree in _modules() for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and node.attr.startswith("_")
           and not (node.attr.startswith("__") and node.attr.endswith("__"))
           and getattr(node.value, "id", None) not in ("self", "cls")]
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


# The term classes of colp.terms, and their fields.  The classes are not
# frozen, so that making one does not pay for a runtime guard.
TERM_CLASSES = {"Var", "Num", "Compound", "Atom", "Clause"}
TERM_FIELDS = {"name", "index", "value", "functor", "args", "pred", "head",
               "body"}


def test_term_fields_are_never_assigned():
    """No attribute named like a term field is assigned, augmented or
    deleted in src/colp, nor set through setattr, except on self inside
    the term classes' own __init__."""
    bad = []
    for path, tree in _modules():
        inits = [fn for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name in TERM_CLASSES
                 for fn in cls.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
        allowed = {id(n) for fn in inits for n in ast.walk(fn)
                   if getattr(getattr(n, "value", None), "id", "") == "self"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in TERM_FIELDS
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and id(node) not in allowed):
                bad.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", ""))
                  in ("setattr", "delattr", "__setattr__", "__delattr__")
                  and any(isinstance(a, ast.Constant)
                          and a.value in TERM_FIELDS for a in node.args)):
                bad.append(f"{path.name}:{node.lineno}: setattr")
    assert bad == []
