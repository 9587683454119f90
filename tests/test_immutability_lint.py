"""Immutability lint: a polynomial's terms are written only while it is
being built, so `canonical_str` may keep its text on the instance.

A write is ``X.terms = ...``, ``X.terms[...] = ...`` (or ``del``, or an
in-place operator) or ``X.terms.<mutator>(...)``.  It is allowed only on
``self`` inside ``MPoly.__init__``, or on a name whose last binding
before the write, in the same function, is ``MPoly(...)`` or
``cls(...)``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flagcsm"

MUTATORS = {"clear", "pop", "popitem", "setdefault", "update",
            "__setitem__", "__delitem__"}
CONSTRUCTORS = {"MPoly", "cls"}


def _own(func):
    """The nodes of a function's body, without nested functions and
    classes (each is checked on its own)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _terms_owner(node):
    """The X of ``X.terms`` or ``X.terms[...]``, else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr == "terms":
        return node.value
    return None


def _writes(nodes):
    """(line, X) for each write to ``X.terms`` among the nodes."""
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            targets = [node.func.value]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif _terms_owner(t) is not None:
                yield node.lineno, _terms_owner(t)


def _fresh(func, name, line):
    """Whether the last binding of name in func before line is
    ``name = MPoly(...)`` or ``name = cls(...)``; a parameter is bound
    before every line, and not to a fresh polynomial."""
    nodes = list(_own(func))
    built = {id(node.targets[0]) for node in nodes
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name)
             and node.value.func.id in CONSTRUCTORS}
    last, fresh = 0, False
    for node in nodes:
        if isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Store) \
                and last < node.lineno < line:
            last, fresh = node.lineno, id(node) in built
    return fresh


def _offences(tree):
    funcs = {}  # function node -> qualified name
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    funcs[item] = "%s.%s" % (node.name, item.name)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs.setdefault(node, node.name)
    for line, owner in _writes(_own(tree)):
        yield line, "write to .terms of %s outside a function" \
            % ast.unparse(owner)
    for func, qual in funcs.items():
        for line, owner in _writes(_own(func)):
            if isinstance(owner, ast.Name) and (
                    (owner.id == "self" and qual == "MPoly.__init__")
                    or _fresh(func, owner.id, line)):
                continue
            yield line, "write to .terms of %s in %s" % (
                ast.unparse(owner), qual)


def test_terms_written_only_while_building():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = ["%s:%d: %s" % (path.name, line, what)
             for path in files
             for line, what in _offences(ast.parse(path.read_text()))]
    assert not found, "\n".join(found)


def test_lint_catches_each_offence():
    src = (
        "class MPoly:\n"
        "    def __init__(self, nvars):\n"
        "        self.terms = {}\n"
        "    def scale(self, c):\n"
        "        self.terms = {e: c * a for e, a in self.terms.items()}\n"
        "    @classmethod\n"
        "    def const(cls, nvars, c):\n"
        "        p = cls(nvars)\n"
        "        p.terms[(0,) * nvars] = c\n"
        "        return p\n"
        "def build(n):\n"
        "    out = MPoly(n)\n"
        "    out.terms[(1,)] = 2\n"
        "    out.terms.update({(2,): 1})\n"
        "    return out\n"
        "def bump(p):\n"
        "    p.terms[(1,)] = 3\n"
        "def rebind(n, q):\n"
        "    p = MPoly(n)\n"
        "    p = q\n"
        "    p.terms.clear()\n"
        "    del p.terms[(0,)]\n"
        "def nested(n):\n"
        "    p = MPoly(n)\n"
        "    def inner(q):\n"
        "        q.terms.pop((0,))\n"
        "    p.terms.setdefault((0,), 1)\n"
        "    return inner\n"
        "def read(p):\n"
        "    return p.terms.get((0,), 0) + len(p.terms)\n"
        "q = MPoly(1)\n"
        "q.terms[(0,)] = 1\n"
    )
    assert sorted(_offences(ast.parse(src))) == [
        (5, "write to .terms of self in MPoly.scale"),
        (17, "write to .terms of p in bump"),
        (21, "write to .terms of p in rebind"),
        (22, "write to .terms of p in rebind"),
        (26, "write to .terms of q in inner"),
        (32, "write to .terms of q outside a function"),
    ]
