"""Public-surface lint: each module of the package lists its public names
in `__all__`, and every other definition in `src/` has a caller there.
Code that only the tests call lives in `tests/reference.py`, which, like
the benchmark, imports only names that a module lists in `__all__`."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagcsm"
IMPORTERS = sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "reference.py"]

# Methods kept with no caller in src/, one reason each.
UNCALLED_METHODS = {
    "LabeledPath.stats": "the (in, de) statistics of a peakless or unimodal "
                         "path, as the paper's rules define them",
}


def _declared(tree):
    """The names in the module's `__all__`, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return None


def _bound(tree):
    """The names bound at the module's top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def _references(tree):
    """Each name read in the tree, as a Name or an attribute, with its
    number of occurrences."""
    counts = {}
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
    return counts


def _called(node, refs):
    """Whether anything outside the definition's own body reads its name."""
    return refs.get(node.name, 0) > _references(node).get(node.name, 0)


def _offences(modules, importers):
    """Offences against the declared surface, given the package as
    {module name: source} and, as {label: source}, the files that may
    import only public names."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = {}
    for tree in trees.values():
        for name, count in _references(tree).items():
            refs[name] = refs.get(name, 0) + count
    public = {}
    found = []
    for mod, tree in sorted(trees.items()):
        public[mod] = _declared(tree)
        if public[mod] is None:
            found.append("%s: no __all__" % mod)
            public[mod] = set()
        found += ["%s: __all__ names undefined %s" % (mod, name)
                  for name in sorted(public[mod] - _bound(tree))]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in public[mod] and not _called(node, refs):
                found.append("%s.%s: no caller in src/, not in __all__"
                             % (mod, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                qual = "%s.%s" % (node.name, getattr(item, "name", ""))
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("__") \
                        and qual not in UNCALLED_METHODS \
                        and not _called(item, refs):
                    found.append("%s.%s: no caller in src/" % (mod, qual))
    for label, source in sorted(importers.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom) or \
                    (node.module or "").split(".")[0] != "flagcsm":
                continue
            mod = node.module.partition(".")[2] or "__init__"
            found += ["%s:%d: imports %s.%s, not in its __all__"
                      % (label, node.lineno, mod, a.name)
                      for a in node.names
                      if a.name not in public.get(mod, ())]
    return found


def test_public_surface():
    modules = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert modules
    importers = {str(path.relative_to(ROOT)): path.read_text()
                 for path in IMPORTERS}
    found = _offences(modules, importers)
    assert not found, "\n".join(found)


def test_lint_catches_each_offence():
    lib = ('__all__ = ["Shape", "LabeledPath", "gone"]\n'
           "def _loop(n):\n    return _loop(n - 1)\n"
           "def _helper():\n    return 1\n"
           "class Shape:\n"
           "    def area(self):\n        return _helper() + self.area()\n"
           "    def stats(self):\n        return 0\n"
           "class LabeledPath:\n"
           "    def stats(self):\n        return 0\n"
           "def extra():\n    return Shape\n")
    importers = {"tests/reference.py":
                 "from flagcsm.lib import Shape, _helper\n"
                 "from flagcsm.other import x\n"}
    assert _offences({"lib": lib, "other": "x = 1\n"}, importers) == [
        "lib: __all__ names undefined gone",
        "lib._loop: no caller in src/, not in __all__",
        "lib.Shape.area: no caller in src/",
        "lib.Shape.stats: no caller in src/",
        "lib.extra: no caller in src/, not in __all__",
        "other: no __all__",
        "tests/reference.py:1: imports lib._helper, not in its __all__",
        "tests/reference.py:2: imports other.x, not in its __all__",
    ]
