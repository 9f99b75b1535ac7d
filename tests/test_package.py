"""The package's public surface, and imports that every module uses."""

import ast
from pathlib import Path

import pytest

import wavecorr

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(wavecorr.__all__)) == len(wavecorr.__all__)
    missing = [name for name in wavecorr.__all__ if not hasattr(wavecorr, name)]
    assert missing == []


def _unused_imports(path):
    """Top-level imported names that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.array starts at the Name np
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


# the modules that read the library: src/ and scripts/, never the tests
MODULES = sorted(
    p for p in [*(ROOT / "src" / "wavecorr").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    if p.name != "__init__.py"
)
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _reads(path, name):
    """Whether the module at ``path`` loads ``name`` as a name or an attribute."""
    return any(
        isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


# every source file of src/ and scripts/, the package's __init__ included
SOURCES = sorted([*(ROOT / "src" / "wavecorr").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def test_only_the_network_layer_builds_circuits():
    # every other module asks network.ensemble_provider, so fabrication seeds
    # follow one rule
    assert [p.name for p in SOURCES if _reads(p, "circuit_distributions")] == ["network.py"]


def test_only_the_cli_draws_events():
    # every other module asks cli.event_provider, so event seeds follow one rule
    assert [p.name for p in SOURCES if _reads(p, "sample_events")] == ["cli.py"]


# a function's or comprehension's own scope: a name it binds hides a global
_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _bound(nodes):
    """Names that assignment targets and nested defs among ``nodes`` bind, nested scopes aside."""
    bound, todo = set(), list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return bound


class _Reads(ast.NodeVisitor):
    """The global names a module loads, and every attribute it names.

    A Name load counts only where no enclosing function or comprehension
    binds that name as a parameter, an assignment target or a nested def.
    """

    def __init__(self):
        self.names, self.attrs, self.scopes = set(), set(), []

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self.scopes):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        self.generic_visit(node)

    def _function(self, node):
        # decorators, defaults and annotations belong to the enclosing scope
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        outer = [*getattr(node, "decorator_list", []), *args.defaults, *args.kw_defaults,
                 getattr(node, "returns", None), *(a.annotation for a in params if a)]
        for n in outer:
            if n is not None:
                self.visit(n)
        body = node.body if isinstance(node.body, list) else [node.body]
        self.scopes.append({a.arg for a in params if a} | _bound(body))
        for n in body:
            self.visit(n)
        self.scopes.pop()

    def _comprehension(self, node):
        self.scopes.append(_bound(g.target for g in node.generators))
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function
    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension


def _definitions(tree, stem):
    """(qualified name, name, is a method) of a module's top-level functions and
    classes and of each class's methods, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{stem}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not (
                    m.name.startswith("__") and m.name.endswith("__")
                ):
                    yield f"{stem}.{node.name}.{m.name}", m.name, True


def _unread(library, readers):
    """Definitions in ``library`` ({stem: source}) that no source in ``readers`` reads.

    A method is read only as an attribute; a top-level definition as an
    attribute or as a global name.
    """
    reads = _Reads()
    for source in readers:
        reads.visit(ast.parse(source))
    return [
        qualified
        for stem, source in sorted(library.items())
        for qualified, name, method in _definitions(ast.parse(source), stem)
        if name not in reads.attrs and (method or name not in reads.names)
    ]


def test_every_library_definition_is_read_outside_the_tests():
    # a reference that only the tests compare against belongs in tests/oracles.py
    library = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "wavecorr").glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in MODULES]
    assert _unread(library, readers) == []


SHADOWED = """
class Dist:
    def prob(self, key):
        return self.probs[key]

def total(dist, keys):
    prob = 0.0
    for key in keys:
        prob += dist.probs[key]
    return prob

def scaled(values, scale):
    return [scale * v for v in values]

def scale(v):
    return 2 * v
"""


def test_a_local_of_the_same_name_does_not_read_a_definition():
    # the local prob and the parameter scale are Name loads of the bare names
    names = {n.id for n in ast.walk(ast.parse(SHADOWED)) if isinstance(n, ast.Name)}
    assert {"prob", "scale"} <= names
    unread = ["m.Dist", "m.Dist.prob", "m.total", "m.scaled", "m.scale"]
    assert _unread({"m": SHADOWED}, [SHADOWED]) == unread
    calls = "d = Dist()\nprint(d.prob('+'), total(d, '+'), scaled([1], 2), [scale(x) for x in ()])"
    assert _unread({"m": SHADOWED}, [SHADOWED, calls]) == []
