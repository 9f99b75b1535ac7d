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


def _read_names(path):
    """Every name the module reads, as a bare Name or as an attribute."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def _definitions(path):
    """(qualified name, name) of the module's top-level functions and classes
    and of each class's methods, dunders aside."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not (
                    m.name.startswith("__") and m.name.endswith("__")
                ):
                    yield f"{path.stem}.{node.name}.{m.name}", m.name


def test_every_library_definition_is_read_outside_the_tests():
    # a reference that only the tests compare against belongs in tests/oracles.py
    read = set().union(*map(_read_names, MODULES))
    unread = [
        qualified
        for path in sorted((ROOT / "src" / "wavecorr").glob("*.py"))
        for qualified, name in _definitions(path)
        if name not in read
    ]
    assert unread == []
