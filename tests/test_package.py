"""The package namespace is the union of the library modules' public names."""

import ast
import re
import types
from pathlib import Path

import ostrovsky_lab
from ostrovsky_lab import corpus, lemmas, randomized, rough, spectral, windows

MODULES = (corpus, lemmas, randomized, rough, spectral, windows)


def test_all_concatenates_the_module_lists():
    expected = [name for module in MODULES for name in module.__all__]
    assert list(ostrovsky_lab.__all__) == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(ostrovsky_lab, name)
            assert value is getattr(module, name), name
            assert not isinstance(value, types.ModuleType), name


def test_star_import_gives_exactly_the_exported_names():
    namespace: dict = {}
    exec("from ostrovsky_lab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ostrovsky_lab.__all__)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in a literal ``__all__``."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno)
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used | exported]


def test_no_module_imports_an_unused_name():
    sources = sorted([*Path(ostrovsky_lab.__file__).parent.glob("*.py"),
                      *Path(__file__).parent.glob("*.py")])
    assert Path(__file__) in sources
    unused = {path.name: found for path in sources
              if (found := _unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_unused_import_check_finds_a_dropped_name():
    source = "from .spectral import SpectralProfile, SpaceGrid\n__all__ = ['f']\ndef f(g: SpaceGrid): pass\n"
    assert _unused_imports(source) == ["line 1: SpectralProfile"]


def test_readme_layout_names_each_module_once():
    # adding, renaming or deleting a module fails here until README's module map follows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"src/ostrovsky_lab/(\w+)\.py", layout)
    modules = [path.stem for path in Path(ostrovsky_lab.__file__).parent.glob("*.py")]
    assert sorted(named) == sorted(modules)
