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


def _read_names(source: str) -> set[str]:
    """Names a module loads, as a name or an attribute, outside their own top-level def or class."""
    read = set()
    for statement in ast.parse(source).body:
        found = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(statement)
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(statement.name)
        read |= found
    return read


#: Exported names that nothing in the package reads, each with why it stays public.
UNREAD_EXPORTS = {
    "randomize": "the per-draw reference the samplers' linear forms are tested against",
    "tail_bound_curve": "the Gaussian tail majorant, to be compared with the tail curves",
    "wiener_project": ("a benchmark tracer target, and the per-window reference that "
                       "wiener_decompose rows are pinned to"),
}


def test_every_exported_name_is_read_in_the_package():
    # a name that gains a reader must leave UNREAD_EXPORTS too, so the map cannot go stale
    sources = Path(ostrovsky_lab.__file__).parent.glob("*.py")
    read = set().union(*(_read_names(path.read_text(encoding="utf-8")) for path in sources))
    assert sorted(set(ostrovsky_lab.__all__) - read) == sorted(UNREAD_EXPORTS)


def test_read_name_check_finds_an_uncalled_export():
    planted = ('"""Calls dropped() nowhere."""\n__all__ = ["dropped", "kept"]\n'
               "def dropped(n): return dropped(n - 1) if n else 0\ndef kept(): pass\n")
    caller = "from .planted import kept\ndef use(): return kept()\n"
    # a def, a call inside that def, __all__ and a docstring mention are not readers
    assert not {"dropped", "kept"} & _read_names(planted)
    read = _read_names(planted) | _read_names(caller)
    assert "kept" in read and "dropped" not in read


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class is decorated with ``dataclass`` or ``dataclasses.dataclass``, called or not."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any((getattr(t, "id", None) or getattr(t, "attr", None)) == "dataclass" for t in targets)


def _unread_fields(sources) -> list[str]:
    """Dataclass fields, as ``Class.field``, that no attribute load outside their own class reads."""
    fields, reads = {}, []  # reads: (top-level class holding the load, or None; attribute)
    for source in sources:
        for statement in ast.parse(source).body:
            owner = statement.name if isinstance(statement, ast.ClassDef) else None
            if owner and _is_dataclass(statement):
                fields[owner] = [item.target.id for item in statement.body
                                 if isinstance(item, ast.AnnAssign)
                                 and isinstance(item.target, ast.Name)]
            reads += [(owner, node.attr) for node in ast.walk(statement)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    return [f"{cls}.{name}" for cls, names in fields.items() for name in names
            if not any(attr == name and owner != cls for owner, attr in reads)]


#: Record fields that nothing in the package reads, each with why it stays.
UNREAD_FIELDS = {
    "TailCurve.wilson_halfwidth": ("the Wilson half-width the exceedance acceptance test "
                                   "bounds each step of the curve by"),
}


def test_every_record_field_is_read_in_the_package():
    # a field no caller reads is computed for nothing; one that gains a reader leaves the map
    sources = Path(ostrovsky_lab.__file__).parent.glob("*.py")
    unread = _unread_fields(path.read_text(encoding="utf-8") for path in sources)
    assert sorted(unread) == sorted(UNREAD_FIELDS)


def test_unread_field_check_finds_a_planted_field():
    planted = ("from dataclasses import dataclass\nimport dataclasses\n"
               "@dataclass\nclass Result:\n    kept: float\n    own: float\n    dropped: float\n"
               "    def twice(self):\n        return 2 * self.own\n"
               "@dataclasses.dataclass(frozen=True)\nclass Spec:\n    k: int\n"
               "class Plain:\n    note: str\n")
    caller = "def use(r, s, dropped):\n    r.dropped = dropped\n    return r.kept, s.k\n"
    # a read inside the own class, a store and a bare name are not readers
    assert _unread_fields([planted, caller]) == ["Result.own", "Result.dropped"]
    assert _unread_fields([planted]) == ["Result.kept", "Result.own", "Result.dropped", "Spec.k"]


def _exception_classes(source: str) -> list[str]:
    """Classes a module defines with a base whose name ends in Error or Exception."""
    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            and any((base.id if isinstance(base, ast.Name) else getattr(base, "attr", ""))
                    .endswith(("Error", "Exception")) for base in node.bases)]


def test_only_cli_defines_an_exception_class():
    # the library refuses with a plain ValueError naming the value; cli keeps its UsageError
    found = {path.stem: names for path in Path(ostrovsky_lab.__file__).parent.glob("*.py")
             if (names := _exception_classes(path.read_text(encoding="utf-8")))}
    assert found == {"cli": ["UsageError"]}


def test_exception_class_check_finds_a_planted_error():
    planted = ("import builtins\nclass Report:\n    pass\n"
               "class RefusedError(ValueError):\n    pass\n"
               "def f():\n    class Inner(builtins.Exception):\n        pass\n")
    assert _exception_classes(planted) == ["RefusedError", "Inner"]


def test_readme_layout_names_each_module_once():
    # adding, renaming or deleting a module fails here until README's module map follows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"src/ostrovsky_lab/(\w+)\.py", layout)
    modules = [path.stem for path in Path(ostrovsky_lab.__file__).parent.glob("*.py")]
    assert sorted(named) == sorted(modules)
