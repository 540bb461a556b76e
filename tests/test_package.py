"""The package namespace is the union of the library modules' public names."""

import types

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
