"""The package's public export list."""

import importlib
import pkgutil
import types

import gh401


def test_all_is_unique_and_every_name_resolves():
    # `from gh401 import *` fails on a name that no longer exists.
    assert len(gh401.__all__) == len(set(gh401.__all__))
    assert [name for name in gh401.__all__ if not hasattr(gh401, name)] == []


def test_forward_stages_are_exported_beside_their_inverses():
    assert {"permute", "invert_permute", "diffuse", "inverse_diffuse"} <= set(gh401.__all__)
    assert (gh401.permute, gh401.diffuse) == (gh401.cipher.permute, gh401.cipher.diffuse)


def test_every_submodule_imports_as_a_module():
    # `import gh401.<name> as m` binds the package attribute, which a function could shadow
    names = [info.name for info in pkgutil.iter_modules(gh401.__path__)]
    assert "cipher" in names
    for name in names:
        importlib.import_module(f"gh401.{name}")
    assert [name for name in names if not isinstance(getattr(gh401, name), types.ModuleType)] == []


def test_star_import_binds_exactly_all_and_no_module():
    # __all__ is read from the package's globals, so nothing else pins what it leaves out
    namespace = {}
    exec("from gh401 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gh401.__all__)
    assert [name for name, value in namespace.items() if isinstance(value, types.ModuleType)] == []
