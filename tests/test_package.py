"""The package's submodules are reachable under their own names."""

import pkgutil
import types

import pytest

import packedhe

# ``__main__`` runs the CLI when imported.
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(packedhe.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_import_as_binds_the_submodule(name):
    """``import packedhe.<name> as m`` binds the module, not a package-level
    name that shadows it (``conv`` and ``matmul`` are also functions)."""
    namespace = {}
    exec(f"import packedhe.{name} as module", namespace)
    assert isinstance(namespace["module"], types.ModuleType)
    assert namespace["module"].__name__ == f"packedhe.{name}"
