"""Every exported name resolves, so star imports cannot break."""

import importlib
import pkgutil

import pytest

import eistheta

MODULES = ["eistheta"] + [
    f"eistheta.{m.name}" for m in pkgutil.iter_modules(eistheta.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
