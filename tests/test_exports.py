"""Every exported name resolves, so star imports cannot break."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_does_not_load_numpy():
    # numpy is a test-only dependency; the package must import without it
    src = os.path.dirname(os.path.dirname(eistheta.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, eistheta; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
