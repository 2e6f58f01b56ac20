"""Every exported name resolves, so star imports cannot break, and the
package source calls no float arithmetic."""

import ast
import glob
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


def float_calls(source):
    """Line numbers of the calls float(...) and math.sqrt(...) in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "float") or (
            isinstance(f, ast.Attribute) and f.attr == "sqrt"
            and isinstance(f.value, ast.Name) and f.value.id == "math"
        ):
            out.append(node.lineno)
    return out


def test_float_calls_are_detected():
    src = "import math\nx = float(2)\ny = math.sqrt(x)\nz = math.isqrt(4)\n"
    assert float_calls(src) == [2, 3]


def test_source_calls_no_float():
    files = sorted(glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")))
    assert len(files) == len(MODULES)  # __init__.py and every submodule
    found = {}
    for path in files:
        with open(path) as fh:
            lines = float_calls(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert not found, f"float(...) or math.sqrt(...) called at {found}"
