"""Smoke test of the demo scripts: each runs as a user would start it, in
a fresh interpreter with no genus cache, and ends on its verdict line."""

import os
import pathlib
import subprocess
import sys

import pytest

import eistheta

DEMOS = pathlib.Path(__file__).parent.parent / "demos"
LAST_LINES = {
    "coefficients_two_ways.py": "every coefficient agrees along both routes",
    "weight_ladder_walkthrough.py": "flagged indices: none",
}


def test_every_demo_is_run():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(LAST_LINES)


@pytest.mark.parametrize("name", sorted(LAST_LINES))
def test_demo_runs_to_its_verdict(tmp_path, name):
    src = str(pathlib.Path(eistheta.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "EISTHETA_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == LAST_LINES[name]
    assert list(tmp_path.iterdir()) == []  # no cache or report left behind
