"""Tests of the benchmark's own parts: tracer arithmetic, rebinding, the gate.

    PYTHONPATH=src python3 -m pytest bench
"""

import copy
import json
import os
import shutil
import sys
import types

import pytest

import gate
from tracer import ROOT, TARGETS, Tracer, eistheta_modules, layer_metrics, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")


def _reference(name):
    with open(os.path.join(REFERENCE, name), "rb") as fh:
        return fh.read()


def _span(sid, parent, start, end, name="f", counters=None):
    return {"run": "t", "span": sid, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end, "counters": counters or {}}


# ------------------------------------------------------------------- tracer


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0, 100, ROOT),
        _span(1, 0, 10, 60, "a"),
        _span(2, 1, 20, 30, "b"),
        _span(3, 1, 40, 55, "b"),
        _span(4, 3, 41, 50, "c"),
        _span(5, 0, 70, 80, "c"),
    ]
    own = self_times(spans)
    assert own == {0: 40, 1: 25, 2: 10, 3: 6, 4: 9, 5: 10}
    assert sum(own.values()) == 100
    m = layer_metrics(spans)
    assert m["b.self_s"] == pytest.approx(16e-9)
    assert m["c.calls"] == 2


class _Ticks:
    """A clock that advances by one on every reading."""

    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 1
        return self.t


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    exec(
        "def leaf(x):\n"
        "    return x\n"
        "def fact(n):\n"
        "    leaf(n)\n"
        "    return 1 if n <= 1 else n * fact(n - 1)\n",
        mod.__dict__,
    )
    pkg.mod = mod
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    return mod


def test_recursion_through_rebound_global(fake_package):
    mod = fake_package
    original = mod.fact
    tracer = Tracer(clock=_Ticks())
    targets = [("mod.fact", "span", "max_n", lambda a, r: a[0]),
               ("mod.leaf", "count", None, None)]
    tracer.install(targets, modules=[mod], package="fakepkg")
    assert mod.fact(4) == 24
    tracer.uninstall()
    assert mod.fact is original

    spans = tracer.records()
    facts = sorted((s for s in spans if s["name"] == "mod.fact"),
                   key=lambda s: s["start_ns"])
    assert len(facts) == 4
    assert [s["parent"] for s in facts] == [0] + [s["span"] for s in facts[:-1]]
    # each level reads the clock twice around its child: 1 tick innermost,
    # 2 ticks of self time on every level above
    own = self_times(spans)
    assert [own[s["span"]] for s in facts] == [2, 2, 2, 1]
    m = layer_metrics(spans)
    assert m["mod.fact.self_s"] == pytest.approx(7e-9)
    assert m["mod.fact.calls"] == 4
    assert m["mod.fact.max_n"] == 4
    assert m["mod.leaf.calls"] == 4
    assert m[f"{ROOT}.calls"] == 1


def _verify_main(tmp_path, name):
    """A small verify-main run in this process, on its own filled cache dir
    (the pipeline memoizes dictionaries per cache dir)."""
    import eistheta.cli

    cache = tmp_path / f"cache-{name}"
    cache.mkdir()
    shutil.copy(os.path.join(REFERENCE, "genera_r4_L7.json"), cache)
    out = tmp_path / f"{name}.json"
    argv = ["verify-main", "--p", "7", "--k", "2", "--degree", "1", "--bound", "12",
            "--m-max", "2", "--cache-dir", str(cache), "--out", str(out)]
    assert eistheta.cli.main(argv) == 0
    return out.read_bytes()


def test_wrapping_keeps_the_report_byte_identical(tmp_path):
    import eistheta.cli  # noqa: F401  (loads every module the targets name)

    before = {m.__name__: {k: v for k, v in vars(m).items() if callable(v)}
              for m in eistheta_modules()}
    plain = _verify_main(tmp_path, "plain")

    tracer = Tracer()
    tracer.install()
    try:
        assert eistheta.eisenstein.bernoulli is eistheta.exactnum.bernoulli
        assert eistheta.padic.cached_genera is eistheta.genus.cached_genera
        assert hasattr(eistheta.padic.cached_genera, "__wrapped__")
        traced = _verify_main(tmp_path, "traced")
    finally:
        tracer.uninstall()
    after = _verify_main(tmp_path, "after")

    assert traced == plain and after == plain
    for m in eistheta_modules():
        assert all(vars(m).get(k) is v for k, v in before[m.__name__].items())
    names = {s["name"] for s in tracer.records()}
    assert {"cli.main", "padic.fit_and_verify", "genus.cached_genera",
            "genus.genera_from_doc", "theta.theta_series",
            "eisenstein.eisenstein_qexp", "fourier.QExpansion"} <= names
    assert layer_metrics(tracer.records())["theta.theta_series.coeffs"] > 0


def test_every_target_resolves():
    import importlib

    for qualname, kind, _, _ in TARGETS:
        mod_name, attr = qualname.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"eistheta.{mod_name}"), attr))
        assert kind in ("span", "count")


# --------------------------------------------------------------------- gate


@pytest.mark.parametrize("name", ["ladder_deg1_cold", "ladder_deg2_warm"])
def test_gate_accepts_reference_and_new_keys(name):
    raw = _reference(f"{name}.json")
    ref = json.loads(raw)
    assert gate.problems("ladder", 0, "", raw, ref) == []
    grown = dict(ref, provenance={"version": "x", "dictionary": "loaded"})
    assert gate.problems("ladder", 0, "", json.dumps(grown), ref) == []


def test_gate_rejects_one_changed_a_tilde():
    raw = _reference("ladder_deg1_cold.json")
    ref = json.loads(raw)
    bad = copy.deepcopy(ref)
    bad["rungs"][1]["a_tilde"] = [33]
    found = gate.problems("ladder", 0, "", json.dumps(bad), ref)
    assert any("a_tilde" in p for p in found)


def test_gate_rejects_a_changed_exit_code():
    raw = _reference("ladder_deg2_warm.json")
    ref = json.loads(raw)
    assert gate.problems("ladder", 1, "", raw, ref) == ["exit code 1"]


def test_gate_rejects_traceback_and_missing_report():
    ref = json.loads(_reference("ladder_deg2_warm.json"))
    found = gate.problems("ladder", 0, "Traceback (most recent call last)", None, ref)
    assert found == ["traceback on stderr", "report missing or not JSON"]


def test_gate_checks_facts_without_the_reference():
    ref = json.loads(_reference("ladder_deg1_cold.json"))
    ref["passed"] = False
    assert gate.ladder_facts(ref) == ["passed is not true"]

    dual = json.loads(_reference("density_dual_route.json"))
    assert gate.dual_facts(dual) == []
    bad = copy.deepcopy(dual)
    bad["binary"][5]["density"] = {"num": "1", "den": "1"}
    bad["direct"]["A2+B7"]["residues"][1]["residue"] += 1
    found = gate.dual_facts(bad)
    assert len(found) == 2
    assert gate.problems("dual", 0, "", json.dumps(bad), dual)


def test_dual_route_report_does_not_depend_on_the_seed(monkeypatch):
    import dual_route

    calls = []
    monkeypatch.setattr(dual_route, "WEIGHTS", (4,))
    monkeypatch.setattr(dual_route, "FORMS", {})
    monkeypatch.setattr(dual_route.eistheta, "local_density_coeff",
                        lambda T, k: calls.append(T) or 1)
    first = dual_route.run(1)["binary"]
    seen = list(calls)
    calls.clear()
    assert dual_route.run(2)["binary"] == first
    assert seen != calls  # another order and other bases
