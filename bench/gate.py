"""Correctness gate: is one sample's report right?

A sample fails on a non-zero exit, a traceback on stderr, a report that is
not JSON, a report that differs from the stored reference, or a report that
breaks a fact known without the reference.

Reference comparison is key by key: every key of the reference must be
present with an identical value (same JSON type, same value); keys the
reference lacks are ignored, so a report may grow new blocks.
"""

from __future__ import annotations

import json

P = 7
HEADLINE_A_TILDE = [32]  # 1/mass of the det-49 class at p = 7, k = 2
DUAL_BINARY_INDICES = 69


def differences(ref, got, path="$"):
    """Where ``got`` fails to carry every key and value of ``ref``."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out += differences(value, got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += differences(a, b, f"{path}[{i}]")
        return out
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def ladder_facts(doc):
    """verify-main at p = 7, k = 2 passes and fits 1/mass = 32 on every rung."""
    out = []
    if doc.get("passed") is not True:
        out.append("passed is not true")
    rungs = doc.get("rungs")
    if not rungs:
        out.append("no rungs")
    for rung in rungs or ():
        if rung.get("a_tilde") != HEADLINE_A_TILDE:
            out.append(f"rung {rung.get('m')}: a_tilde {rung.get('a_tilde')!r}")
    return out


def dual_facts(doc):
    """All binary indices agree across routes; direct ladders vanish mod 7^m."""
    out = []
    binary = doc.get("binary") or []
    if len(binary) != DUAL_BINARY_INDICES:
        out.append(f"{len(binary)} binary indices, expected {DUAL_BINARY_INDICES}")
    for entry in binary:
        if entry.get("closed") != entry.get("density"):
            out.append(f"k={entry.get('k')} {entry.get('twoT')}: routes disagree")
    direct = doc.get("direct") or {}
    if not direct:
        out.append("no direct ladders")
    for name, ladder in direct.items():
        for m, rung in enumerate(ladder.get("residues") or [{}], start=1):
            residue = rung.get("residue")
            if not isinstance(residue, int) or residue % P**m:
                out.append(f"{name}: residue at m={m} is not 0 mod {P}^{m}")
    return out


FACTS = {"ladder": ladder_facts, "dual": dual_facts}


def problems(kind, returncode, stderr, report, reference):
    """Reasons a sample fails; empty when it passes."""
    out = []
    if returncode != 0:
        out.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        out.append("traceback on stderr")
    try:
        doc = json.loads(report)
    except (TypeError, ValueError):
        return out + ["report missing or not JSON"]
    return out + differences(reference, doc) + FACTS[kind](doc)
