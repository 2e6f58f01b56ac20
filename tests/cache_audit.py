"""Data-mutant audit of the genus cache.

Takes the rank-4 genus caches of levels 7 and 13, built here, and of level
37, the committed tests/fixtures/genera_r4_L37.json, and applies every
single edit of these kinds to each, one at a time:

- delete a class, with its genus mass kept and with it recomputed;
- delete a genus;
- duplicate a class or a genus;
- swap two classes of a genus, or two genera;
- add +1 or -1 to every integer field (rank, level_divides, det, level,
  character_disc, epsilon, the mass numerator and denominator) and to each
  symmetric pair of rep entries.

A mutant is refused when `genera` exits 2 on it, naming the file.  It
changes nothing when `verify-main` at p = the level, for j = 0 and j = 1,
gives the intact cache's exit code, report and error text.  Every other
mutant survives: the script prints each survivor and the counts, and exits
1 while any survives.

    python tests/cache_audit.py

Standard library only; it runs the command line of this tree's src/ in its
own process, on copies in a temporary directory.  pytest does not collect
this file.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from eistheta.cli import main as cli  # noqa: E402

FIXTURE = os.path.join(ROOT, "tests", "fixtures", "genera_r4_L37.json")
LEVELS = (7, 13, 37)
VERIFY = ["verify-main", "--k", "2", "--degree", "1", "--bound", "50", "--m-max", "2"]


def run(argv):
    """Exit code, stdout and stderr of the command line on argv; an
    exception it lets through reads as exit 1, as it would from a shell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli(argv)
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def leaves(x, path=()):
    """(path, value) of every leaf of a JSON value."""
    if isinstance(x, dict):
        for key, v in x.items():
            yield from leaves(v, path + (key,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from leaves(v, path + (i,))
    else:
        yield path, x


def name_of(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def set_at(doc, path, value):
    for p in path[:-1]:
        doc = doc[p]
    doc[path[-1]] = value


def frac_doc(f):
    return {"num": str(f.numerator), "den": str(f.denominator)}


def mutants(doc):
    """(name, mutated copy of doc) for every single edit of doc."""
    genera = doc["genera"]
    for i, g in enumerate(genera):
        d = copy.deepcopy(doc)
        del d["genera"][i]
        yield f"genera[{i}] deleted", d
        d = copy.deepcopy(doc)
        d["genera"].insert(i, d["genera"][i])
        yield f"genera[{i}] duplicated", d
        for j in range(i + 1, len(genera)):
            d = copy.deepcopy(doc)
            G = d["genera"]
            G[i], G[j] = G[j], G[i]
            yield f"genera[{i}] and genera[{j}] swapped", d
        for c, cls in enumerate(g["classes"]):
            at = f"genera[{i}].classes[{c}]"
            d = copy.deepcopy(doc)
            del d["genera"][i]["classes"][c]
            yield f"{at} deleted, mass kept", d
            d = copy.deepcopy(d)
            mass = Fraction(int(g["mass"]["num"]), int(g["mass"]["den"]))
            d["genera"][i]["mass"] = frac_doc(mass - Fraction(1, cls["epsilon"]))
            yield f"{at} deleted, mass recomputed", d
            d = copy.deepcopy(doc)
            C = d["genera"][i]["classes"]
            C.insert(c, C[c])
            yield f"{at} duplicated", d
            for e in range(c + 1, len(g["classes"])):
                d = copy.deepcopy(doc)
                C = d["genera"][i]["classes"]
                C[c], C[e] = C[e], C[c]
                yield f"{at} and classes[{e}] swapped", d
    for path, value in leaves(doc):
        if "twoT" in path:
            r, c = path[-2:]
            if r > c:
                continue  # the pair is edited at (c, r)
            twin = path[:-2] + (c, r)
        for step in (1, -1):
            d = copy.deepcopy(doc)
            if "twoT" in path:
                set_at(d, path, value + step)
                set_at(d, twin, value + step)
            elif isinstance(value, str):  # the mass numerator or denominator
                set_at(d, path, str(int(value) + step))
            else:
                set_at(d, path, value + step)
            yield f"{name_of(path)} {step:+d}", d


def audit(level, cache):
    """(mutant count, the names of the survivors) on the cache of level."""
    path = os.path.join(cache, f"genera_r4_L{level}.json")
    with open(path) as fh:
        intact = fh.read()
    doc = json.loads(intact)
    verify = [VERIFY + ["--p", str(level), "--j", j, "--cache-dir", cache] for j in "01"]
    reports = [run(argv) for argv in verify]
    count, survivors = 0, []
    for name, mutant in mutants(doc):
        count += 1
        with open(path, "w") as fh:
            json.dump(mutant, fh, indent=2)
        code, _, err = run(["genera", "--rank", "4", "--level", str(level), "--cache-dir", cache])
        if not (code == 2 and path in err) and [run(argv) for argv in verify] != reports:
            survivors.append(name)
    with open(path, "w") as fh:
        fh.write(intact)
    return count, survivors


def main():
    cache = tempfile.mkdtemp(prefix="cache_audit_")
    try:
        shutil.copy(FIXTURE, cache)
        total, survived = 0, 0
        for level in LEVELS:
            assert run(["genera", "--rank", "4", "--level", str(level),
                        "--cache-dir", cache])[0] == 0
            count, survivors = audit(level, cache)
            for name in survivors:
                print(f"SURVIVED  level {level}: {name}")
            print(f"level {level}: {len(survivors)} of {count} mutants survive")
            total += count
            survived += len(survivors)
        print(f"{survived} of {total} mutants survive")
        return 1 if survived else 0
    finally:
        shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
