"""Every exported name resolves, so star imports cannot break, and the
package source calls no float arithmetic."""

import ast
import glob
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import eistheta

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def fresh(code):
    """The stdout of code run in a fresh interpreter on this package's source."""
    src = os.path.dirname(os.path.dirname(eistheta.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_does_not_load_numpy():
    # numpy is a test-only dependency; the package must import without it,
    # every submodule included (import eistheta alone loads none of them)
    code = "import sys, eistheta.cli\nfrom eistheta import *\nprint('numpy' in sys.modules)"
    assert fresh(code).strip() == "False"


LOADED = "; print(sorted(m for m in sys.modules if m.startswith('eistheta')))"


def test_the_ladder_front_end_loads_no_local_density():
    # the fit reads no local density; padic hands out the direct route's
    # primitive_density_coeff on request only
    out = fresh("import sys, eistheta.cli" + LOADED + "\nfrom eistheta import padic, localdensity\n"
                "print(padic.primitive_density_coeff is localdensity.primitive_density_coeff)")
    loaded, same = out.splitlines()
    assert "eistheta.padic" in loaded and "eistheta.localdensity" not in loaded
    assert same == "True"


def test_import_loads_no_submodule():
    out = fresh("import sys, eistheta" + LOADED + "; from eistheta import cli; print(cli.__name__)")
    assert out.split() == ["['eistheta']", "eistheta.cli"]


def test_the_dual_route_loads_neither_the_fit_nor_its_dictionary():
    # bench/dual_route.py's calls, through the package: the direct route
    # and the weight records live beside the numbers they need, so genus,
    # theta, padic and cli are never compiled for them
    code = ("import sys, eistheta\n"
            "F = eistheta.eisenstein_qexp(4, 2, 6)\n"
            "eistheta.local_density_coeff(((2, 1), (1, 2)), 4)\n"
            "t = eistheta.WeightTarget(7, 2, 0)\n"
            "A2A2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]\n"
            "eistheta.direct_limit_coefficient(A2A2, t, eistheta.default_sequence(t, 2))"
            + LOADED)
    loaded = set(ast.literal_eval(fresh(code)))
    assert loaded >= {"eistheta.eisenstein", "eistheta.localdensity"}
    assert not loaded & {"eistheta.genus", "eistheta.theta", "eistheta.padic", "eistheta.cli"}


def test_exports_resolve_lazily_to_their_current_binding(monkeypatch):
    # one table: no name is exported twice, dir() lists every export, and
    # the package hands out the defining module's binding at each access
    assert len(eistheta.__all__) == len(set(eistheta.__all__))
    assert set(dir(eistheta)) >= set(eistheta.__all__)
    with pytest.raises(AttributeError):
        eistheta.no_such_name
    for module, names in eistheta._EXPORTS.items():
        owner = importlib.import_module(f"eistheta.{module}")
        assert all(getattr(eistheta, name) is getattr(owner, name) for name in names)
    from eistheta import localdensity
    monkeypatch.setattr(localdensity, "local_density_coeff", len)
    assert eistheta.local_density_coeff is len


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


def imported_names(source):
    """Names that source imports with `from ... import`, before any `as`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_imported_names_are_detected():
    src = "import os\nfrom .lattice import level as lev, eta_S\nfrom x import (a,\n    b)\n"
    assert imported_names(src) == {"level", "eta_S", "a", "b"}


def test_padic_derives_no_genus_invariant():
    # the genus dictionary is built and checked in genus alone
    # (genus.genera_from_doc); padic only reads it
    path = os.path.join(os.path.dirname(eistheta.__file__), "padic.py")
    with open(path) as fh:
        found = imported_names(fh.read())
    banned = {"automorphism_count", "eta_S", "level", "genus_symbol"}
    assert not found & banned, f"padic.py imports {sorted(found & banned)}"


def test_padic_takes_u_p_from_its_cleared_integers():
    # the fit reads each column's U(p) defect a(pT) - a(T) off the integer
    # columns, so no Fraction expansion goes through fourier.u_p
    path = os.path.join(os.path.dirname(eistheta.__file__), "padic.py")
    with open(path) as fh:
        found = imported_names(fh.read())
    assert "u_p" not in found, "padic.py imports u_p"


def names_used(source):
    """Every identifier source names: Name ids, attributes and imported names."""
    return {getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None) for node in ast.walk(ast.parse(source))} - {None}


def test_names_used_are_detected():
    src = "from .genus import genera_from_doc as g\nx = genus.genera_from_doc\ny = z(w)\n"
    assert names_used(src) == {"genera_from_doc", "genus", "x", "y", "z", "w"}


def test_the_genus_cache_is_checked_in_genus_alone():
    # one gate: cached_genera reads every dictionary through
    # genera_from_doc, so no other module names genera_from_doc to read or
    # check a dictionary again or instead
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            if "genera_from_doc" in names_used(fh.read()):
                found.append(os.path.basename(path))
    assert found == ["genus.py"], f"genera_from_doc is named in {sorted(found)}"


def calls_outside_def(source, name):
    """Lines of source that call `name`, outside the body of a def of that name."""
    tree = ast.parse(source)
    inside = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == name for n in ast.walk(f)}
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and id(n) not in inside
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == name]


def test_calls_outside_def_are_detected():
    src = ("def f(x):\n    return f(x - 1)\n\n"
           "def g():\n    f(1)\n    m.f(2)\n    return f\n")
    assert calls_outside_def(src, "f") == [5, 6]


def test_a_genus_cache_is_compared_with_its_rebuild_in_one_place():
    # genera_from_doc compares the file with what the rebuild of its reps
    # would write, and nothing compares records or the file a second time
    calls, defs = {}, set()
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            source = fh.read()
        lines = calls_outside_def(source, "_require_equal")
        if lines:
            calls[os.path.basename(path)] = lines
        defs |= {n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)}
    assert sum(map(len, calls.values())) == 1, f"_require_equal is called at {calls}"
    assert "check_genera" not in defs


def test_forms_are_split_into_discriminants_in_lattice_alone():
    # lattice.form_disc is the one producer of (D0, f) for a form: its
    # character eta_S, and the chi_D0 of its Eisenstein coefficient in
    # eisenstein and localdensity; exactnum defines the split
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            if "fund_disc_decompose" in names_used(fh.read()):
                found.append(os.path.basename(path))
    assert sorted(found) == ["exactnum.py", "lattice.py"], f"named in {sorted(found)}"


def test_cohen_sums_are_taken_in_exactnum_alone():
    # one evaluator of Cohen's rank-2 integer (exactnum.cohen_product) from
    # weight-free prime data (exactnum.cohen_primes): eisenstein takes no
    # divisor or character of its own, and no second divisor sum comes back
    src = os.path.dirname(eistheta.__file__)
    with open(os.path.join(src, "eisenstein.py")) as fh:
        found = imported_names(fh.read()) & {"divisors", "kronecker"}
    assert not found, f"eisenstein.py imports {sorted(found)}"
    defined = []
    for path in glob.glob(os.path.join(src, "*.py")):
        with open(path) as fh:
            if any(isinstance(node, ast.FunctionDef) and node.name == "moebius"
                   for node in ast.walk(ast.parse(fh.read()))):
                defined.append(os.path.basename(path))
    assert not defined, f"moebius is defined in {defined}"


def test_bits_are_counted_in_exactnum_alone():
    # one 2-adic valuation, exactnum._v_int by n & -n, which the q = 2
    # density kernels call too; the other bit lengths are exactnum's
    # fixed-point widths
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            if callers(fh.read(), "bit_length"):
                found.append(os.path.basename(path))
    assert found == ["exactnum.py"], f"bit_length is called in {sorted(found)}"


def test_form_determinants_are_taken_by_bareiss_det_alone():
    # det 2T is linalg.bareiss_det(T), which copies its input once; no
    # wrapper copies the rows before it
    defined = []
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            if any(isinstance(node, ast.FunctionDef) and node.name == "form_det"
                   for node in ast.walk(ast.parse(fh.read()))):
                defined.append(os.path.basename(path))
    assert not defined, f"form_det is defined in {defined}"


def test_kummer_values_and_windows_share_one_headroom():
    # kummer_residues caps its terms at prec + exactnum.HEADROOM, and the
    # windows of eisenstein_residues import that constant, not a copy
    from eistheta import exactnum
    assert list(inspect.signature(exactnum.kummer_residues).parameters) == [
        "p", "Ds", "ns", "prec"]
    with open(os.path.join(os.path.dirname(eistheta.__file__), "eisenstein.py")) as fh:
        assert "HEADROOM" in imported_names(fh.read())


def test_both_eisenstein_routes_walk_the_index_window_of_lattice(monkeypatch):
    # the windows of every degree are lattice.enumerate_psd_indices, degree 1
    # included: _index_shapes lists no index of its own
    from eistheta import eisenstein
    calls = []
    walk = eisenstein.enumerate_psd_indices
    monkeypatch.setattr(eisenstein, "enumerate_psd_indices",
                        lambda n, B: calls.append((n, B)) or walk(n, B))
    (F,) = eisenstein.eisenstein_residues([44], 1, 6, 7, 3)
    assert calls == [(1, 6)] and list(F.coeffs) == walk(1, 6)
    eisenstein.eisenstein_qexp(4, 1, 6)
    eisenstein.eisenstein_residues([44], 2, 4, 7, 3)
    assert calls == [(1, 6), (1, 6), (2, 4)]


def int_tests(source):
    """Line numbers of the calls isinstance(x, int) in source, int alone or
    in a tuple of types."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            kind = node.args[1]
            kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
            if any(getattr(k, "id", None) == "int" for k in kinds):
                out.append(node.lineno)
    return out


def test_int_tests_are_detected():
    src = ("a = isinstance(x, int)\nb = isinstance(x, (bool, int))\n"
           "c = isinstance(x, bool)\nd = int(x)\ne = isinstance(\n    x, int)\n")
    assert int_tests(src) == [1, 2, 5]


def test_integers_are_tested_in_exactnum_alone():
    # one gate: exactnum.check_integers, which refuses a bool and a float;
    # every other module calls it instead of testing isinstance(x, int)
    found = {}
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            lines = int_tests(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert set(found) == {"exactnum.py"}, f"isinstance(x, int) at {found}"


def callers(source, name):
    """Module-level defs of source whose bodies (nested defs included) call
    `name`, as a bare name or an attribute; "<module>" for top-level code."""
    return sorted({getattr(top, "name", "<module>") for top in ast.parse(source).body
                   for node in ast.walk(top) if isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))})


def test_callers_are_detected():
    src = ("def walk():\n    def rec():\n        fits(g, 0)\n    return rec\n"
           "def other():\n    return lattice.fits(g, 1)\n"
           "def passes():\n    use(fits)\n"
           "class Walker:\n    def step(self):\n        fits(g, 2)\n"
           "fits(g, 3)\n")
    assert callers(src, "fits") == ["<module>", "Walker", "other", "walk"]


def test_canonical_shapes_are_walked_in_two_places():
    # one column walk over matrix entries (lattice._shape_walk, which serves
    # index windows and class enumeration) and one over lattice vectors
    # (theta.theta_series); no third walk tests the shape by hand.
    # lattice.minkowski_reduce walks nothing: it reads a rank <= 2 input
    # off its shape
    found = set()
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            module = os.path.basename(path)[:-3]
            found |= {f"{module}.{f}" for f in callers(fh.read(), "fits_canonical_shape")}
    assert found == {"lattice._shape_walk", "theta.theta_series",
                     "lattice.minkowski_reduce"}, sorted(found)


@pytest.mark.parametrize("module", ["cli.py", "padic.py"])
def test_front_ends_import_no_private_name(module):
    # the window checks they run are lattice.check_window and
    # eisenstein.check_weights, not another module's private helper
    path = os.path.join(os.path.dirname(eistheta.__file__), module)
    with open(path) as fh:
        found = sorted(n for n in imported_names(fh.read()) if n.startswith("_"))
    assert found == [], f"{module} imports {found}"


def test_localdensity_reads_zeta_and_L_through_their_values():
    # every zeta and L factor of the assemblies in localdensity and
    # eisenstein is a dirichlet_L_neg value, zeta at D = 1: not a Bernoulli
    # number rebuilt into a value, and no second producer of zeta
    for module in ("localdensity.py", "eisenstein.py"):
        path = os.path.join(os.path.dirname(eistheta.__file__), module)
        with open(path) as fh:
            found = imported_names(fh.read())
        assert not found & {"bernoulli", "zeta_neg"}, module
        assert "dirichlet_L_neg" in found, module


def parameters(source):
    """{def name: its parameter names} over every def of source, nested ones
    included; the parameters of all lambdas are pooled under "<lambda>"."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            args = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            out[name] = out.get(name, set()) | args
    return out


def test_parameters_are_detected():
    src = ("def f(q, k, *rest, r=2, **kw):\n    def g(delta): pass\n"
           "a = lambda ee: ee\nb = lambda k: k\n")
    assert parameters(src) == {"f": {"q", "k", "rest", "r", "kw"}, "g": {"delta"},
                               "<lambda>": {"ee", "k"}}


def test_local_densities_are_counted_without_the_weight():
    # every counting kernel returns weight-free integer bins G_c; the weight
    # enters where they are evaluated (_density, at X), in the closed
    # factors and in the callers (_beta_q, local_density_coeff, and the
    # direct route's primitive_density_coeff), and no kernel takes a lattice rank r
    # or disc class delta in its place
    path = os.path.join(os.path.dirname(eistheta.__file__), "localdensity.py")
    with open(path) as fh:
        found = parameters(fh.read())
    weighted = sorted(f for f, args in found.items() if args & {"k", "X"})
    assert weighted == ["_beta_q", "_density", "_generic_factor", "_global_factor",
                        "local_density_coeff", "primitive_density_coeff"], weighted
    threaded = sorted(f for f, args in found.items() if args & {"r", "delta"})
    assert threaded == [], threaded


def test_class_equality_is_decided_by_minkowski_reduce_alone():
    # two forms are one class when their lattice.minkowski_reduce agree:
    # no def under src/ searches for an isometry between two forms, and none
    # keeps a switch between one witness and all of them.  genus.same_genus
    # takes two forms, but it compares their local invariants, a coarser test
    two_forms, switched = [], []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py"))):
        with open(path) as fh:
            found = parameters(fh.read())
        module = os.path.basename(path)[:-3]
        two_forms += [f"{module}.{f}" for f, args in found.items() if {"twoS", "twoS2"} <= args]
        switched += [f"{module}.{f}" for f, args in found.items() if "want_all" in args]
    assert two_forms == ["genus.same_genus"], two_forms
    assert switched == [], switched


def test_enumerate_classes_takes_no_det_bound():
    # class enumeration has one configuration: the classes of level dividing
    # N, every Fricke dual included; a caller that wants fewer filters by det
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py"))):
        with open(path) as fh:
            module = os.path.basename(path)[:-3]
            found += [f"{module}.{f}" for f, args in parameters(fh.read()).items()
                      if "det_bound" in args]
    assert found == [], found


def cache_reads(source):
    """Line numbers in source that read the environment (os.environ,
    os.getenv) or name EISTHETA_CACHE_DIR outside a help= text."""
    tree = ast.parse(source)
    helps = {id(kw.value) for node in ast.walk(tree) if isinstance(node, ast.Call)
             for kw in node.keywords if kw.arg == "help"}
    out = []
    for node in ast.walk(tree):
        if getattr(node, "attr", getattr(node, "id", None)) in ("environ", "getenv") or (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "EISTHETA_CACHE_DIR" in node.value and id(node) not in helps
        ):
            out.append(node.lineno)
    return sorted(out)


def test_cache_reads_are_detected():
    src = ("import os\nfrom os import environ\na = os.environ.get('X')\n"
           "b = os.getenv('Y')\nc = 'EISTHETA_CACHE_DIR'\nd = environ['Z']\n"
           "p.add_argument('--d', help='overrides EISTHETA_CACHE_DIR')\n")
    assert cache_reads(src) == [3, 4, 5, 6]


def test_cli_keeps_no_cache_of_its_own():
    # the genus dictionary, re-checked by genus.genera_from_doc on every read,
    # is the only cache: genus.cached_genera alone resolves the cache dir,
    # and no other module (cli.py included) reads EISTHETA_CACHE_DIR
    found = {}
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            lines = cache_reads(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert set(found) == {"genus.py"}, f"the cache dir is read at {found}"


def memo_names(source):
    """Functions of source under a functools.cache or lru_cache decorator,
    and module-level names ending in _CACHE."""
    tree = ast.parse(source)
    out = set()
    for node in ast.walk(tree):
        for d in getattr(node, "decorator_list", ()):
            f = d.func if isinstance(d, ast.Call) else d
            if getattr(f, "attr", getattr(f, "id", None)) in ("cache", "lru_cache"):
                out.add(node.name)
    for node in tree.body:
        for t in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(t, ast.Name) and t.id.endswith("_CACHE"):
                out.add(t.id)
    return sorted(out)


def test_memos_are_detected():
    src = ("import functools\nfrom functools import cache, lru_cache\n"
           "_X_CACHE = {}\n_Y_CACHE: dict = {}\nLOCAL = {}\n"
           "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
           "@cache\ndef b(): pass\n@lru_cache\ndef c(): pass\n"
           "@functools.cache\ndef d(): pass\n@property\ndef plain(): pass\n"
           "def e():\n    _Z_CACHE = {}\n    @cache\n    def f(): pass\n")
    assert memo_names(src) == ["_X_CACHE", "_Y_CACHE", "a", "b", "c", "d", "f"]


def test_source_memoizes_only_three_functions():
    # the memos a run reads again: the two of a ladder run (615 and 25 hits
    # on one degree-2 run at p = 7, bound 16), and the stabilized bins of
    # each (q, T) across weights (89 hits and 46 misses on one
    # bench/dual_route.py run, seed 1); the module caches removed before
    # them had no hit on any benchmark workload
    allowed = {"lattice._canonical_definite", "exactnum._bernoulli_even",
               "localdensity._stable_bins"}
    found = set()
    for path in glob.glob(os.path.join(os.path.dirname(eistheta.__file__), "*.py")):
        with open(path) as fh:
            names = memo_names(fh.read())
        module = os.path.basename(path)[:-3]
        found |= {f"{module}.{name}" for name in names}
    assert found <= allowed, f"module caches beyond {sorted(allowed)}: {sorted(found - allowed)}"


def unreferenced_defs(sources):
    """Module-level def/class names of the files under src/ in sources
    ({path from the repository root: text}) that no code outside their own
    body names in a file under src/, bench/ or demos/, that no "module.name"
    string in a file under bench/ names (bench/tracer.py reaches its
    targets so), that are not cmd_* and are not a module's __getattr__ or
    __dir__ (PEP 562: Python calls them).  Files elsewhere, tests among
    them, name nothing, and being exported counts for nothing."""
    top = {path: pathlib.PurePath(path).parts[0] for path in sources}
    trees = {path: ast.parse(text) for path, text in sources.items()
             if top[path] in ("src", "bench", "demos")}
    refs, strings = {}, set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name:
                refs[name] = refs.get(name, 0) + 1
            if top[path] == "bench" and isinstance(node, ast.Constant) and isinstance(
                    node.value, str):
                strings.add(node.value)
    out = []
    for path, tree in trees.items():
        if top[path] != "src":
            continue
        module = pathlib.PurePath(path).stem
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = sum(1 for sub in ast.walk(node)
                      if getattr(sub, "id", getattr(sub, "attr", None)) == node.name)
            if (refs.get(node.name, 0) > own or f"{module}.{node.name}" in strings
                    or node.name.startswith("cmd_") or node.name in ("__getattr__", "__dir__")):
                continue
            out.append(f"{os.path.basename(path)}:{node.name}")
    return out


def test_unreferenced_defs_are_detected():
    # public is exported and only a test names it; traced is named by a
    # bench string of its own module, rec by one of another module and by a
    # test string; shown is called by a demo
    sources = {
        "src/a.py": "__all__ = ['public']\ndef used(): pass\ndef rec(): rec()\n"
                    "def cmd_x(): pass\ndef public(): pass\nclass Lone: pass\n"
                    "def traced(): pass\ndef shown(): pass\n",
        "src/b.py": "from a import used\ndef __getattr__(name): pass\ndef __dir__(): pass\n"
                    "def __call__(): pass\n",
        "tests/test_a.py": "from a import public\npublic()\nNAMES = ['a.rec']\n",
        "bench/tracer.py": "TARGETS = (('a.traced', 'span'), ('b.rec', 'count'))\n",
        "demos/d.py": "import a\na.shown()\n",
    }
    assert unreferenced_defs(sources) == ["a.py:rec", "a.py:public", "a.py:Lone",
                                          "b.py:__call__"]


def test_every_source_def_has_a_caller():
    # what only tests call lives in tests/oracles.py, not in src/
    sources = {}
    for pattern in ("src/eistheta/*.py", "bench/*.py", "demos/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path) as fh:
                sources[os.path.relpath(path, ROOT)] = fh.read()
    assert unreferenced_defs(sources) == []
