"""Mutation audit of the verdict path.

Copies src/, tests/ and pyproject.toml to a temporary directory, checks
that every auditing test passes there, then applies each known mutant of a
verdict gate, of the signs that a short-vector pool leaves to its readers,
of the canonical form that tells classes apart, of the determinants that
class enumeration searches, or of the sign of zeta at a non-positive
integer, in turn and runs the test that must catch it.  Exits 1 when a
mutant survives (its test passes), no longer applies (its text is not in
the source exactly once) or its test does not run.

    python tests/mutation_audit.py

Standard library only; pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BAR = "tests/test_padic.py::test_a_held_out_coefficient_one_digit_off_fails_the_bar_alone"
INVARIANTS = ("tests/test_genus.py::"
              "test_cached_genera_rejects_a_genus_invariant_its_classes_contradict")
TWICE_AND_FOREIGN = ("tests/test_genus.py::"
                     "test_check_genera_rejects_a_class_listed_twice_and_a_foreign_level")
THETA_ORACLE = "tests/test_theta.py::test_theta_matches_all_tuples_oracle"

# (name, file under src/eistheta, text, its replacement, the test that must fail)
MUTANTS = [
    ("HEADROOM 20 -> 2", "exactnum.py", "HEADROOM = 20", "HEADROOM = 2",
     "tests/test_acceptance.py::test_criterion_3_flagship_fit_and_verify"),
    ("in_theorem_range > -> >=", "eisenstein.py", "return self.p > 2 * self.k + 1",
     "return self.p >= 2 * self.k + 1",
     "tests/test_cli.py::test_theorem_gate_from_cli"),
    ("WeightSequence.caps b + 2 -> b + 1", "eisenstein.py",
     "return tuple(b + 2 for b in self.b_schedule)", "return tuple(b + 1 for b in self.b_schedule)",
     "tests/test_padic.py::test_direct_ladder_level7_class"),
    ("training takes the first indices, not the pivots", "padic.py",
     "return [indices[j] for j in pivots]", "return indices[:len(pivots)]",
     "tests/test_padic.py::test_training_set_skips_indices_dependent_mod_p"),
    ("genera_from_doc without its comparison with the rebuild", "genus.py",
     "    _require_equal(doc, genera_to_doc(rank, level_divides, genera))\n", "", INVARIANTS),
    ("genera_from_doc without its duplicate refusal", "genus.py",
     "if len({rec.rep for rec in fresh}) < len(fresh):", "if False:", TWICE_AND_FOREIGN),
    ("genera_from_doc without its level refusal", "genus.py",
     "if level_divides % h.level:", "if False:", TWICE_AND_FOREIGN),
    ("the cache comparison takes JSON true for 1", "genus.py",
     "type(cached) is not type(rebuilt) or ", "",
     "tests/test_cli.py::test_genus_cache_with_a_boolean_character_exits_2"),
    ("the bar dropped from a rung's verdict", "padic.py",
     "passed = worst >= b and coherent and audit.ok", "passed = coherent and audit.ok", BAR),
    ("coherence always true", "padic.py", "coherent = coh >= seq.b_schedule[m - 2]",
     "coherent = True",
     "tests/test_padic.py::test_a_rung_off_by_a_dictionary_column_fails_coherence_alone"),
    ("the audit dropped from a rung's verdict", "padic.py",
     "passed = worst >= b and coherent and audit.ok", "passed = worst >= b and coherent",
     "tests/test_padic.py::"
     "test_a_singular_window_off_the_weight_congruence_fails_the_audit_alone"),
    ("the held-out refusal disabled", "padic.py", "    if not held_out:\n", "    if False:\n",
     "tests/test_padic.py::test_a_window_with_nothing_held_out_is_refused"),
    ("theta's zero-column shortcut at 2Q(x_1) >= B", "theta.py", "if 2 * q > B:",
     "if 2 * q >= B:", THETA_ORACLE),
    ("theta's last column not doubled", "theta.py", "len(ys) * weight", "weight",
     THETA_ORACLE),
    ("degree-1 theta counts one x of each pair +-x", "theta.py", "2 * len(xs)", "len(xs)",
     "tests/test_theta.py::test_theta_examples"),
    ("theta's far first column counts one x of each pair +-x", "theta.py",
     "counts[key] = counts.get(key, 0) + 2", "counts[key] = counts.get(key, 0) + 1",
     THETA_ORACLE),
    ("canonical form drops -w where the lead is 0", "lattice.py",
     "            if j and not lead:\n", "            if False:\n",
     "tests/test_lattice.py::test_minkowski_reduce_matches_full_branching_oracle_on_random_forms"),
    ("automorphism search tries only the listed sign", "lattice.py",
     "for s in (x, tuple(-c for c in x))", "for s in (x,)",
     "tests/test_lattice.py::test_automorphism_count_brute_small"),
    ("class enumeration keeps a candidate under itself, not its canonical form", "lattice.py",
     "found[minkowski_reduce(M)] = t", "found[M] = t",
     "tests/test_lattice.py::test_enumerate_classes_matches_recorded"),
    ("class enumeration skips the determinant N^{r/2}", "lattice.py",
     "t <= root", "t < root", "tests/test_lattice.py::test_enumerate_classes_matches_recorded"),
    ("zeta at a non-positive integer with the wrong sign", "exactnum.py",
     "-bernoulli(r) / r", "bernoulli(r) / r",
     "tests/test_exactnum.py::test_gen_bernoulli_specific"),
]


def run_tests(tree, node_ids):
    """pytest's exit code for node_ids, run in tree on tree's own src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main():
    tree = tempfile.mkdtemp(prefix="mutation_audit_")
    try:
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tree, name), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        tests = sorted({test for *_, test in MUTANTS})
        if run_tests(tree, tests) != 0:
            print("the auditing tests do not pass on the unmutated tree")
            return 1
        missed = 0
        for name, module, text, mutant, test in MUTANTS:
            path = os.path.join(tree, "src", "eistheta", module)
            with open(path) as fh:
                original = fh.read()
            if original.count(text) != 1:
                verdict = "does not apply"
            else:
                with open(path, "w") as fh:
                    fh.write(original.replace(text, mutant))
                code = run_tests(tree, [test])
                with open(path, "w") as fh:
                    fh.write(original)
                # pytest exits 1 when a test failed; 0 means the mutant survived
                verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"test did not run (exit {code})")
            missed += verdict != "caught"
            print(f"{verdict:>14}  {name}  [{test.split('::')[-1]}]")
        print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
        return 1 if missed else 0
    finally:
        shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
