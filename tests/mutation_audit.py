"""Mutation audit of the verdict path.

Copies src/, tests/ and pyproject.toml to a temporary directory, checks
that every auditing test passes there, then applies each known mutant of a
verdict gate in turn and runs the test that must catch it.  Exits 1 when a
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

# (name, file under src/eistheta, text, its replacement, the test that must fail)
MUTANTS = [
    ("HEADROOM 20 -> 2", "eisenstein.py", "HEADROOM = 20", "HEADROOM = 2",
     "tests/test_acceptance.py::test_criterion_3_flagship_fit_and_verify"),
    ("in_theorem_range > -> >=", "padic.py", "return self.p > 2 * self.k + 1",
     "return self.p >= 2 * self.k + 1",
     "tests/test_cli.py::test_theorem_gate_from_cli"),
    ("direct caps b + 2 -> b + 1", "padic.py", "caps = [b + 2 for b in seq.b_schedule]",
     "caps = [b + 1 for b in seq.b_schedule]",
     "tests/test_padic.py::test_direct_ladder_level7_class"),
    ("training takes the first indices, not the pivots", "padic.py",
     "return [indices[j] for j in pivots]", "return indices[:len(pivots)]",
     "tests/test_padic.py::test_training_set_skips_indices_dependent_mod_p"),
    ("check_genera without its mass branch", "genus.py",
     "        if h.mass != g.mass:\n"
     "            raise ValueError(\"cached mass disagrees with the classes\")\n", "",
     INVARIANTS),
    ("check_genera without its level branch", "genus.py",
     "        if h.level != g.level:\n"
     "            raise ValueError(\"cached level disagrees with the rep\")\n", "",
     INVARIANTS),
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
