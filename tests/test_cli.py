"""End-to-end command-line checks, run in-process through cli.main."""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from eistheta import cli, exactnum
from eistheta.cli import main
from eistheta.eisenstein import eisenstein_qexp
from eistheta.exactnum import bernoulli, frac_from_doc, frac_to_doc
from eistheta.fourier import dump_qexp
from eistheta.genus import build_genera, genera_to_doc, write_json_atomic


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(argv):
    return main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_classes_level3(tmp_path):
    out = tmp_path / "classes.json"
    assert run(["classes", "--rank", "2", "--level", "3", "--out", str(out)]) == 0
    doc = read_json(str(out))
    assert doc["classes"] == [{"twoT": [[2, -1], [-1, 2]], "epsilon": 12}]
    first = out.read_bytes()
    assert run(["classes", "--rank", "2", "--level", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_classes_level1_empty(tmp_path):
    out = tmp_path / "none.json"
    assert run(["classes", "--rank", "2", "--level", "1", "--out", str(out)]) == 0
    assert read_json(str(out))["classes"] == []


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_classes_refuses_a_det_bound_below_1(capsys, bound):
    rc = run(["classes", "--rank", "2", "--level", "3", "--det-bound", bound])
    assert rc == 2
    assert capsys.readouterr() == ("", "eistheta classes: det bound must be positive\n")


def test_genera_rank2_level7(tmp_path):
    out = tmp_path / "genera.json"
    assert run(["genera", "--rank", "2", "--level", "7", "--out", str(out)]) == 0
    doc = read_json(str(out))
    assert len(doc["genera"]) == 1
    g = doc["genera"][0]
    assert g["det"] == 7 and g["level"] == 7
    assert [c["twoT"] for c in g["classes"]] == [[[2, -1], [-1, 4]]]


def test_genus_cache_of_another_rank_exits_2(tmp_path, capsys):
    cache = tmp_path / "cache"
    path = cache / "genera_r4_L7.json"
    assert run(["genera", "--rank", "2", "--level", "7",
                "--out", str(tmp_path / "rank2.json")]) == 0
    write_json_atomic(read_json(str(tmp_path / "rank2.json")), str(path))
    assert run(["genera", "--rank", "4", "--level", "7",
                "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err
    assert "eistheta genera" in err and str(path) in err and "'rank'" in err
    assert run(["verify-main", "--p", "7", "--k", "2", "--degree", "1", "--bound",
                "8", "--m-max", "2", "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err
    assert "stage genera" in err and str(path) in err


@pytest.mark.parametrize("doc,field", [
    ({"rank": 2, "level_divides": 7}, "genera"),
    ({"rank": 2, "level_divides": 7, "genera": [{"det": 7, "level": 7}]}, "classes"),
    ([{"rank": 2, "level_divides": 7}], "genera"),
    ({"rank": 2, "level_divides": 7, "genera": [
        {"classes": [{"twoT": [2, -1], "epsilon": 2}]}]}, "twoT"),
])
def test_malformed_genus_cache_exits_2(tmp_path, capsys, doc, field):
    path = tmp_path / "genera_r2_L7.json"
    path.write_text(json.dumps(doc))
    assert run(["genera", "--rank", "2", "--level", "7",
                "--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "eistheta genera" in err and str(path) in err and repr(field) in err


def test_genus_cache_with_a_boolean_character_exits_2(tmp_path, capsys):
    # JSON true == 1, the character of the one level-7 rank-4 genus
    doc = genera_to_doc(4, 7, build_genera(4, 7))
    assert doc["genera"][0]["character_disc"] == 1
    doc["genera"][0]["character_disc"] = True
    path = tmp_path / "genera_r4_L7.json"
    write_json_atomic(doc, str(path))
    assert run(["genera", "--rank", "4", "--level", "7", "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == (
        "", f"eistheta genera: cache {path}: missing or malformed field 'character_disc'\n")
    assert run(["verify-main", "--p", "7", "--k", "2", "--degree", "1", "--bound", "20",
                "--m-max", "2", "--cache-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "stage genera" in err and str(path) in err
    assert "'character_disc'" in err


def test_genus_cache_with_a_zero_denominator_exits_2(tmp_path, capsys):
    doc = genera_to_doc(2, 7, build_genera(2, 7))
    doc["genera"][0]["mass"]["den"] = "0"
    path = tmp_path / "genera_r2_L7.json"
    write_json_atomic(doc, str(path))
    assert run(["genera", "--rank", "2", "--level", "7",
                "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"eistheta genera: cache {path}: field 'mass': "
                                       "denominator must be positive, not '0'\n")


def test_genus_cache_that_is_not_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "genera_r2_L7.json"
    path.write_text('{\n  "rank": 2,\n')  # cut short
    assert run(["genera", "--rank", "2", "--level", "7",
                "--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"eistheta genera: cache {path}: Expecting "), err
    path = tmp_path / "genera_r4_L7.json"
    path.write_text('{\n  "rank": 4,\n')
    assert run(["verify-main", "--p", "7", "--k", "2", "--degree", "1", "--bound",
                "8", "--m-max", "2", "--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"stage genera: [genera] cache {path}: Expecting " in err, err


def test_theta_of_the_zero_form(tmp_path, capsys):
    form = tmp_path / "zero.txt"
    form.write_text("0;\n")
    for degree in ("1", "2", "3"):
        assert run(["theta", "--form", str(form), "--degree", degree, "--bound", "3"]) == 0
        n = int(degree)
        doc = json.loads(capsys.readouterr().out)
        assert doc["coeffs"] == [{"twoT": [[0] * n] * n, "num": "1", "den": "1"}]


def test_theta_refuses_a_negative_dimension(tmp_path, capsys):
    # -2 asks for (-2)^2 = 4 entries, and the four given must not pass as
    # the zero form
    form = tmp_path / "negative.txt"
    form.write_text("-2; 2 1; 1 2\n")
    assert run(["theta", "--form", str(form), "--degree", "1", "--bound", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "eistheta theta: expected a dimension n >= 0, got -2\n"


def test_theta_point_count(tmp_path, capsys):
    form = tmp_path / "unary.txt"
    form.write_text("1; 2\n")
    assert run(["theta", "--form", str(form), "--degree", "1", "--bound", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_key = {tuple(map(tuple, e["twoT"])): e for e in doc["coeffs"]}
    assert by_key[((2,),)]["num"] == "2"  # x^2 = 1 has the two solutions +-1
    assert by_key[((8,),)]["num"] == "2"
    assert ((6,),) not in by_key  # 3 is not a square


def test_theta_genus_average(tmp_path, capsys):
    form = tmp_path / "a2.txt"
    form.write_text("2; 2 -1; -1 2\n")
    rc = run(
        ["theta", "--form", str(form), "--degree", "1", "--bound", "4",
         "--genus-average"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    by_key = {tuple(map(tuple, e["twoT"])): e for e in doc["coeffs"]}
    # one-class genus: the mass-normalized average is theta_{A2} itself
    assert by_key[((0,),)]["num"] == "1"
    assert by_key[((2,),)] == {"twoT": [[2]], "num": "6", "den": "1"}


def test_theta_genus_average_non_canonical_basis(tmp_path):
    # A2 in the basis 2 1; 1 2 must find the same genus as 2 -1; -1 2
    outs = []
    for i, text in enumerate(["2; 2 -1; -1 2\n", "2; 2 1; 1 2\n"]):
        form = tmp_path / f"a2_{i}.txt"
        form.write_text(text)
        out = tmp_path / f"avg_{i}.json"
        rc = run(["theta", "--form", str(form), "--degree", "1", "--bound", "4",
                  "--genus-average", "--level", "3", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_theta_degree_beyond_five_fails_before_enumerating(tmp_path, capsys):
    form = tmp_path / "a2.txt"
    form.write_text("2; 2 -1; -1 2\n")
    start = time.monotonic()
    rc = run(["theta", "--form", str(form), "--degree", "6", "--bound", "8"])
    assert time.monotonic() - start < 2
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "eistheta theta: matrices larger than 5x5 are out of scope\n"


@pytest.mark.parametrize("degree", ["1", "2"])
def test_theta_refuses_a_negative_trace_bound(tmp_path, capsys, degree):
    form = tmp_path / "b7.txt"
    form.write_text("2; 2 1; 1 4\n")
    rc = run(["theta", "--form", str(form), "--degree", degree, "--bound", "-1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "eistheta theta: trace bound must be >= 0\n"


@pytest.mark.parametrize("degree,bound,message", [
    ("2", "-1", "trace bound must be >= 0"),
    ("6", "4", "matrices larger than 5x5 are out of scope"),
])
def test_theta_genus_average_refuses_a_bad_window_before_the_classes(
        tmp_path, capsys, monkeypatch, degree, bound, message):
    def refuse(*args):
        raise AssertionError("classes enumerated")

    monkeypatch.setattr(cli, "build_genera", refuse)
    form = tmp_path / "a2.txt"
    form.write_text("2; 2 -1; -1 2\n")
    rc = run(["theta", "--form", str(form), "--degree", degree, "--bound", bound,
              "--genus-average"])
    assert rc == 2
    assert capsys.readouterr().err == f"eistheta theta: {message}\n"


def test_theta_genus_average_refuses_a_level_the_form_does_not_divide(
        tmp_path, capsys, monkeypatch):
    # B7 + B7 has level 7: at level 37 no class is of its genus, and
    # enumerating the level-37 classes first took seconds
    def refuse(*args):
        raise AssertionError("classes enumerated")

    monkeypatch.setattr(cli, "build_genera", refuse)
    form = tmp_path / "b7b7.txt"
    form.write_text("4; 2 1 0 0; 1 4 0 0; 0 0 2 1; 0 0 1 4\n")
    rc = run(["theta", "--form", str(form), "--degree", "1", "--bound", "4",
              "--genus-average", "--level", "37"])
    assert rc == 2
    assert capsys.readouterr() == (
        "", "eistheta theta: the form's level 7 does not divide the level 37\n")


def test_theta_genus_average_refuses_level_0(tmp_path, capsys):
    form = tmp_path / "a2.txt"
    form.write_text("2; 2 -1; -1 2\n")
    for level in ("0", "-3"):
        rc = run(["theta", "--form", str(form), "--degree", "1", "--bound", "4",
                  "--genus-average", "--level", level])
        assert rc == 2
        assert capsys.readouterr() == ("", "eistheta theta: level must be positive\n")


def test_eisenstein_dump_and_cache(tmp_path):
    out = tmp_path / "e4.json"
    argv = ["eisenstein", "--k", "4", "--degree", "1", "--bound", "10",
            "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    by_key = {tuple(map(tuple, e["twoT"])): e for e in doc["coeffs"]}
    assert by_key[((2,),)]["num"] == "240"
    first = out.read_bytes()
    assert run(argv) == 0  # recomputed, byte-identical
    assert out.read_bytes() == first


def test_eisenstein_ignores_a_tampered_dump_in_the_cache_dir(tmp_path, capsys,
                                                             monkeypatch):
    # only genus dictionaries are cached: `eisenstein` neither reads nor
    # writes the cache dir, not even a file named after its window
    cache = tmp_path / "cache"
    cache.mkdir()
    doc = {"k": 4, **dump_qexp(eisenstein_qexp(4, 1, 10))}
    a1 = next(e for e in doc["coeffs"] if e["twoT"] == [[2]])
    a1["num"] = "241"
    planted = cache / "eis_k4_n1_B10.json"
    planted.write_text(json.dumps(doc))
    monkeypatch.setenv("EISTHETA_CACHE_DIR", str(cache))
    assert run(["eisenstein", "--k", "4", "--degree", "1", "--bound", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert next(e for e in out["coeffs"] if e["twoT"] == [[2]])["num"] == "240"
    assert out == dump_qexp(eisenstein_qexp(4, 1, 10))
    assert list(cache.iterdir()) == [planted]
    assert json.loads(planted.read_text()) == doc


def test_eisenstein_has_no_cache_dir_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eisenstein", "--k", "4", "--degree", "1", "--bound", "10",
             "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eisenstein_weight_beyond_the_int_str_digit_limit(tmp_path):
    # a(1) = -2k / B_k, and the numerator of B_4118 has over 9800 digits
    out = tmp_path / "e4118.json"
    k = 4118
    assert run(["eisenstein", "--k", str(k), "--degree", "1", "--bound", "2",
                "--out", str(out)]) == 0
    by_key = {tuple(map(tuple, e["twoT"])): e for e in read_json(str(out))["coeffs"]}
    a1 = by_key[((2,),)]
    assert len(a1["den"]) > 4300
    assert frac_from_doc(a1) == -2 * k / bernoulli(k)


def test_eisenstein_rejects_odd_weight(capsys):
    assert run(["eisenstein", "--k", "5", "--degree", "1", "--bound", "5"]) == 2
    err = capsys.readouterr().err
    assert "eistheta eisenstein" in err and "even" in err


def test_singular_rank_audit_verdict(tmp_path):
    dump = tmp_path / "e6.json"
    write_json_atomic(dump_qexp(eisenstein_qexp(6, 1, 20)), str(dump))
    out = tmp_path / "report.json"
    base = ["singular-rank", "--expansion", str(dump), "--p", "7", "--m", "1"]
    assert run(base + ["--k", "6", "--out", str(out)]) == 0
    doc = read_json(str(out))
    assert doc["rank"] == 0 and doc["audit"]["ok"]
    # the same window would be inconsistent at weight 4: 2*4 - 0 != 0 mod 6
    assert run(base + ["--k", "4", "--out", str(out)]) == 1
    assert read_json(str(out))["audit"]["ok"] is False
    # without --k only the rank is reported and the verdict stays 0
    assert run(base + ["--out", str(out)]) == 0
    assert "audit" not in read_json(str(out))


MALFORMED_DUMPS = [
    ({"degree": 1}, "coeffs"),
    ({"degree": 1, "trace_bound": 4, "class_invariant": True,
      "coeffs": [{"twoT": [[2]], "num": "240"}]}, "den"),
    ({"degree": 1, "trace_bound": 4, "class_invariant": False, "coeffs": []},
     "class_invariant"),
    ([1, 2], "coeffs"),
    ({"degree": True, "trace_bound": 4, "class_invariant": True,  # JSON true == 1
      "coeffs": [{"twoT": [[2]], "num": "240", "den": "1"}]}, "degree"),
    ({"degree": "1", "trace_bound": 4, "class_invariant": True,
      "coeffs": [{"twoT": [[2]], "num": "240", "den": "1"}]}, "degree"),
]


def test_singular_rank_rejects_malformed_dump(tmp_path, capsys):
    dump = tmp_path / "bad.json"
    for doc, field in MALFORMED_DUMPS:
        dump.write_text(json.dumps(doc))
        assert run(["singular-rank", "--expansion", str(dump), "--p", "7"]) == 2
        err = capsys.readouterr().err
        assert "eistheta singular-rank" in err and repr(field) in err, doc


def test_singular_rank_rejects_a_zero_denominator(tmp_path, capsys):
    doc = dump_qexp(eisenstein_qexp(6, 1, 4))
    doc["coeffs"][1]["den"] = "0"
    dump = tmp_path / "zero_den.json"
    dump.write_text(json.dumps(doc))
    assert run(["singular-rank", "--expansion", str(dump), "--p", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("eistheta singular-rank: ") and "denominator" in err


def test_singular_rank_names_the_dump_in_a_bad_fraction(tmp_path, capsys):
    doc = dump_qexp(eisenstein_qexp(6, 1, 4))
    doc["coeffs"][1]["den"] = "1.5"
    dump = tmp_path / "bad_den.json"
    dump.write_text(json.dumps(doc))
    assert run(["singular-rank", "--expansion", str(dump), "--p", "7"]) == 2
    assert capsys.readouterr() == (
        "", "eistheta singular-rank: expansion dump: not a decimal integer: '1.5'\n")


def test_singular_rank_names_a_dump_that_is_not_json(tmp_path, capsys):
    dump = tmp_path / "cut.json"
    dump.write_text('{"degree": 1,\n')
    assert run(["singular-rank", "--expansion", str(dump), "--p", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("eistheta singular-rank: expansion dump: Expecting "), err


@pytest.mark.parametrize("p", ["0", "4", "-7"])
def test_singular_rank_refuses_a_p_that_is_not_prime(tmp_path, capsys, p):
    dump = tmp_path / "e6.json"
    write_json_atomic(dump_qexp(eisenstein_qexp(6, 1, 10)), str(dump))
    for extra in ([], ["--k", "6"]):
        assert run(["singular-rank", "--expansion", str(dump), "--p", p, *extra]) == 2
        assert capsys.readouterr() == ("", "eistheta singular-rank: p must be a prime\n")


def test_singular_rank_refuses_p_1_at_once(tmp_path):
    # v_p at p = 1 would divide by 1 forever
    dump = tmp_path / "e6.json"
    write_json_atomic(dump_qexp(eisenstein_qexp(6, 1, 10)), str(dump))
    src = str(pathlib.Path(cli.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "eistheta.cli", "singular-rank", "--expansion", str(dump),
         "--p", "1"], env=env, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "eistheta singular-rank: p must be a prime\n"


def test_limit_command(tmp_path):
    out = tmp_path / "ladder.json"
    rc = run(
        ["limit", "--p", "7", "--k", "2", "--degree", "1", "--bound", "10",
         "--m-max", "2", "--out", str(out)]
    )
    assert rc == 0
    doc = read_json(str(out))
    assert doc["weights"] == [44, 296]
    assert doc["nu_hat"] == 0 and doc["flagged"] == []


def test_limit_rejects_a_decreasing_schedule(capsys):
    rc = run(["limit", "--p", "7", "--k", "2", "--degree", "1", "--bound", "10",
              "--b-schedule", "2,1"])
    assert rc == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_verify_main_b_schedule(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify-main", "--p", "7", "--k", "2", "--degree", "1", "--bound", "20",
            "--b-schedule", "1,3", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    assert doc["passed"] is True and doc["b_schedule"] == [1, 3]
    assert [r["weight"] for r in doc["rungs"]] == [44, 2060]
    # one way to give the schedule: --m-max 4 beside it used to be ignored
    with pytest.raises(SystemExit) as info:
        run(argv + ["--m-max", "4"])
    assert info.value.code == 2


def test_verify_main_flagship_window(tmp_path):
    out = tmp_path / "report.json"
    cache = tmp_path / "cache"
    argv = ["verify-main", "--p", "7", "--k", "2", "--j", "0", "--degree", "1",
            "--bound", "12", "--m-max", "2", "--cache-dir", str(cache),
            "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    assert doc["passed"] is True and doc["mode"] == "theorem"
    assert doc["rungs"][0]["a_tilde"] == [32]
    assert (cache / "genera_r4_L7.json").exists()
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_verify_main_second_prime(tmp_path):
    # p = 13, k = 2, j = 1: the dictionary is the two chi_13 genera, the
    # det 13 class and its Fricke dual of det 13^3
    out = tmp_path / "report.json"
    argv = ["verify-main", "--p", "13", "--k", "2", "--j", "1", "--degree", "1",
            "--bound", "50", "--m-max", "2", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    assert doc["passed"] is True and doc["mode"] == "theorem"
    assert [r["weight"] for r in doc["rungs"]] == [80, 1016]
    mass = {"num": "1", "den": "48"}
    assert [(g["det"], g["character_disc"], g["mass"]) for g in doc["dictionary"]] == [
        (13, 13, mass), (2197, 13, mass)
    ]


def test_verify_main_irregular_case_p59(tmp_path):
    # W9: k = 1, j = 1 at p = 59, whose second rung has weight 1 + 29 * 59^2
    # = 100950; 59 divides the numerator of B_44 (irregular)
    out = tmp_path / "report.json"
    argv = ["verify-main", "--p", "59", "--k", "1", "--j", "1", "--degree", "1",
            "--bound", "50", "--m-max", "2", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    assert doc["passed"] is True and doc["mode"] == "theorem"
    assert [r["weight"] for r in doc["rungs"]] == [1712, 100950]
    assert doc["rungs"][-1]["coherence_exponent"] == 3


# SHA-256 of the reports of W2 and W1 (the benchmark's ladder_deg2_warm and
# ladder_deg1_cold), and of the genus cache W2 reads: a speed-up must leave
# each byte where it was
PINNED = {
    "genera_r4_L7.json": "dcd10a112fcc9a5dac2a1f7112ca62be90eddf8c6946dc1067f8f10a1855e3a0",
    "w2.json": "81857c47ba7e7911d6340df2b7875314f8581665588a540d0bd52df484c0a344",
    "w1.json": "3fcefbae87f3630846d6f7b9e82bfb5eda472187ff004437cffcb1594f80d9d4",
}


def test_flagship_reports_are_byte_identical_to_their_pins(tmp_path):
    cache = tmp_path / "cache"
    ladder = ["verify-main", "--p", "7", "--k", "2", "--j", "0", "--cache-dir", str(cache)]
    assert run(["genera", "--rank", "4", "--level", "7", "--cache-dir", str(cache)]) == 0
    assert run([*ladder, "--degree", "2", "--bound", "16", "--m-max", "2",
                "--out", str(tmp_path / "w2.json")]) == 0
    assert run([*ladder, "--degree", "1", "--bound", "50", "--m-max", "3",
                "--out", str(tmp_path / "w1.json")]) == 0
    for name, digest in PINNED.items():
        path = cache / name if name.startswith("genera") else tmp_path / name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


def test_verify_main_exits_2_on_a_vanishing_kummer_base(tmp_path, monkeypatch, capsys):
    # no unit part within the term cap: exit 2 at stage fit, having read no
    # Bernoulli number beyond the cap's base values (weight 2060 is the last rung)
    rows = exactnum.gen_bernoulli_rows
    seen = []

    def vanishing(ns, Ds):
        seen.extend(ns)
        return {n: {D: 7**100 * b for D, b in row.items()} for n, row in rows(ns, Ds).items()}

    monkeypatch.setattr(exactnum, "gen_bernoulli_rows", vanishing)
    rc = run(["verify-main", "--p", "7", "--k", "2", "--degree", "1", "--bound", "10",
              "--m-max", "3", "--cache-dir", str(tmp_path / "cache")])
    assert rc == 2
    assert "stage fit" in capsys.readouterr().err
    assert seen and max(seen) < 2 + 6 * 25 < 2060


def test_verify_main_four_rungs(tmp_path):
    # W4: the fourth rung has weight 2 + 6 * 7^4 = 14408
    out = tmp_path / "report.json"
    argv = ["verify-main", "--p", "7", "--k", "2", "--j", "0", "--degree", "1",
            "--bound", "50", "--m-max", "4", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    assert doc["passed"] is True and doc["mode"] == "theorem"
    assert [r["weight"] for r in doc["rungs"]][-1] == 14408
    assert [r["a_tilde"] for r in doc["rungs"]] == [[32]] * len(doc["rungs"])


def test_verify_main_refuses_a_window_with_nothing_held_out(tmp_path, capsys):
    # T = 0 and 1 against the two chi_13 genera: both indices train
    argv = ["verify-main", "--p", "13", "--k", "2", "--j", "1", "--degree", "1",
            "--bound", "1", "--m-max", "2", "--cache-dir", str(tmp_path / "cache")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "stage fit" in err and "2 indices and the 2 genus coefficients" in err


@pytest.mark.parametrize("window", [["--degree", "1", "--bound", "50"],
                                    ["--degree", "2", "--bound", "8"]])
def test_verify_main_prime_37_on_a_fixture_cache(tmp_path, window):
    # the rank-4 level-37 genus cache that `eistheta genera --rank 4 --level 37`
    # writes (8 classes, 3 genera), so no class enumeration runs; the
    # dictionary is its two chi_37 genera
    fixture = FIXTURES / "genera_r4_L37.json"
    cache = tmp_path / "cache"
    cache.mkdir()
    shutil.copy(fixture, cache)
    out = tmp_path / "report.json"
    argv = ["verify-main", "--p", "37", "--k", "2", "--j", "1", *window,
            "--m-max", "1", "--cache-dir", str(cache), "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    assert doc["passed"] is True
    genera = read_json(fixture)["genera"]
    assert doc["dictionary"] == [g for g in genera if g["character_disc"] == 37]
    assert (cache / fixture.name).read_bytes() == fixture.read_bytes()


@pytest.mark.slow
def test_verify_main_irregular_prime_37(tmp_path):
    # W8, cold: 37 divides the numerator of B_32; the run enumerates and
    # partitions the rank-4 classes of level 37 itself
    out = tmp_path / "report.json"
    argv = ["verify-main", "--p", "37", "--k", "2", "--j", "1", "--degree", "1",
            "--bound", "50", "--m-max", "2", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    assert doc["passed"] is True
    assert doc["rungs"][-1]["coherence_exponent"] == 2


def test_verify_main_degree2_third_rung(tmp_path):
    # W3, cold: degree 2 up to weight 2060, so one table of H(2059, .)
    out = tmp_path / "report.json"
    argv = ["verify-main", "--p", "7", "--k", "2", "--j", "0", "--degree", "2",
            "--bound", "8", "--m-max", "3", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    assert doc["passed"] is True
    assert [r["weight"] for r in doc["rungs"]] == [44, 296, 2060]
    assert [r["coherence_exponent"] for r in doc["rungs"]] == [None, 3, 4]


def test_verify_main_corrupted_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    # the true dictionary has one class of automorphism count 32; claim 8
    doc = {
        "rank": 4,
        "level_divides": 7,
        "genera": [
            {
                "det": 49,
                "level": 7,
                "character_disc": 1,
                "mass": {"num": "1", "den": "8"},
                "classes": [
                    {
                        "twoT": [[2, 0, -1, 0], [0, 2, 0, -1],
                                 [-1, 0, 4, 0], [0, -1, 0, 4]],
                        "epsilon": 8,
                    }
                ],
            }
        ],
    }
    write_json_atomic(doc, str(cache / "genera_r4_L7.json"))
    rc = run(
        ["verify-main", "--p", "7", "--k", "2", "--degree", "1", "--bound", "8",
         "--m-max", "2", "--cache-dir", str(cache)]
    )
    assert rc == 2
    assert "stage genera" in capsys.readouterr().err


def test_verify_main_rejects_a_class_listed_twice(tmp_path, capsys):
    # W1 on a cache that lists the one p = 7 class twice, with mass 1/16:
    # each class invariant and the mass agree, and the fit read a_tilde = 16
    cache = tmp_path / "cache"
    doc = genera_to_doc(4, 7, build_genera(4, 7))
    (g,) = doc["genera"]
    doc["genera"] = [dict(g, classes=g["classes"] * 2, mass={"num": "1", "den": "16"})]
    write_json_atomic(doc, str(cache / "genera_r4_L7.json"))
    rc = run(["verify-main", "--p", "7", "--k", "2", "--degree", "1", "--bound", "50",
              "--m-max", "3", "--cache-dir", str(cache)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage genera" in err and "listed twice" in err


def test_genera_rejects_a_tampered_cache(tmp_path, capsys):
    # the one level-7 class claimed with 16 automorphisms and mass 1/16
    cache = tmp_path / "cache"
    doc = genera_to_doc(4, 7, build_genera(4, 7))
    g = doc["genera"][0]
    g["classes"][0]["epsilon"] = 16
    g["mass"] = {"num": "1", "den": "16"}
    write_json_atomic(doc, str(cache / "genera_r4_L7.json"))
    out = tmp_path / "genera.json"
    assert run(["genera", "--rank", "4", "--level", "7", "--cache-dir", str(cache),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "eistheta genera" in err and "genera[0].classes[0].epsilon: cached 16, rebuilt 32" in err
    assert not out.exists()


def test_verify_main_rejects_merged_genera(tmp_path, capsys):
    # every class invariant and the summed mass are right, but the one
    # chi_13 genus of this cache joins the det-13 and det-2197 genera
    cache = tmp_path / "cache"
    doc = genera_to_doc(4, 13, build_genera(4, 13))
    first, middle, last = doc["genera"]
    assert (first["det"], last["det"]) == (13, 2197)
    mass = frac_from_doc(first["mass"]) + frac_from_doc(last["mass"])
    merged = dict(first, classes=first["classes"] + last["classes"], mass=frac_to_doc(mass))
    doc["genera"] = [merged, middle]
    write_json_atomic(doc, str(cache / "genera_r4_L13.json"))
    rc = run(["verify-main", "--p", "13", "--k", "2", "--j", "1", "--degree", "1",
              "--bound", "8", "--m-max", "2", "--cache-dir", str(cache)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage genera" in err and "len(genera[0].classes): cached 2, rebuilt 1" in err


def test_verify_main_checks_the_genera_it_does_not_use(tmp_path, capsys):
    # the trivial-character genus of level 13 (det 169, one class with 8
    # automorphisms) claims 7 and mass 1/7; the run keeps only the chi_13
    # genera, but the whole file is checked where it is read
    cache = tmp_path / "cache"
    doc = genera_to_doc(4, 13, build_genera(4, 13))
    (g,) = [g for g in doc["genera"] if g["det"] == 169]
    assert g["character_disc"] == 1 and [c["epsilon"] for c in g["classes"]] == [8]
    g["classes"][0]["epsilon"] = 7
    g["mass"] = {"num": "1", "den": "7"}
    path = cache / "genera_r4_L13.json"
    write_json_atomic(doc, str(path))
    assert run(["genera", "--rank", "4", "--level", "13", "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "genera[1].classes[0].epsilon: cached 7, rebuilt 8" in err
    rc = run(["verify-main", "--p", "13", "--k", "2", "--j", "1", "--degree", "1",
              "--bound", "20", "--m-max", "2", "--cache-dir", str(cache)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage genera" in err and str(path) in err
    assert "genera[1].classes[0].epsilon: cached 7, rebuilt 8" in err


@pytest.mark.parametrize("tamper,message", [
    ("reversed", "genera[0].classes[0].rep[0][0]: cached 4, rebuilt 2"),
    ("det", "genera[0].det: cached 999, rebuilt 13"),
    ("stray", "genera[0] keys: cached ['character_disc', 'classes', 'det', 'level', 'mass', "
              "'note'], rebuilt ['character_disc', 'classes', 'det', 'level', 'mass']"),
], ids=["reversed", "det", "stray"])
def test_a_cache_is_read_only_as_genera_would_write_it(tmp_path, capsys, tamper, message):
    # the level-13 dictionary with its genera in reverse order, a wrong det
    # field or a stray key: every class and genus invariant is still right
    cache = tmp_path / "cache"
    doc = genera_to_doc(4, 13, build_genera(4, 13))
    if tamper == "reversed":
        doc["genera"].reverse()
    elif tamper == "det":
        doc["genera"][0]["det"] = 999
    else:
        doc["genera"][0]["note"] = "checked by hand"
    path = cache / "genera_r4_L13.json"
    write_json_atomic(doc, str(path))
    assert run(["genera", "--rank", "4", "--level", "13", "--cache-dir", str(cache)]) == 2
    assert capsys.readouterr() == ("", f"eistheta genera: cache {path}: {message}\n")
    rc = run(["verify-main", "--p", "13", "--k", "2", "--j", "1", "--degree", "1",
              "--bound", "50", "--m-max", "2", "--cache-dir", str(cache)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and "stage genera" in err and f"cache {path}: {message}" in err


def test_genera_writes_an_accepted_cache_back_byte_for_byte(tmp_path):
    # the committed level-37 cache, and the level-13 one that genera writes
    cache = tmp_path / "cache"
    cache.mkdir()
    shutil.copy(FIXTURES / "genera_r4_L37.json", cache)
    assert run(["genera", "--rank", "4", "--level", "13", "--cache-dir", str(cache)]) == 0
    for level in ("13", "37"):
        out = tmp_path / f"genera_{level}.json"
        assert run(["genera", "--rank", "4", "--level", level, "--cache-dir", str(cache),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (cache / f"genera_r4_L{level}.json").read_bytes()


@pytest.mark.parametrize("degree,bound", [("1", "0"), ("2", "1")])
def test_verify_main_refuses_a_window_without_an_index_of_full_rank(capsys, degree, bound):
    rc = run(["verify-main", "--p", "7", "--k", "2", "--degree", degree,
              "--bound", bound, "--m-max", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage weights" in err and f"at least the degree {degree}" in err


@pytest.mark.parametrize("argv,message", [
    (["verify-main", "--p", "7", "--k", "2", "--m-max", "0"], "m_max must be positive"),
    (["verify-main", "--p", "7", "--k", "0"], "k must be positive"),
    (["theta", "--form", "{form}", "--bound", "3"], "expected `n; row; row; ...`"),
    (["singular-rank", "--expansion", "{dump}", "--p", "7", "--m", "0"], "m must be positive"),
])
def test_out_of_range_inputs_exit_2_before_any_computation(tmp_path, capsys, monkeypatch,
                                                           argv, message):
    form, dump = tmp_path / "two.txt", tmp_path / "e6.json"
    form.write_text("2")  # a dimension and no rows
    write_json_atomic(dump_qexp(eisenstein_qexp(6, 1, 10)), str(dump))
    for name in ("fit_and_verify", "theta_series"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail("computed"))
    argv = [a.format(form=form, dump=dump) for a in argv]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"eistheta {argv[0]}: {message}\n")


def test_verify_main_exits_2_on_a_cache_without_the_requested_character(tmp_path, capsys):
    # the level-13 dictionary without its two chi_13 genera (det 13 and
    # 2197): it holds no lattice of character chi_13 for j = 1.  genera
    # still accepts the file, as nothing certifies that a dictionary is
    # complete (ROADMAP item 1)
    cache = tmp_path / "cache"
    doc = genera_to_doc(4, 13, build_genera(4, 13))
    doc["genera"] = [g for g in doc["genera"] if g["character_disc"] == 1]
    assert [g["det"] for g in doc["genera"]] == [169]
    write_json_atomic(doc, str(cache / "genera_r4_L13.json"))
    rc = run(["verify-main", "--p", "13", "--k", "2", "--j", "1", "--degree", "1",
              "--bound", "8", "--m-max", "2", "--cache-dir", str(cache)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage genera" in err and "no even lattices" in err
    assert "requested character" in err


def test_invalid_target_is_rejected(capsys):
    rc = run(["limit", "--p", "9", "--k", "2", "--degree", "1", "--bound", "5",
              "--m-max", "2"])
    assert rc == 2
    assert "prime" in capsys.readouterr().err


def test_theorem_gate_from_cli(capsys):
    rc = run(["verify-main", "--p", "5", "--k", "2", "--degree", "1",
              "--bound", "5", "--m-max", "2"])
    assert rc == 2
    assert "stage weights" in capsys.readouterr().err
