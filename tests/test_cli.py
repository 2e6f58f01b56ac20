"""End-to-end command-line checks, run in-process through cli.main."""

import json

from eistheta.cli import main
from eistheta.eisenstein import eisenstein_qexp
from eistheta.fourier import dump_qexp
from eistheta.genus import write_json_atomic


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


def test_genera_rank2_level7(tmp_path):
    out = tmp_path / "genera.json"
    assert run(["genera", "--rank", "2", "--level", "7", "--out", str(out)]) == 0
    doc = read_json(str(out))
    assert len(doc["genera"]) == 1
    g = doc["genera"][0]
    assert g["det"] == 7 and g["level"] == 7
    assert [c["twoT"] for c in g["classes"]] == [[[2, -1], [-1, 4]]]


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


def test_eisenstein_dump_and_cache(tmp_path):
    out = tmp_path / "e4.json"
    cache = tmp_path / "cache"
    argv = ["eisenstein", "--k", "4", "--degree", "1", "--bound", "10",
            "--cache-dir", str(cache), "--out", str(out)]
    assert run(argv) == 0
    doc = read_json(str(out))
    by_key = {tuple(map(tuple, e["twoT"])): e for e in doc["coeffs"]}
    assert by_key[((2,),)]["num"] == "240"
    assert (cache / "eis_k4_n1_B10.json").exists()
    first = out.read_bytes()
    assert run(argv) == 0  # replayed from cache, byte-identical
    assert out.read_bytes() == first


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
    ([1, 2], "coeffs"),
]


def test_singular_rank_rejects_malformed_dump(tmp_path, capsys):
    dump = tmp_path / "bad.json"
    for doc, field in MALFORMED_DUMPS:
        dump.write_text(json.dumps(doc))
        assert run(["singular-rank", "--expansion", str(dump), "--p", "7"]) == 2
        err = capsys.readouterr().err
        assert "eistheta singular-rank" in err and repr(field) in err, doc


def test_eisenstein_rejects_corrupted_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ["eisenstein", "--k", "4", "--degree", "1", "--bound", "10",
            "--cache-dir", str(cache)]
    for doc, field in MALFORMED_DUMPS:
        (cache / "eis_k4_n1_B10.json").write_text(json.dumps(doc))
        assert run(argv) == 2
        assert repr(field) in capsys.readouterr().err, doc


def test_eisenstein_rejects_cache_of_another_request(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["eisenstein", "--k", "4", "--degree", "1", "--bound", "4",
            "--cache-dir", str(cache)]
    path = cache / "eis_k4_n1_B4.json"
    e6 = dump_qexp(eisenstein_qexp(6, 1, 4))
    e4_b2 = dump_qexp(eisenstein_qexp(4, 1, 2))
    e4_n2 = dump_qexp(eisenstein_qexp(4, 2, 4))
    for doc, field in [
        ({"k": 6, **e6}, "k"),
        (e6, "k"),  # no record of the weight
        ({"k": 4, **e4_b2}, "trace_bound"),
        ({"k": 4, **e4_n2}, "degree"),
    ]:
        write_json_atomic(doc, str(path))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "eistheta eisenstein" in err and repr(field) in err, field
    # a matching record replays the plain dump on stdout
    write_json_atomic({"k": 4, **dump_qexp(eisenstein_qexp(4, 1, 4))}, str(path))
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out) == dump_qexp(eisenstein_qexp(4, 1, 4))


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
    assert "stage fit" in capsys.readouterr().err


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
