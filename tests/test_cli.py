import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from flagcsm.cli import EXIT_DOMAIN, EXIT_INVARIANT, main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def check_golden(argv, name):
    code, got = run(argv)
    assert code == 0
    want = (GOLDEN / name).read_text()
    assert got == want


def test_golden_csm_hook():
    check_golden(["pieri", "--n", "5", "--k", "2", "--u", "23154",
                  "--alpha", "1", "--beta", "1", "--basis", "csm"],
                 "csm_hook_23154.txt")


def test_golden_csm_hook_json():
    check_golden(["pieri", "--n", "5", "--k", "2", "--u", "23154",
                  "--alpha", "1", "--beta", "1", "--basis", "csm",
                  "--format", "json"], "csm_hook_23154.json")


def test_golden_schubert_hook():
    check_golden(["pieri", "--n", "5", "--k", "2", "--u", "23154",
                  "--alpha", "1", "--beta", "1", "--basis", "schubert"],
                 "schubert_hook_23154.txt")


def test_golden_csm_powersum():
    check_golden(["mn", "--n", "5", "--k", "2", "--u", "23154", "--r", "3",
                  "--basis", "csm"], "csm_powersum_23154.txt")


def test_golden_schubert_powersum():
    check_golden(["mn", "--n", "5", "--k", "2", "--u", "23154", "--r", "3",
                  "--basis", "schubert"], "schubert_powersum_23154.txt")


def test_golden_kbruhat_s3():
    check_golden(["graph", "--n", "3", "--k", "1"], "kbruhat_s3_k1.dot")
    check_golden(["graph", "--n", "3", "--k", "2"], "kbruhat_s3_k2.dot")


def test_golden_grassmann():
    check_golden(["grassmann", "--op", "pieri", "--lam", "3,2,0", "--k", "3",
                  "--n", "7", "--alpha", "0", "--beta", "2"], "grassmann_e3.txt")
    check_golden(["grassmann", "--op", "pieri", "--lam", "3,2,0", "--k", "3",
                  "--n", "7", "--alpha", "2", "--beta", "0"], "grassmann_h3.txt")
    check_golden(["grassmann", "--op", "pieri", "--lam", "3,2,0", "--k", "3",
                  "--n", "7", "--alpha", "1", "--beta", "1"], "grassmann_s21.txt")
    check_golden(["grassmann", "--op", "mn", "--lam", "4,2,2,0", "--k", "4",
                  "--n", "9", "--r", "3"], "grassmann_mn.txt")


def test_golden_partition_graph():
    check_golden(["graph", "--partitions", "--k", "3", "--n", "6"],
                 "partition_graph_k3_n6.dot")


def test_deterministic_across_runs():
    argv = ["mn", "--n", "4", "--k", "2", "--u", "2413", "--r", "2"]
    assert run(argv) == run(argv)


def test_json_roundtrip_schema():
    code, got = run(["pieri", "--n", "4", "--k", "2", "--u", "2143",
                     "--alpha", "1", "--beta", "0", "--format", "json"])
    assert code == 0
    doc = json.loads(got)
    assert set(doc) == {"basis", "equivariant", "diagonal", "terms"}
    assert doc["basis"] == "csm" and doc["equivariant"] is True
    for term in doc["terms"]:
        assert set(term) == {"perm", "coeff"}
    again = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert again == got


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["pieri", "--n", "5", "--k", "2"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pieri", "--n", "5", "--k", "2", "--u", "23154",
              "--alpha", "1", "--beta", "1", "--basis", "nope"])
    assert exc.value.code == 2


def test_domain_error_exit_3():
    code, _ = run(["pieri", "--n", "5", "--k", "5", "--u", "23154",
                   "--alpha", "0", "--beta", "0"])
    assert code == EXIT_DOMAIN
    code, _ = run(["pieri", "--n", "5", "--k", "2", "--u", "23154",
                   "--alpha", "0", "--beta", "3"])  # leg taller than k
    assert code == EXIT_DOMAIN
    code, _ = run(["grassmann", "--op", "pieri", "--lam", "9,9", "--k", "2",
                   "--n", "5", "--alpha", "0", "--beta", "0"])
    assert code == EXIT_DOMAIN
    code, _ = run(["rht", "--outer", "3,1", "--inner", "0", "--r", "3"])
    assert code == EXIT_DOMAIN


def test_grassmann_negative_hook_exit_3():
    for hook in (["--alpha=-1", "--beta=0"], ["--alpha=0", "--beta=-2"]):
        code, got = run(["grassmann", "--op", "pieri", "--lam", "2,1,0",
                         "--k", "3", "--n", "6"] + hook)
        assert code == EXIT_DOMAIN and got == ""


def test_rht_methods_single():
    code, got = run(["rht", "--outer", "4,4,1", "--inner", "1", "--r", "2",
                     "--method", "enumerate"])
    assert code == 0 and got == "4\n"
    code, got = run(["rht", "--outer", "4,4,1", "--inner", "1", "--r", "2",
                     "--method", "limit"])
    assert code == 0 and got == "4\n"
    code, got = run(["rht", "--outer", "2,2", "--r", "2", "--method", "hook"])
    assert code == 0 and got == "2\n"


def test_rht_all_agreement():
    code, got = run(["rht", "--outer", "3,2,1", "--inner", "0", "--r", "2",
                     "--method", "all"])
    assert code == 0
    lines = got.strip().splitlines()
    counts = {ln.split()[0]: int(ln.split()[1]) for ln in lines}
    assert len(set(counts.values())) == 1


def test_rht_refuses_large_enumeration_up_front(monkeypatch, capsys):
    # the refusal must come before any tableau is listed; (5,5,5,5) with
    # r = 1 has 1,662,804 tableaux and 7,350,480 search nodes
    def no_listing(*args):
        raise AssertionError("listed tableaux before refusing")

    monkeypatch.setattr("flagcsm.rht.enumerate_rht", no_listing)
    for method in ("enumerate", "all"):
        code, got = run(["rht", "--outer", "5,5,5,5", "--r", "1",
                         "--method", method])
        assert code == EXIT_DOMAIN and got == ""
        assert "would visit 7350480" in capsys.readouterr().err
    # the polynomial-time methods are not bounded by it
    for method, want in (("limit", "1662804\n"), ("maj", "1662804\n"),
                         ("hook", "1662804\n")):
        assert run(["rht", "--outer", "5,5,5,5", "--r", "1",
                    "--method", method]) == (0, want)


def test_rht_counting_failure_exits_4(monkeypatch, capsys):
    from flagcsm.exact import ExactnessError, PoleError, UPoly

    for exc in (PoleError("pole"), ExactnessError("inexact"),
                AssertionError("parity")):
        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr("flagcsm.rht.rht_count_limit", fail)
        for method in ("limit", "all"):
            code, got = run(["rht", "--outer", "4,4,1", "--inner", "1",
                             "--r", "2", "--method", method])
            assert code == EXIT_INVARIANT and got == ""
            assert capsys.readouterr().err == "error: %s\n" % exc

    # a zero Y polynomial has no vanishing order at the root of unity
    monkeypatch.undo()
    monkeypatch.setattr("flagcsm.rht.y_poly", lambda *args: UPoly())
    code, got = run(["rht", "--outer", "4,4,1", "--inner", "1", "--r", "2",
                     "--method", "limit"])
    assert code == EXIT_INVARIANT and got == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_scan_positivity_small():
    code, got = run(["scan-positivity", "--n", "2", "--mode", "product"])
    assert code == 0 and "violations=0" in got
    code, got = run(["scan-positivity", "--n", "3",
                     "--mode", "schubert-expansion"])
    assert code == 0 and "violations=0" in got


def test_scan_positivity_refuses_n6_up_front(monkeypatch, capsys):
    # the refusal must come before any class is built
    def no_build(*args):
        raise AssertionError("built a class before refusing")

    monkeypatch.setattr("flagcsm.csm.double_schubert", no_build)
    monkeypatch.setattr("flagcsm.schubert.double_schubert", no_build)
    for n, mode, estimate in ((6, "product", "518400 pairs"),
                              (7, "schubert-expansion", "5040 classes")):
        code, got = run(["scan-positivity", "--n", str(n), "--mode", mode])
        assert code == EXIT_DOMAIN and got == ""
        assert estimate in capsys.readouterr().err


def test_graph_refuses_n9_up_front(monkeypatch, capsys):
    # the refusal must come before any DOT text is built
    def no_export(*args, **kwargs):
        raise AssertionError("built the graph before refusing")

    monkeypatch.setattr("flagcsm.bruhat.export_dot", no_export)
    code, got = run(["graph", "--n", "9", "--k", "4"])
    assert code == EXIT_DOMAIN and got == ""
    assert "362880 vertices" in capsys.readouterr().err


def test_mn_refuses_many_cycles_up_front(monkeypatch, capsys):
    # the refusal must come before any cycle is listed: S_14 has
    # 1,782,868,113 cycles of length 2..11, S_12 has 703,604 of length 2..7
    def no_listing(*args):
        raise AssertionError("listed cycles before refusing")

    monkeypatch.setattr("flagcsm.rules.cycles_through", no_listing)
    code, got = run(["mn", "--n", "14", "--k", "7",
                     "--u", ",".join(map(str, range(1, 15))), "--r", "10"])
    assert code == EXIT_DOMAIN and got == ""
    assert "up to 1782868113" in capsys.readouterr().err
    monkeypatch.setattr("flagcsm.rules.cycles_through", lambda *args: [])
    code, got = run(["mn", "--n", "12", "--k", "6",
                     "--u", ",".join(map(str, range(1, 13))), "--r", "6"])
    assert code == 0 and got.startswith("# mn n=12")


def test_mn_refuses_many_terms_up_front(monkeypatch, capsys):
    # r bounds the degree of every h_{r-r'}: the refusal must come before
    # the rule runs.  n = 5, r = 60 would print up to 12,765,840 terms; the
    # nonequivariant rule prints constants only and stays allowed
    def no_rule(*args):
        raise AssertionError("ran the rule before refusing")

    monkeypatch.setattr("flagcsm.rules.mn_csm", no_rule)
    code, got = run(["mn", "--n", "5", "--k", "2", "--u", "12345",
                     "--r", "60"])
    assert code == EXIT_DOMAIN and got == ""
    assert "up to 12765840" in capsys.readouterr().err
    monkeypatch.undo()
    code, got = run(["mn", "--n", "5", "--k", "2", "--u", "12345",
                     "--r", "60", "--equivariant", "off"])
    assert code == 0 and got.startswith("# mn n=5")


def test_grassmann_mn_refuses_many_terms_up_front(monkeypatch, capsys):
    # k = 2, n = 5, r = 60: 2 (C(60,1) + ... + C(60,4)) = 1,047,370 terms
    def no_rule(*args):
        raise AssertionError("ran the rule before refusing")

    monkeypatch.setattr("flagcsm.grassmann.parabolic_mn", no_rule)
    code, got = run(["grassmann", "--op", "mn", "--lam", "0", "--k", "2",
                     "--n", "5", "--r", "60"])
    assert code == EXIT_DOMAIN and got == ""
    assert "up to 1047370" in capsys.readouterr().err


def test_partition_graph_refuses_many_shapes_up_front(monkeypatch, capsys):
    # C(30, 15) = 155,117,520 shapes are refused before any rim hook is
    # listed; C(16, 8) = 12,870 stay allowed
    def no_hooks(*args):
        raise AssertionError("listed rim hooks before refusing")

    monkeypatch.setattr("flagcsm.grassmann.rim_hook_additions", no_hooks)
    code, got = run(["graph", "--partitions", "--k", "15", "--n", "30"])
    assert code == EXIT_DOMAIN and got == ""
    assert "up to 155117520" in capsys.readouterr().err
    monkeypatch.setattr("flagcsm.grassmann.rim_hook_additions",
                        lambda *args: [])
    code, got = run(["graph", "--partitions", "--k", "8", "--n", "16"])
    assert code == 0 and got.count(";\n") == 12870 + 1


def test_grassmann_pieri_refuses_many_shapes_up_front(monkeypatch, capsys):
    # the forward pass steps through the shapes of the k x (n-k) rectangle:
    # C(18, 9) = 48,620 are refused before the rule runs
    def no_rule(*args):
        raise AssertionError("ran the rule before refusing")

    monkeypatch.setattr("flagcsm.grassmann.parabolic_pieri", no_rule)
    code, got = run(["grassmann", "--op", "pieri", "--lam", "0", "--k", "9",
                     "--n", "18", "--alpha", "0", "--beta", "0"])
    assert code == EXIT_DOMAIN and got == ""
    assert "up to 48620" in capsys.readouterr().err
    monkeypatch.setattr("flagcsm.grassmann.parabolic_pieri",
                        lambda *args: {(): 1})
    code, got = run(["grassmann", "--op", "pieri", "--lam", "0", "--k", "8",
                     "--n", "16", "--alpha", "0", "--beta", "0"])
    assert code == 0 and got.endswith("\n0,0,0,0,0,0,0,0 1\n")


_MN = ["mn", "--n", "4", "--k", "2", "--u", "1234", "--r", "2"]


@pytest.mark.parametrize("cap, argv, bound", [
    # cycles of length 2..3 in S_4: C(4,2) + 2 C(4,3) = 14
    ("MN_MAX_CYCLES", _MN, 14),
    # each prints h_{r-m+1} on m values: 2 C(4,2) + 2 C(4,3) = 20 terms
    ("MN_MAX_TERMS", _MN, 20),
    # C(4, 2) = 6 shapes in the 2 x 2 rectangle
    ("PARTITION_GRAPH_MAX_SHAPES",
     ["graph", "--partitions", "--k", "2", "--n", "4"], 6),
    ("PARTITION_GRAPH_MAX_SHAPES",
     ["grassmann", "--op", "pieri", "--lam", "0", "--k", "2", "--n", "4",
      "--alpha", "0", "--beta", "0"], 6),
    # k (C(2,1) + C(2,2)) = 6 terms
    ("GRASSMANN_MN_MAX_TERMS",
     ["grassmann", "--op", "mn", "--lam", "0", "--k", "2", "--n", "4",
      "--r", "2"], 6),
    ("RHT_ENUMERATE_MAX_NODES",
     ["rht", "--outer", "2,2", "--r", "2", "--method", "enumerate"], 5),
    ("GRAPH_MAX_N", ["graph", "--n", "3", "--k", "1"], 3),
    ("SCAN_MAX_N", ["scan-positivity", "--n", "2"], 2),
])
def test_each_cap_admits_its_bound(monkeypatch, capsys, cap, argv, bound):
    # a cap set to an input's exact bound admits it; one less refuses it
    monkeypatch.setattr("flagcsm.cli." + cap, bound)
    code, got = run(argv)
    assert code == 0 and got
    monkeypatch.setattr("flagcsm.cli." + cap, bound - 1)
    code, got = run(argv)
    assert code == EXIT_DOMAIN and got == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_nonequivariant_table_output():
    code, got = run(["pieri", "--n", "4", "--k", "2", "--u", "1234",
                     "--alpha", "0", "--beta", "0", "--equivariant", "off"])
    assert code == 0
    lines = got.strip().splitlines()[1:]
    assert lines[0] == "diagonal 1234 0"
    for ln in lines[1:]:
        assert ln.split()[1] == "1"


def test_parser_built_once_survives_a_usage_error():
    argv = ["rht", "--outer", "3,3", "--r", "2", "--method", "all"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(
        __file__).resolve().parent.parent / "src"))
    fresh = subprocess.run([sys.executable, "-m", "flagcsm.cli"] + argv,
                           capture_output=True, text=True, check=True,
                           env=env).stdout
    with pytest.raises(SystemExit) as exc:
        main(["rht", "--outer", "3,3", "--r", "two"])
    assert exc.value.code == 2
    assert run(argv) == (0, fresh)
