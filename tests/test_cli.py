"""Command-line interface: verbs, formats, exit codes, determinism."""

import itertools
import json
import runpy
import sys
import time

import pytest

from graphcodes import cli
from graphcodes.combinat import layer_str
from graphcodes.concat import code_family
from graphcodes.cli import main


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_construct_emits_descriptor(capsys):
    rc, out = _run(capsys, "construct", "--n", "6", "--v", "3",
                   "--k", "2", "--t", "1", "--q", "7")
    assert rc == 0
    doc = json.loads(out)
    assert doc["family"] == "JGC"
    assert doc["alphas"] == [0, 1, 2, 3, 4, 5]


def test_certify_pass_and_fail(capsys):
    rc, out = _run(capsys, "certify", "--n", "6", "--v", "3",
                   "--k", "2", "--t", "1", "--q", "7")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "anchor,status"
    assert all(line.endswith(",pass") for line in lines[1:])
    rc, out = _run(capsys, "certify", "--n", "6", "--v", "3",
                   "--k", "2", "--t", "1", "--q", "7", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] == [line.split(",")[0] for line in lines[1:]]
    assert doc["fail"] == doc["skipped"] == []
    # q < n is reported as a usage error
    rc, _ = _run(capsys, "certify", "--n", "8", "--v", "3",
                 "--k", "2", "--t", "1", "--q", "7")
    assert rc == 2


def test_dual_dimension(capsys):
    rc, out = _run(capsys, "dual", "--n", "6", "--v", "3",
                   "--k", "2", "--t", "1", "--q", "7")
    assert rc == 0
    doc = json.loads(out)
    assert doc["k"] == 4 and doc["t"] == 3


def test_tables_csv(capsys):
    rc, out = _run(capsys, "tables", "--n", "8", "--v", "5", "--k", "4")
    assert rc == 0
    assert "intersection,layers" in out
    assert "M1,M0,M,alpha,beta" in out
    assert "1120,96,1024,256,64" in out
    assert "3-2-1" in out


def test_tables_json(capsys):
    rc, out = _run(capsys, "tables", "--n", "8", "--v", "5", "--k", "4",
                   "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["parameters"]["M"] == 1024
    assert doc["balance"]["sums"] == [0, 0, 0, 0, -96]


def test_tradeoff(capsys):
    rc, out = _run(capsys, "tradeoff", "--n", "4")
    assert rc == 0
    assert out.strip().splitlines() == [
        "v,alpha_over_M,beta_over_M", "2,1/2,1/6", "3,3/8,1/4", "4,1/3,1/3"]
    rc, out = _run(capsys, "tradeoff", "--n", "4", "--format", "json")
    assert rc == 0
    assert json.loads(out) == [
        {"v": 2, "alpha_over_M": "1/2", "beta_over_M": "1/6"},
        {"v": 3, "alpha_over_M": "3/8", "beta_over_M": "1/4"},
        {"v": 4, "alpha_over_M": "1/3", "beta_over_M": "1/3"}]


def test_module_runs_as_a_script(capsys, monkeypatch):
    # python -m graphcodes.cli: the verb's status becomes the exit status;
    # the module is run afresh, as the interpreter would
    monkeypatch.delitem(sys.modules, "graphcodes.cli")
    monkeypatch.setattr(sys, "argv", ["graphcodes.cli", "tradeoff", "--n", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("graphcodes.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == "v,alpha_over_M,beta_over_M"


def test_simulate_layered(capsys):
    rc, out = _run(capsys, "simulate", "--n", "5", "--v", "3",
                   "--k", "4", "--q", "7")
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "M,alpha,beta,recovered,anchors"
    fields = row.split(",")
    assert fields[3] == fields[4] == "5"


def test_simulate_concat_deterministic(capsys):
    args = ("simulate", "--n", "6", "--v", "4", "--k", "3", "--q", "7",
            "--format", "json")
    rc1, out1 = _run(capsys, *args)
    rc2, out2 = _run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["recovered"] == doc["anchors"] == 20
    assert doc["scenario"] == "2-1"


def test_repair_verb(capsys):
    rc, out = _run(capsys, "repair", "--n", "6", "--v", "4",
                   "--k", "3", "--q", "7", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(r["exact"] for r in rows)


def test_subres_check(capsys):
    rc, out = _run(capsys, "subres-check", "--q", "7", "--trials", "25")
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header.startswith("q,trials")
    assert row.endswith(",0,0")


def test_output_file(tmp_path, capsys):
    path = str(tmp_path / "out.csv")
    rc, out = _run(capsys, "tradeoff", "--n", "4", "--out", path)
    assert rc == 0 and out == ""
    with open(path) as fh:
        assert fh.readline().strip() == "v,alpha_over_M,beta_over_M"


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--n", "6"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # Johnson codes have one vertex order, so there is no --order flag
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "6", "--v", "3", "--k", "2", "--t", "1",
              "--q", "7", "--order", "klex"])
    assert exc.value.code == 2


def test_invalid_parameters_exit_2(capsys):
    rc, _ = _run(capsys, "simulate", "--n", "8", "--v", "5",
                 "--k", "4", "--q", "7")
    assert rc == 2
    # (v, k) fits neither the concatenated nor the pure layered family
    rc, _ = _run(capsys, "simulate", "--n", "8", "--v", "3",
                 "--k", "4", "--q", "11")
    assert rc == 2
    # k must name fewer nodes than there are
    for verb in ("simulate", "repair"):
        assert main([verb, "--n", "5", "--v", "7", "--k", "6", "--q", "7"]) == 2
        assert "need 0 <= k < n, got k=6" in capsys.readouterr().err


def test_a_field_order_too_large_to_build_exits_2_at_once(capsys):
    t0 = time.perf_counter()
    assert main(["construct", "--n", "6", "--v", "3", "--k", "2", "--t", "1",
                 "--q", str(2**61 - 1)]) == 2
    assert time.perf_counter() - t0 < 1
    assert "not below 2^31" in capsys.readouterr().err


def test_empty_base_exits_2(capsys):
    # a base of k = 0 rows is empty: a ValueError, not an IndexError
    for verb in ("construct", "certify"):
        assert main([verb, "--n", "4", "--v", "2", "--k", "0", "--t", "1", "--q", "7"]) == 2
        assert "at least one row and one column" in capsys.readouterr().err


def test_tables_sections_follow_code_family(capsys):
    # the balance (and parameter and scenario) sections appear exactly
    # for the cascade; a shape out of range exits 2
    for n in range(1, 10):
        for v, k in itertools.product(range(0, n + 2), range(-1, n + 1)):
            rc, out = _run(capsys, "tables", "--n", str(n), "--v", str(v),
                           "--k", str(k), "--format", "json")
            try:
                family = code_family(n, v, k)
            except ValueError:
                assert (rc, out) == (2, "")
                continue
            assert rc == 0
            doc = json.loads(out)
            assert ("balance" in doc) == ("parameters" in doc) == (family == "concat")


def test_tables_of_the_pure_layered_shape_v_equals_n(capsys):
    # (6, 6, 5) is the pure layered code, as simulate builds it, so no
    # cascade scenario row is printed
    rc, out = _run(capsys, "tables", "--n", "6", "--v", "6", "--k", "5")
    assert (rc, out) == (0, "intersection,layers\n5,1\n")
    assert main(["tables", "--n", "5", "--v", "2", "--k", "7"]) == 2
    assert "need 0 <= k < n, got k=7" in capsys.readouterr().err


SIMULATE = ("--n", "6", "--v", "4", "--k", "3", "--q", "7", "--format", "json")


def test_simulate_wrong_blob_exits_1(capsys, monkeypatch):
    def collect(state, A):
        blob = real(state, A)
        return blob[:-1] + [(blob[-1] + 1) % 7] if A == (1, 3, 5) else blob

    real = cli.collect
    monkeypatch.setattr(cli, "collect", collect)
    rc, out = _run(capsys, "simulate", *SIMULATE)
    doc = json.loads(out)
    assert rc == 1
    assert (doc["recovered"], doc["anchors"]) == (19, 20)
    assert doc["failures"] == [layer_str((1, 3, 5), 6)]


def test_inexact_repair_exits_1(capsys, monkeypatch):
    def repair_node(state, failed):
        out = real(state, failed)
        if failed == 2:
            out.nodes[2][0] = (out.nodes[2][0] + 1) % 7
        return out

    real = cli.repair_node
    monkeypatch.setattr(cli, "repair_node", repair_node)
    rc, out = _run(capsys, "repair", *SIMULATE)
    rows = json.loads(out)
    assert rc == 1
    assert [r["exact"] for r in rows] == [True, True, False, True, True, True]


@pytest.mark.parametrize("value", [0, 1])
def test_subresultant_failures_exit_1(capsys, monkeypatch, value):
    # 0 breaks the criterion where the gcd has degree i, 1 where it has
    # a larger degree; over GF(3) both happen within 40 trials
    monkeypatch.setattr(cli, "principal_subresultant", lambda F, p, q, i: value)
    rc, out = _run(capsys, "subres-check", "--q", "3", "--trials", "40",
                   "--format", "json")
    doc = json.loads(out)
    assert rc == 1
    assert doc["gcd_criterion_failures"] > 0 and doc["identity_failures"] == 0


def test_identity_failures_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sh_identity_check", lambda *args, **kw: False)
    rc, out = _run(capsys, "subres-check", "--q", "7", "--trials", "25")
    assert rc == 1
    assert out.strip().splitlines()[1] == "7,25,0,25"
