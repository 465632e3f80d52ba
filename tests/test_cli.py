"""Command-line interface: verbs, formats, exit codes, determinism."""

import json

import pytest

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
