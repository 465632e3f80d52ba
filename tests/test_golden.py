"""Golden CLI output: exact stdout and exit code of fixed commands.

The expected stdout of each case is tests/golden/<name>.out.  After an
intended output change, regenerate a file with, for example,
``graphcodes tradeoff --n 4 --seed 0 > tests/golden/tradeoff.out``.
"""

import os

import pytest

from graphcodes.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CODE = ["--n", "6", "--v", "3", "--k", "2", "--t", "1", "--q", "7"]

CASES = {
    "construct": ["construct"] + CODE,
    "certify": ["certify"] + CODE,
    "dual": ["dual"] + CODE,
    "tables_csv": ["tables", "--n", "8", "--v", "5", "--k", "4"],
    "tables_json": ["tables", "--n", "8", "--v", "5", "--k", "4",
                    "--format", "json"],
    "tradeoff": ["tradeoff", "--n", "4"],
    "subres_check": ["subres-check", "--q", "13"],
    "simulate_concat": ["simulate", "--n", "6", "--v", "4", "--k", "3",
                        "--q", "7"],
    "simulate_acceptance": ["simulate", "--n", "8", "--v", "5", "--k", "4",
                            "--q", "11"],
    "simulate_layered": ["simulate", "--n", "6", "--v", "3", "--k", "5",
                         "--q", "11"],
    "repair_layered": ["repair", "--n", "6", "--v", "3", "--k", "5",
                       "--q", "11"],
    "repair_concat": ["repair", "--n", "8", "--v", "5", "--k", "4",
                      "--q", "11"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    rc = main(CASES[name] + ["--seed", "0"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, f"{name}.out")) as fh:
        assert out == fh.read()
    assert rc == 0
