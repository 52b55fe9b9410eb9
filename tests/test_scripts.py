"""Smoke tests: each experiment script's main() on tiny arguments."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_degree_survey(capsys):
    assert load("degree_survey").main(["--order-cap", "8"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "spec\torder\tndeg"
    assert "Sym(3)\t6\t1/2" in lines and "Q(3)\t8\t1/1" in lines
    assert "dedekind:" in err


def test_degree_survey_rejects_empty_catalog(capsys):
    with pytest.raises(SystemExit) as exc:
        load("degree_survey").main(["--order-cap", "0"])
    assert exc.value.code == 2
    assert "catalog cap must be positive" in capsys.readouterr().err


def test_bound_tightness(capsys):
    assert load("bound_tightness").main(["--primes", "3,2", "--n-max", "7"]) == 0
    out, err = capsys.readouterr()
    triples = [tuple(line.split("\t")[:3]) for line in out.splitlines()[1:]]
    # every valid SDP(p,n,k0) with n <= 7, in the order the primes were given
    assert triples == [("3", "7", "2"), ("3", "7", "4"), ("2", "3", "2"),
                       ("2", "5", "4"), ("2", "7", "6")]
    assert "5 parameter triples" in err


def test_bound_tightness_rejects_composite_twist_order(capsys):
    with pytest.raises(SystemExit) as exc:
        load("bound_tightness").main(["--primes", "4"])
    assert exc.value.code == 2
    assert "prime" in capsys.readouterr().err


def test_convergence_race(capsys):
    race = load("convergence_race")
    assert race.main(["--depth", "2", "--n-limit", "50"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows == [["family", "limit", "1e-1", "1e-2"],
                    ["M(3^n)", "1", "9", ">limit"],
                    ["Dih 2-groups", "0", "7", "11"],
                    ["Q 2-groups", "0", "8", "12"],
                    ["SD 2-groups", "0", "7", "11"]]
