"""Tests of the benchmark harness itself: `python3 -m pytest -q benchmark/test_benchmark.py`."""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# the cheapest op of each workload
SMOKE_OPS = {"sweep": "mpn", "compute": "Sym(3)", "sd": "Sym(4) x C(2)"}


@pytest.fixture
def cli():
    return run.import_package()  # whatever set_up last imported


def _op(workload: str, key: str) -> tuple[dict, dict]:
    entry, headers = run.load_workload(workload)
    op = next(op for op in entry["ops"] if op["key"] == key)
    return copy.deepcopy(op), headers


def _run(cli, ops: list[dict], headers: dict) -> run.Tally:
    tally = run.Tally()
    run.run_pass(cli, ops, headers, random.Random(0), tally)
    return tally


@pytest.mark.parametrize("workload", sorted(SMOKE_OPS))
def test_smoke_one_op_per_workload(cli, workload):
    op, headers = _op(workload, SMOKE_OPS[workload])
    tally = _run(cli, [op], headers)
    assert (tally.attempted, tally.failed) == (1, 0), tally.messages


@pytest.mark.parametrize("workload, field, index, value", [
    ("compute", "row", 4, "1/3"),    # Sym(3): ndeg is 1/2
    ("sd", "row", 5, "1/1"),         # Sym(4) x C(2): sd is 2561/4802
    ("sweep", "rows", None, 21),     # mpn: 22 rows, so a shrunk grid
])
def test_tampered_expected_value_is_a_failure(cli, workload, field, index, value):
    op, headers = _op(workload, SMOKE_OPS[workload])
    good = copy.deepcopy(op)
    if index is None:
        op["expect"][field] = value
    else:
        op["expect"][field][index] = value
    tally = _run(cli, [good, op], headers)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed / tally.attempted == 0.5  # the fail_ratio reported
    assert tally.messages and tally.messages[0].startswith(op["key"])


def test_nonzero_exit_is_a_failure(cli):
    op, headers = _op("compute", "Sym(3)")
    op["argv"] = ["compute", "--spec", "Sym(9)"]  # beyond the order cap
    tally = _run(cli, [op], headers)
    assert tally.failed == 1 and "exit code" in tally.messages[0]


def test_traced_op_reports_every_layer_metric(cli):
    entry, headers = run.load_workload("sd")
    ops = [op for op in entry["ops"] if op["key"] == SMOKE_OPS["sd"]]
    tracer = Tracer()
    tracer.install()
    try:
        tally = _run(cli, ops, headers)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    from normdeg import cli as cli_module, groups
    assert not hasattr(cli_module.build, "__wrapped__")
    assert isinstance(groups.GroupTable.__dict__["rows"], property)

    metrics = layer_metrics(tracer.spans, passes=1)
    expected = set(run.PER_LAYER_UNITS) - {"trace.overhead_ratio", "src.lines"}
    assert set(metrics) == expected
    assert metrics["cli.main.s"] > metrics["cli.self_s"] > 0
    assert metrics["lattice.enumerate_subgroups.calls"] == 1
    assert metrics["lattice.enumerate_subgroups.subgroups"] == 98
    assert metrics["degrees.sd_brute.pairs"] == 98 * 99 // 2
    assert metrics["groups.build.elements"] == 48
    # cli.main is the root; everything else has a parent inside the same op
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    assert all(s[4] == roots[0][4] for s in tracer.spans)


def test_set_up_imports_the_package_afresh(cli):
    seconds, fresh, entry, headers = run.set_up("sd")
    assert 0 < seconds < 30
    assert fresh is not cli and fresh.__name__ == "normdeg.cli"
    assert len(entry["ops"]) == 8 and set(headers) == {"compute", "verify"}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        bench["command"] + ["--workload", "sd", "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
