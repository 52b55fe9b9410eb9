"""Tests for the command-line interface: output shape and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest

import normdeg.cli
from normdeg import explorer
from normdeg.cli import (
    EXIT_CAP,
    EXIT_CONSTRAINT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from normdeg.formulas import sdp_counts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tsv_rows(out):
    lines = [line for line in out.splitlines() if line]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


class TestCompute:
    def test_basic_report(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--spec", "Sym(3)")
        assert code == EXIT_OK
        (row,) = tsv_rows(out)
        assert row["spec"] == "Sym(3)"
        assert row["order"] == "6"
        assert row["lattice_size"] == "6"
        assert row["normal_count"] == "3"
        assert row["ndeg"] == "1/2"
        assert row["method"] == "brute"

    def test_auto_prefers_formula(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--spec", "M(5,4)")
        assert code == EXIT_OK
        (row,) = tsv_rows(out)
        assert row["ndeg"] == "3/4"
        assert row["method"] == "formula"

    def test_methods_agree_on_modular_625(self, capsys):
        _, out_formula, _ = run_cli(capsys, "compute", "--spec", "M(5,4)",
                                    "--method", "formula")
        _, out_brute, _ = run_cli(capsys, "compute", "--spec", "M(5,4)",
                                  "--method", "brute", "--cap", "1024")
        keys = ("lattice_size", "normal_count", "ndeg")
        formula_row = tsv_rows(out_formula)[0]
        brute_row = tsv_rows(out_brute)[0]
        assert [formula_row[k] for k in keys] == [brute_row[k] for k in keys]

    def test_conjugacy_method(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--spec", "Sym(4)",
                               "--method", "conjugacy")
        assert code == EXIT_OK
        assert tsv_rows(out)[0]["ndeg"] == "2/15"

    def test_sd_column(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--spec", "Sym(3)", "--sd")
        assert code == EXIT_OK
        (row,) = tsv_rows(out)
        assert row["sd"] == "5/6"

    def test_product_spec(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--spec", "Sym(3) x C(2)")
        assert code == EXIT_OK
        assert tsv_rows(out)[0]["ndeg"] == "7/16"

    def test_ledger_side_channel(self, capsys, tmp_path):
        path = tmp_path / "runs.jsonl"
        code, _, _ = run_cli(capsys, "compute", "--spec", "Dih(4)",
                             "--ledger", str(path))
        assert code == EXIT_OK
        record = json.loads(path.read_text().splitlines()[0])
        assert record["spec"] == "Dih(4)"
        assert record["ndeg"] == "3/5"

    def test_unwritable_ledger_is_reported(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "compute", "--spec", "C(2)",
                                 "--ledger", str(tmp_path))
        assert code == EXIT_USAGE
        assert tsv_rows(out)[0]["ndeg"] == "1/1"
        assert err.startswith("cannot write ledger: ")
        assert "Traceback" not in err

    def test_formula_method_without_closed_form(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--spec", "EA(2,3)",
                               "--method", "formula")
        assert code == EXIT_CONSTRAINT
        assert "brute" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--spec", "C(600)",
                               "--method", "brute", "--cap", "100")
        assert code == EXIT_CAP
        assert err

    def test_formula_route_needs_no_cap(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--spec", "C(600)",
                               "--cap", "100")
        assert code == EXIT_OK
        assert tsv_rows(out)[0]["lattice_size"] == "24"

    def test_bad_spec_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--spec", "Dih(")
        assert code == EXIT_USAGE
        assert err

    def test_invalid_parameters_are_a_constraint_error(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "--spec", "SDP(4,7,2)")
        assert code == EXIT_CONSTRAINT

    @pytest.mark.parametrize("argv", [
        ("--method", "brute"), ("--method", "formula", "--sd"),
    ])
    def test_elapsed_ms_covers_the_whole_pipeline(self, capsys, monkeypatch, argv):
        # one clock reading before parsing and one after sd: 165 ms apart
        readings = iter([10.0, 10.1655])
        monkeypatch.setattr(normdeg.cli, "perf_counter", lambda: next(readings))
        code, out, _ = run_cli(capsys, "compute", "--spec", "Dih(4)", *argv)
        assert code == EXIT_OK
        assert tsv_rows(out)[0]["elapsed_ms"] == "165"


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "sdp",
                                 "--range", "p=2..3,n=2..10")
        assert code == EXIT_OK
        rows = tsv_rows(out)
        assert rows and all(r["formula"] == r["brute"] for r in rows)
        assert all(r["status"] == "ok" for r in rows)
        assert "0 mismatches" in err

    def test_cap_skips_are_reported(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "dihedral",
                               "--range", "n=3..12", "--cap", "16")
        assert code == EXIT_OK
        assert "beyond cap" in err

    def test_mismatch_sets_exit_code(self, capsys, monkeypatch):
        sdp = explorer._GRIDS["sdp"]
        wrong = explorer._sizes(lambda p, n, k0: (999, sdp_counts(p, n, k0)[1]))
        monkeypatch.setitem(explorer._GRIDS, "sdp", sdp._replace(checks=wrong))
        code, out, err = run_cli(capsys, "verify", "--family", "sdp",
                                 "--range", "p=2..2,n=3..3")
        assert code == EXIT_MISMATCH
        bad = [r for r in tsv_rows(out) if r["status"] != "ok"]
        assert bad and bad[0]["formula"] == "999"
        assert "1 mismatches" in err

    def test_bad_range_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--family", "sdp",
                             "--range", "p=x..3")
        assert code == EXIT_USAGE


class TestDensity:
    def test_rows_and_exact_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--target", "3/7",
                               "--steps", "4")
        assert code == EXIT_OK
        rows = tsv_rows(out)
        assert len(rows) == 4
        gaps = [Fraction(r["gap"]) for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < Fraction(1, 100)
        assert all("/" in r["ndeg"] for r in rows)

    def test_group_column_joins_factors(self, capsys):
        _, out, _ = run_cli(capsys, "density", "--target", "3/7", "--steps", "1")
        assert tsv_rows(out)[0]["group"] == \
               "M(11,5) x M(13,6) x M(17,7) x M(19,8)"

    def test_bad_target_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--target", "x/y")
        assert code == EXIT_USAGE

    def test_target_outside_unit_interval_is_a_constraint_error(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--target", "5/3")
        assert code == EXIT_CONSTRAINT


class TestConjecture43:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture43", "--a-max", "3",
                               "--order-cap", "200")
        assert code == EXIT_OK
        rows = tsv_rows(out)
        assert [r["a"] for r in rows] == ["1", "2", "3"]
        assert rows[0]["criterion_witness"] == "none found"
        assert rows[0]["catalog_witness"] == "Sym(3)"
        assert rows[2]["criterion_witness"] == "M(5,4)"
        assert rows[2]["catalog_witness"] == "ZM(3,16,2)"


class TestLimits:
    def test_modular_table(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--family", "mpn",
                               "--n-max", "6")
        assert code == EXIT_OK
        rows = tsv_rows(out)
        assert [r["n"] for r in rows] == ["3", "4", "5", "6"]
        assert rows[0]["ndeg"] == "7/10"

    def test_decimals_column(self, capsys):
        _, out, _ = run_cli(capsys, "limits", "--family", "mpn",
                            "--n-max", "4", "--decimals", "3")
        rows = tsv_rows(out)
        assert rows[0]["approx"] == "0.700"

    def test_negative_decimals_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["limits", "--family", "mpn", "--decimals", "-1"])
        assert exc.value.code == EXIT_USAGE
        assert "--decimals" in capsys.readouterr().err

    def test_two_group_families(self, capsys):
        for family in ("dihedral2n", "quaternion2n", "semidihedral2n"):
            code, out, _ = run_cli(capsys, "limits", "--family", family,
                                   "--n-max", "8")
            assert code == EXIT_OK
            rows = tsv_rows(out)
            values = [Fraction(r["ndeg"]) for r in rows]
            assert values[-1] < Fraction(1, 2)


class TestLedgerCommand:
    def test_summarize(self, capsys, tmp_path):
        path = tmp_path / "runs.jsonl"
        for spec in ("Sym(3)", "Dih(4)"):
            assert main(["compute", "--spec", spec,
                         "--ledger", str(path)]) == EXIT_OK
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "ledger", "summarize", str(path))
        assert code == EXIT_OK
        assert "records\t-\t2" in out
        assert "ndeg\t1/2\t1" in out

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "ledger", "summarize",
                               str(tmp_path / "absent.jsonl"))
        assert code == EXIT_USAGE
        assert err


class TestTopLevel:
    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_console_script_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "from normdeg.cli import main; raise SystemExit(main())",
             "compute", "--spec", "Q(3)"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == EXIT_OK
        assert "\t1/1\t" in result.stdout
