"""Tests for the command-line interface: output shape and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import normdeg.cli
from normdeg import explorer, groups
from normdeg.cli import (
    EXIT_CAP,
    EXIT_CONSTRAINT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from normdeg.groups import sdp_counts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tsv_rows(out):
    lines = [line for line in out.splitlines() if line]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_process(*argv):
    """(exit code, stdout, stderr) of a fresh normdeg process with 2 GiB of
    address space and 20 s to answer, so that work without bound fails the
    test instead of hanging the suite or filling the memory."""
    result = subprocess.run([sys.executable, "-m", "normdeg.cli", *argv],
                            capture_output=True, text=True, timeout=20,
                            preexec_fn=_limit_memory)
    return result.returncode, result.stdout, result.stderr


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

    @pytest.mark.parametrize("spec", ["C(4096) x C(1)", "Dih(2000)"])
    def test_cap_is_checked_before_the_table_is_built(self, capsys, monkeypatch, spec):
        def build(spec):
            raise AssertionError("build called past the cap")

        monkeypatch.setattr(explorer, "build", build)
        code, _, err = run_cli(capsys, "compute", "--spec", spec,
                               "--method", "brute")
        assert code == EXIT_CAP
        assert err.startswith("cap exceeded: group order ")

    def test_formula_route_needs_no_cap(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--spec", "C(600)",
                               "--cap", "100")
        assert code == EXIT_OK
        assert tsv_rows(out)[0]["lattice_size"] == "24"

    @pytest.mark.parametrize("cap, message", [
        ("-1", "argument --cap: must be >= 0, got -1"),
        ("abc", "argument --cap: invalid int value: 'abc'"),
    ])
    def test_bad_cap_is_a_usage_error(self, capsys, cap, message):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--spec", "C(4)", "--cap", cap])
        assert exc.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_repeated_calls_share_no_arguments(self, capsys):
        # the parser is built once per process; each call parses afresh
        _, out, _ = run_cli(capsys, "compute", "--spec", "Dih(3)", "--sd",
                            "--method", "brute")
        assert tsv_rows(out)[0]["sd"] == "5/6"
        _, out, _ = run_cli(capsys, "compute", "--spec", "Dih(3)")
        assert tsv_rows(out)[0]["sd"] == "-"
        assert tsv_rows(out)[0]["method"] == "formula"

    def test_bad_spec_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--spec", "Dih(")
        assert code == EXIT_USAGE
        assert err

    def test_invalid_parameters_are_a_constraint_error(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "--spec", "SDP(4,7,2)")
        assert code == EXIT_CONSTRAINT

    def test_order_past_the_digit_limit_is_a_constraint_error(self, capsys, tmp_path):
        # 2^100000 has more digits than Python converts to a string
        path = tmp_path / "runs.jsonl"
        code, out, err = run_cli(capsys, "compute", "--spec", "M(2,100000)",
                                 "--ledger", str(path))
        assert code == EXIT_CONSTRAINT
        assert out == ""
        assert err.startswith("constraint violation: ")
        assert len(err.splitlines()) == 1
        assert not path.exists()

    def test_parameter_past_the_digit_limit_is_a_constraint_error(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--spec", f"C({'1' * 5000})")
        assert code == EXIT_CONSTRAINT
        assert out == ""
        assert err == ("constraint violation: spec parameter too long to read: "
                       "5000 digits at position 2\n")

    def test_order_past_the_digit_limit_over_the_cap(self, capsys):
        # the order of a product that no closed form covers, in the cap message
        code, out, err = run_cli(capsys, "compute", "--spec", "EA(997,999) x EA(997,999)")
        assert code == EXIT_CAP
        assert out == ""
        assert err == "cap exceeded: group order of 19903 bits exceeds enumeration cap 512\n"

    @pytest.mark.parametrize("argv", [
        ("M(3,100000000)",),
        ("SD(100000000000)",),
        ("EA(3,100000000)", "--method", "brute"),  # the cap check computed 3^10^8
        ("M(2,10000000000)",),  # a 1.25 GB order: MemoryError
    ])
    def test_power_order_is_refused_before_it_is_computed(self, argv):
        code, out, err = run_process("compute", "--spec", *argv)
        assert code == EXIT_CONSTRAINT
        assert out == ""
        assert err.startswith("constraint violation: group order too long to print: ")

    def test_zm_sums_over_a_long_period(self):
        # 5 is a primitive root mod 10^9 + 7: its powers have period 10^9 + 6
        code, out, _ = run_process("compute", "--spec", "ZM(1000000007,1000000006,5)")
        assert code == EXIT_OK
        assert tsv_rows(out)[0]["lattice_size"] == "3000000026"

    @pytest.mark.parametrize("method", ["brute", "conjugacy"])
    def test_lattice_methods_compute_no_closed_form(self, method):
        # the closed form would factor 10^88 + 9, which has two large prime
        # factors; the lattice routes meet the cap first
        code, out, err = run_process("compute", "--spec", f"Dih({10**88 + 9})",
                                     "--method", method)
        assert code == EXIT_CAP
        assert out == ""
        assert err.startswith("cap exceeded: ")

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


ARITY = {"C": 1, "Dih": 1, "Q": 1, "SD": 1, "M": 2, "Sym": 1, "SDP": 3, "ZM": 3, "EA": 2}


@st.composite
def spec_texts(draw) -> str:
    """Spec text from the grammar: known and unknown names, 0-4 parameters
    below 1000 (small ones and a name's own arity most often, so that many
    specs name a group), 1-3 terms, sometimes stray punctuation."""
    def term() -> str:
        name = draw(st.sampled_from([*ARITY, "Foo", "c", "x"]))
        count = draw(st.sampled_from([ARITY.get(name, 1)] * 4 + [0, 1, 2, 3, 4]))
        params = draw(st.lists(st.integers(1, 9) | st.integers(0, 999),
                               min_size=count, max_size=count))
        return f"{name}({','.join(map(str, params))})"

    text = " x ".join(term() for _ in range(draw(st.integers(1, 3))))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("(),x;- ")) + text[at:]
    return text


class TestComputeFuzz:
    @given(spec=spec_texts(), sd=st.booleans())
    @example(spec=f"C({'1' * 5000})", sd=False)
    @example(spec="EA(997,999) x EA(997,999)", sd=True)
    @settings(max_examples=300, deadline=None)
    def test_every_spec_ends_in_a_documented_exit_code(self, spec, sd):
        argv = ["compute", f"--spec={spec}", "--cap", "64"] + (["--sd"] if sd else [])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in {EXIT_OK, EXIT_USAGE, EXIT_CONSTRAINT, EXIT_CAP}


def _exponents():
    """1 to 10^18, small enough for a printable order about half the time."""
    return st.integers(1, 64) | st.integers(1, 20_000) | st.integers(1, 10**18)


@st.composite
def _zm_primes(draw) -> str:
    q = sympy.prevprime(draw(st.integers(4, 10**9)))
    return f"ZM({q},{q - 1},{draw(st.integers(2, q - 1))})"


@st.composite
def _zm_inversions(draw) -> str:
    m = 2 * draw(st.integers(0, 10**17)) + 1
    n = 2 * draw(st.integers(1, (10**18 - 1) // (2 * m)))
    assume(gcd(m, n) == 1)
    return f"ZM({m},{n},{m - 1})"


def formula_specs():
    """Specs of every family with a closed form, parameters up to 10^18."""
    below = st.integers(0, 10**18 - 1)
    odd = st.integers(0, 10**18 // 2 - 1).map(lambda k: 2 * k + 1)
    return st.one_of(
        below.map("C({})".format), below.map("Dih({})".format),
        _exponents().map("Q({})".format), _exponents().map("SD({})".format),
        st.builds("M({},{})".format, st.sampled_from([2, 3, 5, 97, 10**9 + 7]),
                  _exponents()),
        odd.map(lambda n: f"SDP(2,{n},{n - 1})"), _zm_primes(), _zm_inversions())


class TestFormulaFuzz:
    @given(spec=formula_specs())
    @example(spec="M(3,100000000)")
    @example(spec="SD(100000000000)")
    @example(spec="M(2,10000000000)")
    @example(spec="EA(3,100000000)")
    @example(spec="Q(1000000000000000000)")
    @example(spec="ZM(1000003,1000002,2)")
    @example(spec="ZM(1000000007,1000000006,5)")
    @example(spec="ZM(999999937,999999936,2)")
    @example(spec="SDP(2,999999999999999999,999999999999999998)")
    @settings(max_examples=40, deadline=None)
    def test_answers_or_refuses(self, spec):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["compute", "--spec", spec])
        assert code in {EXIT_OK, EXIT_CONSTRAINT}
        assert (code == EXIT_OK) == bool(out.getvalue())  # no partial table


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

    def test_everything_beyond_cap_compares_nothing(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "dihedral",
                                 "--cap", "0")
        assert code == EXIT_CAP
        assert tsv_rows(out) == []
        assert "0 comparisons, 0 mismatches, 58 tuples beyond cap" in err

    def test_cap_comes_before_the_closed_form(self):
        # the closed form would factor 10^88 + 9, which has two large prime
        # factors; the tuple meets the cap first, so nothing is compared
        n = 10 ** 88 + 9
        code, out, err = run_process("verify", "--family", "dihedral",
                                     "--range", f"n={n}..{n}")
        assert code == EXIT_CAP
        assert tsv_rows(out) == []
        assert err == "0 comparisons, 0 mismatches, 1 tuples beyond cap\n"

    def test_orders_too_long_to_print_are_beyond_cap(self, capsys):
        # M(2, n) for n >= 14285 is refused before its order is computed
        code, out, err = run_cli(capsys, "verify", "--family", "mpn",
                                 "--range", "p=2..2,n=3..20000")
        assert code == EXIT_OK
        assert len(tsv_rows(out)) == 12
        assert "12 comparisons, 0 mismatches, 19991 tuples beyond cap" in err

    def test_negative_cap_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "sdp", "--cap", "-5"])
        assert exc.value.code == EXIT_USAGE
        assert "--cap" in capsys.readouterr().err

    def test_empty_range_compares_nothing(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "dihedral",
                                 "--range", "n=12..3")
        assert code == EXIT_USAGE
        assert tsv_rows(out) == []
        assert "0 comparisons, 0 mismatches, 0 tuples beyond cap" in err

    def test_mismatch_sets_exit_code(self, capsys, monkeypatch):
        wrong = groups._FAMILIES["SDP"]._replace(
            counts=lambda p, n, k0: (999, sdp_counts(p, n, k0)[1]))
        monkeypatch.setitem(groups._FAMILIES, "SDP", wrong)
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

    def test_steps_past_the_sieve_bound_fail_before_any_step(self, capsys):
        code, out, err = run_cli(capsys, "density", "--target", "1/2",
                                 "--steps", "4000000")
        assert code == EXIT_CAP
        assert out == ""
        assert err == ("prime sieve limit: prime index 4000000 beyond sieve "
                       "bound 67108864\n")

    def test_value_past_the_digit_limit_is_a_constraint_error(self, capsys):
        code, out, err = run_cli(capsys, "density", "--target", "1/1000",
                                 "--steps", "1")
        assert code == EXIT_CONSTRAINT
        assert out == ""
        assert err.startswith("constraint violation: ")
        assert len(err.splitlines()) == 1


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
        # a double's exact expansion ends by digit 1074, the most allowed
        code, out, _ = run_cli(capsys, "limits", "--family", "mpn",
                               "--n-max", "4", "--decimals", "1074")
        assert code == EXIT_OK
        assert Fraction(tsv_rows(out)[0]["approx"]) == Fraction(0.7)

    # past digit 1074 only zeros would follow, 3 GB of them for the last
    @pytest.mark.parametrize("decimals", ["-1", "1075", "3000000000"])
    def test_negative_decimals_is_a_usage_error(self, capsys, decimals):
        with pytest.raises(SystemExit) as exc:
            main(["limits", "--family", "mpn", "--decimals", decimals])
        assert exc.value.code == EXIT_USAGE
        assert "--decimals" in capsys.readouterr().err

    def test_value_past_the_digit_limit_writes_no_row(self, capsys):
        # ndeg(Q(n)) passes 4300 digits at n = 14285: no partial table
        code, out, err = run_cli(capsys, "limits", "--family", "quaternion2n",
                                 "--n-max", "15000")
        assert code == EXIT_CONSTRAINT
        assert out == ""
        assert err.startswith("constraint violation: exact value too long to print")
        assert len(err.splitlines()) == 1

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
