"""Generate benchmark/expected.json: the workload corpora and their answers.

Run once from the repository root, `python3 benchmark/make_expected.py`;
the benchmark itself only reads the JSON it writes.  Every answer is
cross-checked before it is frozen:

- brute force against the conjugacy-class route on every group,
- the closed form against brute force wherever both exist,
- known subgroup counts from OEIS: |L(Sym(5))| = 156 (A005432) and
  |L(EA(2,5))| = 374 (A006116),
- sd against ndeg <= sd <= 1 with sd = 1 exactly when ndeg = 1, and against
  a naive product-set test (HK = KH) on the groups small enough for it,
- every verify grid against zero mismatches and the library's own row count.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
from tracer import Tracer

# the fifty-group acceptance-3 corpus (tests/test_acceptance.py), frozen here
ACCEPTANCE_3 = [
    "C(1)", "C(2)", "C(6)", "C(12)", "C(30)", "C(36)", "C(100)", "C(128)",
    "EA(2,2)", "EA(2,3)", "EA(2,4)", "EA(3,2)", "EA(3,3)", "EA(5,2)",
    "Sym(3)", "Sym(4)",
    "Dih(3)", "Dih(4)", "Dih(5)", "Dih(6)", "Dih(7)", "Dih(8)", "Dih(9)",
    "Dih(10)", "Dih(12)", "Dih(15)", "Dih(16)", "Dih(24)",
    "Q(3)", "Q(4)", "Q(5)",
    "SD(4)", "SD(5)",
    "M(2,4)", "M(2,5)", "M(3,3)", "M(3,4)", "M(5,3)",
    "SDP(3,7,2)", "SDP(2,15,4)", "SDP(5,11,3)", "SDP(3,28,9)", "SDP(2,21,8)",
    "ZM(5,4,2)", "ZM(13,4,5)", "ZM(7,3,2)", "ZM(3,16,2)",
    "Sym(3) x C(2)", "Q(3) x C(3)", "Dih(4) x C(3)",
]
# lattices of 156 to 937 subgroups with no closed form: the join closure's
# quadratic cost shows here
LARGE_LATTICES = [
    "Sym(5)", "EA(2,5)", "C(4) x EA(2,4)", "Dih(8) x C(2) x C(2)",
    "Dih(4) x Dih(4)", "Dih(4) x EA(2,3)", "Dih(6) x Dih(6)",
    "Sym(4) x EA(2,2)",
]
# large order, small lattice: per-element costs dominate enumeration
LARGE_ORDERS = ["Dih(128)", "SD(9)", "Q(9)"]
SD_SPECS = [
    "Sym(5)", "Dih(128)", "SD(9)", "Dih(8) x C(2) x C(2)", "EA(2,5)",
    "Dih(4) x Dih(4)", "EA(3,4)", "Sym(4) x C(2)",
]
VERIFY_FAMILIES = ["sdp", "dihedral", "zm", "mpn", "dihedral2n",
                   "quaternion2n", "semidihedral2n", "abelian2"]
OEIS_LATTICE_SIZES = {"Sym(5)": 156, "EA(2,5)": 374}
NAIVE_SD_MAX_ORDER = 120

COMPUTE_HEADER = ["spec", "order", "lattice_size", "normal_count", "ndeg",
                  "sd", "method", "elapsed_ms"]
VERIFY_HEADER = ["family", "params", "check", "formula", "brute", "status"]


def _naive_sd(G, lat) -> Fraction:
    """sd from product sets: HK is a subgroup exactly when HK = KH."""
    rows = G.rows
    elems = [s.elements() for s in lat.subgroups]
    good = 0
    for i, h_elems in enumerate(elems):
        for k_elems in elems:
            hk = kh = 0
            for h in h_elems:
                row = rows[h]
                for k in k_elems:
                    hk |= 1 << row[k]
                    kh |= 1 << rows[k][h]
            good += hk == kh
    return Fraction(good, len(elems) ** 2)


def _check(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"cross-check failed: {what}")


def group_answer(spec: str, method: str, sd: bool) -> list[str]:
    """Expected TSV row (without elapsed_ms) for `normdeg compute`, cross-checked."""
    from normdeg.degrees import ndeg_brute, ndeg_conjugacy, sd_brute
    from normdeg.formulas import formula_counts
    from normdeg.groups import build, parse_spec
    from normdeg.lattice import enumerate_subgroups
    from normdeg.numtheory import format_ratio

    G = build(spec)
    lat = enumerate_subgroups(G)
    brute = ndeg_brute(G, spec_text=spec, lattice=lat)
    conj = ndeg_conjugacy(G, spec_text=spec, lattice=lat)
    _check((conj.lattice_size, conj.normal_count, conj.ndeg)
           == (brute.lattice_size, brute.normal_count, brute.ndeg),
           f"{spec}: conjugacy route disagrees with brute force")
    counts = formula_counts(spec)
    if counts is not None:
        _check(counts == (brute.lattice_size, brute.normal_count),
               f"{spec}: closed form disagrees with brute force")
    if spec in OEIS_LATTICE_SIZES:
        _check(brute.lattice_size == OEIS_LATTICE_SIZES[spec],
               f"{spec}: lattice size differs from OEIS")
    sd_text = "-"
    if sd:
        value = sd_brute(G, lattice=lat)
        _check(brute.ndeg <= value <= 1, f"{spec}: ndeg <= sd <= 1 fails")
        _check((value == 1) == (brute.ndeg == 1),
               f"{spec}: sd = 1 must hold exactly for Dedekind groups")
        if G.order <= NAIVE_SD_MAX_ORDER:
            _check(value == _naive_sd(G, lat),
                   f"{spec}: sd differs from the product-set count")
        sd_text = format_ratio(value)
    if method == "auto":
        method = "formula" if counts is not None else "brute"
    return [parse_spec(spec).render(), str(G.order), str(brute.lattice_size),
            str(brute.normal_count), format_ratio(brute.ndeg), sd_text, method]


def sweep_answer(cli, family: str) -> tuple[int, dict]:
    """(groups enumerated, expected verify output) for one family grid."""
    from normdeg.explorer import verify_grid

    tracer = Tracer()
    tracer.install()
    try:
        rc, out, _err = run.call(cli, ["verify", "--family", family])
    finally:
        tracer.uninstall()
    lines = out.splitlines()
    _check(rc == 0, f"verify {family}: exit {rc}")
    _check(all(line.endswith("\tok") for line in lines[1:]),
           f"verify {family}: mismatches")
    _check(len(lines) - 1 == len(verify_grid(family)[0]),
           f"verify {family}: row count differs from verify_grid")
    groups = sum(1 for s in tracer.spans if s[0] == "lattice.enumerate_subgroups")
    return groups, {"rows": len(lines) - 1, "sha256": run.digest(out)}


def main() -> None:
    cli = run.import_package()

    def compute_op(spec: str, method: str, sd: bool = False) -> dict:
        argv = ["compute", "--spec", spec, "--method", method]
        if sd:
            argv.append("--sd")
        return {"key": spec, "argv": argv, "groups": 1,
                "expect": {"row": group_answer(spec, method, sd)}}

    compute = ([compute_op(s, "auto") for s in ACCEPTANCE_3 + LARGE_LATTICES]
               + [compute_op(s, "brute") for s in LARGE_ORDERS])
    sd = [compute_op(s, "conjugacy", sd=True) for s in SD_SPECS]
    sweep = []
    for family in VERIFY_FAMILIES:
        groups, expect = sweep_answer(cli, family)
        sweep.append({"key": family, "argv": ["verify", "--family", family],
                      "groups": groups, "expect": expect})

    for ops in (compute, sd, sweep):  # run.py keys latencies by op key
        _check(len({op["key"] for op in ops}) == len(ops), "duplicate op keys")

    # the fresh-process op timed for cli_s, one small op of each workload's kind
    small_verify = next(op for op in sweep if op["key"] == "mpn")
    oracle = {
        "header": {"compute": COMPUTE_HEADER, "verify": VERIFY_HEADER},
        "workloads": {
            "sweep": {"ops": sweep, "cli_op": small_verify},
            "compute": {"ops": compute,
                        "cli_op": compute_op("Sym(3) x C(2)", "auto")},
            "sd": {"ops": sd,
                   "cli_op": compute_op("Sym(3) x C(2)", "conjugacy", sd=True)},
        },
    }
    run.EXPECTED.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.EXPECTED}: "
          + ", ".join(f"{w} {len(v['ops'])} ops"
                      for w, v in oracle["workloads"].items()))


if __name__ == "__main__":
    main()
