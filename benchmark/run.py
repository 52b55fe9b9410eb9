"""normdeg benchmark: closed-loop, single-thread runs of the public CLI.

    python3 benchmark/run.py --workload {sweep,compute,sd} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.
One caller waits for each answer, as a shell user of `normdeg` does.  An
op is one `normdeg.cli.main(argv)` call made in-process with stdout
captured; a pass runs every op of the workload's fixed corpus once, in an
order drawn from the seed.  Passes repeat until the next one would end
after `--seconds`.  Every op's output is checked against
benchmark/expected.json.

The last stdout line is the result: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run (see
README.md).  The line before it holds per-op detail.  Spans of a traced run
go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep", "compute", "sd")
SETUP_SAMPLES = 15
# fresh-process samples taken before each untraced pass, so that they
# spread over the whole run instead of sharing one burst of machine load
CLI_SAMPLES_PER_PASS = 10
CLI_TIMEOUT_S = 60


def import_package():
    """Import normdeg.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "normdeg" / "cli.py").is_file():
        sys.exit(f"benchmark: no package source at {SRC / 'normdeg'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import normdeg.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "normdeg":
        sys.exit(f"benchmark: normdeg imported from {cli.__file__}, not {SRC}")
    return cli


def load_workload(name: str) -> tuple[dict, dict]:
    """(workload entry, output headers) from the frozen oracle."""
    oracle = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return oracle["workloads"][name], oracle["header"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call(cli, argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one in-process `normdeg` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def check(op: dict, headers: dict, rc, out: str) -> str | None:
    """None when the output matches the oracle, else what differs."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    expect = op["expect"]
    if "row" in expect:
        if len(lines) != 2 or lines[0].split("\t") != headers["compute"]:
            return f"expected a header and one row, got {lines[:3]}"
        fields = lines[1].split("\t")
        if fields[:-1] != expect["row"] or not fields[-1].isdigit():
            return f"row {fields} != expected {expect['row']} + elapsed_ms"
        return None
    if not lines or lines[0].split("\t") != headers["verify"]:
        return f"bad verify header {lines[:1]}"
    bad = sum(1 for line in lines[1:] if not line.endswith("\tok"))
    if bad:
        return f"{bad} mismatch rows"
    if len(lines) - 1 != expect["rows"]:
        return f"{len(lines) - 1} rows, expected {expect['rows']}"
    if digest(out) != expect["sha256"]:
        return "verify output differs from the frozen output"
    return None


class Tally:
    """Attempted and failed op counts, with the first failures kept for stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, key: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{key}: {problem}")


def run_op(cli, op: dict, headers: dict, tally: Tally) -> float:
    """Run one op, check it, and return its latency in seconds."""
    t0 = time.perf_counter_ns()
    try:
        rc, out, _err = call(cli, op["argv"])
    except Exception:  # a crash is a failed op, and the run goes on
        elapsed = (time.perf_counter_ns() - t0) / 1e9
        tally.record(op["key"], traceback.format_exc(limit=3))
        return elapsed
    elapsed = (time.perf_counter_ns() - t0) / 1e9
    tally.record(op["key"], check(op, headers, rc, out))
    return elapsed


def run_pass(cli, ops: list[dict], headers: dict, rng: random.Random,
             tally: Tally, tracer=None) -> dict[str, float]:
    """One pass over the corpus in seeded order; returns latency per op key."""
    order = list(ops)
    rng.shuffle(order)
    latencies = {}
    for n, op in enumerate(order):
        if tracer is not None:
            tracer.op_id = f"{tracer.passes}.{n}:{op['key']}"
        latencies[op["key"]] = run_op(cli, op, headers, tally)
    return latencies


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def set_up(workload: str):
    """(seconds, cli module, workload entry, headers) of one complete set-up.

    Drops any normdeg modules already imported first, so every call
    executes the package's module code again; numpy, imported by the first
    call, stays loaded.
    """
    for name in [n for n in sys.modules if n == "normdeg" or n.startswith("normdeg.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = import_package()
    entry, headers = load_workload(workload)
    return time.perf_counter() - t0, cli, entry, headers


def cli_samples(op: dict, headers: dict, tally: Tally, count: int) -> list[float]:
    """Wall time of fresh `python -m normdeg.cli` processes, each checked."""
    env = child_env()
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "normdeg.cli", *op["argv"]],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            times.append(time.perf_counter() - t0)
            tally.record(f"cli {op['key']}", f"no answer within {CLI_TIMEOUT_S} s")
            continue
        times.append(time.perf_counter() - t0)
        tally.record(f"cli {op['key']}", check(op, headers, proc.returncode, proc.stdout))
    return times


def lower_quartile(values: list[float]) -> float:
    """First quartile; the statistic of the op latencies behind the metrics.

    The 2-core host this was tuned on ran the same code up to 2x slower in
    bursts lasting from a fraction of a second to minutes.  A median moves
    once half the samples fall in bursts; the lower quartile holds until
    three quarters do.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def per_op(passes: list[dict[str, float]], stat) -> dict[str, float]:
    return {key: stat([p[key] for p in passes]) for key in passes[0]}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "normdeg").rglob("*.py")))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict, Tally]:
    """Run the workload; returns (metrics, per-op detail, tally)."""
    setups = [set_up(workload) for _ in range(SETUP_SAMPLES)]
    setup_times = [s[0] for s in setups]
    _, cli, entry, headers = setups[-1]
    ops = entry["ops"]
    total_groups = sum(op["groups"] for op in ops)
    rng = random.Random(seed)
    tally = Tally()

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    plain: list[dict[str, float]] = []
    traced_walls: list[float] = []
    cli_times: list[float] = []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes, so both see the
        # same machine state and their ratio is the tracing overhead
        trace_this = traced and len(traced_walls) < len(plain)
        if trace_this:
            tracer.install()
            try:
                latencies = run_pass(cli, ops, headers, rng, tally, tracer)
            finally:
                tracer.uninstall()
            tracer.passes += 1
            traced_walls.append(sum(latencies.values()))
        else:
            if not traced:
                cli_times += cli_samples(entry["cli_op"], headers, tally,
                                         CLI_SAMPLES_PER_PASS)
            plain.append(run_pass(cli, ops, headers, rng, tally))
        done = len(plain) + len(traced_walls)
        elapsed = time.perf_counter() - start
        if (not traced or traced_walls) and elapsed + elapsed / done > seconds:
            break

    quartiles = per_op(plain, lower_quartile)
    detail = {"workload": workload, "seed": seed, "passes": len(plain),
              "per_op_median_ms": {k: v * 1e3 for k, v in
                                   per_op(plain, statistics.median).items()},
              "per_op_p25_ms": {k: v * 1e3 for k, v in quartiles.items()}}
    if traced:
        from tracer import layer_metrics
        layers = layer_metrics(tracer.spans, len(traced_walls))
        plain_walls = [sum(p.values()) for p in plain]
        layers["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls) - 1)
        layers["src.lines"] = src_lines()
        metrics = {name: metric(layers[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
        detail["traced_passes"] = len(traced_walls)
        tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
        return metrics, detail, tally

    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        # per-op statistics first: a burst of machine load then skews one
        # sample of an op, not the whole pass it fell in
        "groups_per_s": metric(total_groups / sum(quartiles.values()), "1/s"),
        "op_p50_ms": metric(statistics.median(quartiles.values()) * 1e3, "ms"),
        "op_geomean_ms": metric(
            math.exp(statistics.fmean(math.log(v) for v in quartiles.values())) * 1e3,
            "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # a fresh `python -m normdeg.cli` process: reported, not gated, because
    # process start-up swings far more with host load than work in-process
    detail["cli_s"] = statistics.median(cli_times)
    detail["cli_samples"] = len(cli_times)
    detail["setup_samples"] = len(setup_times)
    return metrics, detail, tally


PER_LAYER_UNITS = {
    "lattice.enumerate_subgroups.calls": "calls/pass",
    "lattice.enumerate_subgroups.s": "s/pass",
    "lattice.enumerate_subgroups.subgroups": "count/pass",
    "lattice.enumerate_subgroups.us_per_subgroup": "us",
    "degrees.sd_brute.calls": "calls/pass",
    "degrees.sd_brute.s": "s/pass",
    "degrees.sd_brute.pairs": "count/pass",
    "degrees.ndeg_conjugacy.s": "s/pass",
    "degrees.ndeg_brute.s": "s/pass",
    "groups.parse_spec.calls": "calls/pass",
    "groups.parse_spec.s": "s/pass",
    "groups.build.calls": "calls/pass",
    "groups.build.s": "s/pass",
    "groups.build.elements": "count/pass",
    "groups.rows.s": "s/pass",
    "formulas.formula_counts.calls": "calls/pass",
    "formulas.formula_counts.s": "s/pass",
    "formulas.formula_counts.hit_ratio": "ratio",
    "explorer.verify_grid.s": "s/pass",
    "explorer.verify_grid.comparisons": "count/pass",
    "explorer.verify_grid.skipped": "count/pass",
    "cli.main.s": "s/pass",
    "cli.self_s": "s/pass",
    "trace.overhead_ratio": "ratio",
    "src.lines": "lines",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    metrics, detail, tally = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    detail["fail_ratio"] = tally.failed / tally.attempted
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
