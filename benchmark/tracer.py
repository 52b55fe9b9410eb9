"""Layer tracing for the normdeg benchmark, done entirely from outside the package.

`Tracer.install` swaps each layer's public function for a timing wrapper
under every name the package's modules look it up by: `from .groups import
build` binds `build` in `cli` and `explorer` as well as in `groups`, so a
patch in `groups` alone would miss those callers.  Each call records one
span (name, start, end, parent span, op id, counters) in memory; `write`
dumps them as JSON lines at the end of the run and `layer_metrics` folds
them into the per-layer figures the benchmark reports.

What happens inside one call (seeding, join closure, canonical sort and
orbits inside `enumerate_subgroups`) is invisible from here; that needs
tracing inside the package.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, op id, counters]
        self.spans: list[list] = []
        self.op_id: str | None = None
        self.passes = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _children(self, idx: int, name: str) -> list[list]:
        return [s for s in self.spans[idx + 1:] if s[3] == idx and s[0] == name]

    def _wrap(self, name: str, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counters is not None:
                self.spans[idx][5] = counters(idx, args, kwargs, result)
            return result
        return traced

    # -- counters recorded at the layer boundaries ---------------------------

    def _sd_pairs(self, idx, args, kwargs, result):
        # sd_brute(G, lattice=None, cap=...)
        lat = kwargs.get("lattice", args[1] if len(args) > 1 else None)
        if lat is not None:
            k = len(lat)
        else:  # sd_brute enumerated the lattice itself, as a traced child
            k = sum(s[5]["subgroups"] for s in
                    self._children(idx, "lattice.enumerate_subgroups"))
        return {"pairs": k * (k + 1) // 2}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function under each name the package binds it to."""
        from normdeg import cli, degrees, explorer, formulas, groups, lattice

        targets = [
            ("groups.parse_spec", groups.parse_spec, None),
            ("groups.build", groups.build,
             lambda i, a, k, r: {"elements": r.order}),
            ("lattice.enumerate_subgroups", lattice.enumerate_subgroups,
             lambda i, a, k, r: {"subgroups": len(r)}),
            ("degrees.ndeg_brute", degrees.ndeg_brute, None),
            ("degrees.ndeg_conjugacy", degrees.ndeg_conjugacy, None),
            ("degrees.sd_brute", degrees.sd_brute, self._sd_pairs),
            ("formulas.formula_counts", formulas.formula_counts,
             lambda i, a, k, r: {"hits": int(r is not None)}),
            ("explorer.verify_grid", explorer.verify_grid,
             lambda i, a, k, r: {"comparisons": len(r[0]), "skipped": r[1]}),
            ("cli.main", cli.main, None),
        ]
        modules = [m for n, m in sys.modules.items()
                   if n == "normdeg" or n.startswith("normdeg.")]
        for name, fn, counters in targets:
            wrapper = self._wrap(name, fn, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        # `GroupTable.rows` materialises the table as lists on first access;
        # only that first access is a span, later ones are attribute reads.
        rows_prop = groups.GroupTable.rows
        materialise = self._wrap("groups.rows", rows_prop.fget)

        def rows(table):
            if table._rows is None:
                return materialise(table)
            return table._rows

        self._undo.append((groups.GroupTable, "rows", rows_prop))
        groups.GroupTable.rows = property(rows, doc=rows_prop.__doc__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, counters in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op, "counters": counters}) + "\n")


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer totals per traced pass; self time is a span minus its children."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    counts: dict[str, int] = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, counters in spans:
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (end - start) / 1e9
        for key, value in (counters or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if parent >= 0:
            child_ns[parent] += end - start
    cli_self = sum(end - start - child_ns[i]
                   for i, (name, start, end, *_rest) in enumerate(spans)
                   if name == "cli.main") / 1e9

    def per_pass(value: float) -> float:
        return value / passes

    enum_s = secs.get("lattice.enumerate_subgroups", 0.0)
    subgroups = counts.get("lattice.enumerate_subgroups.subgroups", 0)
    fc_calls = calls.get("formulas.formula_counts", 0)
    out = {
        "lattice.enumerate_subgroups.calls": calls.get("lattice.enumerate_subgroups", 0),
        "lattice.enumerate_subgroups.s": enum_s,
        "lattice.enumerate_subgroups.subgroups": subgroups,
        "degrees.sd_brute.calls": calls.get("degrees.sd_brute", 0),
        "degrees.sd_brute.s": secs.get("degrees.sd_brute", 0.0),
        "degrees.sd_brute.pairs": counts.get("degrees.sd_brute.pairs", 0),
        "degrees.ndeg_conjugacy.s": secs.get("degrees.ndeg_conjugacy", 0.0),
        "degrees.ndeg_brute.s": secs.get("degrees.ndeg_brute", 0.0),
        "groups.parse_spec.calls": calls.get("groups.parse_spec", 0),
        "groups.parse_spec.s": secs.get("groups.parse_spec", 0.0),
        "groups.build.calls": calls.get("groups.build", 0),
        "groups.build.s": secs.get("groups.build", 0.0),
        "groups.build.elements": counts.get("groups.build.elements", 0),
        "groups.rows.s": secs.get("groups.rows", 0.0),
        "formulas.formula_counts.calls": fc_calls,
        "formulas.formula_counts.s": secs.get("formulas.formula_counts", 0.0),
        "explorer.verify_grid.s": secs.get("explorer.verify_grid", 0.0),
        "explorer.verify_grid.comparisons": counts.get("explorer.verify_grid.comparisons", 0),
        "explorer.verify_grid.skipped": counts.get("explorer.verify_grid.skipped", 0),
        "cli.main.s": secs.get("cli.main", 0.0),
        "cli.self_s": cli_self,
    }
    out = {key: per_pass(value) for key, value in out.items()}
    # ratios are per call, not per pass
    out["lattice.enumerate_subgroups.us_per_subgroup"] = (
        enum_s / subgroups * 1e6 if subgroups else 0.0)
    out["formulas.formula_counts.hit_ratio"] = (
        counts.get("formulas.formula_counts.hits", 0) / fc_calls if fc_calls else 0.0)
    return out
