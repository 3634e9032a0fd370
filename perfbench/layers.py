"""Outside-in span tracing of the greente layers, and the per-layer metrics.

Spans are recorded by replacing, for the duration of a traced pass, the
module attributes through which callers reach each layer; the package source
is not touched.  ``from .lp import solve_lp`` binds the function into every
importing module, so each function is wrapped under every name its callers
look up (see ``WRAPS``).  ``add_path_column`` calls itself through its module
name, so its spans nest; its time is taken as self time.

A span is (id, name, start, end, parent id, run id, self seconds).  Spans stay
in memory and are written out at exit; self time is the span's duration minus
the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute its callers look up, span name)
WRAPS = (
    ("greente.lp", "linprog", "lp.highs"),
    ("greente.bnb", "solve_lp", "lp.solve"),
    ("greente.mspnd", "solve_lp", "lp.solve"),
    ("greente.toca", "solve_lp", "lp.solve"),
    ("greente.mspnd", "branch_and_bound", "bnb"),
    ("greente.mcps", "branch_and_bound", "bnb"),
    ("greente.mspnd", "build_root_model", "mspnd.root_build"),
    ("greente.mspnd", "price_paths", "mspnd.price"),
    ("greente.mspnd", "add_path_column", "mspnd.column"),
    ("greente.mcps", "make_instance", "mcps.preprocess"),
    ("greente.mcps", "precompute_lower_bounds", "mcps.preprocess"),
    ("greente.mcps", "separate_cuts", "mcps.separate"),
    ("greente.mcps", "max_flow", "flows.maxflow"),
    ("greente.flows", "max_flow", "flows.maxflow"),
    ("greente.mcps", "extract_cut", "flows.cut"),
    ("greente.toca", "build_toca_lp", "toca.build"),
    ("greente.bench", "mlu", "routing.mlu"),
    ("greente.repetita", "mlu", "routing.mlu"),
    ("greente.mspnd", "is_spr_routable", "routing.spr_check"),
    ("greente.mspnd", "k_shortest_paths", "routing.ksp"),
    ("greente.repetita", "parse_repetita_graph", "repetita.parse"),
    ("greente.repetita", "parse_repetita_demands", "repetita.parse"),
    ("greente.bench", "preprocess", "repetita.preprocess"),
    ("greente.bench", "run_experiment", "bench"),
    # solver entry points called by the bench layer, so that solver glue
    # does not count as bench self time
    ("greente.bench", "solve_mspnd", "solver"),
    ("greente.bench", "solve_f_mspnd", "solver"),
    ("greente.bench", "solve_mcps", "solver"),
    ("greente.bench", "alg_mcf", "solver"),
    ("greente.bench", "alg_mcf_pp", "solver"),
)


def _observe_lp(counts, args, result):
    counts["lp.cols"] += args[0].n_cols
    counts["lp.rows"] += args[0].n_rows


def _observe_bnb(counts, args, result):
    counts["bnb.nodes"] += result.nodes


def _observe_price(counts, args, result):
    counts["mspnd.price_hits"] += result is not None


def _observe_separate(counts, args, result):
    counts["mcps.cuts"] += len(result)
    counts["mcps.separate_hits"] += bool(result)


def _observe_maxflow(counts, args, result):
    counts["flows.maxflow_early"] += result.terminated_early


OBSERVERS = {
    "lp.solve": _observe_lp,
    "bnb": _observe_bnb,
    "mspnd.price": _observe_price,
    "mcps.separate": _observe_separate,
    "flows.maxflow": _observe_maxflow,
}


class Tracer:
    """Records spans while installed; ``totals`` sums a stretch of them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._saved: list[tuple] = []
        self._next_id = 0
        self._run = 0

    def __enter__(self):
        for module_name, attr, span in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, OBSERVERS.get(span)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def open(self, name: str, root: bool = False) -> None:
        """Start a span; a root span starts a new run id for its subtree."""
        if root:
            self._run += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, name, start, end, parent, self._run, duration - child))

    def totals(self, first: int, last: int) -> dict:
        """Span counts, self and inclusive seconds per name over spans[first:last],
        plus the observer counts gathered since the previous call."""
        n, self_s, incl_s = Counter(), defaultdict(float), defaultdict(float)
        for _, name, start, end, _, _, own in self.spans[first:last]:
            n[name] += 1
            self_s[name] += own
            incl_s[name] += end - start
        counts, self.counts = self.counts, Counter()
        return {"n": n, "self": self_s, "incl": incl_s, "counts": counts,
                "spans": last - first}

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, run, own in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                      "parent": parent, "run": run, "self": own}) + "\n")


def _count(span):
    return lambda t: t["n"][span]


def _self(*spans):
    return lambda t: sum(t["self"][s] for s in spans)


def _incl(span):
    return lambda t: t["incl"][span]


def _observed(counter):
    return lambda t: t["counts"][counter]


def _per_call(counter, span):
    return lambda t: t["counts"][counter] / t["n"][span] if t["n"][span] else 0.0


# name -> (unit, better, value from one stretch's totals).  Seconds are self
# time, except lp.solve_s (solve_lp including HiGHS) and the two phase totals
# mspnd.root_build_s and mcps.preprocess_s, which include their children.
LAYER_METRICS = {
    "lp.solves": ("count", "lower", _count("lp.solve")),
    "lp.solve_s": ("s", "lower", _self("lp.solve", "lp.highs")),
    "lp.highs_s": ("s", "lower", _self("lp.highs")),
    "lp.marshal_s": ("s", "lower", _self("lp.solve")),
    "lp.cols_mean": ("count", "lower", _per_call("lp.cols", "lp.solve")),
    "lp.rows_mean": ("count", "lower", _per_call("lp.rows", "lp.solve")),
    "bnb.nodes": ("count", "lower", _observed("bnb.nodes")),
    "bnb.self_s": ("s", "lower", _self("bnb")),
    "mspnd.price_calls": ("count", "lower", _count("mspnd.price")),
    "mspnd.price_s": ("s", "lower", _self("mspnd.price")),
    "mspnd.price_hit_ratio": ("ratio", "higher", _per_call("mspnd.price_hits", "mspnd.price")),
    "mspnd.columns": ("count", "lower", _count("mspnd.column")),
    "mspnd.column_s": ("s", "lower", _self("mspnd.column")),
    "mspnd.root_build_s": ("s", "lower", _incl("mspnd.root_build")),
    "mcps.separate_calls": ("count", "lower", _count("mcps.separate")),
    "mcps.separate_s": ("s", "lower", _self("mcps.separate")),
    "mcps.cuts": ("count", "lower", _observed("mcps.cuts")),
    "mcps.separate_hit_ratio": ("ratio", "higher", _per_call("mcps.separate_hits", "mcps.separate")),
    "mcps.preprocess_s": ("s", "lower", _incl("mcps.preprocess")),
    "flows.maxflow_calls": ("count", "lower", _count("flows.maxflow")),
    "flows.maxflow_s": ("s", "lower", _self("flows.maxflow")),
    "flows.maxflow_early_ratio": ("ratio", "higher", _per_call("flows.maxflow_early", "flows.maxflow")),
    "flows.cut_calls": ("count", "lower", _count("flows.cut")),
    "flows.cut_s": ("s", "lower", _self("flows.cut")),
    "toca.build_s": ("s", "lower", _self("toca.build")),
    "routing.mlu_calls": ("count", "lower", _count("routing.mlu")),
    "routing.mlu_s": ("s", "lower", _self("routing.mlu")),
    "routing.spr_check_s": ("s", "lower", _self("routing.spr_check")),
    "routing.ksp_s": ("s", "lower", _self("routing.ksp")),
    "repetita.parse_s": ("s", "lower", _self("repetita.parse")),
    "repetita.preprocess_s": ("s", "lower", _self("repetita.preprocess")),
    "bench.self_s": ("s", "lower", _self("bench")),
    "trace.spans": ("count", "lower", lambda t: t["spans"]),
}
# trace.overhead_s is traced minus untraced pass time, computed by the runner.
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")


def merged(a: dict, b: dict) -> dict:
    """Totals of two stretches together (set-up plus one pass)."""
    out = {}
    for key in ("n", "self", "incl", "counts"):
        total = defaultdict(float) if key in ("self", "incl") else Counter()
        for part in (a[key], b[key]):
            for name, value in part.items():
                total[name] += value
        out[key] = total
    out["spans"] = a["spans"] + b["spans"]
    return out
