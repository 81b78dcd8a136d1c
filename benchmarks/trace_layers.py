#!/usr/bin/env python3
"""Traced run: per-layer metrics of each workload, never from the timed runs.

    python3 benchmarks/trace_layers.py [--workload NAME ...] [--seed 1] [--seconds 25]

writes benchmarks/out/trace-<workload>-seed<n>.json for each workload and
prints a table of the per-layer metrics.  `run.py --trace 1` makes the same
run for one workload and prints its metrics as JSON.

Each operation runs twice, each time in a fresh fork of the set-up process:

* a span pass wraps the library's public stage functions (module attributes
  only; no file of the program changes) and records their inclusive times,
  the result sizes |C|, kept walks and sum_n |C^n|, and the hits and misses
  of the module-level caches;
* a profile pass runs the operation under cProfile, started from this file,
  and reads each module's self time and the call counts of
  LaurentPolynomial.__mul__/__add__ and Walk.__post_init__ (walks built).

Times are per-input medians over the rounds, averaged over the inputs; counts
are per operation.  A metric whose function has gone from the program is
reported with value null (absent), which is not a failure.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from harness import OUT, Tally, clock, import_program, run_in_child

LAYERS = ("braid", "walks", "qops", "qdet", "laurent", "jones")

# Stage functions timed as spans: span name -> (home module, attribute).
SPANS = {
    "parse_braid": ("braid", "parse_braid"),
    "is_knot_closure": ("braid", "is_knot_closure"),
    "walk_sum_C": ("walks", "walk_sum_C"),
    "C_qdet": ("qdet", "C_qdet"),
    "evaluate_series": ("walks", "evaluate_series"),
    "colored_jones": ("jones", "colored_jones"),
}

# Sizes read at function boundaries: name -> (module, attribute, size of call).
SIZES = {
    "C_terms": ("walks", "walk_sum_C", lambda args, out: len(out)),
    "walks_kept": ("walks", "enumerate_walks", lambda args, out: len(out)),
    "power_terms": ("walks", "evaluate_polynomial", lambda args, out: len(args[0])),
}

# Module-level caches: name -> (module, attribute); lru_cache objects.
CACHES = {"merge": ("walks", "_merge_keys"), "eval": ("qops", "_eval_base")}

# Call counts from the profile: name -> (module, dotted attribute path).
CALLS = {
    "laurent.mul_calls": ("laurent", "LaurentPolynomial.__mul__"),
    "laurent.add_calls": ("laurent", "LaurentPolynomial.__add__"),
    "walks.walks_built": ("walks", "Walk.__post_init__"),
}

# metric name -> unit, in the order printed
PER_LAYER = {
    "braid.parse_ms": "ms",
    "walks.build_ms": "ms",
    "walks.walks_built": "count",
    "walks.build_yield": "ratio",
    "walks.series_ms": "ms",
    "walks.C_terms": "count",
    "walks.power_terms": "count",
    "walks.merge_cache_hits": "count",
    "walks.merge_cache_misses": "count",
    "walks.self_s": "s",
    "qops.self_s": "s",
    "qops.eval_cache_misses": "count",
    "qdet.build_ms": "ms",
    "qdet.self_s": "s",
    "laurent.mul_calls": "count",
    "laurent.add_calls": "count",
    "laurent.self_s": "s",
    "jones.overhead_ms": "ms",
    "jones.self_s": "s",
    "op.total_ms": "ms",
}


def _modules():
    """The library's modules by layer name, and every module that may bind
    a stage function by name."""
    import braidwalks
    from braidwalks import braid, jones, laurent, qdet, qops, walks

    mods = {"braid": braid, "jones": jones, "laurent": laurent, "qdet": qdet,
            "qops": qops, "walks": walks}
    return mods, [braidwalks, *mods.values()]


def _lookup(mods, module: str, path: str):
    obj = mods[module]
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Spans:
    """Inclusive and child time per span name, plus sizes, for one operation."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)  # time in spans called directly inside
        self.sizes = defaultdict(int)
        self._open: list[float] = []

    def timed(self, name, fn):
        def span(*args, **kwargs):
            self._open.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.total[name] += dt
                self.child[name] += self._open.pop()
                if self._open:
                    self._open[-1] += dt
        return span

    def sized(self, name, fn, size):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.sizes[name] += size(args, out)
            return out
        return counted


def install(spans: Spans) -> set[str]:
    """Wrap the stage functions wherever the library binds them.

    Returns the names whose function is missing from the program.
    """
    mods, everywhere = _modules()
    missing = set()

    def patch(module, attr, wrap, name):
        current = getattr(mods[module], attr, None)
        if current is None:
            missing.add(name)
            return
        new = wrap(current)
        for mod in everywhere:
            if getattr(mod, attr, None) is current:
                setattr(mod, attr, new)

    for name, (module, attr) in SPANS.items():
        patch(module, attr, lambda fn, n=name: spans.timed(n, fn), name)
    for name, (module, attr, size) in SIZES.items():
        patch(module, attr, lambda fn, n=name, s=size: spans.sized(n, fn, s), name)
    return missing


def _cache_counts(mods) -> dict:
    out = {}
    for name, (module, attr) in CACHES.items():
        info = getattr(getattr(mods[module], attr, None), "cache_info", None)
        if info is not None:
            hits, misses, *_ = info()
            out[name] = (hits, misses)
    return out


def span_pass(workload, case, spans: Spans):
    """Child body: the operation with its stage functions wrapped."""
    mods, _ = _modules()
    before = _cache_counts(mods)
    t0 = clock()
    out = workload.op(case)
    op_s = clock() - t0
    after = _cache_counts(mods)
    row = {
        "op_s": op_s,
        "total": dict(spans.total),
        "child": dict(spans.child),
        "sizes": dict(spans.sizes),
        "cache": {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after},
    }
    # the checks run after the figures are taken: the oracles call wrapped
    # functions too
    row["problems"] = workload.check(case, out)
    return row


def profile_pass(workload, case):
    """Child body: the operation under cProfile; self time per module and
    call counts."""
    mods, _ = _modules()
    files = {Path(mod.__file__).resolve(): name for name, mod in mods.items()}
    profile = cProfile.Profile()
    profile.enable()
    out = workload.op(case)
    profile.disable()
    profile.create_stats()
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_code = {}
    for (filename, line, func), (_, ncalls, tottime, _, _) in profile.stats.items():
        by_code[(filename, line, func)] = ncalls
        layer = files.get(Path(filename).resolve()) if filename.endswith(".py") else None
        if layer:
            self_s[layer] += tottime
    calls = {}
    for name, (module, path) in CALLS.items():
        fn = _lookup(mods, module, path)
        code = getattr(fn, "__code__", None)
        if code is not None:
            calls[name] = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
    return {"self_s": self_s, "calls": calls, "problems": workload.check(case, out)}


def _per_op_mean(values: list[float]) -> float:
    return sum(values) / len(values)


def layer_metrics(rows: list[dict], missing: set[str]) -> dict:
    """Per-layer metrics from per-input rows (each with the medians of its
    span-pass figures and the counts of its profile pass)."""

    def span_ms(*names):
        if any(n in missing for n in names):
            return None
        return _per_op_mean([sum(r["total"].get(n, 0.0) for n in names) for r in rows]) * 1e3

    def size(name):
        return None if name in missing else _per_op_mean([r["sizes"].get(name, 0) for r in rows])

    def calls(name):
        if any(name not in r["calls"] for r in rows):
            return None
        return _per_op_mean([r["calls"][name] for r in rows])

    def cache(name, which):
        if any(name not in r["cache"] for r in rows):
            return None
        return _per_op_mean([r["cache"][name][which] for r in rows])

    built = calls("walks.walks_built")
    kept = size("walks_kept")
    overhead = None
    if "colored_jones" not in missing:
        overhead = _per_op_mean([
            r["total"].get("colored_jones", 0.0) - r["child"].get("colored_jones", 0.0)
            for r in rows
        ]) * 1e3
    values = {
        "braid.parse_ms": span_ms("parse_braid", "is_knot_closure"),
        "walks.build_ms": span_ms("walk_sum_C"),
        "walks.walks_built": built,
        "walks.build_yield": kept / built if built and kept is not None else None,
        "walks.series_ms": span_ms("evaluate_series"),
        "walks.C_terms": size("C_terms"),
        "walks.power_terms": size("power_terms"),
        "walks.merge_cache_hits": cache("merge", 0),
        "walks.merge_cache_misses": cache("merge", 1),
        "qops.eval_cache_misses": cache("eval", 1),
        "qdet.build_ms": span_ms("C_qdet"),
        "laurent.mul_calls": calls("laurent.mul_calls"),
        "laurent.add_calls": calls("laurent.add_calls"),
        "jones.overhead_ms": overhead,
        "op.total_ms": _per_op_mean([r["op_s"] for r in rows]) * 1e3,
    }
    for layer in LAYERS:
        if f"{layer}.self_s" in PER_LAYER:
            values[f"{layer}.self_s"] = _per_op_mean([r["self_s"][layer] for r in rows])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def traced_run(workload, cases, seed: int, seconds: float):
    """Rounds of span and profile passes until `seconds` have passed;
    returns the tally and the per-layer metrics."""
    spans = Spans()
    missing = install(spans)
    passes: list[list[tuple[dict, dict]]] = [[] for _ in cases]
    tally = Tally()
    end = time.monotonic() + seconds
    rounds = 0
    while rounds == 0 or time.monotonic() < end:
        for i, case in enumerate(cases):
            tally.attempted += 1
            ok_s, spanned = run_in_child(lambda: span_pass(workload, case, spans))
            ok_p, profiled = run_in_child(lambda: profile_pass(workload, case))
            if not (ok_s and ok_p):
                tally.fail(case, spanned if not ok_s else profiled, wrong=False)
            elif spanned["problems"] or profiled["problems"]:
                tally.fail(case, "; ".join(spanned["problems"] + profiled["problems"]), wrong=True)
            else:
                passes[i].append((spanned, profiled))
        rounds += 1

    rows = []
    for case, runs in zip(cases, passes):
        if not runs:
            continue
        spanned = [s for s, _ in runs]
        first, profiled = runs[0]
        keys = {k for s in spanned for k in s["total"]}
        rows.append({
            "input": case.label(),
            "op_s": statistics.median(s["op_s"] for s in spanned),
            "total": {k: statistics.median(s["total"].get(k, 0.0) for s in spanned) for k in keys},
            "child": {k: statistics.median(s["child"].get(k, 0.0) for s in spanned) for k in keys},
            "sizes": first["sizes"],
            "cache": first["cache"],
            "calls": profiled["calls"],
            "self_s": {
                layer: statistics.median(p["self_s"][layer] for _, p in runs) for layer in LAYERS
            },
        })
    if not rows:
        raise SystemExit("error: no traced operation succeeded")
    metrics = layer_metrics(rows, missing)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "rounds": rounds,
         "absent": sorted(missing), "metrics": metrics, "rows": rows}, indent=1))
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        # each workload in its own child, so one's wrapped functions and
        # warmed caches never reach the next
        ok, value = run_in_child(
            lambda: traced_run(workload, workload.cases(args.seed), args.seed, args.seconds),
            timeout=10 * args.seconds + 600,
        )
        if not ok:
            raise SystemExit(f"error: traced run of {name} failed: {value}")
        tally, metrics = value
        for reason in tally.reasons:
            print(f"{name} failed: {reason}", file=sys.stderr)
        results[name] = tally.result(metrics)
    print(f"{'metric':26}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in PER_LAYER.items():
        cells = []
        for n in names:
            v = results[n]["metrics"][metric]["value"]
            cells.append(f"{'absent':>16}" if v is None else f"{v:>16.4g}")
        print(f"{metric + ' (' + unit + ')':26}" + "".join(cells))
    print(f"{'attempted / failed':26}" + "".join(
        f"{str(results[n]['attempted']) + ' / ' + str(results[n]['failed']):>16}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
