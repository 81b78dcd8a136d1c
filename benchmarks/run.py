#!/usr/bin/env python3
"""Stage-level benchmark of braidwalks: one exact result for one braid per call.

Run from the root of the repository:

    python3 benchmarks/run.py --workload series-ladder --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): series-ladder, build-C and
corpus-sweep.  The load is a closed loop in one process with one operation
at a time.  Every operation runs in a child forked from the set-up process,
so each one starts from the state right after import and input generation,
as a `braidwalks compute` process does; no figure depends on the order of
the calls or on caches left by earlier ones.  The run repeats whole rounds
over its inputs until --seconds have passed.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run (trace_layers.py).  The per-input table of results is
written to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import OP_TIMEOUT_S, OUT, ROOT, Tally, clock, import_program, run_in_child

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # operations beyond the reported tail percentile


def timed_op(workload, case, corrupt: bool = False):
    """The body of one operation's child: time it, then check its output.

    Returns (CPU seconds, elapsed seconds, peak RSS in MB, problems, summary).
    """
    e0, t0 = time.perf_counter(), clock()
    out = workload.op(case)
    seconds, elapsed = clock() - t0, time.perf_counter() - e0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if corrupt:
        out = workload.corrupt(out)
    return seconds, elapsed, peak_mb, workload.check(case, out), workload.summary(out)


def run_round(workload, cases, tally: Tally, corrupt_index: int | None = None):
    """One closed-loop pass over the inputs; yields (index, result) per success."""
    for i, case in enumerate(cases):
        tally.attempted += 1
        ok, value = run_in_child(
            lambda: timed_op(workload, case, corrupt=i == corrupt_index)
        )
        if not ok:
            tally.fail(case, value, wrong=False)
        elif value[3]:
            tally.fail(case, "; ".join(value[3]), wrong=True)
        else:
            yield i, value


def measure_setup(workload_name: str, seed: int, expect_digest: str) -> list[float]:
    """CPU time of fresh processes from their start to the point the first
    operation would begin: interpreter, `import braidwalks` and input
    generation.  Each process reports its own clock when it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload_name, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            out, _ = proc.communicate(timeout=OP_TIMEOUT_S)
        words = out.split()
        if proc.returncode or words[:2] != [b"ready", expect_digest.encode()]:
            raise SystemExit(f"error: set-up process printed {out!r}")
        times.append(float(words[2]))
    return times


def tail(values: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND values beyond it."""
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def measure(workload, cases, seconds: float):
    """Closed-loop rounds until `seconds` have passed; per-input times."""
    times: list[list[float]] = [[] for _ in cases]
    elapsed: list[list[float]] = [[] for _ in cases]
    peak_mb = 0.0
    results: dict[int, dict] = {}
    tally = Tally()
    end = time.monotonic() + seconds
    rounds = 0
    while rounds == 0 or time.monotonic() < end:
        for i, (op_s, op_elapsed, op_mb, _, summary) in run_round(workload, cases, tally):
            times[i].append(op_s)
            elapsed[i].append(op_elapsed)
            peak_mb = max(peak_mb, op_mb)
            results[i] = summary
        rounds += 1
    return times, elapsed, peak_mb, results, tally, rounds


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, cases, seed: int, seconds: float):
    from workloads import digest

    setup = measure_setup(workload.name, seed, digest(cases))
    times, elapsed, peak_mb, results, tally, rounds = measure(workload, cases, seconds)
    medians = [statistics.median(t) for t in times if t]
    if len(medians) <= TAIL_BEYOND:
        raise SystemExit(f"error: only {len(medians)} inputs ever succeeded")
    # per-input medians: a slow moment hits one sample, and the metrics do
    # not depend on how many rounds fitted in the run
    metrics = {
        "wall_s": metric(sum(medians), "s"),
        "call_p50_ms": metric(statistics.median(medians) * 1e3, "ms"),
        "call_tail_ms": metric(tail(medians) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    table = {
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "setup_s": setup,
        "metrics": metrics,
        "failures": tally.reasons,
        "rows": [
            {
                "input": case.label(),
                "cpu_ms": [round(t * 1e3, 3) for t in times[i]],
                "elapsed_ms": [round(t * 1e3, 3) for t in elapsed[i]],
                **results.get(i, {}),
            }
            for i, case in enumerate(cases)
        ],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{workload.name}-seed{seed}.json").write_text(json.dumps(table, indent=1))
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # used by measure_setup
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print("ready", digest(workload.cases(args.seed)), clock(), flush=True)
        return 0
    # generated in a child, so that the garbage of generation does not
    # stay in the heap every operation's child copies (see unshare_memory)
    ok, cases = run_in_child(lambda: workload.cases(args.seed))
    if not ok:
        raise SystemExit(f"error: input generation failed: {cases}")

    if args.trace:
        from trace_layers import traced_run

        tally, metrics = traced_run(workload, cases, args.seed, args.seconds)
    else:
        tally, metrics = end_to_end(workload, cases, args.seed, args.seconds)
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
