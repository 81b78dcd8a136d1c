#!/usr/bin/env python3
"""Negative control: a wrong output must count as a failed operation.

    python3 benchmarks/negative_control.py

For each workload it takes a few cheap inputs of seed 1 (on the ladder, one
rung of each knot, at N=3 where the ladder has it, so that every kind of
check is reached) and runs them through the same code as the timed run:
one round as is, then one round per input with the output of that input's
operation corrupted after its timed section: one coefficient of the Jones
polynomial raised by one, or one term dropped from the walks C.  It exits 0
only if the clean round has no failure and each corrupted round fails
exactly the corrupted operation.
"""

from __future__ import annotations

import sys

from harness import Tally, import_program

INPUTS = 6


def pick(name: str, cases):
    if name == "series-ladder":
        by_word = {}
        for case in sorted(cases, key=lambda c: abs(c.N - 3)):
            by_word.setdefault(case.word, case)
        return list(by_word.values())
    return sorted(cases, key=lambda c: len(c.tokens))[:INPUTS]


def main() -> int:
    import_program()
    from run import run_round
    from workloads import WORKLOADS

    ok = True
    for name, workload in WORKLOADS.items():
        cases = pick(name, workload.cases(1))
        for corrupt in (None, *range(len(cases))):
            tally = Tally()
            list(run_round(workload, cases, tally, corrupt_index=corrupt))
            expect = 0 if corrupt is None else 1
            good = tally.failed == tally.wrong == expect
            ok &= good
            print(f"{name:14} corrupted={'none' if corrupt is None else corrupt:>4}"
                  f"  attempted={tally.attempted} failed={tally.failed}"
                  f"  {'ok' if good else 'NOT CAUGHT'}  {'; '.join(tally.reasons)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
