"""The library attributes the traced benchmark run reads by name, and the
result line that run prints.

benchmarks/trace_layers.py wraps stage functions, reads lru_cache counters
and counts calls through module attributes looked up by name.  A metric
whose attribute has gone, or whose count is zero where it divides (walks
built, for walks.build_yield), comes out as null, and a result line with a
null or non-finite metric is a malformed result of the whole benchmark run.
These tests fail on either.
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


@pytest.fixture(scope="module")
def trace_layers():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield importlib.import_module("trace_layers")
    finally:
        sys.path.remove(str(BENCHMARKS))


def resolve(module: str, path: str):
    obj = importlib.import_module(f"braidwalks.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_spans_and_sizes_resolve(trace_layers):
    for module, attr in trace_layers.SPANS.values():
        assert callable(resolve(module, attr)), (module, attr)
    for module, attr, _size in trace_layers.SIZES.values():
        assert callable(resolve(module, attr)), (module, attr)


def test_caches_have_cache_info(trace_layers):
    assert set(trace_layers.CACHES) == {"merge", "eval"}
    for module, attr in trace_layers.CACHES.values():
        hits, misses, *_ = resolve(module, attr).cache_info()
        assert hits >= 0 and misses >= 0


def test_hooked_functions_live_in_listed_modules(trace_layers):
    # the span pass rebinds a function only in the modules _modules lists,
    # so a call made from an unlisted module would go uncounted
    _mods, everywhere = trace_layers._modules()
    listed = {mod.__name__ for mod in everywhere}
    hooked = [*trace_layers.SPANS.values(), *trace_layers.CACHES.values()]
    hooked += [(module, attr) for module, attr, _size in trace_layers.SIZES.values()]
    for module, attr in hooked:
        assert resolve(module, attr).__module__ in listed, (module, attr)


def test_call_counts_resolve(trace_layers):
    for module, path in trace_layers.CALLS.values():
        assert resolve(module, path).__code__, (module, path)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


@pytest.mark.parametrize("workload", ["series-ladder", "build-C", "corpus-sweep"])
def test_traced_run_prints_numbers(workload):
    # one round of every input: a few seconds per workload
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(
        proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant
    )
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float), (name, value)
        assert math.isfinite(value), (name, value)
