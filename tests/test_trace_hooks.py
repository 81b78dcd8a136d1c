"""The library attributes the traced benchmark run reads by name.

benchmarks/trace_layers.py wraps stage functions, reads lru_cache counters
and counts calls through module attributes looked up by name, and reports
one that has gone as null instead of failing.  These tests fail instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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


def test_call_counts_resolve(trace_layers):
    for module, path in trace_layers.CALLS.values():
        assert resolve(module, path).__code__, (module, path)
