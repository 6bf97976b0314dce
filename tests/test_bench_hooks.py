"""The benchmark's span tracer (bench/spans.py) finds mixlr's entry points by
name. A rename or deletion there would only show when the benchmark runs
with tracing on, so these tests resolve every name and trace one small
kernel call. The runner's own self-test (bench/selftest.py) runs here too."""

import importlib
import io
import unittest
from pathlib import Path

import numpy as np
import pytest

import mixlr.genotypes
import mixlr.likelihood

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_every_entry_point_resolves(spans):
    for module_name, attr, _, _ in spans.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for name in attr.split("."):
            assert hasattr(owner, name), f"{module_name}.{attr}"
            owner = getattr(owner, name)
        assert callable(owner), f"{module_name}.{attr}"


def test_traced_kernel_call(spans, toy_profile, toy_table, policy, toy_hd):
    cls = mixlr.likelihood.MixtureEvaluator
    original = cls.__dict__["marginal_log10"]
    with spans.traced(spans.Tracer()) as tracer:
        # the calls the benchmark makes, through module attributes
        sets = mixlr.genotypes.enumerate_sets(toy_profile, toy_hd, toy_table, policy)
        ev = mixlr.likelihood.MixtureEvaluator(toy_profile, sets)
        ev.marginal_log10(np.array([[1000.0]]), 12.0)
        mixlr.likelihood.build_evaluator(toy_profile, toy_hd, toy_table, policy)
    assert cls.__dict__["marginal_log10"] is original
    assert tracer.count["likelihood.calls"] == 1
    assert tracer.count["likelihood.build_calls"] == 2
    assert tracer.count["genotypes.enumerate_calls"] == 2


def test_bench_selftest_passes(monkeypatch):
    # bench/selftest.py checks the runner's arithmetic and that its metric
    # names match BENCHMARK.json
    monkeypatch.syspath_prepend(str(BENCH))
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        importlib.import_module("selftest")
    )
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    assert result.testsRun > 0
    assert result.wasSuccessful(), result.failures + result.errors
