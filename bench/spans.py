"""Span tracing around the public entry points of mixlr's layers.

The layers are the package's modules. `traced(tracer)` rebinds each entry
point below, in every loaded mixlr module that holds it, to a wrapper that
records one span (name, start, end, parent, LR id) and a few counters, and
puts the originals back on exit. Nothing in mixlr changes; code that binds
an entry point after installation is not seen, so callers go through the
module attributes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from stats import self_times

LAYERS = ("likelihood", "genotypes", "mle", "integrate", "study")

# A kernel call at or above this batch counts as a large batch, the regime
# where per-point throughput rather than per-call overhead sets its cost.
LARGE_BATCH = 256

MB = float(1 << 20)


class Tracer:
    """Spans kept in memory, plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.lr_ids: list[int] = []
        self.lr_id = -1
        self.count = defaultdict(float)
        self.peak_chunk_mb = 0.0
        self._stack: list[int] = []
        self._depth = defaultdict(int)
        self._inclusive = defaultdict(float)

    def open(self, name: str, layer: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.lr_ids.append(self.lr_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self._depth[layer] += 1
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> float:
        end = time.perf_counter()
        self.ends[i] = end
        self._stack.pop()
        layer = self.layers[i]
        self._depth[layer] -= 1
        duration = end - self.starts[i]
        if self._depth[layer] == 0:
            self._inclusive[layer] += duration
        return duration

    def inside(self, layer: str) -> bool:
        return self._depth[layer] > 0

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """(inclusive, self) seconds per layer.

        Inclusive time counts only a layer's outermost spans, so a layer
        calling into itself is not counted twice.
        """
        own = self_times(self.starts, self.ends, self.parents)
        self_s = defaultdict(float)
        for layer, t in zip(self.layers, own):
            self_s[layer] += t
        return {layer: (self._inclusive[layer], self_s[layer]) for layer in LAYERS}

    def write_jsonl(self, path: str) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "span": i,
                            "name": name,
                            "layer": self.layers[i],
                            "start": round(self.starts[i] - t0, 9),
                            "end": round(self.ends[i] - t0, 9),
                            "parent": self.parents[i],
                            "lr": self.lr_ids[i],
                        }
                    )
                    + "\n"
                )


def _after_marginal(tr, args, kwargs, out, duration):
    ev = args[0]
    templates = args[1] if len(args) > 1 else kwargs["templates"]
    batch = np.atleast_2d(np.asarray(templates)).shape[0]
    set_points = batch * sum(len(lev.log10_priors) for lev in ev.evaluators)
    c = tr.count
    c["likelihood.calls"] += 1
    c["likelihood.points"] += batch
    c["likelihood.set_points"] += set_points
    if batch == 1:
        c["batch1.calls"] += 1
        c["batch1.s"] += duration
    if batch >= LARGE_BATCH:
        c["large.set_points"] += set_points
        c["large.s"] += duration
    if tr.inside("integrate"):
        c["integrate.points"] += batch


def _after_set_ll(tr, args, kwargs, out, duration):
    lev = args[0]
    n_sets, _, n_pos = lev.copies.shape
    chunk_mb = out.shape[0] * n_sets * n_pos * 8 / MB
    tr.peak_chunk_mb = max(tr.peak_chunk_mb, chunk_mb)
    tr.count["live.finite"] += int(np.count_nonzero(np.isfinite(out)))
    tr.count["live.total"] += out.size


def _after_build(tr, args, kwargs, out, duration):
    tr.count["likelihood.build_calls"] += 1
    tr.count["likelihood.build_s"] += duration


def _after_enumerate(tr, args, kwargs, out, duration):
    tr.count["genotypes.enumerate_calls"] += 1
    tr.count["genotypes.sets"] += sum(len(v) for v in out.values())
    tr.count["genotypes.enumerate_s"] += duration


def _after_maximize(tr, args, kwargs, out, duration):
    tr.count["mle.maximize_calls"] += 1
    tr.count["mle.evals"] += out.function_evals
    tr.count["mle.nonconverged"] += not out.converged


def _after_quadrature(tr, args, kwargs, out, duration):
    tr.count["integrate.quadrature_calls"] += 1
    tr.count["integrate.levels"] += out.levels
    tr.count["integrate.nonconverged"] += not out.converged


def _after_study(tr, args, kwargs, out, duration):
    tr.count["study.cases"] += len({r.case_id for r in out})
    tr.count["study.records"] += len(out)


# (module, attribute, layer, counter hook); a dotted attribute is a method.
ENTRY_POINTS = (
    ("mixlr.genotypes", "enumerate_sets", "genotypes", _after_enumerate),
    ("mixlr.likelihood", "MixtureEvaluator.__init__", "likelihood", _after_build),
    ("mixlr.likelihood", "MixtureEvaluator.marginal_log10", "likelihood", _after_marginal),
    ("mixlr.likelihood", "LocusEvaluator.set_log10_likelihoods", "likelihood", _after_set_ll),
    ("mixlr.mle", "maximize", "mle", _after_maximize),
    ("mixlr.mle", "fit_both", "mle", None),
    ("mixlr.integrate", "marginal_quadrature", "integrate", _after_quadrature),
    ("mixlr.integrate", "marginal_monte_carlo", "integrate", None),
    ("mixlr.study", "run_study", "study", _after_study),
)


def _wrap(tracer: Tracer, fn, name: str, layer: str, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            duration = tracer.close(i)
        if after is not None:
            after(tracer, args, kwargs, out, duration)
        return out

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers for the duration of the block."""
    undo = []
    try:
        for module_name, attr, layer, after in ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, original, attr, layer, after))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, original, attr, layer, after)
            for name, mod in list(sys.modules.items()):
                if (name == "mixlr" or name.startswith("mixlr.")) and getattr(
                    mod, attr, None
                ) is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(
    tracer: Tracer, lrs: int, wall_s: float, untraced_lrs: int, untraced_wall_s: float
) -> dict[str, float]:
    """Per-layer figures from one traced phase.

    Counts and seconds are per LR traced, so they compare across runs that
    finish different numbers of LRs; shares, peaks and per-call figures
    are as measured. study.cases, study.records, trace.lrs and trace.spans
    are totals. The untraced figures are the same rounds run without
    wrappers, which gives the tracing overhead.
    """
    c = tracer.count
    per = 1.0 / lrs if lrs else 0.0
    times = tracer.layer_times()
    m: dict[str, float] = {}
    for key in (
        "likelihood.calls",
        "likelihood.points",
        "likelihood.set_points",
        "likelihood.build_calls",
        "likelihood.build_s",
        "genotypes.enumerate_calls",
        "genotypes.sets",
        "genotypes.enumerate_s",
        "mle.maximize_calls",
        "mle.evals",
        "mle.nonconverged",
        "integrate.quadrature_calls",
        "integrate.points",
        "integrate.levels",
        "integrate.nonconverged",
    ):
        m[key] = c[key] * per
    for layer in LAYERS:
        inclusive, own = times[layer]
        m[f"{layer}.s"] = inclusive * per
        m[f"{layer}.self_s"] = own * per
        m[f"{layer}.self_share"] = own / wall_s if wall_s > 0 else 0.0
    m["likelihood.batch1_us"] = 1e6 * c["batch1.s"] / c["batch1.calls"] if c["batch1.calls"] else 0.0
    m["likelihood.set_point_ns"] = (
        1e9 * c["large.s"] / c["large.set_points"] if c["large.set_points"] else 0.0
    )
    m["likelihood.live_set_share"] = c["live.finite"] / c["live.total"] if c["live.total"] else 0.0
    m["likelihood.peak_chunk_mb"] = tracer.peak_chunk_mb
    m["mle.evals_per_fit"] = (
        c["mle.evals"] / c["mle.maximize_calls"] if c["mle.maximize_calls"] else 0.0
    )
    m["study.cases"] = c["study.cases"]
    m["study.records"] = c["study.records"]
    traced_rate = lrs / wall_s if wall_s > 0 else 0.0
    plain_rate = untraced_lrs / untraced_wall_s if untraced_wall_s > 0 else 0.0
    m["trace.lrs"] = lrs
    m["trace.lr_per_s"] = traced_rate
    m["trace.untraced_lr_per_s"] = plain_rate
    m["trace.overhead"] = plain_rate / traced_rate - 1.0 if traced_rate > 0 else 0.0
    m["trace.spans"] = len(tracer.starts)
    return m
