"""Span tracing of crossbandit's layers from outside the package.

``Tracer.install`` replaces each layer boundary with a wrapper that records
one span (name, start, end, parent) per call into flat arrays, and counts the
work the call was given where that is an exact number (matrix elements,
revealed loss cells, bytes written). ``uninstall`` puts the originals back.

A wrapper sits on the binding the caller looks up at call time: a function
imported by name into another module is wrapped in that module, and learner,
oracle and graph methods are wrapped on their classes. The context draw keeps
its inverse-CDF sample inside its own span, so ``simplex.sample_arm`` counts
arm draws only.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter

import numpy as np


def _size_of(i):
    return lambda args, out: int(np.size(args[i]))


def _file_size(i):
    return lambda args, out: os.path.getsize(args[i])


def boundaries():
    """(span name, [(owner, attribute)], counter name, counter) per boundary."""
    from crossbandit import (baselines, config, diagnostics, environment, graph,
                             harness, known, unknown)

    oracles = [cls for cls in vars(environment).values()
               if isinstance(cls, type) and issubclass(cls, environment.LossOracle)
               and "loss_slice" in vars(cls)]
    return [
        ("config.parse_config", [(config, "parse_config")], None, None),
        ("harness.validate_config",
         [(config, "validate_config"), (harness, "validate_config")], None, None),
        ("harness.run", [(harness, "run")], None, None),
        ("harness.run_replicate", [(harness, "run_replicate")], None, None),
        ("harness.summarize_regret", [(harness, "summarize_regret")], None, None),
        ("harness.Trace.write_ndjson", [(harness.Trace, "write_ndjson")],
         "bytes", _file_size(1)),
        ("harness.write_report_json", [(harness, "write_report_json")], None, None),
        ("harness.write_curves_csv", [(harness, "write_curves_csv")],
         "bytes", _file_size(1)),
        ("environment.sample_context", [(harness, "sample_context")], None, None),
        ("environment.loss_slice", [(cls, "loss_slice") for cls in oracles], None, None),
        ("environment.reveal", [(harness, "reveal")],
         "cells", lambda args, out: int(out.losses.size)),
        ("simplex.exp_weights",
         [(known, "exp_weights"), (unknown, "exp_weights"), (baselines, "exp_weights")],
         "elems", _size_of(0)),
        ("simplex.sample_arm",
         [(known, "sample_arm"), (unknown, "sample_arm"), (baselines, "sample_arm")],
         None, None),
        ("graph.build_graph", [(harness, "build_graph")], None, None),
        ("graph.in_mass_rows", [(graph.FeedbackGraph, "in_mass_rows")],
         "elems", _size_of(1)),
        ("known.act", [(known.KnownDistLearner, "act")], None, None),
        ("known.update", [(known.KnownDistLearner, "update")], None, None),
        ("unknown.act", [(unknown.EpochLearner, "act")], None, None),
        ("unknown.update", [(unknown.EpochLearner, "update")], None, None),
        ("unknown.end_epoch", [(unknown.EpochLearner, "end_epoch")], None, None),
        ("baselines.act", [(baselines.GraphExp3Baseline, "act")], None, None),
        ("baselines.update", [(baselines.GraphExp3Baseline, "update")], None, None),
        ("diagnostics.attach_epoch_diagnostics",
         [(diagnostics, "attach_epoch_diagnostics")], None, None),
    ]


class Profile:
    """Per-name totals of one traced job, plus the checks on its span tree."""

    def __init__(self, names, name_ids, parents, starts, ends, counters):
        ids = np.frombuffer(name_ids, dtype=np.int32)
        parent = np.frombuffer(parents, dtype=np.int32)
        start = np.frombuffer(starts, dtype=np.float64)
        dur = np.frombuffer(ends, dtype=np.float64) - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        n = len(names)
        self.names = list(names)
        self.calls = dict(zip(names, np.bincount(ids, minlength=n).tolist()))
        self.inclusive_s = dict(zip(names, np.bincount(ids, weights=dur, minlength=n).tolist()))
        self.self_s = dict(zip(names, np.bincount(ids, weights=self_time, minlength=n).tolist()))
        self.counters = dict(counters)
        self.roots = int((~has_parent).sum())
        self.root_s = float(dur[~has_parent].sum())
        self.self_sum_s = float(self_time.sum())
        self.min_self_s = float(self_time.min()) if len(self_time) else 0.0
        self.arrays = {"name_id": ids, "parent": parent, "start": start, "dur": dur}

    def exact_counts(self) -> dict[str, int]:
        """Every ``*.calls`` and counter, keyed by metric name."""
        out = {f"{name}.calls": c for name, c in self.calls.items()}
        out.update((k, v) for k, v in self.counters.items() if not k.endswith(".bytes"))
        return out

    def closure_error(self) -> str | None:
        """Self times must sum to the root span, and no span's children may
        cover more than the span itself."""
        if self.roots != 1:
            return f"{self.roots} root spans, expected 1"
        tol = 1e-6 + 1e-9 * len(self.arrays["dur"])
        if abs(self.self_sum_s - self.root_s) > tol:
            return f"self times sum to {self.self_sum_s!r} s, root span is {self.root_s!r} s"
        if self.min_self_s < -1e-6:
            return f"a span's children cover {-self.min_self_s!r} s more than the span"
        return None

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays)


class Tracer:
    """Records spans while installed. One job at a time, single-threaded."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._start_new()

    def _start_new(self):
        self._name_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._counters: dict[str, int] = {}

    def _wrapper(self, fn, name_id: int, counter_key: str | None, counter):
        def traced(*args, **kwargs):
            starts = self._starts
            stack = self._stack
            i = len(starts)
            self._name_ids.append(name_id)
            self._parents.append(stack[-1])
            self._ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self._ends[i] = perf_counter()
                stack.pop()
            if counter is not None:
                self._counters[counter_key] = self._counters.get(counter_key, 0) + counter(args, out)
            return out

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._names = ["job"]
        for name, bindings, counter_name, counter in boundaries():
            name_id = len(self._names)
            self._names.append(name)
            key = f"{name}.{counter_name}" if counter_name else None
            for owner, attr in bindings:
                original = vars(owner)[attr]
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name_id, key, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    @property
    def boundary_names(self) -> list[str]:
        return self._names[1:]

    def trace(self, job, *args, **kwargs):
        """Run ``job`` under a root span; returns (job's result, Profile)."""
        if not self._installed:
            raise RuntimeError("install the tracer before tracing a job")
        self._start_new()
        result = self._wrapper(job, 0, None, None)(*args, **kwargs)
        if self._stack != [-1]:
            raise RuntimeError("span stack not empty after the job")
        profile = Profile(self._names, self._name_ids, self._parents, self._starts,
                          self._ends, self._counters)
        return result, profile
