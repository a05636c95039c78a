"""Outside-in span tracing of the kerv modules.

Wrappers are installed on module attributes and class methods, at the names
the callers look up at call time, so nothing under ``src/`` changes. Each
wrapped call records one span (name, start, end, parent) into flat integer
arrays kept in memory; self time is a span's duration minus the durations of
its direct children. The benchmark wraps every operation in a ``bench.op``
root span, whose self time is the part of the operation no layer span
covers.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from kerv import harness, kinematics, simenv, specdec, threshold, trace

ROOT_SPAN = "bench.op"

# (owner, attribute, span name). The owner is where the caller resolves the
# name: harness imports make_task and run_episode by name, and specdec
# imports decode_slice and accumulate_kvar by name.
TARGETS = (
    (simenv.NoisyDrafter, "draft", "simenv.draft"),
    (simenv.PlanVerifier, "verify", "simenv.verify"),
    (simenv, "oracle_policy", "simenv.oracle_policy"),
    (harness, "make_task", "simenv.make_task"),
    (simenv.SimEnv, "__init__", "simenv.env_init"),
    (simenv.SimEnv, "step", "simenv.env_step"),
    (specdec, "decode_slice_sd", "specdec.decode_slice"),
    (specdec, "relaxed_accept", "specdec.relaxed_accept"),
    (specdec, "accepted_error_kvar", "specdec.kvar"),
    (specdec, "accumulate_kvar", "specdec.kvar"),
    (harness, "run_episode", "specdec.run_episode"),
    (kinematics.KfBank, "push_slice", "kinematics.kf_push"),
    (kinematics.KfBank, "predict", "kinematics.kf_predict"),
    (threshold, "adjust", "threshold.adjust"),
    (threshold, "calibrate", "threshold.calibrate"),
    (specdec, "decode_slice", "codec.decode_slice"),
    (trace.EpisodeTrace, "save", "trace.save"),
    (trace, "load", "trace.load"),
    (harness, "run_one_episode", "harness.run_one_episode"),
    (harness, "run_suite", "harness.run_suite"),
    (harness, "emit_results", "harness.emit_results"),
)

# (metric, span, quantity, denominator, unit). quantity is calls, total_us,
# self_us, total_ms or self_ms; the denominator is a counter the benchmark
# supplies, or "call" for the span's own call count.
LAYER_METRICS = (
    ("simenv.draft.calls_per_slice", "simenv.draft", "calls", "slices", "calls/slice"),
    ("simenv.draft.self_us_per_slice", "simenv.draft", "self_us", "slices", "us/slice"),
    ("simenv.verify.calls_per_slice", "simenv.verify", "calls", "slices", "calls/slice"),
    ("simenv.verify.self_us_per_slice", "simenv.verify", "self_us", "slices", "us/slice"),
    ("simenv.oracle_policy.calls_per_slice", "simenv.oracle_policy", "calls", "slices", "calls/slice"),
    ("simenv.oracle_policy.us_per_slice", "simenv.oracle_policy", "total_us", "slices", "us/slice"),
    ("simenv.make_task.us_per_episode", "simenv.make_task", "total_us", "episodes", "us/episode"),
    ("simenv.env_init.us_per_episode", "simenv.env_init", "total_us", "episodes", "us/episode"),
    ("simenv.env_step.us_per_slice", "simenv.env_step", "total_us", "slices", "us/slice"),
    ("specdec.decode_slice.self_us_per_slice", "specdec.decode_slice", "self_us", "slices", "us/slice"),
    ("specdec.relaxed_accept.calls_per_slice", "specdec.relaxed_accept", "calls", "slices", "calls/slice"),
    ("specdec.kvar.us_per_slice", "specdec.kvar", "total_us", "slices", "us/slice"),
    ("specdec.run_episode.self_us_per_slice", "specdec.run_episode", "self_us", "slices", "us/slice"),
    ("kinematics.kf_push.us_per_slice", "kinematics.kf_push", "total_us", "slices", "us/slice"),
    ("kinematics.kf_predict.calls_per_slice", "kinematics.kf_predict", "calls", "slices", "calls/slice"),
    ("kinematics.kf_predict.us_per_call", "kinematics.kf_predict", "total_us", "call", "us/call"),
    ("threshold.adjust.calls_per_slice", "threshold.adjust", "calls", "slices", "calls/slice"),
    ("threshold.adjust.us_per_slice", "threshold.adjust", "total_us", "slices", "us/slice"),
    ("threshold.calibrate.ms_per_call", "threshold.calibrate", "total_ms", "call", "ms/call"),
    ("threshold.calibrate.us_per_replayed_slice", "threshold.calibrate", "total_us", "replayed_slices", "us/slice"),
    ("codec.decode_slice.us_per_slice", "codec.decode_slice", "total_us", "slices", "us/slice"),
    ("trace.save.us_per_slice", "trace.save", "total_us", "slices", "us/slice"),
    ("trace.load.us_per_slice", "trace.load", "total_us", "slices", "us/slice"),
    ("harness.run_one_episode.self_us_per_episode", "harness.run_one_episode", "self_us", "episodes", "us/episode"),
    ("harness.emit_results.self_ms_per_op", "harness.emit_results", "self_ms", "ops", "ms/op"),
    ("harness.run_suite.self_ms_per_op", "harness.run_suite", "self_ms", "ops", "ms/op"),
)

_SCALE = {"us": 1e-3, "ms": 1e-6}


@dataclass(frozen=True)
class SpanTotals:
    calls: int
    total_ns: int
    self_ns: int


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a ``name`` span."""
        if name not in self._names:
            self._names.append(name)
        nid = self._names.index(name)
        name_ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, SpanTotals], int]:
        """Per-name call counts, total and self time, and the smallest self
        time of any span, which is negative if a span outlasted its parent."""
        names = np.frombuffer(self.name_id, dtype=np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        out = {}
        for nid, name in enumerate(self._names):
            sel = names == nid
            out[name] = SpanTotals(int(sel.sum()), int(dur[sel].sum()), int(own[sel].sum()))
        return out, int(own.min(initial=0))


def layer_metrics(
    totals: dict[str, SpanTotals], counters: dict[str, int], time_scale: float
) -> dict[str, dict]:
    """Derive the per-layer metrics from span totals, with times multiplied
    by ``time_scale``.

    Every metric is present, as the result line must name each one. A
    metric whose span never ran reads 0 and is listed by ``absent``: that
    layer does not run in the workload, which is not the same as a layer
    that runs in no measurable time.
    """
    out = {}
    for metric, span, quantity, denom, unit in LAYER_METRICS:
        st = totals.get(span)
        if st is None or st.calls == 0:
            out[metric] = {"value": 0.0, "unit": unit}
            continue
        base = st.calls if denom == "call" else counters[denom]
        if quantity == "calls":
            value = st.calls
        else:
            kind, scale = quantity.split("_")
            value = (st.total_ns if kind == "total" else st.self_ns) * _SCALE[scale] * time_scale
        out[metric] = {"value": value / base, "unit": unit}
    return out


def absent(totals: dict[str, SpanTotals]) -> list[str]:
    """The metrics whose span made no call."""
    return [
        metric for metric, span, *_ in LAYER_METRICS
        if totals.get(span) is None or totals[span].calls == 0
    ]
