"""The benchmark's tracer still finds every name it wraps.

``perfbench/spans.py`` wraps each traced name as ``owner.__dict__[attr]``
and builds its target list at import, and ``perfbench/run.py`` opens probe
windows at ``harness.run_one_episode`` and ``threshold._replay_objective``
and reads trace records, ``harness.modeled_latency`` and the acceptance
statuses. A name moved or renamed in ``kerv`` breaks every benchmark run,
at import, under ``--trace 1`` or at its quality figures; these tests
catch that without running one.
"""

import importlib.util
import sys
from pathlib import Path

from kerv import harness, specdec, threshold
from kerv.trace import EpisodeTrace, SliceRecord

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_is_where_the_tracer_wraps_it(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are made
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in spans.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    with spans.Tracer().installed():
        pass
    assert [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS] == originals


def test_the_benchmark_probe_points_exist():
    assert callable(harness.run_one_episode)
    assert callable(threshold._replay_objective)


def test_what_the_benchmark_reads_of_a_trace_exists():
    """``perfbench/run.py`` checks and counts every trace it gets through
    these names."""
    ids = (1, 2, 5, None, None, None, None)
    rec = SliceRecord(
        draft_ids=ids, true_ids=(1, 3, 9, None, None, None, None), tokens=(1, 2, 9, 0, 0, 0, 0),
        r=1.0, kvar_step=0.0, kvar_cum=0.0, verify_calls=1, cooldown_remaining=0,
    )
    t = EpisodeTrace(
        suite="goal", kind="reach", mode="kerv", robot="sim7dof", trial=0, seed=0,
        slices=[rec], steps=1,
    )
    assert (rec.comp_fired, rec.verify_calls, rec.draft_ids) == (True, 1, ids)
    assert rec.statuses[:2] == (specdec.EXACT, specdec.RELAXED) == ("exact", "relaxed")
    assert (t.steps, t.slices) == (1, [rec])
    assert callable(harness.modeled_latency)
