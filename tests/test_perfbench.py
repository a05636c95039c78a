"""The benchmark's tracer still finds every name it wraps.

``perfbench/spans.py`` wraps each traced name as ``owner.__dict__[attr]``
and builds its target list at import, and ``perfbench/run.py`` opens probe
windows at ``harness.run_one_episode`` and ``threshold._replay_objective``.
A name moved or renamed in ``kerv`` breaks every benchmark run, at import
or under ``--trace 1``; these tests catch that without running one.
"""

import importlib.util
import sys
from pathlib import Path

from kerv import harness, threshold

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
