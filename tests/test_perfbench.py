"""The benchmark's tracer still finds every name it wraps.

``perfbench/spans.py`` wraps each traced name as ``owner.__dict__[attr]``
and builds its target list at import, and ``perfbench/run.py`` opens probe
windows at ``harness.run_one_episode`` and ``threshold._replay_objective``
and reads trace records, ``harness.modeled_latency`` and the acceptance
statuses. A name moved or renamed in ``kerv`` breaks every benchmark run,
at import, under ``--trace 1`` or at its quality figures; these tests
catch that without running one. A change to the trace format can still
break the benchmark's checks, which reload and re-dump every trace it
makes or reads, so two short runs check that it passes them.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from kerv import harness, specdec, threshold
from kerv.trace import EpisodeTrace, SliceRecord

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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
        draft_ids=ids, true_ids=(1, 3, 9, None, None, None, None), fill=(0, 0, 0, 0), r=1.0,
        kvar_step=0.0, kvar_cum=0.0, verify_calls=1,
    )
    t = EpisodeTrace(
        suite="goal", kind="reach", mode="kerv", robot="sim7dof", trial=0, seed=0, comp_n=4,
        slices=[rec], steps=1,
    )
    assert (rec.comp_fired, rec.verify_calls, rec.draft_ids) == (True, 1, ids)
    assert rec.statuses[:2] == (specdec.EXACT, specdec.RELAXED) == ("exact", "relaxed")
    assert (t.steps, t.slices) == (1, [rec])
    assert callable(harness.modeled_latency)


@pytest.mark.parametrize("workload", ["paper_report", "calibrate"])
def test_a_short_benchmark_run_passes_its_checks(workload):
    """A 0.1 s untraced run from the repo root exits 0, and its last line
    reports every operation correct and none failed: the traces it writes
    and the pre-sample it reloads round-trip through the loader."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stdout
