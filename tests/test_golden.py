"""Golden digests: a small fixed run over every suite and mode must keep
producing byte-identical traces, report and plot data.

The pins were computed once and are never regenerated to make a change
pass: a refactor or speed-up that moves any of them has changed what the
simulator decodes. ``wallclock.txt`` holds measured timings and is not
pinned.
"""

import hashlib

from kerv.harness import MODE_ORDER, emit_results, run_suite

GOLDEN_TRIALS = 2

PINNED = {
    "report": "c33c3ec2b8a2a8ef5bbf6f6f61aee84eee771264f240a1c382c84ba5613712a2",
    "traces": "dcb142443a86fe5a3fd04ab0a245970cee7822bf304a2d45c7c2cad7f4513fdf",
    "plotdata": "356aa1ab87a332587e41f449e3181d164e6e3eb374b6f076ae82e06a0772d793",
}


def _tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\n")
        h.update(path.read_bytes())
    return h.hexdigest()


def test_golden_digests(bench_cfg, calib_table, tmp_path):
    report, traces = run_suite(
        bench_cfg, modes=MODE_ORDER, trials=GOLDEN_TRIALS, table=calib_table
    )
    emit_results(report, traces, tmp_path)
    got = {
        "report": hashlib.sha256((tmp_path / "report.txt").read_bytes()).hexdigest(),
        "traces": _tree_digest(tmp_path / "traces"),
        "plotdata": _tree_digest(tmp_path / "plotdata"),
    }
    assert got == PINNED
