"""Golden digests: a small fixed run over every suite and mode must keep
producing byte-identical traces, report and plot data, and calibrating the
shared pre-sample must keep producing byte-identical tables in both
threshold modes.

The pins were computed once and are never regenerated to make a change
pass: a refactor or speed-up that moves any of them has changed what the
simulator decodes. Every file a run emits is pinned.
"""

import hashlib

from kerv.harness import emit_results, run_suite
from kerv.specdec import MODES
from kerv.threshold import DEFAULT_GRID, calibrate

GOLDEN_TRIALS = 2

PINNED = {
    "report": "c33c3ec2b8a2a8ef5bbf6f6f61aee84eee771264f240a1c382c84ba5613712a2",
    "traces": "dcb142443a86fe5a3fd04ab0a245970cee7822bf304a2d45c7c2cad7f4513fdf",
    "plotdata": "356aa1ab87a332587e41f449e3181d164e6e3eb374b6f076ae82e06a0772d793",
}

# sha256 of ``calibrate(pre_sample, DEFAULT_GRID, mode=...).dumps()``
PINNED_TABLES = {
    "rectified": "6d71e1fde647749ff178b81ac8f3fed9906d2236ca049b02cccb576512289971",
    "literal": "f746ba73c8f148e11c14533c2d5f60d48951ea420c502c35bce2b87094cf1b7b",
}


def _tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\n")
        h.update(path.read_bytes())
    return h.hexdigest()


def test_golden_digests(bench_cfg, calib_table, tmp_path):
    report, traces = run_suite(
        bench_cfg, modes=MODES, trials=GOLDEN_TRIALS, table=calib_table
    )
    emit_results(report, traces, tmp_path)
    got = {
        "report": hashlib.sha256((tmp_path / "report.txt").read_bytes()).hexdigest(),
        "traces": _tree_digest(tmp_path / "traces"),
        "plotdata": _tree_digest(tmp_path / "plotdata"),
    }
    assert got == PINNED


def test_golden_calibration_tables(pre_sample):
    got = {
        mode: hashlib.sha256(
            calibrate(pre_sample, DEFAULT_GRID, mode=mode).dumps().encode()
        ).hexdigest()
        for mode in PINNED_TABLES
    }
    assert got == PINNED_TABLES
