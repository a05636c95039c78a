"""Golden digests: a small fixed run over every suite and mode must keep
producing byte-identical traces, report and plot data, and calibrating the
shared pre-sample must keep producing a byte-identical table. A kerv run
from an equal-bounds table (r_max = r_min = 9) is pinned to the traces the
paper's printed threshold update gives from a [9, 5] table, whose walk
never leaves r_max.

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

# sha256 of ``calibrate(pre_sample, DEFAULT_GRID).dumps()``
PINNED_TABLES = {
    "rectified": "6d71e1fde647749ff178b81ac8f3fed9906d2236ca049b02cccb576512289971",
}

# sha256 of the kerv traces of a GOLDEN_TRIALS run from an equal-bounds
# table, joined in (suite, mode) order
PINNED_FIXED_R = "66751b4e2bb9ed8eb8210d9f8f66ca0b4961df8f9f6160f2f22a89160e1f7685"


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
    got = hashlib.sha256(calibrate(pre_sample, DEFAULT_GRID).dumps().encode()).hexdigest()
    assert {"rectified": got} == PINNED_TABLES


def test_golden_equal_bounds_traces(bench_cfg, pre_sample):
    table = calibrate(pre_sample, DEFAULT_GRID, r_max=9.0, r_min=9.0)
    _, traces = run_suite(bench_cfg, modes=("kerv",), trials=GOLDEN_TRIALS, table=table)
    text = "".join(t.dumps() for k in sorted(traces) if k[1] == "kerv" for t in traces[k])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FIXED_R
