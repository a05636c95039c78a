"""Golden digests: a small fixed run over every suite and mode must keep
producing byte-identical traces, report and plot data, and calibrating the
shared pre-sample must keep producing a byte-identical table. A kerv run
from an equal-bounds table (r_max = r_min = 9) is pinned to the traces the
paper's printed threshold update gives from a [9, 5] table, whose walk
never leaves r_max.

The pins are never regenerated to make a change pass: a refactor or
speed-up that moves any of them has changed what the simulator decodes.
Every file a run emits is pinned. They were re-pinned once, on purpose,
when the draft noise moved from NumPy's SeedSequence/PCG64 stream to the
SplitMix64 counter stream of ``simenv.noise_rows``; every pin moved with
the noise rows, and the old and new values are listed in CHANGES.md. The
two trace pins moved once more when records stopped storing what their
statuses give (``step``, ``draft_calls``, ``sources``, ``first_error_pos``,
``comp_fired``, and the summary's ``comp_events``): each new pin is the
digest of the old traces with those keys removed from every line, and the
report, plot data and table pins did not move. They moved once more when
records stopped storing their ``statuses``, which each record derives from
its ids and r: writing every record's derived statuses back into its line
gives the pins before (``PINNED_WITH_STATUSES``), and the report, plot
data and table pins did not move. They moved once more when a record kept
only the filter's ``fill`` of its tokens, and the header gained the run's
``comp_n``: writing every record's derived ``tokens`` and its rebuilt
``cooldown_remaining`` back into its line, and dropping ``fill`` and the
header's ``comp_n``, gives the pins before (``PINNED_WITH_TOKENS``), and
doing that and writing the statuses back gives ``PINNED_WITH_STATUSES``;
the report, plot data and table pins did not move.
"""

import hashlib
import json

from kerv.harness import emit_results, run_suite
from kerv.threshold import DEFAULT_GRID, calibrate
from kerv.trace import MODES, loads

GOLDEN_TRIALS = 2

PINNED = {
    "report": "a8c7c786437cedaee8c541c8b03d51fc5c7d60ad5db892f5a3ea4dd9bc8e4d86",
    "traces": "1ac2c85ab9f9864fca3f789ed0a5f1e6bd49df9a85f782735566b0afd5ef8c7d",
    "plotdata": "2013ff075d4e962e75c9bddd5113aad6d082d1797676904bc617d8d7df1ee18c",
}

# sha256 of ``calibrate(pre_sample, DEFAULT_GRID).dumps()``
PINNED_TABLES = {
    "rectified": "f934e92a60ed37a20818da0d19e9bad87d7cea181329e688773cd8d939353d64",
}

# sha256 of the kerv traces of a GOLDEN_TRIALS run from an equal-bounds
# table, joined in (suite, mode) order
PINNED_FIXED_R = "7e73cbc46616a27e1d65337fc9465de4b530a21814820bb88edc36441fdf1736"

# the two trace pins when each record stored all its tokens and its cooldown
PINNED_WITH_TOKENS = {
    "traces": "e4f8155763db56b5bb15668b0e9ece33cbc40421552e091296b34679bdb0d11c",
    "fixed_r": "f19d98aaecfdc222affe65e8264a7bd637d0a9845c3795e84c55dc2299a8e181",
}

# the two trace pins when each record also stored its statuses
PINNED_WITH_STATUSES = {
    "traces": "a1f5d166b17ccfe7e2317d18c6f0bdc10bb4021729be38384e40aad48566ac1d",
    "fixed_r": "91da666167a398d6e2ff077cb5873c1299488537cefdc2cae25fbe7d592ef92c",
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
    got = hashlib.sha256(calibrate(pre_sample, DEFAULT_GRID).dumps().encode()).hexdigest()
    assert {"rectified": got} == PINNED_TABLES


def _equal_bounds_texts(bench_cfg, pre_sample):
    """The kerv traces of a GOLDEN_TRIALS run from an equal-bounds table,
    dumped in (suite, mode) order."""
    table = calibrate(pre_sample, DEFAULT_GRID, r_max=9.0, r_min=9.0)
    _, traces = run_suite(bench_cfg, modes=("kerv",), trials=GOLDEN_TRIALS, table=table)
    return [t.dumps() for k in sorted(traces) if k[1] == "kerv" for t in traces[k]]


def test_golden_equal_bounds_traces(bench_cfg, pre_sample):
    text = "".join(_equal_bounds_texts(bench_cfg, pre_sample))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FIXED_R


def _cooldowns(trace):
    """Each record's cooldown after it, rebuilt from the trace: the header's
    comp_n after a compensated record, one less than the record before's
    otherwise, down to 0, and 0 before the first."""
    cooldowns, cooldown = [], 0
    for rec in trace.slices:
        cooldown = trace.comp_n if rec.comp_fired else max(cooldown - 1, 0)
        cooldowns.append(cooldown)
    return cooldowns


def _with_tokens(text, statuses=False):
    """A trace's text as records wrote it when they stored all their tokens
    and their cooldown: each record's derived ``tokens`` and rebuilt
    ``cooldown_remaining`` written back into its line in place of its
    ``fill``, and with ``statuses`` its derived statuses too; the header
    without its ``comp_n``. Each line is ``json.dumps(..., sort_keys=True)``
    of its object, as the trace wrote it."""
    trace = loads(text)
    records = iter(zip(trace.slices, _cooldowns(trace)))
    lines = []
    for line in text.splitlines():
        obj = json.loads(line)
        if "episode" in obj:
            del obj["episode"]["comp_n"]
        elif "summary" not in obj:
            rec, cooldown = next(records)
            del obj["fill"]
            obj.update(tokens=rec.tokens, cooldown_remaining=cooldown)
            if statuses:
                obj["statuses"] = rec.statuses
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)


def _rewritten_pins(bench_cfg, calib_table, pre_sample, tmp_path, statuses):
    """The two trace pins of the golden run with ``_with_tokens`` applied to
    every trace."""
    report, traces = run_suite(bench_cfg, modes=MODES, trials=GOLDEN_TRIALS, table=calib_table)
    emit_results(report, traces, tmp_path)
    for path in (tmp_path / "traces").iterdir():
        path.write_text(_with_tokens(path.read_text(), statuses))
    texts = _equal_bounds_texts(bench_cfg, pre_sample)
    text = "".join(_with_tokens(t, statuses) for t in texts)
    return {
        "traces": _tree_digest(tmp_path / "traces"),
        "fixed_r": hashlib.sha256(text.encode()).hexdigest(),
    }


def test_the_trace_pins_moved_only_by_the_fills(bench_cfg, calib_table, pre_sample, tmp_path):
    """The golden traces with every record's tokens and cooldown written
    back, and without the fills and the header's comp_n, are the traces
    that stored them, byte for byte: that rewrite is all that moved the
    pins."""
    got = _rewritten_pins(bench_cfg, calib_table, pre_sample, tmp_path, statuses=False)
    assert got == PINNED_WITH_TOKENS


def test_the_trace_pins_moved_only_by_the_statuses(bench_cfg, calib_table, pre_sample, tmp_path):
    """The golden traces rewritten as for the pins before the fills, with
    every record's statuses written back as well, are the traces that
    stored them, byte for byte: removing that one key is all that moved
    the pins before."""
    got = _rewritten_pins(bench_cfg, calib_table, pre_sample, tmp_path, statuses=True)
    assert got == PINNED_WITH_STATUSES
