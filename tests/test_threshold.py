"""Acceptance-threshold controller and calibration table."""

import bisect
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kerv import threshold
from kerv.codec import DEFAULT_KEY, CodecError, NormKey, token_to_action
from kerv.threshold import (
    DEFAULT_GRID,
    CalibrationRow,
    CalibrationTable,
    ThresholdConfigError,
    adjust,
    calibrate,
    lookup,
)
from kerv.trace import EpisodeTrace, SliceRecord, loads
from oracles import reference_adjust, reference_replay_objective


def make_row(**kw):
    defaults = dict(
        tau=1.0, phi=1.0, r_max=15.0, r_min=5.0, kvar_ref=1.0, success_rate=0.0, avg_steps=0.0
    )
    defaults.update(kw)
    return CalibrationRow(**defaults)


def walk(row, steps, r=None):
    """r after each step, from r_max unless ``r`` is given, as a kerv
    episode walks it."""
    r = row.r_max if r is None else r
    prev_kvar = 0.0
    seen = []
    for k in steps:
        r = adjust(row, r, prev_kvar, k)
        prev_kvar = k
        seen.append(r)
    return seen


def test_row_validation():
    assert make_row(r_max=5.0, r_min=5.0).r_max == 5.0  # a fixed threshold
    for bad in (
        dict(r_max=4.0, r_min=5.0),
        dict(r_min=-1.0),
        dict(r_max=math.nan),
        dict(r_max=math.inf),
        dict(r_max=math.inf, r_min=math.inf),
        dict(kvar_ref=0.0),
        dict(tau=0.0),
        dict(tau=-1.0),
        dict(phi=0.0),
        dict(phi=-0.7),
    ):
        with pytest.raises(ThresholdConfigError):
            make_row(**bad)


def test_zero_delta_leaves_r_unchanged():
    assert adjust(make_row(), 15.0, 0.3, 0.3) == 15.0


@given(st.lists(st.floats(0, 5, allow_nan=False), min_size=1, max_size=60), st.floats(0, 15))
@settings(max_examples=200)
def test_equal_bounds_never_move_r(steps, r):
    row = make_row(r_max=r, r_min=r, tau=4.0, phi=0.7, kvar_ref=0.05)
    for got in walk(row, steps):
        assert got.hex() == r.hex()


def test_rectified_direction():
    row = make_row()
    assert adjust(row, 10.0, 0.0, 0.5) < 10.0  # variability rose -> r drops
    assert adjust(row, 10.0, 0.5, 0.0) > 10.0


def test_rectified_monotone_response():
    row = make_row()
    assert adjust(row, 12.0, 0.0, 0.8) <= adjust(row, 12.0, 0.0, 0.3)


def test_rectified_scripted_trace_matches_hand_recurrence():
    taus, phi, ref = 0.7, 1.3, 0.25
    script = [0.1, 0.35, 0.2, 0.2, 0.9, 0.05, 0.6, 0.0]
    # spreadsheet-style recomputation of the same recurrence
    r, prev = 15.0, 0.0
    expected = []
    for k in script:
        dk = k - prev
        prev = k
        if dk != 0.0:
            dr = -math.copysign(
                taus * 10.0 * (1.0 - math.exp(-abs(dk / ref) ** phi)), dk
            )
            r = min(max(r + dr, 5.0), 15.0)
        expected.append(r)
    got = walk(make_row(tau=taus, phi=phi, kvar_ref=ref), script)
    assert got == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.floats(0, 5, allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=200)
def test_rectified_clamp_safety(steps):
    assert all(5.0 <= r <= 15.0 for r in walk(make_row(), steps))


def test_rectified_power_past_the_float_range_moves_by_the_full_magnitude():
    # |dK / kvar_ref| ** phi overflows; 1 - exp(-x) is already 1.0 in float
    # well before that, so the update is tau * (r_max - r_min)
    row = make_row(tau=0.5, phi=1000.0, kvar_ref=0.5)
    assert adjust(row, 12.0, 0.0, 2.0) == 7.0
    assert adjust(row, 6.0, 2.0, 0.0) == 11.0


def test_calibrate_a_grid_whose_power_overflows(pre_sample):
    table = calibrate(pre_sample, [(1.0, 1000.0)])
    assert {(row.tau, row.phi) for row in table.rows.values()} == {(1.0, 1000.0)}


def test_lookup_returns_row_verbatim():
    row = CalibrationRow(0.5, 2.0, 15.0, 5.0, 0.12, 0.9, 120.0)
    table = CalibrationTable({("taskA", "armX"): row})
    assert lookup(table, "taskA", "armX") is row


def test_lookup_unknown_key_is_error():
    row = CalibrationRow(1.0, 1.0, 15.0, 5.0, 0.1, 0.5, 80.0)
    table = CalibrationTable({("taskA", "armX"): row})
    with pytest.raises(ThresholdConfigError):
        lookup(table, "taskB", "armX")


def test_table_roundtrip(tmp_path):
    table = CalibrationTable(
        {
            ("a", "r1"): CalibrationRow(1.0, 0.7, 15.0, 5.0, 0.0877, 0.75, 96.5),
            ("b", "r1"): CalibrationRow(2.0, 1.5, 12.0, 3.0, 0.21, 0.5, 150.0),
        }
    )
    path = tmp_path / "table.csv"
    table.save(path)
    text = path.read_text()
    assert text.splitlines()[0] == "task,robot,tau,phi,r_max,r_min,kvar_ref,sr,steps"
    loaded = CalibrationTable.load(path)
    assert loaded.rows == table.rows


def test_table_load_names_the_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("task,robot\n")
    with pytest.raises(
        ThresholdConfigError, match=f"^{re.escape(str(path))}: unexpected table header"
    ):
        CalibrationTable.load(path)
    # a file that is not UTF-8 text
    path.write_bytes(b"\xff\xfe" + _HEADER_LINE.encode())
    with pytest.raises(
        ThresholdConfigError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"
    ):
        CalibrationTable.load(path)


def test_table_rejects_bad_header():
    with pytest.raises(ThresholdConfigError):
        CalibrationTable.loads("nope,nope\n")


_HEADER_LINE = "task,robot,tau,phi,r_max,r_min,kvar_ref,sr,steps\n"
_ROW = "goal,sim7dof,1.0,0.7,15.0,5.0,0.08,0.75,96.5\n"


def test_table_rejects_short_row():
    with pytest.raises(ThresholdConfigError, match="line 3: expected 9 fields, got 2"):
        CalibrationTable.loads(_HEADER_LINE + _ROW + "long,sim7dof\n")


def test_table_rejects_non_numeric_field():
    with pytest.raises(ThresholdConfigError, match="line 2"):
        CalibrationTable.loads(_HEADER_LINE + _ROW.replace("0.7", "wide"))


def test_table_rejects_duplicate_key():
    with pytest.raises(ThresholdConfigError, match="second row for \\('goal', 'sim7dof'\\)"):
        CalibrationTable.loads(_HEADER_LINE + _ROW + _ROW.replace("1.0", "2.0", 1))


def test_table_rejects_nan_field():
    with pytest.raises(ThresholdConfigError, match="line 3: every numeric field must be finite"):
        CalibrationTable.loads(_HEADER_LINE + _ROW + "long,sim7dof,nan,0.7,15.0,5.0,0.08,0.75,96.5\n")


def test_table_rejects_infinite_kvar_ref():
    with pytest.raises(ThresholdConfigError, match="line 2: every numeric field must be finite"):
        CalibrationTable.loads(_HEADER_LINE + _ROW.replace("0.08", "inf"))


@pytest.mark.parametrize("r_max, r_min", [("4.0", "5.0"), ("15.0", "-1.0")])
def test_table_rejects_bad_r_bounds(r_max, r_min):
    row = _ROW.replace("15.0,5.0", f"{r_max},{r_min}")
    with pytest.raises(ThresholdConfigError, match="line 2: need r_max >= r_min >= 0"):
        CalibrationTable.loads(_HEADER_LINE + row)


def test_table_accepts_equal_r_bounds():
    table = CalibrationTable.loads(_HEADER_LINE + _ROW.replace("15.0,5.0", "7.0,7.0"))
    row = lookup(table, "goal", "sim7dof")
    assert (row.r_max, row.r_min) == (7.0, 7.0)


@pytest.mark.parametrize("tau, phi", [("0.0", "0.7"), ("-1.0", "0.7"), ("1.0", "0.0"), ("1.0", "-0.7")])
def test_table_rejects_non_positive_tau_phi(tau, phi):
    row = _ROW.replace("1.0,0.7", f"{tau},{phi}")
    with pytest.raises(ThresholdConfigError, match="line 2: need tau > 0 and phi > 0"):
        CalibrationTable.loads(_HEADER_LINE + row)


# a row's numeric fields (tau, phi, r_max, r_min, kvar_ref, sr, steps) and
# the one message both the row and the table loader refuse them with
_BAD_FIELDS = {
    "nan_tau": ("nan,0.7,15.0,5.0,0.08,0.75,96.5", "every numeric field must be finite"),
    "inf_kvar_ref": ("1.0,0.7,15.0,5.0,inf,0.75,96.5", "every numeric field must be finite"),
    "nan_kvar_ref": ("1.0,0.7,15.0,5.0,nan,0.75,96.5", "every numeric field must be finite"),
    "inf_steps": ("1.0,0.7,15.0,5.0,0.08,0.75,-inf", "every numeric field must be finite"),
    "r_max_below_r_min": (
        "1.0,0.7,4.0,5.0,0.08,0.75,96.5",
        "need r_max >= r_min >= 0, got r_max=4.0, r_min=5.0",
    ),
    "negative_r_min": (
        "1.0,0.7,15.0,-1.0,0.08,0.75,96.5",
        "need r_max >= r_min >= 0, got r_max=15.0, r_min=-1.0",
    ),
    "zero_tau": (
        "0.0,0.7,15.0,5.0,0.08,0.75,96.5",
        "need tau > 0 and phi > 0, got tau=0.0, phi=0.7",
    ),
    "negative_tau": (
        "-1.0,0.7,15.0,5.0,0.08,0.75,96.5",
        "need tau > 0 and phi > 0, got tau=-1.0, phi=0.7",
    ),
    "zero_phi": (
        "1.0,0.0,15.0,5.0,0.08,0.75,96.5",
        "need tau > 0 and phi > 0, got tau=1.0, phi=0.0",
    ),
    "negative_phi": (
        "1.0,-0.7,15.0,5.0,0.08,0.75,96.5",
        "need tau > 0 and phi > 0, got tau=1.0, phi=-0.7",
    ),
    "zero_kvar_ref": ("1.0,0.7,15.0,5.0,0.0,0.75,96.5", "kvar_ref must be > 0, got 0.0"),
    "negative_kvar_ref": ("1.0,0.7,15.0,5.0,-0.08,0.75,96.5", "kvar_ref must be > 0, got -0.08"),
}


@pytest.mark.parametrize("fields, message", list(_BAD_FIELDS.values()), ids=list(_BAD_FIELDS))
def test_a_row_built_in_code_is_refused_as_a_table_line_is(fields, message):
    with pytest.raises(ThresholdConfigError) as built:
        CalibrationRow(*map(float, fields.split(",")))
    assert str(built.value) == message
    with pytest.raises(ThresholdConfigError) as loaded:
        CalibrationTable.loads(_HEADER_LINE + _ROW + f"long,sim7dof,{fields}\n")
    assert str(loaded.value) == f"calibration table line 3: {message}"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _rows(draw):
    r_min = draw(st.floats(min_value=0.0, allow_infinity=False))
    r_max = draw(st.floats(min_value=r_min, allow_infinity=False))
    tau, phi, kvar_ref = draw(_positive), draw(_positive), draw(_positive)
    return CalibrationRow(tau, phi, r_max, r_min, kvar_ref, draw(_finite), draw(_finite))


@given(st.dictionaries(st.tuples(st.text(), st.text()), _rows(), max_size=4))
@settings(max_examples=200)
def test_table_dumps_loads_round_trip(rows):
    table = CalibrationTable(rows)
    assert CalibrationTable.loads(table.dumps()).rows == table.rows


def test_table_rejects_an_unquoted_carriage_return():
    with pytest.raises(ThresholdConfigError, match="line 3: new-line character seen"):
        CalibrationTable.loads(_HEADER_LINE + _ROW + _ROW.replace("goal", "long\r"))


def _record(pairs, kvar_step, kvar_cum, r=15.0):
    """A fixed_relaxed record at r of the (draft, true) ``pairs`` from
    position 0, in the fewest verify calls its rejections allow; the
    positions after the pairs hold exact (0, 0) pairs. Only kerv
    compensates, so nothing is filled."""
    pairs = list(pairs) + [(0, 0)] * (7 - len(pairs))
    rejected = [pos for pos, (d, t) in enumerate(pairs) if abs(d - t) > r]
    # a round per rejection, and one more unless the last is at slot 6
    calls = len(rejected) + (not rejected or rejected[-1] != 6)
    return SliceRecord(
        draft_ids=tuple(d for d, _ in pairs),
        true_ids=tuple(t for _, t in pairs),
        fill=(),
        r=r,
        kvar_step=kvar_step,
        kvar_cum=kvar_cum,
        verify_calls=calls,
    )


def _trace(suite, kvar_steps, pairs):
    """Minimal trace: one slice per kvar value, with given (draft, true)
    pairs, read back through the trace loader, which takes it."""
    slices = []
    cum = 0.0
    for kv in kvar_steps:
        cum += kv
        slices.append(_record(pairs, kv, cum))
    trace = EpisodeTrace(
        suite=suite, kind="reach", mode="fixed_relaxed", robot="armX", trial=0, seed=0, comp_n=0,
        slices=slices, success=True, steps=len(slices), plan_steps=len(slices),
    )
    return loads(trace.dumps())


def test_calibrate_single_candidate():
    traces = [_trace("t1", [0.1, 0.3, 0.2], [(100, 103)])]
    table = calibrate(traces, [(0.5, 1.5)])
    row = table.rows[("t1", "armX")]
    assert (row.tau, row.phi) == (0.5, 1.5)
    assert row.kvar_ref == pytest.approx(0.2)
    assert row.success_rate == 1.0
    assert row.avg_steps == 3.0


def test_calibrate_zero_variability_is_error():
    traces = [_trace("t1", [0.0, 0.0], [(100, 100)])]
    with pytest.raises(ThresholdConfigError):
        calibrate(traces, [(1.0, 1.0)])


def test_calibrate_empty_inputs_are_errors():
    traces = [_trace("t1", [0.1], [(100, 103)])]
    with pytest.raises(ThresholdConfigError):
        calibrate(traces, [])
    with pytest.raises(ThresholdConfigError):
        calibrate([], [(1.0, 1.0)])


def test_calibrate_deterministic_and_grouped():
    traces = [
        _trace("t1", [0.1, 0.25], [(100, 104)]),
        _trace("t2", [0.4, 0.2], [(50, 61)]),
    ]
    t1 = calibrate(traces, DEFAULT_GRID)
    t2 = calibrate(traces, DEFAULT_GRID)
    assert t1.rows == t2.rows
    assert set(t1.rows) == {("t1", "armX"), ("t2", "armX")}


def test_calibrate_replay_keeps_r_bounded():
    # replaying the selected candidate over the traces stays within bounds
    # and performs at least one adjustment
    kvars = [0.05, 0.3, 0.1, 0.5, 0.2, 0.0]
    traces = [_trace("t1", kvars, [(100, 108), (30, 27)])]
    table = calibrate(traces, DEFAULT_GRID)
    row = lookup(table, "t1", "armX")
    seen = walk(row, kvars)
    assert all(row.r_min <= r <= row.r_max for r in seen)
    assert any(r != 15.0 for r in seen)


# --- calibration replay against the direct per-slice reference ---------------

# (norm key, widest miss, the r its records were judged at) of each key the
# replay is checked on: the default key; 16 bins over +-0.02, whose bin
# widths are not dyadic, and whose records are judged at r = 4 so that
# slices may be exact after a rejection; and 2**40 ids over ranges that
# differ per DoF. The misses land on both sides of floor(r) as r walks down
# from 15.
_WIDE_LO = (-0.5, -1.0, -0.25, -3.0, -3.0, -3.0, -1.0)
_WIDE_HI = (0.5, 1.0, 0.75, 3.0, 3.0, 3.0, 1.0)
_KEY_CASES = {
    "default": (DEFAULT_KEY, 30, 15.0),
    "16 bins": (NormKey((-0.02,) * 7, (0.02,) * 7, 16), 8, 4.0),
    "2**40 ids": (NormKey(_WIDE_LO, _WIDE_HI, 2**40), 30, 15.0),
}


def _position(vocab, widest):
    """One (draft, true) pair inside the vocabulary: a hit, or a miss by
    1..``widest`` ids."""
    return st.one_of(
        st.integers(0, vocab - 1).map(lambda t: (t, t)),
        st.tuples(st.integers(0, vocab - 1 - widest), st.integers(1, widest), st.booleans()).map(
            lambda x: (x[0], x[0] + x[1]) if x[2] else (x[0] + x[1], x[0])
        ),
    )


def _cut(pairs, r):
    """``pairs`` up to their first rejection at r, when it comes before the
    gripper: ``_record`` makes the positions after it exact."""
    first = next((pos for pos, (d, t) in enumerate(pairs) if abs(d - t) > r), 6)
    return pairs[: first + 1]


def _slice_pairs(vocab, widest, r):
    """Seven pairs, or the pairs up to the first rejection, exact after it."""
    return st.lists(_position(vocab, widest), min_size=7, max_size=7).flatmap(
        lambda pairs: st.sampled_from([pairs, _cut(pairs, r)])
    )


@st.composite
def _traces(draw, case=_KEY_CASES["default"]):
    """Traces of one key case built from a few slice templates, so equal
    slices (zero-delta updates) and runs of equal ``kvar_step`` recur; each
    is read back through the trace loader, which takes it."""
    key, widest, r = case
    templates = draw(st.lists(_slice_pairs(key.vocab_size, widest, r), min_size=1, max_size=4))
    kvars = draw(st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.7]), min_size=1, max_size=3))
    traces = []
    for trial in range(draw(st.integers(1, 3))):
        order = draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=25))
        slices = []
        cum = 0.0
        for step, i in enumerate(order):
            kvar_step = kvars[step % len(kvars)]
            cum += kvar_step
            slices.append(_record(templates[i], kvar_step, cum, r))
        trace = EpisodeTrace(
            suite="t", kind="reach", mode="fixed_relaxed", robot="armX", trial=trial, seed=0,
            comp_n=0,
            slices=slices, success=trial % 2 == 0, steps=len(slices),
        )
        traces.append(loads(trace.dumps()))
    return traces


# a key case's key with traces drawn inside its vocabulary
_keyed_traces = st.sampled_from(list(_KEY_CASES.values())).flatmap(
    lambda case: st.tuples(st.just(case[0]), _traces(case))
)

_GRID = [(tau, phi) for tau in (0.5, 1.0, 4.0) for phi in (0.5, 0.7, 1.0, 1.5, 2.0)]


# r_min 15.0 equals r_max: a fixed threshold
_R_MINS = [0.0, 5.0, 15.0]


@given(_keyed_traces, st.sampled_from(_R_MINS), st.floats(0.01, 2.0))
@settings(max_examples=300, deadline=None)
def test_replay_scores_match_reference_bit_for_bit(keyed, r_min, kvar_ref):
    key, traces = keyed
    judged = threshold._judge_group(traces, key)
    for tau, phi in _GRID:
        got = threshold._replay_objective(judged, tau, phi, 15.0, r_min, kvar_ref)
        want = reference_replay_objective(traces, tau, phi, 15.0, r_min, kvar_ref, key, 0.01)
        assert got.hex() == want.hex()


@given(_keyed_traces)
@settings(max_examples=150, deadline=None)
def test_judged_masses_match_a_walk_that_adds_each_accepted_miss(keyed):
    """At each cut that an r can make, a slice's judged mass is the sum, in
    position order, of the action mass of each miss within r, bit for bit:
    a score can absorb a slice mass that is one ulp off."""
    key, traces = keyed
    judged = threshold._judge_group(traces, key)
    assert [len(slices) for slices in judged] == [len(t.slices) for t in traces]
    for trace, slices in zip(traces, judged):
        for rec, (thresholds, masses, misses) in zip(trace.slices, slices):
            pairs = [
                (pos, d, t)
                for pos, (d, t) in enumerate(zip(rec.draft_ids, rec.true_ids))
                if d is not None and d != t
            ]
            assert misses == len(pairs)
            # a slice keeps its own distances, and a mass for each count 0..misses of them
            assert thresholds == sorted(abs(d - t) for _, d, t in pairs)
            assert len(masses) == misses + 1
            # r = 0 accepts no miss, and r at each distinct distance the misses up to it
            for r in [0.0] + sorted(set(thresholds)):
                want = 0.0
                for pos, d, t in pairs:
                    if abs(d - t) <= r:
                        want += abs(token_to_action(t, pos, key) - token_to_action(d, pos, key))
                got = masses[bisect.bisect_right(thresholds, r)]
                assert got.hex() == want.hex()


def _check_table_against_reference_argmax(traces, r_max, r_min, key=DEFAULT_KEY):
    """``calibrate`` picks the candidate of the best reference score, the
    first of equal ones, and states the group's statistics."""
    steps = [rec.kvar_step for t in traces for rec in t.slices]
    kvar_ref = sum(steps) / len(steps)
    if kvar_ref <= 0:
        with pytest.raises(ThresholdConfigError):
            calibrate(traces, _GRID, r_max=r_max, r_min=r_min, key=key)
        return
    scores = [
        reference_replay_objective(traces, tau, phi, r_max, r_min, kvar_ref, key, 0.01)
        for tau, phi in _GRID
    ]
    tau, phi = _GRID[scores.index(max(scores))]
    table = calibrate(traces, _GRID, r_max=r_max, r_min=r_min, key=key)
    expected = CalibrationTable(
        {
            ("t", "armX"): CalibrationRow(
                tau, phi, r_max, r_min, kvar_ref,
                sum(1.0 for t in traces if t.success) / len(traces),
                sum(t.steps for t in traces) / len(traces),
            )
        }
    )
    assert table.dumps() == expected.dumps()


@given(_traces(), st.sampled_from(_R_MINS))
@settings(max_examples=60, deadline=None)
def test_calibrate_table_matches_reference_argmax(traces, r_min):
    _check_table_against_reference_argmax(traces, 15.0, r_min)


@given(_keyed_traces, st.sampled_from(_R_MINS))
@settings(max_examples=60, deadline=None)
def test_calibrate_table_with_a_far_r_max_matches_reference_argmax(keyed, r_min):
    """r walks from 1e12, past every distance, and a step moves it by up to
    tau * (1e12 - r_min): the judged lookup does not depend on the bounds."""
    key, traces = keyed
    _check_table_against_reference_argmax(traces, 1e12, r_min, key)


@given(
    st.lists(st.floats(0, 3, allow_nan=False), min_size=1, max_size=40),
    st.sampled_from(_R_MINS),
    st.sampled_from([0.5, 0.7, 1.0, 2.0]),
    st.floats(-30.0, 15.0),
)
@settings(max_examples=200)
def test_adjust_matches_reference_state_for_state(steps, r_min, phi, r0):
    # r0 below r_min starts outside the bounds, so the clamp brings it in
    row = make_row(r_min=r_min, phi=phi, tau=2.0, kvar_ref=0.3)
    r = want = r0
    prev_kvar = 0.0
    for k in steps:
        r = adjust(row, r, prev_kvar, k)
        want = reference_adjust(row, want, prev_kvar, k)
        prev_kvar = k
        assert r.hex() == want.hex()


def test_calibrate_judges_each_miss_once(monkeypatch):
    """Each (task, robot) group is judged once, however many traces it has,
    and each candidate replays that judgement once; the replay moves r
    without ``adjust``."""
    # the last pair is rejected, and the positions after it are exact
    pairs = [(100, 108), (30, 27), (7, 7), (200, 240)]
    kvars = [0.05, 0.3, 0.1, 0.5, 0.2, 0.0, 0.3]
    traces = [
        _trace("t1", kvars, pairs),
        _trace("t2", kvars[:4], pairs[:2]),
        _trace("t1", kvars[:3], pairs[1:]),
    ]

    judged = []
    real_judge = threshold._judge_group
    monkeypatch.setattr(
        threshold,
        "_judge_group",
        lambda group, key: judged.append((group, real_judge(group, key))) or judged[-1][1],
    )
    replays = []
    real_replay = threshold._replay_objective
    monkeypatch.setattr(
        threshold, "_replay_objective", lambda *a: replays.append(a) or real_replay(*a)
    )
    adjusted = []
    monkeypatch.setattr(threshold, "adjust", lambda *a: adjusted.append(a))

    calibrate(traces, DEFAULT_GRID)
    assert [group for group, _ in judged] == [[traces[0], traces[2]], [traces[1]]]
    assert [(id(a[0]), a[1:3]) for a in replays] == [
        (id(result), candidate) for _, result in judged for candidate in DEFAULT_GRID
    ]
    assert adjusted == []


def _first_miss_outside(traces, vocab):
    """The message ``token_to_action`` refuses the first miss with an id
    outside ``[0, vocab)`` with, walking (trace, slice, position) and the
    true id before the draft id; None if every miss is inside."""
    for trace in traces:
        for rec in trace.slices:
            for pos, (d, t) in enumerate(zip(rec.draft_ids, rec.true_ids)):
                if d is None or d == t:
                    continue
                for tok in (t, d):
                    if not 0 <= tok < vocab:
                        return f"token id {tok} outside [0, {vocab - 1}] for dof{pos}"
    return None


_KEY_16 = NormKey(vocab_size=16)


@given(_traces())
@settings(max_examples=60, deadline=None)
def test_calibrate_refuses_a_miss_outside_the_vocabulary(traces):
    """Default-key ids calibrated under a 16-id key: the first miss outside
    it is refused with ``token_to_action``'s message; a trace whose misses
    are all inside calibrates."""
    assume(sum(rec.kvar_step for t in traces for rec in t.slices) > 0)
    message = _first_miss_outside(traces, 16)
    if message is None:
        calibrate(traces, _GRID, key=_KEY_16)
        return
    with pytest.raises(CodecError) as refused:
        calibrate(traces, _GRID, key=_KEY_16)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "pairs, message",
    [
        # the draft id of slot 1 comes before the true id of slot 2
        ([(3, 3), (20, 9), (1, 30), (0, 0)], "token id 20 outside [0, 15] for dof1"),
        # of one slot, the true id is refused first
        ([(3, 3), (40, 30)], "token id 30 outside [0, 15] for dof1"),
        # an exact slot outside is passed over
        ([(99, 99), (1, 3), (2, 17)], "token id 17 outside [0, 15] for dof2"),
    ],
)
def test_calibrate_refuses_the_first_id_outside_the_vocabulary(pairs, message):
    traces = [_trace("t1", [0.1, 0.3], [(1, 2)]), _trace("t1", [0.1, 0.3], pairs)]
    with pytest.raises(CodecError) as refused:
        calibrate(traces, DEFAULT_GRID, key=_KEY_16)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "pair",
    [(2**60, 2**60 + 1), (2**60 + 1, 2**60), (10**400, 3), (3, 10**400), (-(10**400), 7)],
    ids=["2**60 then 2**60 + 1", "2**60 + 1 then 2**60", "10**400 draft", "10**400 true", "-10**400"],
)
def test_calibrate_refuses_a_miss_whose_ids_a_float_cannot_tell_apart_or_hold(pair):
    """A float rounds 2**60 and 2**60 + 1 to one value and cannot hold
    10**400; each miss is still refused, with its true id named first
    when both are outside."""
    traces = [_trace("t1", [0.1, 0.3], [(1, 2), pair])]
    d, t = pair
    bad = t if not 0 <= t < 256 else d
    with pytest.raises(CodecError) as refused:
        calibrate(traces, DEFAULT_GRID)
    assert str(refused.value) == f"token id {bad} outside [0, 255] for dof1"


def test_calibrate_passes_over_ids_outside_the_vocabulary_where_draft_equals_truth():
    """A slot whose ids are equal is never a miss, so its ids are not
    checked, whatever they are: the table is the reference argmax's."""
    outside = [(300, 300), (10**400, 10**400), (2**60, 2**60), (-(2**70), -(2**70))]
    traces = [
        _trace("t", [0.1, 0.3, 0.2], outside + [(100, 103)]),
        _trace("t", [0.4, 0.0], [(5, 13), (2**60 + 1, 2**60 + 1), (1, 40)]),
    ]
    _check_table_against_reference_argmax(traces, 15.0, 5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r_max": float("inf"), "r_min": float("inf")},
        {"r_max": 4.0, "r_min": 5.0},
        {"r_max": 15.0, "r_min": -1.0},
        {"r_max": float("nan")},
        {"grid": [(1.0, 0.7), (float("nan"), 1.0)]},
        {"grid": [(-1.0, 1.0)]},
        {"grid": [(1.0, 0.0)]},
        {"grid": [(1.0, float("inf"))]},
    ],
)
def test_calibrate_validates_before_replay(monkeypatch, kwargs):
    calls = []
    monkeypatch.setattr(threshold, "_judge_group", lambda *a: calls.append(a))
    monkeypatch.setattr(threshold, "_replay_objective", lambda *a: calls.append(a))
    traces = [_trace("t1", [0.1, 0.3], [(100, 103)])]
    kwargs = dict(kwargs)
    grid = kwargs.pop("grid", DEFAULT_GRID)
    with pytest.raises(ThresholdConfigError):
        calibrate(traces, grid, **kwargs)
    assert calls == []


def test_calibrate_accepts_equal_bounds():
    # r never moves, so every candidate scores the same and the first is kept
    traces = [_trace("t1", [0.1, 0.3, 0.2], [(100, 103), (30, 37)])]
    row = calibrate(traces, DEFAULT_GRID, r_max=7.0, r_min=7.0).rows[("t1", "armX")]
    assert (row.r_max, row.r_min) == (7.0, 7.0)
    assert (row.tau, row.phi) == DEFAULT_GRID[0]


@pytest.mark.parametrize("mode", ["naive", "kerv"])
def test_calibrate_refuses_a_trace_not_decoded_in_fixed_relaxed(monkeypatch, mode):
    calls = []
    monkeypatch.setattr(threshold, "_judge_group", lambda *a: calls.append(a))
    monkeypatch.setattr(threshold, "_replay_objective", lambda *a: calls.append(a))
    other = _trace("t1", [0.1, 0.3], [(100, 103)])
    other.mode, other.trial = mode, 3
    traces = [_trace("t1", [0.1, 0.3], [(100, 103)]), other]
    with pytest.raises(
        ThresholdConfigError, match=f"pre-sample trace t1 trial 3 was decoded in '{mode}' mode"
    ):
        calibrate(traces, DEFAULT_GRID)
    assert calls == []


def test_table_save_is_atomic(tmp_path):
    row = CalibrationRow(1.0, 0.7, 15.0, 5.0, 0.0877, 0.75, 96.5)
    table = CalibrationTable({("a", "r1"): row})
    path = tmp_path / "table.csv"
    path.write_text("stale\n")
    table.save(path)
    assert path.read_text() == table.dumps()
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
