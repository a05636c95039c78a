"""Acceptance-threshold controller and calibration table."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerv import threshold
from kerv.codec import DEFAULT_KEY
from kerv.threshold import (
    DEFAULT_GRID,
    CalibrationRow,
    CalibrationTable,
    ThresholdConfigError,
    ThresholdState,
    adjust,
    calibrate,
    lookup,
)
from kerv.trace import EpisodeTrace, SliceRecord
from oracles import reference_adjust, reference_replay_objective


def make_state(**kw):
    defaults = dict(r=15.0, r_max=15.0, r_min=5.0, tau=1.0, phi=1.0, kvar_ref=1.0)
    defaults.update(kw)
    return ThresholdState(**defaults)


def test_state_validation():
    with pytest.raises(ThresholdConfigError):
        make_state(r_max=5.0, r_min=5.0)
    with pytest.raises(ThresholdConfigError):
        make_state(kvar_ref=0.0)


def test_zero_delta_leaves_r_unchanged():
    for mode in ("literal", "rectified"):
        s = make_state(prev_kvar=0.3)
        out = adjust(s, 0.3, mode)
        assert out.r == s.r
        assert out.last_delta == 0.0


def test_rectified_direction():
    s = make_state(r=10.0)
    up = adjust(s, 0.5, "rectified")  # variability rose -> r drops
    assert up.r < 10.0
    down = adjust(make_state(r=10.0, prev_kvar=0.5), 0.0, "rectified")
    assert down.r > 10.0


def test_rectified_monotone_response():
    base = make_state(r=12.0)
    a = adjust(base, 0.8, "rectified")
    b = adjust(base, 0.3, "rectified")
    assert a.r <= b.r


def test_rectified_scripted_trace_matches_hand_recurrence():
    taus, phi, ref = 0.7, 1.3, 0.25
    state = make_state(tau=taus, phi=phi, kvar_ref=ref)
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
    got = []
    for k in script:
        state = adjust(state, k, "rectified")
        got.append(state.r)
    assert got == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.floats(0, 5, allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=200)
def test_rectified_clamp_safety(steps):
    state = make_state()
    for k in steps:
        state = adjust(state, k, "rectified")
        assert 5.0 <= state.r <= 15.0


def test_rectified_power_past_the_float_range_moves_by_the_full_magnitude():
    # |dK / kvar_ref| ** phi overflows; 1 - exp(-x) is already 1.0 in float
    # well before that, so the update is tau * (r_max - r_min)
    up = adjust(make_state(r=12.0, tau=0.5, phi=1000.0, kvar_ref=0.5), 2.0, "rectified")
    assert (up.r, up.last_delta) == (7.0, -5.0)
    s = make_state(r=6.0, tau=0.5, phi=1000.0, kvar_ref=0.5, prev_kvar=2.0)
    down = adjust(s, 0.0, "rectified")
    assert (down.r, down.last_delta) == (11.0, 5.0)


def test_calibrate_a_grid_whose_power_overflows(pre_sample):
    table = calibrate(pre_sample, [(1.0, 1000.0)])
    assert {(row.tau, row.phi) for row in table.rows.values()} == {(1.0, 1000.0)}


def test_literal_formula_fidelity():
    # the published update: dr = (r_max - r_min) * exp((-dK / ref) ** phi)
    cases = [
        (0.0, 0.4, 1.0, 0.5),
        (0.0, 0.9, 2.0, 0.3),
        (0.2, 0.05, 0.5, 1.0),
        (0.5, 0.1, 1.5, 0.7),
    ]
    for prev, step, phi, ref in cases:
        s = make_state(r=6.0, prev_kvar=prev, phi=phi, kvar_ref=ref)
        out = adjust(s, step, "literal")
        dk = step - prev
        expected = 10.0 * math.exp((-dk / ref) ** phi)
        assert out.last_delta == pytest.approx(expected, abs=1e-12)


def test_literal_negative_base_fractional_power_is_degenerate():
    # dK > 0 with fractional phi makes the base negative: no update
    s = make_state(r=10.0, phi=0.5)
    out = adjust(s, 1.0, "literal")
    assert out.r == 10.0
    assert out.last_delta == 0.0 and not out.frozen
    assert out.prev_kvar == 1.0


def test_literal_freeze_at_floor():
    # the printed delta is always positive, so the floor is reached from below
    s = make_state(r=-20.0, prev_kvar=0.5, phi=1.0)
    out = adjust(s, 0.4, "literal")  # dK = -0.1 -> dr = 10 * exp(0.1) ~ 11.05
    assert out.frozen
    assert out.r == 5.0
    after = adjust(out, 5.0, "literal")
    assert after.r == 5.0 and after.frozen


def test_literal_clamps_at_ceiling():
    s = make_state(r=14.0, prev_kvar=1.0)
    out = adjust(s, 0.5, "literal")  # positive delta, would exceed r_max
    assert out.r == 15.0


def test_lookup_returns_row_verbatim():
    table = CalibrationTable()
    table.put("taskA", "armX", CalibrationRow(0.5, 2.0, 15.0, 5.0, 0.12, 0.9, 120.0))
    state = lookup(table, "taskA", "armX")
    assert state.r == 15.0
    assert state.r_max == 15.0 and state.r_min == 5.0
    assert state.tau == 0.5 and state.phi == 2.0 and state.kvar_ref == 0.12


def test_lookup_unknown_key_is_error():
    table = CalibrationTable()
    table.put("taskA", "armX", CalibrationRow(1.0, 1.0, 15.0, 5.0, 0.1, 0.5, 80.0))
    with pytest.raises(ThresholdConfigError):
        lookup(table, "taskB", "armX")


def test_table_roundtrip(tmp_path):
    table = CalibrationTable()
    table.put("a", "r1", CalibrationRow(1.0, 0.7, 15.0, 5.0, 0.0877, 0.75, 96.5))
    table.put("b", "r1", CalibrationRow(2.0, 1.5, 12.0, 3.0, 0.21, 0.5, 150.0))
    path = tmp_path / "table.csv"
    table.save(path)
    text = path.read_text()
    assert text.splitlines()[0] == "task,robot,tau,phi,r_max,r_min,kvar_ref,sr,steps"
    loaded = CalibrationTable.load(path)
    assert loaded.rows == table.rows


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


@pytest.mark.parametrize("r_max, r_min", [("5.0", "5.0"), ("4.0", "5.0"), ("15.0", "-1.0")])
def test_table_rejects_bad_r_bounds(r_max, r_min):
    row = _ROW.replace("15.0,5.0", f"{r_max},{r_min}")
    with pytest.raises(ThresholdConfigError, match="line 2: need r_max > r_min >= 0"):
        CalibrationTable.loads(_HEADER_LINE + row)


@pytest.mark.parametrize("tau, phi", [("0.0", "0.7"), ("-1.0", "0.7"), ("1.0", "0.0"), ("1.0", "-0.7")])
def test_table_rejects_non_positive_tau_phi(tau, phi):
    row = _ROW.replace("1.0,0.7", f"{tau},{phi}")
    with pytest.raises(ThresholdConfigError, match="line 2: need tau > 0 and phi > 0"):
        CalibrationTable.loads(_HEADER_LINE + row)


def _trace(suite, kvar_steps, pairs, success=True, steps=None):
    """Minimal trace: one slice per kvar value, with given (draft, true) pairs."""
    slices = []
    cum = 0.0
    for i, kv in enumerate(kvar_steps):
        cum += kv
        draft_ids = [None] * 7
        true_ids = [None] * 7
        for pos, (d, t) in enumerate(pairs):
            draft_ids[pos] = d
            true_ids[pos] = t
        slices.append(
            SliceRecord(
                step=i,
                draft_ids=tuple(draft_ids),
                true_ids=tuple(true_ids),
                statuses=(None,) * 7,
                tokens=(0,) * 7,
                sources=("draft",) * 7,
                first_error_pos=7,
                r=15.0,
                kvar_step=kv,
                kvar_cum=cum,
                verify_calls=1,
                draft_calls=1,
                comp_fired=False,
                cooldown_remaining=0,
            )
        )
    n = steps if steps is not None else len(slices)
    return EpisodeTrace(
        suite=suite,
        kind="reach",
        mode="fixed_relaxed",
        robot="armX",
        trial=0,
        seed=0,
        slices=slices,
        success=success,
        steps=n,
        deviation=0.0,
        plan_steps=n,
    )


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
    state = lookup(table, "t1", "armX")
    seen = []
    for kv in kvars:
        state = adjust(state, kv, "rectified")
        seen.append(state.r)
    assert all(state.r_min <= r <= state.r_max for r in seen)
    assert any(r != 15.0 for r in seen)


# --- calibration replay against the direct per-slice reference ---------------

# one (draft, true) pair per position: never verified, a hit, or a miss by
# 1..30 ids, which lands on both sides of floor(r) for r in [0, 15]
_position = st.one_of(
    st.just((None, None)),
    st.tuples(st.integers(0, 255), st.just(None)),
    st.integers(0, 255).map(lambda t: (t, t)),
    st.tuples(st.integers(0, 225), st.integers(1, 30), st.booleans()).map(
        lambda x: (x[0], x[0] + x[1]) if x[2] else (x[0] + x[1], x[0])
    ),
)
_slice_pairs = st.lists(_position, min_size=7, max_size=7)


@st.composite
def _traces(draw):
    """Traces built from a few slice templates, so equal slices (zero-delta
    updates) and runs of equal ``kvar_step`` recur."""
    templates = draw(st.lists(_slice_pairs, min_size=1, max_size=4))
    kvars = draw(st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.7]), min_size=1, max_size=3))
    traces = []
    for trial in range(draw(st.integers(1, 3))):
        order = draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=25))
        slices = []
        for step, i in enumerate(order):
            pairs = templates[i]
            slices.append(
                SliceRecord(
                    step=step,
                    draft_ids=tuple(d for d, _ in pairs),
                    true_ids=tuple(t for _, t in pairs),
                    statuses=(None,) * 7,
                    tokens=(0,) * 7,
                    sources=("draft",) * 7,
                    first_error_pos=7,
                    r=15.0,
                    kvar_step=kvars[step % len(kvars)],
                    kvar_cum=0.0,
                    verify_calls=1,
                    draft_calls=1,
                    comp_fired=False,
                    cooldown_remaining=0,
                )
            )
        traces.append(
            EpisodeTrace(
                suite="t", kind="reach", mode="fixed_relaxed", robot="armX",
                trial=trial, seed=0, slices=slices, success=trial % 2 == 0,
                steps=len(slices),
            )
        )
    return traces


# fractional phi makes the literal update degenerate whenever mass rises
_GRID = [(tau, phi) for tau in (0.5, 1.0, 4.0) for phi in (0.5, 0.7, 1.0, 1.5, 2.0)]


@given(
    _traces(),
    st.sampled_from(["rectified", "literal"]),
    st.sampled_from([0.0, 5.0]),
    st.floats(0.01, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_replay_scores_match_reference_bit_for_bit(traces, mode, r_min, kvar_ref):
    judged = threshold._judge_group(traces, DEFAULT_KEY)
    for tau, phi in _GRID:
        got = threshold._replay_objective(judged, tau, phi, 15.0, r_min, kvar_ref, mode)
        want = reference_replay_objective(
            traces, tau, phi, 15.0, r_min, kvar_ref, DEFAULT_KEY, mode, 0.01
        )
        assert got.hex() == want.hex()


@given(_traces(), st.sampled_from(["rectified", "literal"]), st.sampled_from([0.0, 5.0]))
@settings(max_examples=60, deadline=None)
def test_calibrate_table_matches_reference_argmax(traces, mode, r_min):
    steps = [rec.kvar_step for t in traces for rec in t.slices]
    kvar_ref = sum(steps) / len(steps)
    if kvar_ref <= 0:
        with pytest.raises(ThresholdConfigError):
            calibrate(traces, _GRID, r_min=r_min, mode=mode)
        return
    scores = [
        reference_replay_objective(
            traces, tau, phi, 15.0, r_min, kvar_ref, DEFAULT_KEY, mode, 0.01
        )
        for tau, phi in _GRID
    ]
    tau, phi = _GRID[scores.index(max(scores))]
    table = calibrate(traces, _GRID, r_min=r_min, mode=mode)
    expected = CalibrationTable()
    expected.put(
        "t",
        "armX",
        CalibrationRow(
            tau, phi, 15.0, r_min, kvar_ref,
            sum(1.0 for t in traces if t.success) / len(traces),
            sum(t.steps for t in traces) / len(traces),
        ),
    )
    assert table.dumps() == expected.dumps()


@given(
    st.lists(st.floats(0, 3, allow_nan=False), min_size=1, max_size=40),
    st.sampled_from(["rectified", "literal"]),
    st.sampled_from([0.0, 5.0]),
    st.sampled_from([0.5, 0.7, 1.0, 2.0]),
    st.floats(-30.0, 15.0),
)
@settings(max_examples=200)
def test_adjust_matches_reference_state_for_state(steps, mode, r_min, phi, r0):
    # r0 below r_min reaches the literal freeze, which r_max never does
    state = want = make_state(r=r0, r_min=r_min, phi=phi, tau=2.0, kvar_ref=0.3)
    for k in steps:
        state = adjust(state, k, mode)
        want = reference_adjust(want, k, mode)
        assert state == want
        assert state.r.hex() == want.r.hex()
        assert state.last_delta.hex() == want.last_delta.hex()


def test_calibrate_judges_each_miss_once(monkeypatch):
    """token_to_action runs twice per verified miss, not once per candidate;
    the replay builds no ThresholdState and calls no adjust."""
    pairs = [(100, 108), (30, 27), (None, 5), (7, 7), (200, 240)]
    kvars = [0.05, 0.3, 0.1, 0.5, 0.2, 0.0, 0.3]
    traces = [_trace("t1", kvars, pairs), _trace("t2", kvars[:4], pairs[:2])]
    misses = 3 * len(kvars) + 2 * 4

    decoded = []
    real_decode = threshold.token_to_action
    monkeypatch.setattr(
        threshold,
        "token_to_action",
        lambda tok, dof, key: decoded.append(tok) or real_decode(tok, dof, key),
    )
    built = []
    real_post_init = ThresholdState.__post_init__
    monkeypatch.setattr(
        ThresholdState, "__post_init__", lambda self: built.append(self) or real_post_init(self)
    )
    adjusted = []
    monkeypatch.setattr(threshold, "adjust", lambda *a: adjusted.append(a))
    replays = []
    real_replay = threshold._replay_objective
    monkeypatch.setattr(
        threshold, "_replay_objective", lambda *a: replays.append(a) or real_replay(*a)
    )

    grid = DEFAULT_GRID
    calibrate(traces, grid)
    assert len(replays) == 2 * len(grid)
    assert len(decoded) <= 2 * misses
    assert built == [] and adjusted == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "bogus"},
        {"r_max": 5.0, "r_min": 5.0},
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


def test_table_save_is_atomic(tmp_path):
    table = CalibrationTable()
    table.put("a", "r1", CalibrationRow(1.0, 0.7, 15.0, 5.0, 0.0877, 0.75, 96.5))
    path = tmp_path / "table.csv"
    path.write_text("stale\n")
    table.save(path)
    assert path.read_text() == table.dumps()
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
