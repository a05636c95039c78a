"""Trace serialization: reference byte equality, partial streams, atomic saves."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerv.trace import EpisodeTrace, SliceRecord, TraceError, load, loads
from oracles import reference_trace_dumps

_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1.0, 3.0, 1e-300, 2.5e16, 0.1 + 0.2]
)
_opt_id = st.none() | st.integers(0, 255)
_seven = lambda elem: st.lists(elem, min_size=7, max_size=7).map(tuple)  # noqa: E731

_records = st.builds(
    SliceRecord,
    step=st.integers(0, 10_000),
    draft_ids=_seven(_opt_id),
    true_ids=_seven(_opt_id),
    statuses=_seven(st.none() | st.sampled_from(["exact", "relaxed", "rejected"])),
    tokens=_seven(st.integers(0, 255)),
    sources=_seven(st.sampled_from(["draft", "verify_corrected", "kf"])),
    first_error_pos=st.integers(0, 7),
    r=_floats,
    kvar_step=_floats,
    kvar_cum=_floats,
    verify_calls=st.integers(0, 9),
    draft_calls=st.integers(0, 9),
    comp_fired=st.booleans(),
    cooldown_remaining=st.integers(0, 5),
)


@st.composite
def _episodes(draw):
    slices = draw(st.lists(_records, max_size=6))
    return EpisodeTrace(
        suite="goal", kind="reach", mode=draw(st.sampled_from(["naive", "kerv"])),
        robot="sim7dof", trial=draw(st.integers(0, 99)), seed=draw(st.integers(0, 2**40)),
        slices=slices, success=draw(st.booleans()), steps=len(slices),
        deviation=draw(_floats), plan_steps=draw(st.integers(0, 500)),
        comp_events=draw(st.integers(0, 9)),
    )


@given(_episodes())
@settings(max_examples=100, deadline=None)
def test_dumps_matches_asdict_reference_and_roundtrips(trace):
    text = trace.dumps()
    assert text == reference_trace_dumps(trace)
    back = loads(text)
    assert back == trace
    assert back.dumps() == text


def _episode_text(n=3):
    rec = SliceRecord(
        step=0, draft_ids=(1, None, 3, 4, 5, 6, 7), true_ids=(1,) * 7,
        statuses=("exact",) + (None,) * 6, tokens=(1,) * 7, sources=("draft",) * 7,
        first_error_pos=7, r=9.0, kvar_step=0.1, kvar_cum=0.1, verify_calls=1,
        draft_calls=1, comp_fired=False, cooldown_remaining=0,
    )
    return EpisodeTrace(
        suite="goal", kind="reach", mode="naive", robot="sim7dof", trial=0, seed=1,
        slices=[rec] * n, success=True, steps=n, plan_steps=n,
    ).dumps()


def test_truncated_stream_is_rejected():
    lines = _episode_text().splitlines(keepends=True)
    loads("".join(lines))
    with pytest.raises(TraceError, match="without a summary line"):
        loads("".join(lines[:-1]))
    with pytest.raises(TraceError, match="without a summary line"):
        loads(lines[0])


def test_slice_count_must_match_steps():
    lines = _episode_text().splitlines(keepends=True)
    with pytest.raises(TraceError, match="3 steps"):
        loads("".join(lines[:-1] + [lines[1]] + lines[-1:]))
    with pytest.raises(TraceError, match="3 steps"):
        loads("".join(lines[:1] + lines[2:]))


def test_record_after_summary_is_rejected():
    text = _episode_text()
    lines = text.splitlines(keepends=True)
    with pytest.raises(TraceError, match="after the summary"):
        loads(text + lines[1])
    with pytest.raises(TraceError, match="after the summary"):
        loads(text + lines[-1])


def test_second_header_is_rejected():
    lines = _episode_text().splitlines(keepends=True)
    with pytest.raises(TraceError, match="second episode header"):
        loads(lines[0] + "".join(lines))


def test_malformed_line_is_trace_error():
    lines = _episode_text().splitlines(keepends=True)
    with pytest.raises(TraceError, match="line 2"):
        loads(lines[0] + lines[1][: len(lines[1]) // 2] + "\n" + "".join(lines[2:]))


def test_record_missing_a_field_is_trace_error():
    lines = _episode_text().splitlines(keepends=True)
    with pytest.raises(TraceError, match="line 2: record has no 'draft_ids' field"):
        loads(lines[0] + '{"step": 0}\n' + "".join(lines[2:]))
    summary = lines[-1].replace('"comp_events": 0, ', "")
    assert summary != lines[-1]
    with pytest.raises(TraceError, match="line 5: record has no 'comp_events' field"):
        loads("".join(lines[:-1]) + summary)


@pytest.mark.parametrize(
    "field, value",
    [
        ("draft_ids", 5),
        ("draft_ids", [1, 2]),
        ("true_ids", None),
        ("statuses", "relaxed"),  # seven characters, but not a list
        ("tokens", [1] * 8),
        ("sources", {"draft": 7}),
    ],
)
def test_record_whose_slot_field_is_not_seven_items_is_trace_error(field, value):
    lines = _episode_text().splitlines(keepends=True)
    rec = json.loads(lines[2])
    rec[field] = value
    with pytest.raises(TraceError, match=f"line 3: {field} must be a list of 7 items"):
        loads("".join(lines[:2]) + json.dumps(rec) + "\n" + "".join(lines[3:]))


@pytest.mark.parametrize("steps", ["3", 3.0, True, None])
def test_summary_steps_not_an_int_is_trace_error(steps):
    lines = _episode_text().splitlines(keepends=True)
    summary = json.loads(lines[-1])
    summary["summary"]["steps"] = steps
    with pytest.raises(TraceError, match="line 5: summary steps must be an int"):
        loads("".join(lines[:-1]) + json.dumps(summary) + "\n")


def _with(lines, lineno, part, field, value):
    """The trace of ``lines`` with one field of line ``lineno`` (1-based)
    set to ``value``; ``part`` is the key the field sits under, or None."""
    obj = json.loads(lines[lineno - 1])
    (obj[part] if part else obj)[field] = value
    return "".join(lines[: lineno - 1]) + json.dumps(obj) + "\n" + "".join(lines[lineno:])


@pytest.mark.parametrize(
    "lineno, part, field, value, what",
    [
        (1, "episode", "suite", 3, "a string"),
        (1, "episode", "trial", "0", "an int"),
        (1, "episode", "seed", True, "an int"),
        (3, None, "step", 1.0, "an int"),
        (3, None, "first_error_pos", False, "an int"),
        (3, None, "r", "9", "a float or an int"),
        (3, None, "kvar_step", "0.1", "a float or an int"),
        (3, None, "kvar_cum", None, "a float or an int"),
        (3, None, "verify_calls", True, "an int"),
        (3, None, "comp_fired", 0, "a bool"),
        (5, "summary", "success", 1, "a bool"),
        (5, "summary", "deviation", "0.0", "a float or an int"),
        (5, "summary", "comp_events", [0], "an int"),
    ],
)
def test_scalar_field_of_the_wrong_json_type_is_trace_error(lineno, part, field, value, what):
    lines = _episode_text().splitlines(keepends=True)
    where = part or "record"
    with pytest.raises(TraceError, match=f"^line {lineno}: {where} {field} must be {what}, got "):
        loads(_with(lines, lineno, part, field, value))


def test_header_or_summary_that_is_not_an_object_is_trace_error():
    lines = _episode_text().splitlines(keepends=True)
    with pytest.raises(TraceError, match="^line 1: episode must be a JSON object, got 5$"):
        loads('{"episode": 5}\n' + "".join(lines[1:]))
    with pytest.raises(TraceError, match="^line 5: summary must be a JSON object, got "):
        loads("".join(lines[:-1]) + '{"summary": [3]}\n')


def test_integral_number_in_a_float_field_loads():
    lines = _episode_text().splitlines(keepends=True)
    assert loads(_with(lines, 3, None, "r", 9)).slices[1].r == 9


@pytest.mark.parametrize(
    "field, slot, message",
    [
        ("draft_ids", "1", "ids must be ints or null, got '1'"),
        ("true_ids", True, "ids must be ints or null, got True"),
        ("draft_ids", 1.0, "ids must be ints or null, got 1.0"),
        ("tokens", None, "tokens must be ints, got None"),
        ("tokens", False, "tokens must be ints, got False"),
        ("statuses", "accept", "unknown status or source in"),
        ("statuses", 1, "unknown status or source in"),
        ("sources", ["draft"], "unknown status or source in"),  # a slot no set can hold
        ("sources", None, "unknown status or source in"),
    ],
)
def test_slot_outside_its_type_or_set_is_trace_error(field, slot, message):
    lines = _episode_text().splitlines(keepends=True)
    slots = json.loads(lines[2])[field]
    slots[4] = slot
    with pytest.raises(TraceError, match="^line 3: " + message.replace("(", r"\(")):
        loads(_with(lines, 3, None, field, slots))


def test_non_object_line_is_trace_error():
    lines = _episode_text().splitlines(keepends=True)
    for line in ("[1, 2]\n", '"episode"\n', "7\n"):
        with pytest.raises(TraceError, match="line 2: not a JSON object"):
            loads(lines[0] + line + "".join(lines[1:]))


def test_save_replaces_atomically_and_leaves_no_temporary(tmp_path):
    trace = loads(_episode_text())
    path = tmp_path / "goal_naive_0000.jsonl"
    path.write_text("stale partial line\n")
    trace.save(path)
    assert path.read_text() == trace.dumps()
    assert load(path) == trace
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_failed_save_leaves_no_temporary(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        loads(_episode_text()).save(target)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
