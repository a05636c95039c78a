"""Trace serialization: reference byte equality, the reference loader on
mutated streams, partial streams, atomic saves."""

import json
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kerv import config, trace as trace_mod
from kerv.simenv import KINDS
from kerv.trace import MODES, EpisodeTrace, SliceRecord, TraceError, load, loads
from oracles import TRACE_RECORD_FIELDS, reference_trace_dumps, reference_trace_loads

# r, the variabilities and the deviation are never negative; kvar_cum and
# the deviation may overflow
_nonneg = st.floats(0.0, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1.0, 3.0, 1e-300, 2.5e16, 0.1 + 0.2]
)
_id = st.integers(0, 255)
_seven = lambda elem: st.lists(elem, min_size=7, max_size=7).map(tuple)  # noqa: E731



@st.composite
def _records(draw):
    """A record whose ids are null exactly where its statuses are."""
    statuses = draw(_seven(st.none() | st.sampled_from(["exact", "relaxed", "rejected"])))
    judged = [status is not None for status in statuses]
    return SliceRecord(
        draft_ids=tuple(draw(_id) if j else None for j in judged),
        true_ids=tuple(draw(_id) if j else None for j in judged),
        statuses=statuses,
        tokens=draw(_seven(_id)),
        r=draw(_nonneg),
        kvar_step=draw(_nonneg),
        kvar_cum=draw(_nonneg | st.just(math.inf)),
        verify_calls=draw(st.integers(1, 9)),
        cooldown_remaining=draw(st.integers(0, 5)),
    )


@st.composite
def _episodes(draw):
    slices = draw(st.lists(_records(), max_size=6))
    return EpisodeTrace(
        suite="goal", kind="reach", mode=draw(st.sampled_from(["naive", "kerv"])),
        robot="sim7dof", trial=draw(st.integers(0, 99)), seed=draw(st.integers(0, 2**40)),
        slices=slices, success=draw(st.booleans()), steps=len(slices),
        deviation=draw(_nonneg | st.just(math.inf)), plan_steps=draw(st.integers(0, 500)),
    )


@given(_episodes())
@settings(max_examples=100, deadline=None)
def test_dumps_matches_asdict_reference_and_roundtrips(trace):
    text = trace.dumps()
    assert text == reference_trace_dumps(trace)
    back = loads(text)
    assert back == trace
    assert back.dumps() == text


# the mutations of one field, each with the types of the valid values it
# replaces (None: any) and the values it writes
_FIELD_MUTATIONS = {
    "drop the field": (None, [None]),
    "a value of the wrong JSON type": (None, ["9", "", None, [1], {"draft": 7}, 1.5]),
    "true or 1.0 in an int field": ((int,), [True, False, 1.0]),
    "NaN": ((int, float), [math.nan]),
    "a value out of range": ((int, float), [-1, -1e-300, -1e309, 1e309, 0, 8]),
    "6 or 8 slots": ((list,), [6, 8]),
    "an unknown or mistyped slot": ((list,), ["bogus", "kf", None, True, 1.0, "1", [1], {}]),
    "an unknown header string": ((str,), ["bogus", "literal", "teleport"]),
}
_LINE_MUTATIONS = ["a non-object line", "a second header"]


@pytest.mark.parametrize("how", sorted(_FIELD_MUTATIONS) + _LINE_MUTATIONS)
@given(trace=_episodes(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_loads_agrees_with_the_reference_loader_on_a_mutated_line(how, trace, data):
    """One line of a valid trace is mutated: one field as ``_FIELD_MUTATIONS``
    says, the line replaced by a non-object, or a second header inserted
    after it. Both loaders return equal traces, or both raise ``TraceError``
    with the same message."""
    lines = trace.dumps().splitlines(keepends=True)
    if how in _LINE_MUTATIONS:
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        if how == "a second header":
            lines.insert(i + 1, lines[0])
        else:
            lines[i] = data.draw(st.sampled_from(["[1, 2]\n", '"episode"\n', "7\n", "null\n"]))
    else:
        types, values = _FIELD_MUTATIONS[how]
        objs = [json.loads(line) for line in lines]
        fields = [
            (i, part, name)
            for i, obj in enumerate(objs)
            for part in [obj.get("episode") or obj.get("summary") or obj]
            for name in sorted(part)
            if types is None or type(part[name]) in types
        ]
        assume(fields)
        i, part, name = data.draw(st.sampled_from(fields), label="field")
        value = data.draw(st.sampled_from(values), label="value")
        if how == "drop the field":
            del part[name]
        elif how == "6 or 8 slots":
            part[name] = (part[name] * 2)[:value]
        elif how == "an unknown or mistyped slot":
            part[name][data.draw(st.integers(0, 6), label="slot")] = value
        else:
            part[name] = value
        lines[i] = json.dumps(objs[i]) + "\n"
    text = "".join(lines)
    try:
        expected = reference_trace_loads(text)
    except TraceError as exc:
        with pytest.raises(TraceError) as got:
            loads(text)
        assert str(got.value) == str(exc)
    else:
        got = loads(text)
        assert got == expected
        assert got.dumps() == expected.dumps()


def test_record_fields_keep_their_order_and_cannot_be_assigned():
    assert SliceRecord._fields == TRACE_RECORD_FIELDS
    rec = loads(_episode_text()).slices[0]
    for name in TRACE_RECORD_FIELDS:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


def _episode_text(n=3):
    rec = SliceRecord(
        draft_ids=(1, 2, None, None, None, None, None),
        true_ids=(1, 20, None, None, None, None, None),
        statuses=("exact", "rejected", None, None, None, None, None), tokens=(1,) * 7,
        r=9.0, kvar_step=0.1, kvar_cum=0.1, verify_calls=1, cooldown_remaining=4,
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
        loads(lines[0] + '{"r": 0}\n' + "".join(lines[2:]))
    summary = lines[-1].replace('"plan_steps": 3, ', "")
    assert summary != lines[-1]
    with pytest.raises(TraceError, match="line 5: record has no 'plan_steps' field"):
        loads("".join(lines[:-1]) + summary)


@pytest.mark.parametrize(
    "field, value",
    [
        ("draft_ids", 5),
        ("draft_ids", [1, 2]),
        ("true_ids", None),
        ("statuses", "relaxed"),  # seven characters, but not a list
        ("tokens", [1] * 8),
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
        (3, None, "r", "9", "a float or an int"),
        (3, None, "kvar_step", "0.1", "a float or an int"),
        (3, None, "kvar_cum", None, "a float or an int"),
        (3, None, "verify_calls", True, "an int"),
        (5, "summary", "success", 1, "a bool"),
        (5, "summary", "deviation", "0.0", "a float or an int"),
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


@pytest.mark.parametrize(
    "lineno, part, field",
    [(3, None, "r"), (3, None, "kvar_step"), (5, "summary", "deviation")],
)
def test_nan_in_a_float_field_is_trace_error(lineno, part, field):
    lines = _episode_text().splitlines(keepends=True)
    text = _with(lines, lineno, part, field, math.nan)
    assert "NaN" in text
    with pytest.raises(TraceError, match=f"^line {lineno}: .*NaN is not a trace value"):
        loads(text)


@pytest.mark.parametrize("value", [math.inf])
def test_infinite_deviation_loads(value):
    lines = _episode_text().splitlines(keepends=True)
    assert loads(_with(lines, 5, "summary", "deviation", value)).deviation == value


@pytest.mark.parametrize(
    "field, value, need",
    [
        ("verify_calls", 0, ">= 1"),
        ("cooldown_remaining", -1, ">= 0"),
        ("r", -1.0, "finite and >= 0"),
        ("r", math.inf, "finite and >= 0"),
        ("kvar_step", -5.0, "finite and >= 0"),
        ("kvar_step", math.inf, "finite and >= 0"),
        ("kvar_cum", -1e-300, ">= 0"),
        ("kvar_cum", -math.inf, ">= 0"),
    ],
)
def test_record_value_out_of_range_is_trace_error(field, value, need):
    lines = _episode_text().splitlines(keepends=True)
    message = re.escape(f"line 3: record {field} must be {need}, got ")
    with pytest.raises(TraceError, match="^" + message):
        loads(_with(lines, 3, None, field, value))


@pytest.mark.parametrize(
    "lineno, part, field, value",
    [
        (1, "episode", "trial", -1),
        (5, "summary", "steps", -3),
        (5, "summary", "plan_steps", -3),
        (5, "summary", "deviation", -1e-300),
        (5, "summary", "deviation", -math.inf),
    ],
)
def test_negative_header_or_summary_value_is_trace_error(lineno, part, field, value):
    """A run writes no negative count, trial or deviation."""
    lines = _episode_text().splitlines(keepends=True)
    message = re.escape(f"line {lineno}: {part} {field} must be >= 0, got {value!r}")
    with pytest.raises(TraceError, match=f"^{message}$"):
        loads(_with(lines, lineno, part, field, value))


def test_one_mode_list():
    assert config.MODES is MODES


@pytest.mark.parametrize(
    "field, value, known",
    [("mode", "bogus", MODES), ("mode", "literal", MODES), ("kind", "teleport", KINDS)],
)
def test_header_mode_or_kind_outside_its_set_is_trace_error(field, value, known):
    lines = _episode_text().splitlines(keepends=True)
    message = re.escape(f"line 1: episode {field} must be one of {known}, got {value!r}")
    with pytest.raises(TraceError, match=f"^{message}$"):
        loads(_with(lines, 1, "episode", field, value))


def test_load_names_the_file(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(_episode_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(TraceError, match=f"^{path}: trace stream ends without a summary line"):
        load(path)
    # a file that is not UTF-8 text
    path.write_bytes(b"\xff\xfe" + _episode_text().encode())
    with pytest.raises(TraceError, match=f"^{path}: 'utf-8' codec can't decode byte 0xff"):
        load(path)


def test_line_encoder_without_the_c_accelerator_writes_the_same_bytes(monkeypatch):
    trace = EpisodeTrace(
        suite="goal", kind="reach", mode="naive", robot="sim7dof", trial=0, seed=1,
        slices=loads(_episode_text()).slices, steps=3, deviation=math.inf,
    )
    objs = [{"episode": trace.meta()}, {"summary": trace.summary()}]
    objs += [rec._asdict() for rec in trace.slices]
    monkeypatch.setattr(trace_mod, "c_make_encoder", None)
    encode = trace_mod._line_encoder()
    assert [encode(obj) for obj in objs] == [json.dumps(obj, sort_keys=True) for obj in objs]


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
        ("statuses", "accept", "unknown status in"),
        ("statuses", 1, "unknown status in"),
        ("statuses", ["exact"], "unknown status in"),  # a slot no set can hold
    ],
)
def test_slot_outside_its_type_or_set_is_trace_error(field, slot, message):
    lines = _episode_text().splitlines(keepends=True)
    slots = json.loads(lines[2])[field]
    slots[4] = slot
    with pytest.raises(TraceError, match="^line 3: " + message.replace("(", r"\(")):
        loads(_with(lines, 3, None, field, slots))


@pytest.mark.parametrize(
    "slots",
    [
        {"statuses": (1, "relaxed"), "draft_ids": (1, None)},  # a relaxed slot, no draft id
        {"statuses": (4, "exact")},  # judged, with neither id
        {"draft_ids": (0, None)},  # an exact slot with no draft id
        {"true_ids": (1, None)},  # a rejected slot with no verified id
        {"statuses": (0, None)},  # both ids, with no status
        {"draft_ids": (5, 3)},  # a filled slot with a draft id
    ],
)
def test_a_status_null_where_an_id_is_not_or_not_null_where_one_is_is_trace_error(slots):
    """Only a slot the filter filled has a null status, and it has no ids:
    a record that says otherwise is refused with its line, so no metric
    reads a judged slot without its ids or counts a fill that has them."""
    lines = _episode_text().splitlines(keepends=True)
    rec = json.loads(lines[2])
    for field, (pos, value) in slots.items():
        rec[field][pos] = value
    text = "".join(lines[:2]) + json.dumps(rec) + "\n" + "".join(lines[3:])
    message = "line 3: statuses must be null exactly where the ids are, got draft_ids "
    with pytest.raises(TraceError, match="^" + re.escape(message)):
        loads(text)
    with pytest.raises(TraceError, match="^" + re.escape(message)):
        reference_trace_loads(text)


def test_what_a_record_derives_from_its_statuses():
    trace = loads(_episode_text())
    rec = trace.slices[0]
    assert (rec.first_error_pos, rec.comp_fired, trace.comp_events) == (1, True, 3)
    judged = rec._replace(statuses=("exact", "relaxed") + ("rejected",) * 5)
    assert (judged.first_error_pos, judged.comp_fired) == (2, False)
    clean = rec._replace(statuses=("exact",) * 7)
    assert (clean.first_error_pos, clean.comp_fired) == (7, False)


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
