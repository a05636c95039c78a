"""Trace serialization: reference byte equality, the reference loader on
mutated streams, partial streams, atomic saves."""

import json
import math
import operator
import re
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kerv import config, harness
from kerv.config import default_config
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
def _records(draw, kvar_cum=0.0, r=None, compensable=False, ids=_id):
    """A record after one whose ``kvar_cum`` is ``kvar_cum``, at ``r`` or
    at a drawn r, of ``ids``, which the loader takes: at least as many
    verify calls as its rejections need, and, when ``compensable`` and a
    rejection before the gripper comes first, the slots after it may be
    filled (null ids, a fill token for each, one verify call). Two largest
    variabilities in a row overflow ``kvar_cum``."""
    draft_ids, true_ids = list(draw(_seven(ids))), list(draw(_seven(ids)))
    r = draw(_nonneg) if r is None else r
    rejected = [pos for pos, (d, t) in enumerate(zip(draft_ids, true_ids)) if abs(d - t) > r]
    # a round per rejection, and one more unless the last is at slot 6
    fewest = len(rejected) + (not rejected or rejected[-1] != 6)
    verify_calls = draw(st.integers(fewest, 7))
    fill = ()
    if compensable and rejected and rejected[0] < 6 and draw(st.booleans(), label="compensated"):
        filled = rejected[0] + 1
        draft_ids[filled:] = true_ids[filled:] = [None] * (7 - filled)
        fill = tuple(draw(st.lists(_id, min_size=7 - filled, max_size=7 - filled)))
        verify_calls = 1
    kvar_step = draw(_nonneg | st.just(sys.float_info.max))
    return SliceRecord(
        draft_ids=tuple(draft_ids),
        true_ids=tuple(true_ids),
        fill=fill,
        r=r,
        kvar_step=kvar_step,
        kvar_cum=kvar_cum + kvar_step,
        verify_calls=verify_calls,
    )


@st.composite
def _episodes(draw, ids=_id):
    """A trace of ``ids`` the loader takes: a naive one at r = 0 and a
    fixed_relaxed one at one r, neither compensating, or a kerv one at any
    r per record, which may compensate after its first record once no
    cooldown runs."""
    mode = draw(st.sampled_from(MODES))
    comp_n = draw(st.integers(0, 3))
    r = {"naive": 0.0, "fixed_relaxed": draw(_nonneg), "kerv": None}[mode]
    slices, cooldown = [], 0
    for _ in range(draw(st.integers(0, 6), label="records")):
        compensable = mode == "kerv" and bool(slices) and cooldown == 0
        rec = draw(_records(slices[-1].kvar_cum if slices else 0.0, r, compensable, ids))
        cooldown = comp_n if rec.comp_fired else max(cooldown - 1, 0)
        slices.append(rec)
    return EpisodeTrace(
        suite="goal", kind="reach", mode=mode, robot="sim7dof", trial=draw(st.integers(0, 99)),
        seed=draw(st.integers(0, 2**40)), comp_n=comp_n, slices=slices,
        success=draw(st.booleans()), steps=len(slices),
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
    # fields that records and summaries once stored, and misspelled ones
    "an unknown key": (None, ["first_error_pos", "comp_fired", "comp_events", "sucess", "Mode"]),
}
_LINE_MUTATIONS = ["a non-object line", "a second header"]


def _mutate(lines, how, data, lo, hi):
    """Mutate one of ``lines`` (each ending in a newline) with its index in
    [lo, hi), in place: one field as ``_FIELD_MUTATIONS`` says (or a key
    added beside it), the line replaced by a non-object, or a second header
    inserted after it. Returns the index drawn."""
    if how in _LINE_MUTATIONS:
        i = data.draw(st.integers(lo, hi - 1), label="line")
        if how == "a second header":
            lines.insert(i + 1, lines[0])
        else:
            lines[i] = data.draw(st.sampled_from(["[1, 2]\n", '"episode"\n', "7\n", "null\n"]))
        return i
    types, values = _FIELD_MUTATIONS[how]
    objs = {i: json.loads(lines[i]) for i in range(lo, hi)}
    fields = [
        (i, part, name)
        for i, obj in objs.items()
        for part in [obj.get("episode") or obj.get("summary") or obj]
        for name in sorted(part)
        # an empty fill has no slot to mutate
        if types is None or type(part[name]) in types and part[name] != []
    ]
    assume(fields)
    i, part, name = data.draw(st.sampled_from(fields), label="field")
    value = data.draw(st.sampled_from(values), label="value")
    if how == "drop the field":
        del part[name]
    elif how == "6 or 8 slots":
        part[name] = (part[name] * 2)[:value]
    elif how == "an unknown or mistyped slot":
        part[name][data.draw(st.integers(0, len(part[name]) - 1), label="slot")] = value
    elif how == "an unknown key":
        # on the header or summary object, or on the line that holds it
        data.draw(st.sampled_from([part, objs[i]]), label="object")[value] = 0
    else:
        part[name] = value
    lines[i] = json.dumps(objs[i]) + "\n"
    return i


def _agree(text):
    """Both loaders return equal traces for ``text``, or both raise
    ``TraceError`` with the same message."""
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


@pytest.mark.parametrize("how", sorted(_FIELD_MUTATIONS) + _LINE_MUTATIONS)
@given(trace=_episodes(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_loads_agrees_with_the_reference_loader_on_a_mutated_line(how, trace, data):
    """One line of a valid trace is mutated (``_mutate``). Both loaders
    return equal traces, or both raise ``TraceError`` with the same
    message."""
    lines = trace.dumps().splitlines(keepends=True)
    _mutate(lines, how, data, 0, len(lines))
    _agree("".join(lines))


@pytest.fixture(scope="module")
def engine_trace(calib_table):
    """A kerv trace of the object suite's first trial: 100 or more records,
    some compensated."""
    cfg = default_config(1)
    suite = next(suite for suite in cfg.suites if suite.name == "object")
    trace = harness.run_one_episode(cfg, suite, "kerv", 0, calib_table)
    assert len(trace.slices) >= 100 and trace.comp_events > 0
    return trace


@pytest.mark.parametrize("later", ["a record field", "a summary field"] + _LINE_MUTATIONS)
@pytest.mark.parametrize("source", ["drawn", "engine"])
@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_loads_agrees_with_the_reference_loader_on_two_mutated_lines(
    source, later, engine_trace, data
):
    """A field of one record line is mutated, and then a later line: a
    field of a later record or of the summary, the line replaced by a
    non-object, or a second header inserted after it. The column loader
    judges the records once the lines stop, and the reference judges each
    as it reads it; both give the first fault, the earlier line's when
    both lines are at fault."""
    trace = engine_trace if source == "engine" else data.draw(_episodes(), label="trace")
    assume(trace.slices)
    lines = trace.dumps().splitlines(keepends=True)
    summary = len(lines) - 1
    i = _mutate(lines, data.draw(st.sampled_from(sorted(_FIELD_MUTATIONS))), data, 1, summary)
    if later in _LINE_MUTATIONS:
        _mutate(lines, later, data, i + 1 if later == "a non-object line" else i, len(lines))
    else:
        lo, hi = (i + 1, summary) if later == "a record field" else (summary, summary + 1)
        assume(lo < hi)
        _mutate(lines, data.draw(st.sampled_from(sorted(_FIELD_MUTATIONS))), data, lo, hi)
    _agree("".join(lines))


def test_record_fields_keep_their_order_and_cannot_be_assigned():
    assert SliceRecord._fields == TRACE_RECORD_FIELDS
    rec = loads(_episode_text()).slices[0]
    for name in TRACE_RECORD_FIELDS:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


# slot 0 exact and slot 1 rejected at r = 9: resampled in two verify calls...
_RESAMPLED = SliceRecord(
    draft_ids=(1, 2, 1, 1, 1, 1, 1), true_ids=(1, 20, 1, 1, 1, 1, 1), fill=(), r=9.0,
    kvar_step=0.0, kvar_cum=0.0, verify_calls=2,
)
# ...or compensated: the rest filled in one
_COMPENSATED = _RESAMPLED._replace(
    draft_ids=(1, 2) + (None,) * 5, true_ids=(1, 20) + (None,) * 5, fill=(1,) * 5,
    verify_calls=1,
)


def _episode(n=3, slices=None, mode="kerv", comp_n=0):
    """A trace of ``slices``, or of ``n`` copies of ``_RESAMPLED``, which
    has no variability, so its lines can be dropped or repeated."""
    slices = [_RESAMPLED] * n if slices is None else slices
    return EpisodeTrace(
        suite="goal", kind="reach", mode=mode, robot="sim7dof", trial=0, seed=1, comp_n=comp_n,
        slices=slices, success=True, steps=len(slices), plan_steps=len(slices),
    )


def _episode_text(n=3, slices=None, mode="kerv", comp_n=0):
    return _episode(n, slices, mode, comp_n).dumps()


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


def test_record_of_the_fourteen_field_format_is_refused():
    """A record that also stores its ``statuses`` and what they give
    (``first_error_pos``, ``sources``, ``comp_fired``), its index (``step``)
    and a copy of its verify calls (``draft_calls``), as records once did, is
    refused by name, and so is one of the nine-field format, which stored
    only its statuses beside the eight fields that followed; so is a summary
    that stores its ``comp_events``. Without them the stream loads."""
    lines = _episode_text().splitlines(keepends=True)
    statuses = {"statuses": ["exact", "rejected"] + [None] * 5}
    old_fields = {
        **statuses, "step": 0, "first_error_pos": 1, "comp_fired": True, "draft_calls": 1,
        "sources": ["draft", "verify_corrected"] + ["kf"] * 5,
    }
    old_records = {
        "line 3: record has unknown keys "
        "['comp_fired', 'draft_calls', 'first_error_pos', 'sources', 'statuses', 'step']":
            old_fields,
        "line 3: record has unknown keys ['statuses']": statuses,
    }
    old_summary = json.dumps({"summary": {**json.loads(lines[-1])["summary"], "comp_events": 3}})
    summary_message = "line 5: summary has unknown keys ['comp_events']"
    for load_text in (loads, reference_trace_loads):
        for record_message, fields in old_records.items():
            old_record = json.dumps({**json.loads(lines[2]), **fields}, sort_keys=True) + "\n"
            with pytest.raises(TraceError, match=re.escape(record_message)):
                load_text("".join(lines[:2] + [old_record] + lines[3:]))
        with pytest.raises(TraceError, match=re.escape(summary_message)):
            load_text("".join(lines[:-1]) + old_summary + "\n")
        assert load_text("".join(lines)).steps == 3


def test_a_record_or_header_of_the_eight_field_format_is_refused():
    """A record that stores all its ``tokens`` and its ``cooldown_remaining``
    and no ``fill``, as records did before the fills were all they kept, is
    refused for the field it lacks, and so is a header without the run's
    ``comp_n``; with the field it lacks beside them, both are refused by
    the keys they no longer define."""
    lines = _episode_text().splitlines(keepends=True)
    rec = {**json.loads(lines[2]), "tokens": [1, 20, 1, 1, 1, 1, 1], "cooldown_remaining": 0}
    header = json.loads(lines[0])
    header["episode"]["cooldown_n"] = header["episode"].pop("comp_n")
    old_record = {key: value for key, value in rec.items() if key != "fill"}
    cases = [
        (
            lines[:2] + [json.dumps(old_record) + "\n"] + lines[3:],
            "line 3: record has no 'fill' field",
        ),
        ([json.dumps(header) + "\n"] + lines[1:], "line 1: record has no 'comp_n' field"),
        (
            lines[:2] + [json.dumps(rec) + "\n"] + lines[3:],
            "line 3: record has unknown keys ['cooldown_remaining', 'tokens']",
        ),
    ]
    for load_text in (loads, reference_trace_loads):
        for text, message in cases:
            with pytest.raises(TraceError, match=re.escape(message)):
                load_text("".join(text))


@pytest.mark.parametrize(
    "lineno, edit, message",
    [
        (1, lambda obj: obj["episode"].update(robto=""), "episode has unknown keys ['robto']"),
        (1, lambda obj: obj.update(sumary={}), "episode line has unknown keys ['sumary']"),
        (5, lambda obj: obj.update(z=0, x=1), "summary line has unknown keys ['x', 'z']"),
    ],
)
def test_header_or_summary_with_a_key_it_does_not_define_is_trace_error(lineno, edit, message):
    lines = _episode_text().splitlines(keepends=True)
    obj = json.loads(lines[lineno - 1])
    edit(obj)
    lines[lineno - 1] = json.dumps(obj) + "\n"
    with pytest.raises(TraceError, match=re.escape(f"line {lineno}: {message}")):
        loads("".join(lines))


@pytest.mark.parametrize(
    "field, value",
    [
        ("draft_ids", 5),
        ("draft_ids", [1, 2]),
        ("true_ids", None),
        ("draft_ids", "relaxed"),  # seven characters, but not a list
        ("fill", 5),  # the fill is a list of any length, checked against the null slots
    ],
)
def test_record_whose_slot_field_is_not_seven_items_is_trace_error(field, value):
    lines = _episode_text().splitlines(keepends=True)
    rec = json.loads(lines[2])
    rec[field] = value
    shape = "a list" if field == "fill" else "a list of 7 items"
    with pytest.raises(TraceError, match=f"line 3: {field} must be {shape}, got "):
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
        (1, "episode", "comp_n", 4.0, "an int"),
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
        ("verify_calls", 0, "in [1, 7]"),
        ("verify_calls", 8, "in [1, 7]"),
        ("verify_calls", 50, "in [1, 7]"),
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
        (1, "episode", "comp_n", -1),
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


def test_integral_number_in_a_float_field_loads():
    lines = _episode_text().splitlines(keepends=True)
    assert loads(_with(lines, 3, None, "r", 9)).slices[1].r == 9


@pytest.mark.parametrize(
    "field, slot, message",
    [
        ("draft_ids", "1", "ids must be ints or null, got '1'"),
        ("true_ids", True, "ids must be ints or null, got True"),
        ("draft_ids", 1.0, "ids must be ints or null, got 1.0"),
        ("fill", None, "fill tokens must be ints, got None"),
        ("fill", False, "fill tokens must be ints, got False"),
        ("true_ids", "exact", "ids must be ints or null, got 'exact'"),  # a status, not an id
        ("draft_ids", [2], "ids must be ints or null, got [2]"),
    ],
)
def test_slot_outside_its_type_or_set_is_trace_error(field, slot, message):
    lines = _episode_text().splitlines(keepends=True)
    # an empty fill gets seven slots: its slots' types are checked before their count
    slots = json.loads(lines[2])[field] or [0] * 7
    slots[4] = slot
    with pytest.raises(TraceError, match="^line 3: " + re.escape(message)):
        loads(_with(lines, 3, None, field, slots))


def _record(draft_ids, true_ids, fill=None, *, r=0.0, kvar_step=0.0, kvar_cum=None):
    """A one-round record of the given ids at r, with a fill token 0 for
    each null draft id unless ``fill`` is given, first in its trace unless
    ``kvar_cum`` is given."""
    if fill is None:
        fill = (0,) * draft_ids.count(None)
    kvar_cum = kvar_step if kvar_cum is None else kvar_cum
    return SliceRecord(draft_ids, true_ids, fill, r, kvar_step, kvar_cum, 1)


def _refusal(slices, **header):
    """The ``TraceError`` message that both loaders give for a trace of
    ``slices`` (``_episode_text``'s header, with ``header`` set); the two
    must agree."""
    text = _episode_text(slices=slices, **header)
    with pytest.raises(TraceError) as got:
        loads(text)
    with pytest.raises(TraceError) as reference:
        reference_trace_loads(text)
    assert str(got.value) == str(reference.value)
    return str(got.value)


_N = (None,)
_FILLED = _N * 5  # the slots a rejection at slot 1 leaves to the filter


@pytest.mark.parametrize(
    "draft_ids, true_ids",
    [
        ((1, 2) + _FILLED, (1, 20, 0) + _N * 4),  # a filled slot with a true id
        ((1, 2, 3) + _N * 4, (1, 20) + _FILLED),  # a filled slot with a draft id
        ((None,) + (1,) * 6, (1,) * 7),  # a judged slot with no draft id
    ],
)
def test_ids_null_at_different_slots_is_trace_error(draft_ids, true_ids):
    """Only a slot the filter filled has null ids, and it has both: a record
    that says otherwise is refused with its line, so no metric reads a
    drafted slot without its ids or counts a fill that has one."""
    rec = _record(draft_ids, true_ids, r=9.0)
    message = "line 2: draft_ids and true_ids must be null at the same slots, got draft_ids "
    assert _refusal([rec]).startswith(message)


@pytest.mark.parametrize(
    "draft_ids, true_ids, fill, nulls",
    [
        # a fill with no null slot: nothing was filled
        ((1,) * 7, (1,) * 7, (3,), 0),
        ((5,) * 7, (9,) * 7, (1,) * 7, 0),
        # a null slot more or fewer than fill tokens
        ((1, 2) + _FILLED, (1, 20) + _FILLED, (0,) * 4, 5),
        ((1, 2) + _FILLED, (1, 20) + _FILLED, (0,) * 6, 5),
        ((1, 2) + _FILLED, (1, 20) + _FILLED, (), 5),
    ],
)
def test_a_fill_that_is_not_a_token_per_null_slot_is_trace_error(draft_ids, true_ids, fill, nulls):
    """A record stores the filter's fills and nothing else of its tokens:
    a fill token for every null slot, and no other, so the tokens it
    derives are seven."""
    rec = _record(draft_ids, true_ids, fill, r=9.0)
    assert _refusal([_RESAMPLED, rec]) == (
        f"line 3: fill must hold {nulls} tokens, one per null slot, got {list(fill)!r}"
    )


@pytest.mark.parametrize(
    "draft_ids, true_ids",
    [
        ((None,) + (1,) * 6, (None,) + (1,) * 6),  # a null slot 0, six exact slots after it
        (_N * 7, _N * 7),  # nothing drafted
        ((1, 5) + _FILLED, (1, 9) + _FILLED),  # no rejection: slot 1 is relaxed at r = 9
        ((30, 2) + _FILLED, (1, 20) + _FILLED),  # a second rejection, at slot 0
        ((1, 2, None, 1) + _N * 3, (1, 20, None, 1) + _N * 3),  # a drafted slot after a null
    ],
)
def test_null_slots_that_are_not_one_run_after_the_only_rejection_are_trace_error(
    draft_ids, true_ids
):
    """The filter fills the slots after a first-round rejection and no
    other: a record whose null slots do not follow its one rejection, or do
    not run to its end, is refused."""
    message = _refusal([_record(draft_ids, true_ids, r=9.0)])
    assert message.startswith("line 2: null slots must follow the only rejection to the end, got ")


@pytest.mark.parametrize("calls", [2, 3, 7])
def test_compensated_record_with_more_than_one_verify_call_is_trace_error(calls):
    rec = _COMPENSATED._replace(verify_calls=calls)
    assert _refusal([_RESAMPLED, rec]) == (
        f"line 3: a compensated record must have verify_calls 1, got {calls}"
    )


def _rejected_at(slots, calls):
    """A record at r = 0 whose ids are 5 against 9 at ``slots`` and equal
    elsewhere, which took ``calls`` verify calls."""
    draft_ids = tuple(5 if pos in slots else 1 for pos in range(7))
    true_ids = tuple(9 if pos in slots else 1 for pos in range(7))
    return _record(draft_ids, true_ids)._replace(verify_calls=calls)


@pytest.mark.parametrize(
    "slots, calls, need",
    [((0, 2, 4), 1, 4), ((0, 2, 4), 3, 4), ((4, 6), 1, 2), ((0,), 1, 2), (tuple(range(7)), 6, 7)],
)
def test_record_with_fewer_verify_calls_than_its_rejections_need_is_trace_error(
    slots, calls, need
):
    """Each rejection ends a round, and a round follows the last one unless
    it is at slot 6, so no depth decodes the slice in fewer calls."""
    assert _refusal([_rejected_at(slots, calls)]) == (
        f"line 2: a record with {len(slots)} rejections, the last at slot {slots[-1]}, "
        f"must have verify_calls >= {need}, got {calls}"
    )


@pytest.mark.parametrize(
    "slots, calls", [((0, 2, 4), 4), ((4, 6), 2), ((6,), 1), ((), 1), (tuple(range(7)), 7)]
)
def test_record_with_the_verify_calls_its_rejections_need_loads(slots, calls):
    text = _episode_text(slices=[_rejected_at(slots, calls)])
    assert loads(text) == reference_trace_loads(text)
    assert loads(text).slices[0].verify_calls == calls


@pytest.mark.parametrize(
    "steps, cums, lineno",
    [
        ([0.0], [7.5], 2),  # the first record adds to 0.0
        ([0.1, 0.2], [0.1, 0.3], 3),  # 0.1 + 0.2 is 0.30000000000000004
        ([0.5, 0.25, 0.0], [0.5, 0.75, 0.5], 4),
    ],
)
def test_kvar_cum_that_is_not_the_previous_plus_kvar_step_is_trace_error(steps, cums, lineno):
    exact = (1,) * 7
    slices = [_record(exact, exact, kvar_step=s, kvar_cum=c) for s, c in zip(steps, cums)]
    previous = cums[-2] if len(cums) > 1 else 0.0
    assert _refusal(slices) == (
        f"line {lineno}: record kvar_cum must be the previous {previous!r} plus {steps[-1]!r}, "
        f"got {cums[-1]!r}"
    )


def test_kvar_cum_that_overflows_loads():
    top = sys.float_info.max
    exact = (1,) * 7
    first = _record(exact, exact, kvar_step=top)
    slices = [first, _record(exact, exact, kvar_step=top, kvar_cum=math.inf)]
    assert loads(_episode_text(slices=slices)).slices[1].kvar_cum == math.inf


def test_what_a_record_derives_from_its_statuses():
    """A record's statuses are ``relaxed_accept`` of its ids at its r, null
    where the filter filled; its first error position and compensation flag
    follow from its ids and r as from those statuses, and its tokens are
    each drafted slot's draft id within r and true id past r, then its
    fill."""
    trace = loads(_episode_text(slices=[_RESAMPLED, _COMPENSATED, _COMPENSATED]))
    rec = trace.slices[1]
    assert rec.statuses == ("exact", "rejected") + (None,) * 5
    assert rec.tokens == (1, 20, 1, 1, 1, 1, 1)
    assert (rec.first_error_pos, rec.comp_fired, trace.comp_events) == (1, True, 2)
    assert trace.slices[0].tokens == (1, 20, 1, 1, 1, 1, 1)
    ids = (1, 2, 3, 4, 5, 6, 7)
    judged = rec._replace(draft_ids=ids, true_ids=(1, 3, 13, 14, 15, 16, 17), fill=(), r=1.0)
    assert judged.statuses == ("exact", "relaxed") + ("rejected",) * 5
    assert judged.tokens == (1, 2, 13, 14, 15, 16, 17)
    assert (judged.first_error_pos, judged.comp_fired) == (2, False)
    # r = 9.99 accepts what floor(r) = 9 does: distance 10 is rejected, 9 is not
    wider = judged._replace(true_ids=(1, 3, 3, 4, 5, 6, 17), r=9.99)
    assert wider.statuses == ("exact", "relaxed") + ("exact",) * 4 + ("rejected",)
    assert wider.tokens == (1, 2, 3, 4, 5, 6, 17)
    assert wider.first_error_pos == 6
    clean = judged._replace(true_ids=ids)
    assert clean.statuses == ("exact",) * 7
    assert clean.tokens == ids
    assert (clean.first_error_pos, clean.comp_fired) == (7, False)


@pytest.mark.parametrize(
    "mode, comp_n, slices, message",
    [
        # a fixed_relaxed trace that compensates on its first record and on the next
        (
            "fixed_relaxed", 0, [_COMPENSATED] * 2,
            "line 2: a fixed_relaxed record cannot be compensated",
        ),
        (
            "naive", 0, [_RESAMPLED._replace(r=0.0), _COMPENSATED._replace(r=0.0)],
            "line 3: a naive record cannot be compensated",
        ),
        (
            "kerv", 0, [_COMPENSATED, _RESAMPLED],
            "line 2: the first record cannot be compensated: the filter holds no context",
        ),
        (
            "kerv", 1, [_RESAMPLED, _COMPENSATED, _COMPENSATED],
            "line 4: a record cannot be compensated with 1 cooldown slices left",
        ),
        (
            "kerv", 4, [_RESAMPLED, _COMPENSATED, _RESAMPLED, _RESAMPLED, _COMPENSATED],
            "line 6: a record cannot be compensated with 2 cooldown slices left",
        ),
    ],
)
def test_a_compensation_the_run_could_not_have_made_is_trace_error(mode, comp_n, slices, message):
    """Only kerv compensates, from a filter that holds the slices before it,
    and a compensation starts comp_n slices that resample: the cooldown is
    rebuilt from the compensated records and the header's comp_n, so a
    trace that compensates where its run could not is refused with its
    line."""
    assert _refusal(slices, mode=mode, comp_n=comp_n) == message


@pytest.mark.parametrize(
    "mode, slices, message",
    [
        # a naive trace at r = 5 with a relaxed slot
        (
            "naive", [_rejected_at((), 1), _record((5,) * 7, (9,) * 7, r=5.0)],
            "line 3: a naive record must have r 0.0, got 5.0",
        ),
        (
            "fixed_relaxed", [_RESAMPLED, _RESAMPLED, _RESAMPLED._replace(r=15.0)],
            "line 4: a fixed_relaxed record must have the first record's r 9.0, got 15.0",
        ),
    ],
)
def test_a_threshold_the_mode_could_not_have_decoded_at_is_trace_error(mode, slices, message):
    """naive decodes strictly, at r = 0, and fixed_relaxed at one r."""
    assert _refusal(slices, mode=mode) == message


@pytest.mark.parametrize("comp_n", [0, 1, 4])
def test_compensations_the_cooldown_allows_load(comp_n):
    """A kerv trace that compensates on its second record and again once
    comp_n records have resampled loads in both loaders, as do a naive
    trace at r = 0 (or the int 0) and a fixed_relaxed one at r = 9 (or the
    int 9)."""
    slices = [_RESAMPLED, _COMPENSATED] + [_RESAMPLED] * comp_n + [_COMPENSATED]
    cases = [
        ("kerv", slices),
        ("naive", [_RESAMPLED._replace(r=0.0), _RESAMPLED._replace(r=0)]),
        ("fixed_relaxed", [_RESAMPLED, _RESAMPLED._replace(r=9)]),
    ]
    for mode, trace_slices in cases:
        text = _episode_text(slices=trace_slices, mode=mode, comp_n=comp_n)
        assert loads(text) == reference_trace_loads(text)
        assert loads(text).slices == trace_slices


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


_NEAR_2_52 = (2**52 - 1, 2**52 - 2, 0, 1, 2**51, 3, 2**52 - 7)


@pytest.mark.parametrize(
    "rec",
    [
        # ids near 2**52, a negative zero and a float that repr writes in 17 digits
        SliceRecord(_NEAR_2_52, _NEAR_2_52[::-1], (), -0.0, 0.1 + 0.2, 1e-300, 7),
        # null slots: the filter filled the positions after a rejection
        SliceRecord(
            (4, 9, None, None, None, None, None), (4, 7, None, None, None, None, None),
            (1, 2, 3, 4, 5), 1.0, 0.0, 2.5e16, 1,
        ),
        # an infinite kvar_cum, as a run whose variability overflows writes it
        SliceRecord((1,) * 7, (1,) * 7, (), 15.0, 0.0, math.inf, 2),
        # ints where floats go, as a hand-written trace loads them
        SliceRecord((2,) * 7, (3,) * 7, (), 15, 0, 0, 2),
    ],
    ids=["big_ids", "null_slots", "infinite_kvar_cum", "int_floats"],
)
def test_record_line_is_the_sorted_json_of_its_fields(rec):
    """Whether a record's line comes from the template or from the JSON
    encoder, it is ``json.dumps`` of its field dict with sorted keys."""
    trace = EpisodeTrace(
        suite="goal", kind="reach", mode="kerv", robot="sim7dof", trial=0, seed=1, comp_n=0,
        slices=[rec, rec], steps=2,
    )
    lines = trace.dumps().splitlines()
    assert lines[1:3] == [json.dumps(rec._asdict(), sort_keys=True)] * 2


# ids past float precision: one past 2**53, 2**63 (past int64), one past
# the float range and -2**70; a slot draws one of them plus a small offset,
# so ids of one base lie on both sides of r and ids of two bases far apart
_BIG_IDS = (2**53 + 1, 2**63, 10**400, -(2**70))
_big_id = st.builds(operator.add, st.sampled_from(_BIG_IDS), st.integers(-12, 12))


@pytest.mark.parametrize("how", [None] + sorted(_FIELD_MUTATIONS))
@given(trace=_episodes(ids=_big_id), data=st.data())
@settings(max_examples=25, deadline=None)
def test_loads_agrees_with_the_reference_loader_on_ids_past_float_precision(how, trace, data):
    """A trace whose ids a float64 or int64 cannot hold loads as it was
    written, and with one line mutated both loaders agree."""
    text = trace.dumps()
    if how is None:
        assert loads(text) == trace
        assert loads(text).dumps() == text
    lines = text.splitlines(keepends=True)
    if how is not None:
        _mutate(lines, how, data, 0, len(lines))
    _agree("".join(lines))


def _outcome(load, text):
    """What ``load`` gives for ``text``: the trace, or the type and message
    of what it raises."""
    try:
        return load(text)
    except (TraceError, OverflowError) as exc:
        return type(exc), str(exc)


_P = 2**53
_TOP = int(sys.float_info.max)  # the largest float, as an int
_EXACT = (1,) * 7


def _kvar(steps, cums, r=0.0):
    """Exact records whose variabilities are ``steps`` and ``cums``."""
    return [
        _record(_EXACT, _EXACT, r=r, kvar_step=step, kvar_cum=cum) for step, cum in zip(steps, cums)
    ]


@pytest.mark.parametrize(
    "mode, slices, loaded",
    [
        # kvar_step = kvar_cum = 2**53 + 1 on a first record: 0.0 plus the
        # step is a float sum, 2**53, which float64 columns would equal
        ("kerv", _kvar([_P + 1], [_P + 1]), False),
        # an int plus an int is exact, so 2**53 then 2**53 + 1 loads...
        ("kerv", _kvar([_P, 1], [_P, _P + 1]), True),
        # ...and 2**53 twice does not; an int plus a float is a float sum
        ("kerv", _kvar([_P, 1], [_P, _P]), False),
        ("kerv", _kvar([_P, 1.0], [_P, float(_P)]), True),
        ("kerv", _kvar([_P, 1.0], [_P, _P + 1]), False),
        # ints past 2**53 in r: a distance of 2**53 + 1 is within r = 2**53 + 1
        ("kerv", [_record((0,) * 7, (_P + 1,) * 7, r=_P + 1)], True),
        ("kerv", [_record((0,) * 7, (_P + 2,) * 7, r=_P + 1)], False),
        ("naive", [_record(_EXACT, _EXACT, r=0), _record(_EXACT, _EXACT, r=_P + 1)], False),
        # fixed_relaxed at the int 2**53 + 1, then at the float 2**53
        ("fixed_relaxed", _kvar([0, 0], [0, 0], r=_P + 1), True),
        (
            "fixed_relaxed",
            [*_kvar([0], [0], r=_P + 1), *_kvar([0], [0], r=float(_P + 1))],
            False,
        ),
        # ids 2**63 + 5 against 2**63 at r = 3 are rejected, in two verify calls
        ("kerv", [_record((2**63 + 5,) + _EXACT[1:], (2**63,) + _EXACT[1:], r=3)._replace(
            verify_calls=2)], True),
        ("kerv", [_record((2**63 + 5,) + _EXACT[1:], (2**63,) + _EXACT[1:], r=3)], False),
        # a compensation after a rejection between ids past the float range
        (
            "kerv",
            [_RESAMPLED._replace(kvar_step=0, kvar_cum=0),
             _record((10**400, 10**400 + 9) + _FILLED, (10**400, 10**400) + _FILLED, r=3)],
            True,
        ),
        # kvar_cum an int past the float range (an int sum), and then a float
        # step, which Python cannot add to it: both loaders raise OverflowError...
        ("kerv", _kvar([_TOP, _TOP, 1.0], [_TOP, 2 * _TOP, 0.0]), False),
        # ...unless a rule refuses an earlier record first
        ("fixed_relaxed", _kvar([_TOP], [_TOP]) + _kvar([_TOP, 1.0], [2 * _TOP, 0.0], r=1.0), False),
    ],
)
def test_float_fields_holding_ints_past_float_precision_agree_with_the_reference(
    mode, slices, loaded
):
    """Ints in a float field compare and add as Python ints: the column
    loader takes float64 columns only where they hold the values exactly."""
    # the reference writer: the library's cannot write an int past the float range
    text = reference_trace_dumps(_episode(slices=slices, mode=mode))
    got = _outcome(loads, text)
    assert got == _outcome(reference_trace_loads, text)
    assert isinstance(got, EpisodeTrace) is loaded
    if loaded:
        assert got.slices == slices and got.dumps() == text
