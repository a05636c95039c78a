"""Episode traces: one record per decoded slice, serialized as JSON lines.

A trace file starts with an ``episode`` metadata line, carries one slice
record per line, and ends with a ``summary`` line. Slice records hold
per-position draft/true ids and acceptance statuses (null where the Kalman
filter filled a position, which was never drafted or verified), final
tokens, and the step's threshold, variability, verify calls and cooldown.
The statuses are the one record of what a slice did: its first error
position and whether it was compensated are derived from them, not stored.

A record is a ``SliceRecord``: an immutable named tuple of 9 fields, which
costs a tuple to build and is written as a JSON object with sorted keys.
A record line is written from one ``%`` template (``_RECORD_TEMPLATE``):
ids and counts as ``%d``, floats as ``%r`` (``float.__repr__``, as the JSON
encoder writes them), and the statuses from a cache of their JSON text by
tuple. ``_ENCODE``, the ``encode`` of one ``json.JSONEncoder(sort_keys=True)``
built at import, writes the header and summary lines, and a record with a
null slot or a non-finite float; both write the bytes ``json.dumps(...,
sort_keys=True)`` writes. Every line is read by ``_DECODER``, one decoder
built at import.

The episode statistics that a report and a calibration table share live
here, once: ``success_rate``, ``mean_steps`` and ``_fold``, which adds
floats left to right, so a total does not move with the interpreter's
``sum``.

The summary line is required: ``loads`` rejects a stream without one, with
a second header, with a record after the summary, or whose slice count
differs from the summary's ``steps``, so a truncated file never reaches
the metrics. A line that is not a JSON object is rejected with its line
number. ``loads`` checks each header, record and summary in one pass over
its fields (``_checked``), which reads each field once and takes the
field's JSON types from its annotation (``_JSON_TYPES``) and its range from
``_RANGES``; the first fault in field order is reported. A field is at
fault when it is missing or holds a value of the wrong JSON type: a scalar
of another type (an int field refuses ``true``/``false`` and ``1.0``; a
float field takes an integer), a per-position field that is not a list of
7 slots, an id that is not an int or ``null`` (a token that is not an int),
a status outside its set, or the constant ``NaN`` (``Infinity`` loads: an
overflowing deviation is written as one); or when it holds a value outside
its range: a negative trial, step count or deviation, or a record value
outside its bounds. A header, record or summary that holds a key it does
not define is refused once its fields pass, with the unknown keys sorted;
so is a header or summary line with a key besides ``episode`` or
``summary``, before the object it holds is read. So a record of an older
format, which also stored what its statuses give, never loads. A record
is then refused where a status is null but an id is not, or the reverse
(``_judged_mismatch``). A header mode outside ``MODES`` or kind outside
``simenv.KINDS`` is rejected after its fields. ``load`` puts the file's
path in front of the error, as it does for a file that is not UTF-8 text.
Traces and calibration tables are written atomically (a temporary file in
the target directory, then ``os.replace``), so a reader sees the old file
or the whole new one.
"""

import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .codec import N_DOF
from .simenv import KINDS

# the decoding policies, in report order
MODES = ("naive", "fixed_relaxed", "kerv")

# a drafted position's acceptance status
EXACT, RELAXED, REJECTED = "exact", "relaxed", "rejected"

# the fields of the header and summary lines
_HEADER_FIELDS = ("suite", "kind", "mode", "robot", "trial", "seed")
_SUMMARY_FIELDS = ("success", "steps", "deviation", "plan_steps")
_JUDGED = {EXACT, RELAXED, REJECTED}
_STATUSES = _JUDGED | {None}
# the types ``loads`` accepts for each scalar annotation, as ``json.loads``
# builds them: a float field also takes an integer, and ``bool`` is a type
# of its own, so an int field refuses true/false
_JSON_TYPES = {int: {int}, float: {int, float}, str: {str}, bool: {bool}}
_TYPE_NAMES = {int: "an int", float: "a float", str: "a string", bool: "a bool"}
# (field, lowest, highest, the range in words) of each numeric field of a
# header, record and summary line; kvar_cum and deviation may be infinite,
# as a run whose variability or deviation overflows writes them
_RANGES = {
    "episode": (("trial", 0, math.inf, ">= 0"),),
    "record": (
        ("verify_calls", 1, math.inf, ">= 1"),
        ("cooldown_remaining", 0, math.inf, ">= 0"),
        ("r", 0, sys.float_info.max, "finite and >= 0"),
        ("kvar_step", 0, sys.float_info.max, "finite and >= 0"),
        ("kvar_cum", 0, math.inf, ">= 0"),
    ),
    "summary": (
        ("steps", 0, math.inf, ">= 0"),
        ("deviation", 0, math.inf, ">= 0"),
        ("plan_steps", 0, math.inf, ">= 0"),
    ),
}


class TraceError(ValueError):
    """Raised when a trace stream is malformed."""


def _parse_constant(name: str) -> float:
    # a run writes +-Infinity where a deviation overflows, but never NaN
    if name == "NaN":
        raise ValueError("NaN is not a trace value")
    return float(name)


# one decoder for every line: ``json.loads`` with an option builds a new one
_DECODER = json.JSONDecoder(parse_constant=_parse_constant)


# ``json.dumps(obj, sort_keys=True)`` with its encoder built once:
# ``json.dumps`` with an option builds a ``JSONEncoder`` for every call
_ENCODE = json.JSONEncoder(sort_keys=True).encode

# a record's line as ``_ENCODE`` writes its field dict: keys sorted, ids and
# counts as ``int.__repr__`` writes them, floats as ``float.__repr__``
_IDS = "[" + ", ".join(["%d"] * N_DOF) + "]"
_RECORD_TEMPLATE = (
    '{"cooldown_remaining": %d, "draft_ids": ' + _IDS + ', "kvar_cum": %r, "kvar_step": %r, '
    '"r": %r, "statuses": %s, "tokens": ' + _IDS + ', "true_ids": ' + _IDS + ', "verify_calls": %d}'
)
# judged statuses -> their JSON list, filled as they appear (at most 3**7)
_STATUS_TEXT: dict[tuple, str] = {}


def _status_text(statuses: tuple) -> str | None:
    """The JSON list of statuses that are all judged, cached; None for any
    others, such as a null slot."""
    if not _JUDGED.issuperset(statuses):
        return None
    text = _STATUS_TEXT[statuses] = _ENCODE(statuses)
    return text


def _record_lines(records) -> list[str]:
    """Each record's line, from ``_RECORD_TEMPLATE``. ``_ENCODE`` writes the
    field dict of a record whose statuses are not all judged (a null slot
    holds null ids) or whose floats are not all finite (it writes
    ``Infinity`` where ``%r`` writes ``inf``)."""
    template, texts, finite = _RECORD_TEMPLATE, _STATUS_TEXT, math.isfinite
    lines = []
    for rec in records:
        drafted, truth, statuses, tokens, r, kvar_step, kvar_cum, calls, cooldown = rec
        status_text = texts.get(statuses) or _status_text(statuses)
        if status_text is None or not (finite(r) and finite(kvar_step) and finite(kvar_cum)):
            lines.append(_ENCODE(rec._asdict()))
            continue
        fields = (cooldown, *drafted, kvar_cum, kvar_step, r, status_text, *tokens, *truth, calls)
        lines.append(template % fields)
    return lines


class SliceRecord(NamedTuple):
    """One decoded slice as its trace line records it; a tuple, so no field
    can be assigned. A record's step is its index in the trace, and each of
    its ``verify_calls`` rounds is one draft call and one verify call."""

    draft_ids: tuple[int | None, ...]
    true_ids: tuple[int | None, ...]
    statuses: tuple[str | None, ...]
    tokens: tuple[int, ...]
    r: float
    kvar_step: float
    kvar_cum: float
    verify_calls: int
    cooldown_remaining: int

    @property
    def first_error_pos(self) -> int:
        """The position of the first ``REJECTED`` status, or 7 if none."""
        statuses = self.statuses
        return statuses.index(REJECTED) if REJECTED in statuses else N_DOF

    @property
    def comp_fired(self) -> bool:
        """Whether the filter filled positions, the only ones left unjudged."""
        return None in self.statuses


@dataclass
class EpisodeTrace:
    suite: str
    kind: str
    mode: str
    robot: str
    trial: int
    seed: int
    slices: list[SliceRecord] = field(default_factory=list)
    success: bool = False
    steps: int = 0
    deviation: float = 0.0
    plan_steps: int = 0

    @property
    def comp_events(self) -> int:
        """How many of the episode's slices were compensated."""
        return sum(rec.comp_fired for rec in self.slices)

    def meta(self) -> dict:
        return {name: getattr(self, name) for name in _HEADER_FIELDS}

    def summary(self) -> dict:
        return {name: getattr(self, name) for name in _SUMMARY_FIELDS}

    def dumps(self) -> str:
        # records hold only JSON scalars and tuples of them, which encode as
        # lists
        lines = [_ENCODE({"episode": self.meta()})]
        lines += _record_lines(self.slices)
        lines.append(_ENCODE({"summary": self.summary()}))
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, self.dumps())


def _fold(values: Iterable[float]) -> float:
    """The sum of ``values`` added left to right, as on every interpreter:
    ``sum()`` of floats is compensated from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def success_rate(traces: Sequence[EpisodeTrace]) -> float:
    if not traces:
        return 0.0
    return sum(1.0 for t in traces if t.success) / len(traces)


def mean_steps(traces: Sequence[EpisodeTrace]) -> float:
    if not traces:
        return 0.0
    return sum(t.steps for t in traces) / len(traces)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _typed_slots(types: set, what: str):
    """The slot check of a per-position field whose slots are each of a type
    in ``types``: it returns what is wrong with the slots, or None."""

    def fault(slots: list) -> str | None:
        if types.issuperset(map(type, slots)):
            return None
        bad = next(slot for slot in slots if type(slot) not in types)
        return f"{what}, got {bad!r}"

    return fault


def _status_slots(slots: list) -> str | None:
    """The slot check of ``statuses``: each slot in ``_STATUSES``."""
    try:
        if _STATUSES.issuperset(slots):
            return None
    except TypeError:  # a list or object slot, which no set holds
        pass
    return f"unknown status in {slots!r}"


# the slot check of each per-position field of a record, which holds one slot
# per DoF: ids ints or null, tokens ints, statuses in their set
_SLOT_CHECKS = {
    "draft_ids": _typed_slots({int, type(None)}, "ids must be ints or null"),
    "true_ids": _typed_slots({int, type(None)}, "ids must be ints or null"),
    "statuses": _status_slots,
    "tokens": _typed_slots({int}, "tokens must be ints"),
}


def _judged_mismatch(draft_ids: tuple, true_ids: tuple, statuses: tuple) -> bool:
    """Whether a slot's ids and status disagree on whether it was judged (a
    filled slot has none of them); three counts settle a record with no null."""
    unjudged = statuses.count(None)
    if draft_ids.count(None) != unjudged or true_ids.count(None) != unjudged:
        return True
    return unjudged > 0 and any(
        (d, t) != (None, None) for d, t, s in zip(draft_ids, true_ids, statuses) if s is None
    )


def _checks(cls, part: str, names) -> tuple:
    """(field, accepted JSON types, range, slot check) of each named field of
    ``cls``, in order. A scalar takes its types from its annotation
    (``_JSON_TYPES``; this module evaluates its annotations, so they are
    types) and its (lowest, highest, the range in words) from ``_RANGES``,
    or None; a per-position field has only its slot check."""
    ranges = {name: bounds for name, *bounds in _RANGES[part]}
    return tuple(
        (name, None, None, _SLOT_CHECKS[name])
        if name in _SLOT_CHECKS
        else (name, _JSON_TYPES[cls.__annotations__[name]], ranges.get(name), None)
        for name in names
    )


_HEADER_CHECKS = _checks(EpisodeTrace, "episode", _HEADER_FIELDS)
_RECORD_CHECKS = _checks(SliceRecord, "record", SliceRecord._fields)
_SUMMARY_CHECKS = _checks(EpisodeTrace, "summary", _SUMMARY_FIELDS)


def _checked(obj, part: str, checks: tuple, lineno: int) -> list:
    """The fields of a line's ``part`` in ``checks`` order, each read once
    and checked: a scalar of an accepted type and in its range, a
    per-position field a list of 7 slots that pass its slot check (returned
    as a tuple)."""
    if type(obj) is not dict:
        raise TraceError(f"line {lineno}: {part} must be a JSON object, got {obj!r}")
    values = []
    for name, allowed, bounds, slot_fault in checks:
        value = obj[name]
        if slot_fault is not None:
            if type(value) is not list or len(value) != N_DOF:
                raise TraceError(
                    f"line {lineno}: {name} must be a list of {N_DOF} items, got {value!r}"
                )
            fault = slot_fault(value)
            if fault is not None:
                raise TraceError(f"line {lineno}: {fault}")
            value = tuple(value)
        elif type(value) not in allowed:
            what = " or ".join(sorted(_TYPE_NAMES[t] for t in allowed))
            raise TraceError(f"line {lineno}: {part} {name} must be {what}, got {value!r}")
        elif bounds is not None and not bounds[0] <= value <= bounds[1]:
            raise TraceError(f"line {lineno}: {part} {name} must be {bounds[2]}, got {value!r}")
        values.append(value)
    if len(obj) != len(checks):  # every field was found, so the rest are unknown
        raise _unknown_keys(obj, [check[0] for check in checks], part, lineno)
    return values


def _unknown_keys(obj: dict, names, part: str, lineno: int) -> TraceError:
    """The error that names, sorted, the keys of ``obj`` outside ``names``."""
    unknown = sorted(set(obj).difference(names))
    return TraceError(f"line {lineno}: {part} has unknown keys {unknown}")


def loads(text: str) -> EpisodeTrace:
    trace: EpisodeTrace | None = None
    summarized = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = _DECODER.decode(raw)
        except ValueError as exc:  # malformed JSON, or NaN
            raise TraceError(f"line {lineno}: not a JSON record ({exc})") from None
        if not isinstance(obj, dict):
            raise TraceError(f"line {lineno}: not a JSON object")
        if summarized:
            raise TraceError(f"line {lineno}: record after the summary line")
        try:
            if "episode" in obj:
                if trace is not None:
                    raise TraceError(f"line {lineno}: second episode header")
                if len(obj) != 1:
                    raise _unknown_keys(obj, ("episode",), "episode line", lineno)
                values = _checked(obj["episode"], "episode", _HEADER_CHECKS, lineno)
                m = dict(zip(_HEADER_FIELDS, values))
                for name, known in (("mode", MODES), ("kind", KINDS)):
                    if m[name] not in known:
                        raise TraceError(
                            f"line {lineno}: episode {name} must be one of {known}, got {m[name]!r}"
                        )
                trace = EpisodeTrace(**m)
            elif "summary" in obj:
                if trace is None:
                    raise TraceError(f"line {lineno}: summary before episode header")
                if len(obj) != 1:
                    raise _unknown_keys(obj, ("summary",), "summary line", lineno)
                values = _checked(obj["summary"], "summary", _SUMMARY_CHECKS, lineno)
                for name, value in zip(_SUMMARY_FIELDS, values):
                    setattr(trace, name, value)
                summarized = True
            else:
                if trace is None:
                    raise TraceError(f"line {lineno}: slice record before episode header")
                values = _checked(obj, "record", _RECORD_CHECKS, lineno)
                if _judged_mismatch(*values[:3]):  # draft_ids, true_ids, statuses
                    raise TraceError(
                        f"line {lineno}: statuses must be null exactly where the ids are, got "
                        f"draft_ids {values[0]!r}, true_ids {values[1]!r}, statuses {values[2]!r}"
                    )
                trace.slices.append(SliceRecord._make(values))
        except KeyError as exc:
            raise TraceError(f"line {lineno}: record has no {exc.args[0]!r} field") from None
    if trace is None:
        raise TraceError("empty trace stream")
    if not summarized:
        raise TraceError("trace stream ends without a summary line (truncated?)")
    if len(trace.slices) != trace.steps:
        raise TraceError(
            f"trace has {len(trace.slices)} slice records but its summary says "
            f"{trace.steps} steps"
        )
    return trace


def load(path: str | Path) -> EpisodeTrace:
    try:
        return loads(Path(path).read_text(encoding="utf-8"))
    except (TraceError, UnicodeDecodeError) as exc:
        raise TraceError(f"{path}: {exc}") from None


def load_dir(path: str | Path) -> list[EpisodeTrace]:
    """Load every ``*.jsonl`` trace under a directory, sorted by filename."""
    traces = []
    for p in sorted(Path(path).glob("*.jsonl")):
        traces.append(load(p))
    return traces
