"""Episode traces: one record per decoded slice, serialized as JSON lines.

A trace file starts with an ``episode`` metadata line, which holds the
run's ``comp_n`` (the slices a compensation keeps from compensating
again), carries one slice record per line, and ends with a ``summary``
line. A slice record stores per-position draft and true ids (null where
the Kalman filter filled a position, which was never drafted or verified),
the tokens the filter filled those positions with (``fill``), and the
step's threshold r, variability and verify calls. What a record can
rebuild is not stored: each drafted slot's status is ``relaxed_accept`` of
its ids and r (``SliceRecord.statuses``), and its token is its draft id
within r and its true id past r (``SliceRecord.tokens``, which ends with
the fill); its first error position and whether it was compensated follow
from the ids and r too. The cooldown after each record follows from the
trace: the header's comp_n after a compensated record, one less than the
record before's otherwise, down to 0, starting at 0. The acceptance rule
lives here, once, beside its statuses.

A record is a ``SliceRecord``: an immutable named tuple of 7 fields, which
costs a tuple to build and is written as a JSON object with sorted keys.
A record line is written from one ``%`` template (``_RECORD_TEMPLATE``):
ids and counts as ``%d``, floats as ``%r`` (``float.__repr__``, as the
JSON encoder writes them) and the fill as ``[]``. ``_ENCODE``, the
``encode`` of one ``json.JSONEncoder(sort_keys=True)`` built at import,
writes the header and summary lines, and a record with a null id, a fill
or a non-finite float; both write the bytes ``json.dumps(...,
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
float field takes an integer), an id field that is not a list of 7 slots,
a fill that is not a list, an id that is not an int or ``null``, a fill
token that is not an int, or the constant ``NaN`` (``Infinity`` loads: an
overflowing deviation is written as one); or when it holds a value outside
its range: a negative trial, comp_n, step count or deviation, or a record
value outside its bounds (``verify_calls`` in [1, 7]: depth 1 with every
position rejected is 7 rounds). A header, record or summary that holds a
key it does not define is refused once its fields pass, with the unknown
keys sorted; so is a header or summary line with a key besides
``episode`` or ``summary``, before the object it holds is read. So a
record of an older format, which also stored statuses or what they give,
or all its tokens and its cooldown and no fill, never loads, and neither
does a header without comp_n. A header mode outside ``MODES`` or kind
outside ``simenv.KINDS`` is rejected after its fields.

A record whose fields pass is then refused where it contradicts itself or
the record before it (``_contradiction``), by the first of these rules:
its two id lists are not null at the same slots; its null slots are not
one run to the end that starts right after its only rejection; it has
null slots and ``verify_calls`` is not 1 (a compensated slice is one
round); its fill does not hold one token per null slot; it has no null
slots and ``verify_calls`` is below its rejections plus one, where the one
is dropped if the last rejection is at slot 6 (each rejection ends a
round, and one more round follows the last rejection unless no slot is
left; depth 7 takes the fewest rounds); or its ``kvar_cum`` is not the
previous record's (0.0 before the first) plus its ``kvar_step``, exactly,
as both decoders add them. It is then refused where no run of its header
could have decoded it after the records before it (``_unrunnable``), by
the first of these rules: it is compensated, and its mode is ``naive`` or
``fixed_relaxed`` (only ``kerv`` compensates), or it is the first record
(the filter holds no context before the first slice), or the cooldown
rebuilt after the record before it is above 0; a ``naive`` record's r is
not 0.0; or a ``fixed_relaxed`` record's r is not the first record's.
``load`` puts the file's path in front of the error, as it does for a file
that is not UTF-8 text. Traces and calibration tables are written
atomically (a temporary file in the target directory, then
``os.replace``), so a reader sees the old file or the whole new one.
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


def relaxed_accept(draft_id: int, true_id: int, r: float) -> str:
    """Judge one draft token against the verifier's token: ``EXACT``,
    ``RELAXED`` or ``REJECTED``.

    Exact match always accepts; a nonzero miss is accepted while the token
    distance stays within r, and anything farther is rejected. Distances are
    ints, so a float r accepts exactly what floor(r) does.
    """
    dist = abs(draft_id - true_id)
    if dist == 0:
        return EXACT
    if dist <= r:
        return RELAXED
    return REJECTED


# the fields of the header and summary lines
_HEADER_FIELDS = ("suite", "kind", "mode", "robot", "trial", "seed", "comp_n")
_SUMMARY_FIELDS = ("success", "steps", "deviation", "plan_steps")
# the types ``loads`` accepts for each scalar annotation, as ``json.loads``
# builds them: a float field also takes an integer, and ``bool`` is a type
# of its own, so an int field refuses true/false
_JSON_TYPES = {int: {int}, float: {int, float}, str: {str}, bool: {bool}}
_TYPE_NAMES = {int: "an int", float: "a float", str: "a string", bool: "a bool"}
# (field, lowest, highest, the range in words) of each numeric field of a
# header, record and summary line; kvar_cum and deviation may be infinite,
# as a run whose variability or deviation overflows writes them
_RANGES = {
    "episode": (("trial", 0, math.inf, ">= 0"), ("comp_n", 0, math.inf, ">= 0")),
    "record": (
        ("verify_calls", 1, N_DOF, f"in [1, {N_DOF}]"),
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
    '{"draft_ids": ' + _IDS + ', "fill": [], "kvar_cum": %r, "kvar_step": %r, "r": %r, '
    '"true_ids": ' + _IDS + ', "verify_calls": %d}'
)


def _record_lines(records) -> list[str]:
    """Each record's line, from ``_RECORD_TEMPLATE``, which writes no fill.
    ``_ENCODE`` writes the field dict of a record with a null id (a slot the
    filter filled, which holds a null in both id lists) or a fill, or whose
    floats are not all finite (it writes ``Infinity`` where ``%r`` writes
    ``inf``)."""
    template, finite = _RECORD_TEMPLATE, math.isfinite
    lines = []
    for rec in records:
        drafted, truth, fill, r, kvar_step, kvar_cum, calls = rec
        if None in drafted or fill or not (finite(r) and finite(kvar_step) and finite(kvar_cum)):
            lines.append(_ENCODE(rec._asdict()))
            continue
        fields = (*drafted, kvar_cum, kvar_step, r, *truth, calls)
        lines.append(template % fields)
    return lines


class SliceRecord(NamedTuple):
    """One decoded slice as its trace line records it; a tuple, so no field
    can be assigned. A record's step is its index in the trace, and each of
    its ``verify_calls`` rounds is one draft call and one verify call.
    ``fill`` holds the tokens the filter wrote into the null slots, in slot
    order, and is empty when nothing was filled: they are the only tokens
    its ids and r cannot give. Its tokens, statuses, first error position
    and compensation flag are derived from its ids, r and fill, never
    stored."""

    draft_ids: tuple[int | None, ...]
    true_ids: tuple[int | None, ...]
    fill: tuple[int, ...]
    r: float
    kvar_step: float
    kvar_cum: float
    verify_calls: int

    @property
    def tokens(self) -> tuple[int, ...]:
        """The executed tokens: each drafted slot's draft id within r and its
        true id past r, then the fill."""
        r = self.r
        drafted = zip(self.draft_ids[: N_DOF - len(self.fill)], self.true_ids)
        return (*(d if abs(d - t) <= r else t for d, t in drafted), *self.fill)

    @property
    def statuses(self) -> tuple[str | None, ...]:
        """Each drafted position's ``relaxed_accept`` of its ids at r, and
        None where the filter filled the position."""
        r = self.r
        return tuple(
            None if d is None else relaxed_accept(d, t, r)
            for d, t in zip(self.draft_ids, self.true_ids)
        )

    @property
    def first_error_pos(self) -> int:
        """The first position whose ids are more than r apart, which is
        ``relaxed_accept``'s ``REJECTED`` case, or 7 if none. It reads the
        ids, not ``statuses``: the report and the plot data read it for
        every record. A filled position holds two nulls, which are equal."""
        true_ids, r = self.true_ids, self.r
        pos = 0
        for d in self.draft_ids:
            t = true_ids[pos]
            if d != t and abs(d - t) > r:
                return pos
            pos += 1
        return N_DOF

    @property
    def comp_fired(self) -> bool:
        """Whether the filter filled positions, the only ones never drafted."""
        return None in self.draft_ids


@dataclass
class EpisodeTrace:
    suite: str
    kind: str
    mode: str
    robot: str
    trial: int
    seed: int
    comp_n: int  # the run's cooldown: the slices after a compensation that cannot compensate
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
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _typed_slots(name: str, types: set, what: str, size: int | None = None):
    """The check of a record's list field ``name``, of ``size`` slots if
    given, whose slots are each of a type in ``types``: it returns what is
    wrong with the value, or None."""
    shape = f"a list of {size} items" if size else "a list"

    def fault(slots) -> str | None:
        if type(slots) is not list or size and len(slots) != size:
            return f"{name} must be {shape}, got {slots!r}"
        if types.issuperset(map(type, slots)):
            return None
        bad = next(slot for slot in slots if type(slot) not in types)
        return f"{what}, got {bad!r}"

    return fault


# the check of each list field of a record: the ids hold one slot per DoF,
# each an int or null, and the fill holds ints; its length is checked
# against the null slots
_SLOT_CHECKS = {
    "draft_ids": _typed_slots("draft_ids", {int, type(None)}, "ids must be ints or null", N_DOF),
    "true_ids": _typed_slots("true_ids", {int, type(None)}, "ids must be ints or null", N_DOF),
    "fill": _typed_slots("fill", {int}, "fill tokens must be ints"),
}


def _contradiction(values: list, prev: float) -> str | None:
    """What contradicts the rest of a record whose fields passed
    (``values``, in field order), or the record before it, whose
    ``kvar_cum`` is ``prev``; None if nothing does. The module
    docstring lists the rules in the order they are checked."""
    draft_ids, true_ids, fill, r, kvar_step, kvar_cum, calls = values
    judged = N_DOF  # the drafted positions, which come first
    if None in draft_ids or None in true_ids:
        ids = f"draft_ids {draft_ids!r}, true_ids {true_ids!r}"
        if any((d is None) is not (t is None) for d, t in zip(draft_ids, true_ids)):
            return f"draft_ids and true_ids must be null at the same slots, got {ids}"
        judged = draft_ids.index(None)
        rejected = [pos for pos in range(judged) if abs(draft_ids[pos] - true_ids[pos]) > r]
        if rejected != [judged - 1] or draft_ids.count(None) != N_DOF - judged:
            return f"null slots must follow the only rejection to the end, got {ids} at r {r!r}"
        if calls != 1:
            return f"a compensated record must have verify_calls 1, got {calls}"
    if len(fill) != N_DOF - judged:
        return f"fill must hold {N_DOF - judged} tokens, one per null slot, got {list(fill)!r}"
    if judged == N_DOF:
        rejected = [pos for pos in range(N_DOF) if abs(draft_ids[pos] - true_ids[pos]) > r]
        last = rejected[-1] if rejected else -1
        # each rejection ends a round, and one more follows the last unless it is at slot 6
        need = len(rejected) + (last != N_DOF - 1)
        if calls < need:
            return (
                f"a record with {len(rejected)} rejections, the last at slot {last}, must have "
                f"verify_calls >= {need}, got {calls}"
            )
    if kvar_cum != prev + kvar_step:
        return f"record kvar_cum must be the previous {prev!r} plus {kvar_step!r}, got {kvar_cum!r}"
    return None


def _unrunnable(trace: EpisodeTrace, rec: SliceRecord, cooldown: int) -> str | None:
    """What in a record no run of the trace's header could have decoded
    after the records before it (``trace.slices``), after which the rebuilt
    cooldown is ``cooldown``; None if nothing. The module docstring lists
    the rules in the order they are checked."""
    mode, previous = trace.mode, trace.slices
    if rec.comp_fired:
        if mode != "kerv":
            return f"a {mode} record cannot be compensated"
        if not previous:
            return "the first record cannot be compensated: the filter holds no context"
        if cooldown:
            return f"a record cannot be compensated with {cooldown} cooldown slices left"
    if mode == "naive" and rec.r != 0.0:
        return f"a naive record must have r 0.0, got {rec.r!r}"
    if mode == "fixed_relaxed" and previous and rec.r != previous[0].r:
        first = previous[0].r
        return f"a fixed_relaxed record must have the first record's r {first!r}, got {rec.r!r}"
    return None


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
    kvar_cum = 0.0  # the previous record's
    cooldown = 0  # the rebuilt cooldown after the previous record
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
                rec = SliceRecord._make(values)
                fault = _contradiction(values, kvar_cum) or _unrunnable(trace, rec, cooldown)
                if fault is not None:
                    raise TraceError(f"line {lineno}: {fault}")
                trace.slices.append(rec)
                kvar_cum = rec.kvar_cum
                cooldown = trace.comp_n if rec.comp_fired else max(cooldown - 1, 0)
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
