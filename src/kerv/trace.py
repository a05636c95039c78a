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
the metrics. Each line is decoded once, by ``_DECODER.raw_decode``; a line
it does not read to its end goes to ``_DECODER.decode``, which takes
surrounding whitespace and words the error of a malformed line. A line
that is not a JSON object is rejected with its line number. A header or
summary is checked as it is read (``_checked``). Record lines are kept and
judged together once the lines stop (``_judged``): at the end of the
stream, or at an error of a later line (a malformed or non-object line, a
second header, a faulty summary), which the first refused record raises
ahead of. Each rule below judges a whole column of the records at once,
and only the records before the first that an earlier rule refused; so
the record refused is the first that any rule refuses, with the message of
the first rule it fails, as when records were judged one at a time. A
column is float64 only where it holds its values exactly (a float field
whose values are all floats, ids all below 2**52 in size); otherwise it
holds the Python values, so an int past float precision compares and adds
as Python does, and a record keeps the decoded values.

A header, record or summary is refused for the first of its fields, in
field order, that is missing or holds a value of the wrong JSON type, or
else holds a value outside its range. The types come from the field's
annotation (``_JSON_TYPES``) and the ranges from ``_RANGES``. A wrong type
is a scalar of another type (an int field refuses ``true``/``false`` and
``1.0``; a float field takes an integer), an id field that is not a list
of 7 slots, a fill that is not a list, an id that is not an int or
``null``, a fill token that is not an int, or the constant ``NaN``
(``Infinity`` loads: an overflowing deviation is written as one). A value
out of range is a negative trial, comp_n, step count or deviation, or a
record value outside its bounds (``verify_calls`` in [1, 7]: depth 1 with
every position rejected is 7 rounds). A header, record or summary that
holds a key it does not define is refused once its fields pass, with the
unknown keys sorted; so is a header or summary line with a key besides
``episode`` or ``summary``, before the object it holds is read. So a
record of an older format, which also stored statuses or what they give,
or all its tokens and its cooldown and no fill, never loads, and neither
does a header without comp_n. A header mode outside ``MODES`` or kind
outside ``simenv.KINDS`` is rejected after its fields.

A record whose fields pass is then refused where it contradicts itself or
the record before it, by the first of these rules: its two id lists are
not null at the same slots; its null slots are not one run to the end
that starts right after its only rejection; it has null slots and
``verify_calls`` is not 1 (a compensated slice is one round); its fill
does not hold one token per null slot; it has no null slots and
``verify_calls`` is below its rejections plus one, where the one is
dropped if the last rejection is at slot 6 (each rejection ends a round,
and one more round follows the last rejection unless no slot is left;
depth 7 takes the fewest rounds); or its ``kvar_cum`` is not the previous
record's (0.0 before the first) plus its ``kvar_step``, exactly, as both
decoders add them. It is then refused where no run of its header could
have decoded it after the records before it, by the first of these rules:
it is compensated, and its mode is ``naive`` or ``fixed_relaxed`` (only
``kerv`` compensates), or it is the first record (the filter holds no
context before the first slice), or the cooldown rebuilt after the record
before it is above 0; a ``naive`` record's r is not 0.0; or a
``fixed_relaxed`` record's r is not the first record's. ``load`` puts the
file's path in front of the error, as it does for a file that is not
UTF-8 text. Traces and calibration tables are written atomically (a
temporary file in the target directory, then ``os.replace``), so a reader
sees the old file or the whole new one.
"""
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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


# where a record lacks a field, its column holds this
_MISSING = object()

# each list field of a record: the JSON types of its slots, how many it
# holds (None: any; the fill's length is checked against the null slots)
# and what its slots must be
_SLOT_FIELDS = {
    "draft_ids": ({int, type(None)}, N_DOF, "ids must be ints or null"),
    "true_ids": ({int, type(None)}, N_DOF, "ids must be ints or null"),
    "fill": ({int}, None, "fill tokens must be ints"),
}


def _checks(cls, part: str, names) -> tuple:
    """(field, accepted JSON types, range) of each named field of ``cls``,
    in order. A scalar takes its types from its annotation (``_JSON_TYPES``;
    this module evaluates its annotations, so they are types) and its
    (lowest, highest, the range in words) from ``_RANGES``, or None; a list
    field has neither (``_SLOT_FIELDS``)."""
    ranges = {name: bounds for name, *bounds in _RANGES[part]}
    return tuple(
        (name, _JSON_TYPES.get(cls.__annotations__[name]), ranges.get(name)) for name in names
    )


_HEADER_CHECKS = _checks(EpisodeTrace, "episode", _HEADER_FIELDS)
_RECORD_CHECKS = _checks(SliceRecord, "record", SliceRecord._fields)
_SUMMARY_CHECKS = _checks(EpisodeTrace, "summary", _SUMMARY_FIELDS)


def _fault(part: str, name: str, allowed, bounds, value) -> str | None:
    """What is wrong with ``value`` as field ``name`` of a line's ``part``,
    checked as ``_checks`` gives it: missing, then its type, then its range
    (a list field: its shape, then its slots' types); or None."""
    if value is _MISSING:
        return f"record has no {name!r} field"
    if allowed is None:
        types, size, what = _SLOT_FIELDS[name]
        if type(value) is not list or size and len(value) != size:
            shape = f"a list of {size} items" if size else "a list"
            return f"{name} must be {shape}, got {value!r}"
        bad = [slot for slot in value if type(slot) not in types]
        return f"{what}, got {bad[0]!r}" if bad else None
    if type(value) not in allowed:
        what = " or ".join(sorted(_TYPE_NAMES[t] for t in allowed))
        return f"{part} {name} must be {what}, got {value!r}"
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        return f"{part} {name} must be {bounds[2]}, got {value!r}"
    return None


def _unknown_keys(obj: dict, names, part: str) -> str:
    """What names, sorted, the keys of ``obj`` outside ``names``."""
    unknown = sorted(set(obj).difference(names))
    return f"{part} has unknown keys {unknown}"


def _checked(obj, part: str, checks: tuple, lineno: int) -> list:
    """The fields of a header's or summary's ``part`` in ``checks`` order,
    each read once and checked (``_fault``)."""
    if type(obj) is not dict:
        raise TraceError(f"line {lineno}: {part} must be a JSON object, got {obj!r}")
    values = []
    for name, allowed, bounds in checks:
        value = obj.get(name, _MISSING)
        fault = _fault(part, name, allowed, bounds, value)
        if fault is not None:
            raise TraceError(f"line {lineno}: {fault}")
        values.append(value)
    if len(obj) != len(checks):  # every field was found, so the rest are unknown
        unknown = _unknown_keys(obj, [check[0] for check in checks], part)
        raise TraceError(f"line {lineno}: {unknown}")
    return values


def _numbers(values: list, types: set) -> np.ndarray:
    """A float field's column: float64 when every value is a float, which
    it holds exactly, else the Python values, so ints compare and add as
    the JSON gave them."""
    return np.array(values, dtype=np.float64 if types == {float} else object)


def _ids(lists: list) -> tuple[np.ndarray, np.ndarray]:
    """The ids of ``lists`` (id lists of 7 ints or nulls, draft rows then
    true rows) as one array of rows with 0 where an id is null, and its
    null mask. The ids are float64 where every one is below 2**52 in size,
    so a difference of two is exact, else the Python ints."""
    flat = list(chain.from_iterable(lists))
    try:
        ids = np.array(flat, dtype=np.float64).reshape(-1, N_DOF)  # a null is nan
        null = np.isnan(ids)
        ids[null] = 0.0
        exact = np.abs(ids).max(initial=0.0) < 2.0**52
    except OverflowError:  # an id past the float range
        exact = False
    if not exact:
        ids = np.array(flat, dtype=object).reshape(-1, N_DOF)
        null = np.equal(ids, None)
        ids[null] = 0
    return ids, null


def _plus(a, b):
    """``a + b``, or the OverflowError that Python raises adding an int past
    the float range and a float."""
    try:
        return a + b
    except OverflowError as exc:
        return exc


def _judged(objs: list, linenos: list, mode: str, comp_n: int) -> list[SliceRecord]:
    """The records of a trace's record objects ``objs``, on lines
    ``linenos``, of a header's ``mode`` and ``comp_n``. Each rule judges
    every record at once, in the order the module docstring lists, and only
    the records before the first that an earlier rule refused: so the first
    record any rule refuses raises, with its first rule's message."""
    limit, message = len(objs), None  # the records before limit pass every rule so far

    def refuse(bad, word) -> None:
        """Refuse the first record before limit that ``bad`` marks, with
        ``word(i)`` for record i."""
        nonlocal limit, message
        hits = np.flatnonzero(bad[:limit])
        if hits.size:
            limit = int(hits[0])
            message = word(limit)

    # the fields, in field order: found, of a JSON type, in range, each
    # tested over its column and walked only to find a fault
    cols, kinds = [], []
    for name, allowed, bounds in _RECORD_CHECKS:
        col = list(map(dict.get, objs[:limit], repeat(name), repeat(_MISSING)))
        kind = set(map(type, col))
        if allowed is None:
            types, size, _ = _SLOT_FIELDS[name]
            ok = (
                kind <= {list}
                and (size is None or set(map(len, col)) <= {size})
                and types.issuperset(map(type, chain.from_iterable(col)))
            )
        else:
            ok = kind <= allowed and (
                bounds is None or not col or bounds[0] <= min(col) and max(col) <= bounds[1]
            )
        if not ok:
            faults = [_fault("record", name, allowed, bounds, value) for value in col]
            refuse([fault is not None for fault in faults], faults.__getitem__)
        cols.append(col)
        kinds.append(kind)
    names = SliceRecord._fields
    sizes = list(map(len, objs[:limit]))
    if max(sizes, default=0) > len(names):  # every field was found, so the rest are unknown
        bad = [size > len(names) for size in sizes]
        refuse(bad, lambda i: _unknown_keys(objs[i], names, "record"))

    n = limit
    drafted, truth, fill, r, kvar_step, kvar_cum, calls = cols = [col[:n] for col in cols]
    ids, null = _ids(drafted + truth)
    draft_null, true_null = null[:n], null[n:]
    r_col = _numbers(r, kinds[3])
    dist = np.abs(ids[:n] - ids[n:])  # 0 at a null slot
    rejected = dist > r_col[:, None]
    nulls = draft_null.sum(axis=1)
    comp = nulls > 0
    n_calls = np.array(calls, dtype=np.int64)  # in [1, 7]

    def both(i: int) -> str:
        return f"draft_ids {tuple(drafted[i])!r}, true_ids {tuple(truth[i])!r}"

    # what contradicts the rest of a record, or the record before it
    if null.any():
        refuse(
            (draft_null != true_null).any(axis=1),
            lambda i: f"draft_ids and true_ids must be null at the same slots, got {both(i)}",
        )
        judged = np.where(comp, draft_null.argmax(axis=1), N_DOF)  # the drafted slots come first
        before = np.arange(N_DOF) < judged[:, None]
        last_judged = rejected[np.arange(n), judged - 1]
        one_run = ((rejected & before).sum(axis=1) == 1) & last_judged & (nulls == N_DOF - judged)
        refuse(
            comp & ~one_run,
            lambda i: (
                f"null slots must follow the only rejection to the end, got {both(i)} "
                f"at r {r[i]!r}"
            ),
        )
        refuse(
            comp & (n_calls != 1),
            lambda i: f"a compensated record must have verify_calls 1, got {calls[i]}",
        )
    refuse(
        np.fromiter(map(len, fill), np.intp, n) != nulls,
        lambda i: f"fill must hold {nulls[i]} tokens, one per null slot, got {fill[i]!r}",
    )
    # each rejection ends a round, and one more follows the last unless it is at slot 6
    need = rejected.sum(axis=1) + ~rejected[:, -1]

    def too_few(i: int) -> str:
        slots = np.flatnonzero(rejected[i])
        last = int(slots[-1]) if slots.size else -1
        return (
            f"a record with {slots.size} rejections, the last at slot {last}, must have "
            f"verify_calls >= {need[i]}, got {calls[i]}"
        )

    refuse(~comp & (n_calls < need), too_few)
    cums = _numbers(kvar_cum, kinds[5])
    previous = np.concatenate(([0.0], cums[:-1]))  # of cums' dtype, 0.0 before the first
    add = np.frompyfunc(_plus, 2, 1) if cums.dtype == object else np.add
    with np.errstate(over="ignore"):  # a float sum past the float range is inf
        sums = add(previous, _numbers(kvar_step, kinds[4]))

    def off_chain(i: int):
        if isinstance(sums[i], OverflowError):
            return sums[i]  # raised as Python raises it
        return (
            f"record kvar_cum must be the previous {kvar_cum[i - 1] if i else 0.0!r} plus "
            f"{kvar_step[i]!r}, got {kvar_cum[i]!r}"
        )

    refuse(cums != sums, off_chain)

    # what no run of the header could have decoded after the records before it
    if mode != "kerv":
        refuse(comp, lambda i: f"a {mode} record cannot be compensated")
    else:
        first = "the first record cannot be compensated: the filter holds no context"
        refuse(comp[:1], lambda i: first)
        # the cooldown a compensation starts is over comp_n + 1 records after it
        at = np.flatnonzero(comp)
        gaps = np.diff(at)
        close = np.zeros(n, dtype=bool)
        close[at[1:]] = gaps <= min(comp_n, n)
        gap = dict(zip(at[1:].tolist(), gaps.tolist()))
        refuse(close, lambda i: (
            f"a record cannot be compensated with {comp_n + 1 - gap[i]} cooldown slices left"
        ))
    if mode == "naive":
        refuse(r_col != 0.0, lambda i: f"a naive record must have r 0.0, got {r[i]!r}")
    if mode == "fixed_relaxed":
        refuse(r_col != r_col[:1], lambda i: (
            f"a fixed_relaxed record must have the first record's r {r[0]!r}, got {r[i]!r}"
        ))
    if message is not None:
        if isinstance(message, Exception):
            raise message
        raise TraceError(f"line {linenos[limit]}: {message}")
    # ``SliceRecord._make`` of each record's values, without its length check
    fields = zip(map(tuple, drafted), map(tuple, truth), map(tuple, fill), *cols[3:])
    return list(map(tuple.__new__, repeat(SliceRecord), fields))


def loads(text: str) -> EpisodeTrace:
    trace: EpisodeTrace | None = None
    summarized = False
    objs, linenos = [], []  # each record line's object and number, judged once the lines stop
    stop = None  # the line-level error that stops the lines
    raw_decode, decode = _DECODER.raw_decode, _DECODER.decode
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            try:
                obj, end = raw_decode(raw)
            except ValueError:
                end = -1
            if end != len(raw):  # not one JSON value that fills the line
                if not raw.strip():
                    continue
                try:
                    obj = decode(raw)
                except ValueError as exc:  # malformed JSON, or NaN
                    raise TraceError(f"line {lineno}: not a JSON record ({exc})") from None
            if not isinstance(obj, dict):
                raise TraceError(f"line {lineno}: not a JSON object")
            if summarized:
                raise TraceError(f"line {lineno}: record after the summary line")
            if "episode" in obj:
                if trace is not None:
                    raise TraceError(f"line {lineno}: second episode header")
                if len(obj) != 1:
                    unknown = _unknown_keys(obj, ("episode",), "episode line")
                    raise TraceError(f"line {lineno}: {unknown}")
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
                    unknown = _unknown_keys(obj, ("summary",), "summary line")
                    raise TraceError(f"line {lineno}: {unknown}")
                values = _checked(obj["summary"], "summary", _SUMMARY_CHECKS, lineno)
                for name, value in zip(_SUMMARY_FIELDS, values):
                    setattr(trace, name, value)
                summarized = True
            elif trace is None:
                raise TraceError(f"line {lineno}: slice record before episode header")
            else:
                objs.append(obj)
                linenos.append(lineno)
        except TraceError as exc:
            stop = exc
            break
    if objs:  # a record refused ahead of a later line's error
        trace.slices = _judged(objs, linenos, trace.mode, trace.comp_n)
    if stop is not None:
        raise stop
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
