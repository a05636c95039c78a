"""Episode traces: one record per decoded slice, serialized as JSON lines.

A trace file starts with an ``episode`` metadata line, carries one slice
record per line, and ends with a ``summary`` line. Slice records hold
everything needed to replay acceptance decisions and cost accounting
offline: per-position draft/true ids (null where a position was never
drafted or verified), acceptance statuses, final tokens, value sources,
and the step's threshold, variability, and call counters.

The summary line is required: ``loads`` rejects a stream without one, with
a second header, with a record after the summary, or whose slice count
differs from the summary's ``steps``, so a truncated file never reaches
the metrics. A line that is not a JSON object is rejected with its line
number, as is a header, record or summary that misses a field or holds a
value of the wrong JSON type: a scalar of another type (an int field
refuses ``true``/``false`` and ``1.0``; a float field takes an integer), a
per-position field that is not a list of 7 slots, an id that is not an
int or ``null`` (a token that is not an int), or a status or source
outside its set. Traces and calibration tables are written atomically (a
temporary file in the target directory, then ``os.replace``), so a reader
sees the old file or the whole new one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from .codec import N_DOF

# a drafted position's acceptance status, and where a final token came from
EXACT, RELAXED, REJECTED = "exact", "relaxed", "rejected"
SRC_DRAFT, SRC_VERIFY, SRC_KF = "draft", "verify_corrected", "kf"

# the fields of the header and summary lines, and the per-position fields
# of a slice record, one slot per DoF
_HEADER_FIELDS = ("suite", "kind", "mode", "robot", "trial", "seed")
_SUMMARY_FIELDS = ("success", "steps", "deviation", "plan_steps", "comp_events")
_SLOT_FIELDS = ("draft_ids", "true_ids", "statuses", "tokens", "sources")
_SLOTS = itemgetter(*_SLOT_FIELDS)
_STATUSES = {EXACT, RELAXED, REJECTED, None}
_SOURCES = {SRC_DRAFT, SRC_VERIFY, SRC_KF}
# the types ``loads`` accepts for each scalar annotation, as ``json.loads``
# builds them: a float field also takes an integer, and ``bool`` is a type
# of its own, so an int field refuses true/false
_JSON_TYPES = {"int": {int}, "float": {int, float}, "str": {str}, "bool": {bool}}
_TYPE_NAMES = {int: "an int", float: "a float", str: "a string", bool: "a bool"}


class TraceError(ValueError):
    """Raised when a trace stream is malformed."""


@dataclass(frozen=True)
class SliceRecord:
    step: int
    draft_ids: tuple[int | None, ...]
    true_ids: tuple[int | None, ...]
    statuses: tuple[str | None, ...]
    tokens: tuple[int, ...]
    sources: tuple[str, ...]
    first_error_pos: int
    r: float
    kvar_step: float
    kvar_cum: float
    verify_calls: int
    draft_calls: int
    comp_fired: bool
    cooldown_remaining: int


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
    comp_events: int = 0

    def meta(self) -> dict:
        return {name: getattr(self, name) for name in _HEADER_FIELDS}

    def summary(self) -> dict:
        return {name: getattr(self, name) for name in _SUMMARY_FIELDS}

    def dumps(self) -> str:
        # records hold only JSON scalars and tuples of them, which encode as
        # lists: no deep copy is needed
        lines = [json.dumps({"episode": self.meta()}, sort_keys=True)]
        for rec in self.slices:
            lines.append(json.dumps(vars(rec), sort_keys=True))
        lines.append(json.dumps({"summary": self.summary()}, sort_keys=True))
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, self.dumps())


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


def _record_from_dict(d: dict) -> SliceRecord:
    return SliceRecord(
        step=d["step"],
        draft_ids=tuple(d["draft_ids"]),
        true_ids=tuple(d["true_ids"]),
        statuses=tuple(d["statuses"]),
        tokens=tuple(d["tokens"]),
        sources=tuple(d["sources"]),
        first_error_pos=d["first_error_pos"],
        r=d["r"],
        kvar_step=d["kvar_step"],
        kvar_cum=d["kvar_cum"],
        verify_calls=d["verify_calls"],
        draft_calls=d["draft_calls"],
        comp_fired=d["comp_fired"],
        cooldown_remaining=d["cooldown_remaining"],
    )


def _scalar_types(cls, names) -> tuple:
    """(field, accepted types) of each named scalar field of ``cls``."""
    return tuple((name, _JSON_TYPES[cls.__annotations__[name]]) for name in names)


_HEADER_TYPES = _scalar_types(EpisodeTrace, _HEADER_FIELDS)
_SUMMARY_TYPES = _scalar_types(EpisodeTrace, _SUMMARY_FIELDS)
_RECORD_TYPES = _scalar_types(
    SliceRecord, [name for name in SliceRecord.__annotations__ if name not in _SLOT_FIELDS]
)


def _check_scalars(obj, part: str, types: tuple, lineno: int) -> None:
    if type(obj) is not dict:
        raise TraceError(f"line {lineno}: {part} must be a JSON object, got {obj!r}")
    for name, allowed in types:
        value = obj[name]
        if type(value) not in allowed:
            what = " or ".join(sorted(_TYPE_NAMES[t] for t in allowed))
            raise TraceError(f"line {lineno}: {part} {name} must be {what}, got {value!r}")


def _check_slots(obj: dict, lineno: int) -> None:
    """Each per-position field a list of 7 slots: ids ints or null, tokens
    ints, statuses and sources in their sets."""
    lists = _SLOTS(obj)
    for name, slots in zip(_SLOT_FIELDS, lists):
        if type(slots) is not list or len(slots) != N_DOF:
            raise TraceError(f"line {lineno}: {name} must be a list of {N_DOF} items, got {slots!r}")
    draft_ids, true_ids, statuses, tokens, sources = lists
    for tok in draft_ids + true_ids:
        if type(tok) is not int and tok is not None:
            raise TraceError(f"line {lineno}: ids must be ints or null, got {tok!r}")
    for tok in tokens:
        if type(tok) is not int:
            raise TraceError(f"line {lineno}: tokens must be ints, got {tok!r}")
    try:
        known = _STATUSES.issuperset(statuses) and _SOURCES.issuperset(sources)
    except TypeError:  # a list or object slot, which no set holds
        known = False
    if not known:
        raise TraceError(f"line {lineno}: unknown status or source in {statuses!r}, {sources!r}")


def loads(text: str) -> EpisodeTrace:
    trace: EpisodeTrace | None = None
    summarized = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: not a JSON record ({exc})") from None
        if not isinstance(obj, dict):
            raise TraceError(f"line {lineno}: not a JSON object")
        if summarized:
            raise TraceError(f"line {lineno}: record after the summary line")
        try:
            if "episode" in obj:
                if trace is not None:
                    raise TraceError(f"line {lineno}: second episode header")
                m = obj["episode"]
                _check_scalars(m, "episode", _HEADER_TYPES, lineno)
                trace = EpisodeTrace(**{name: m[name] for name in _HEADER_FIELDS})
            elif "summary" in obj:
                if trace is None:
                    raise TraceError(f"line {lineno}: summary before episode header")
                s = obj["summary"]
                _check_scalars(s, "summary", _SUMMARY_TYPES, lineno)
                for name in _SUMMARY_FIELDS:
                    setattr(trace, name, s[name])
                summarized = True
            else:
                if trace is None:
                    raise TraceError(f"line {lineno}: slice record before episode header")
                _check_slots(obj, lineno)
                _check_scalars(obj, "record", _RECORD_TYPES, lineno)
                trace.slices.append(_record_from_dict(obj))
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
    return loads(Path(path).read_text())


def load_dir(path: str | Path) -> list[EpisodeTrace]:
    """Load every ``*.jsonl`` trace under a directory, sorted by filename."""
    traces = []
    for p in sorted(Path(path).glob("*.jsonl")):
        traces.append(load(p))
    return traces
