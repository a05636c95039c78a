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
the metrics. A line that is not a JSON object, a header, record or
summary missing a field, a record whose per-position fields are not
7-item lists, or a summary whose ``steps`` is not an int, is rejected with
its line number. Traces and calibration tables are written atomically (a
temporary file in the target directory, then ``os.replace``), so a reader
sees the old file or the whole new one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .codec import N_DOF

# the per-position fields of a slice record, one slot per DoF
_SLOT_FIELDS = ("draft_ids", "true_ids", "statuses", "tokens", "sources")


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
        return {
            "suite": self.suite,
            "kind": self.kind,
            "mode": self.mode,
            "robot": self.robot,
            "trial": self.trial,
            "seed": self.seed,
        }

    def summary(self) -> dict:
        return {
            "success": self.success,
            "steps": self.steps,
            "deviation": self.deviation,
            "plan_steps": self.plan_steps,
            "comp_events": self.comp_events,
        }

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
                trace = EpisodeTrace(
                    suite=m["suite"],
                    kind=m["kind"],
                    mode=m["mode"],
                    robot=m["robot"],
                    trial=m["trial"],
                    seed=m["seed"],
                )
            elif "summary" in obj:
                if trace is None:
                    raise TraceError(f"line {lineno}: summary before episode header")
                s = obj["summary"]
                steps = s["steps"]
                if type(steps) is not int:
                    raise TraceError(f"line {lineno}: summary steps must be an int, got {steps!r}")
                trace.success = s["success"]
                trace.steps = steps
                trace.deviation = s["deviation"]
                trace.plan_steps = s["plan_steps"]
                trace.comp_events = s["comp_events"]
                summarized = True
            else:
                if trace is None:
                    raise TraceError(f"line {lineno}: slice record before episode header")
                for name in _SLOT_FIELDS:
                    slots = obj[name]
                    if type(slots) is not list or len(slots) != N_DOF:
                        raise TraceError(
                            f"line {lineno}: {name} must be a list of {N_DOF} items, got {slots!r}"
                        )
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
