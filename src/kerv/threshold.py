"""Dynamic acceptance-threshold control driven by kinematic variability.

The threshold r bounds the token-id distance a draft token may miss by and
still be accepted. A per-episode controller moves r between configured
bounds in response to step-to-step changes in kinematic variability; the
controller's gain parameters come from a pre-sampled calibration table
keyed by (task, robot).

Two update modes exist:

* ``literal`` applies the published update exactly as printed:
  ``dr = (r_max - r_min) * exp((-dK / kvar_ref) ** phi)``, which is always
  positive, and freezes r at r_min once it falls to or below r_min. The
  positive-only delta makes the freeze unreachable from above; the mode is
  kept for fidelity testing.
* ``rectified`` (default) makes the response direction follow the intent
  that rising variability must tighten acceptance:
  ``dr = -sign(dK) * tau * (r_max - r_min) * (1 - exp(-|dK / kvar_ref| ** phi))``
  clamped to [r_min, r_max]. Magnitude grows with |dK|, so a larger
  variability jump never yields a weaker correction.

Both updates live in ``step_r``, which works on plain floats. ``adjust``
wraps it for the decoder's per-episode ``ThresholdState``; calibration calls
it directly and keeps only r (and the literal-mode freeze flag) while it
replays a candidate. Calibration decodes each recorded miss of a (task,
robot) group once and re-judges those distances and action masses under
every candidate's walk.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .codec import DEFAULT_KEY, NormKey, token_to_action
from .trace import EpisodeTrace, write_text_atomic

DEFAULT_R_MAX = 15.0
DEFAULT_R_MIN = 5.0
ADJUST_MODES = ("literal", "rectified")

# candidate (tau, phi) pairs; large tau exploits the state-dependent
# variability scale (big deltas near r_max, small ones near r_min) to bias
# the threshold walk downward
DEFAULT_GRID: tuple[tuple[float, float], ...] = tuple(
    (tau, phi) for tau in (0.5, 1.0, 2.0, 4.0) for phi in (0.7, 1.0, 1.5)
)


class ThresholdConfigError(ValueError):
    """Raised for unknown table keys, bad bounds, or empty calibration input."""


@dataclass(frozen=True)
class ThresholdState:
    """Controller state for one episode.

    r is real-valued; acceptance applies floor(r) since token distances are
    integers. ``frozen`` marks the literal-mode terminal condition.
    ``last_delta`` is the most recent raw update before clamping, and
    ``degenerate_events`` counts updates dropped for non-finite arithmetic.
    """

    r: float = DEFAULT_R_MAX
    r_max: float = DEFAULT_R_MAX
    r_min: float = DEFAULT_R_MIN
    tau: float = 1.0
    phi: float = 1.0
    kvar_ref: float = 1.0
    prev_kvar: float = 0.0
    frozen: bool = False
    last_delta: float = 0.0
    degenerate_events: int = 0

    def __post_init__(self) -> None:
        if not (self.r_max > self.r_min >= 0):
            raise ThresholdConfigError(
                f"need r_max > r_min >= 0, got r_max={self.r_max}, r_min={self.r_min}"
            )
        if not (math.isfinite(self.kvar_ref) and self.kvar_ref > 0):
            raise ThresholdConfigError(f"kvar_ref must be > 0, got {self.kvar_ref!r}")


def step_r(
    r: float,
    delta_k: float,
    frozen: bool,
    r_max: float,
    r_min: float,
    tau: float,
    phi: float,
    kvar_ref: float,
    mode: str,
) -> tuple[float, float, bool, bool]:
    """One controller update on plain floats; ``mode`` must be in ``ADJUST_MODES``.

    Returns ``(r, dr, frozen, degenerate)``: the new threshold, the raw
    update before clamping (0.0 when nothing moved), the literal-mode freeze
    flag, and whether the update was dropped for non-finite arithmetic.
    """
    if delta_k == 0.0:
        return r, 0.0, frozen, False

    if mode == "literal":
        if frozen:
            return r, 0.0, True, False
        try:
            inner = math.pow(-delta_k / kvar_ref, phi)
            dr = (r_max - r_min) * math.exp(inner)
        except (ValueError, OverflowError):
            return r, 0.0, False, True
        if not math.isfinite(dr):
            return r, 0.0, False, True
        new_r = r + dr
        if new_r <= r_min:
            return r_min, dr, True, False
        return min(new_r, r_max), dr, False, False

    # rectified
    try:
        decay = 1.0 - math.exp(-abs(delta_k / kvar_ref) ** phi)
    except OverflowError:  # the power passed the float range, where 1 - exp(-x) is 1.0
        decay = 1.0
    magnitude = tau * (r_max - r_min) * decay
    dr = -math.copysign(magnitude, delta_k)
    # min(max(r + dr, r_min), r_max), without the two builtin calls
    new_r = r + dr
    if r_min > new_r:
        new_r = r_min
    if new_r > r_max:
        new_r = r_max
    return new_r, dr, frozen, False


def adjust(state: ThresholdState, kvar_step: float, mode: str = "rectified") -> ThresholdState:
    """Advance the controller one step given the step's kinematic variability."""
    if mode not in ADJUST_MODES:
        raise ThresholdConfigError(f"unknown adjustment mode {mode!r}")
    if not (math.isfinite(kvar_step) and kvar_step >= 0):
        raise ThresholdConfigError(f"kvar_step must be finite and >= 0, got {kvar_step!r}")
    r, dr, frozen, degenerate = step_r(
        state.r,
        kvar_step - state.prev_kvar,
        state.frozen,
        state.r_max,
        state.r_min,
        state.tau,
        state.phi,
        state.kvar_ref,
        mode,
    )
    return ThresholdState(
        r=r,
        r_max=state.r_max,
        r_min=state.r_min,
        tau=state.tau,
        phi=state.phi,
        kvar_ref=state.kvar_ref,
        prev_kvar=kvar_step,
        frozen=frozen,
        last_delta=dr,
        degenerate_events=state.degenerate_events + 1 if degenerate else state.degenerate_events,
    )


@dataclass(frozen=True)
class CalibrationRow:
    tau: float
    phi: float
    r_max: float
    r_min: float
    kvar_ref: float
    success_rate: float
    avg_steps: float


class CalibrationTable:
    """Pre-sampled controller parameters keyed by (task, robot)."""

    HEADER = ("task", "robot", "tau", "phi", "r_max", "r_min", "kvar_ref", "sr", "steps")

    def __init__(self, rows: dict[tuple[str, str], CalibrationRow] | None = None) -> None:
        self.rows: dict[tuple[str, str], CalibrationRow] = dict(rows or {})

    def put(self, task: str, robot: str, row: CalibrationRow) -> None:
        if row.kvar_ref <= 0:
            raise ThresholdConfigError("kvar_ref must be strictly positive")
        self.rows[(task, robot)] = row

    def dumps(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.HEADER)
        for (task, robot), row in sorted(self.rows.items()):
            writer.writerow(
                [
                    task,
                    robot,
                    repr(row.tau),
                    repr(row.phi),
                    repr(row.r_max),
                    repr(row.r_min),
                    repr(row.kvar_ref),
                    repr(row.success_rate),
                    repr(row.avg_steps),
                ]
            )
        return buf.getvalue()

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "CalibrationTable":
        reader = csv.reader(io.StringIO(text))
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise ThresholdConfigError("empty calibration table") from None
        if header != cls.HEADER:
            raise ThresholdConfigError(f"unexpected table header {header!r}")
        table = cls()
        for rec in reader:
            if not rec:
                continue
            where = f"calibration table line {reader.line_num}"
            if len(rec) != len(cls.HEADER):
                raise ThresholdConfigError(
                    f"{where}: expected {len(cls.HEADER)} fields, got {len(rec)}"
                )
            task, robot = rec[0], rec[1]
            if (task, robot) in table.rows:
                raise ThresholdConfigError(f"{where}: second row for ({task!r}, {robot!r})")
            try:
                values = [float(v) for v in rec[2:]]
            except ValueError as exc:
                raise ThresholdConfigError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ThresholdConfigError(f"{where}: every numeric field must be finite")
            row = CalibrationRow(*values)
            if not (row.r_max > row.r_min >= 0):
                raise ThresholdConfigError(
                    f"{where}: need r_max > r_min >= 0, got r_max={row.r_max}, r_min={row.r_min}"
                )
            if not (row.tau > 0 and row.phi > 0):
                raise ThresholdConfigError(
                    f"{where}: need tau > 0 and phi > 0, got tau={row.tau}, phi={row.phi}"
                )
            table.put(task, robot, row)
        return table

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationTable":
        return cls.loads(Path(path).read_text())


def lookup(table: CalibrationTable, task: str, robot: str) -> ThresholdState:
    """Build the initial controller state for a (task, robot) pair.

    The threshold starts wide open at r_max. Unknown keys are an error;
    there is no silent default row.
    """
    try:
        row = table.rows[(task, robot)]
    except KeyError:
        known = sorted(table.rows)
        raise ThresholdConfigError(
            f"no calibration row for ({task!r}, {robot!r}); known keys: {known}"
        ) from None
    return ThresholdState(
        r=row.r_max,
        r_max=row.r_max,
        r_min=row.r_min,
        tau=row.tau,
        phi=row.phi,
        kvar_ref=row.kvar_ref,
    )


# Per trace, per slice: (token distance, |true action - draft action|) for
# each verified position whose draft missed, in position order.
JudgedSlices = list[list[list[tuple[int, float]]]]


def _judge_group(traces: Sequence[EpisodeTrace], key: NormKey) -> JudgedSlices:
    """Decode each recorded miss of a group once, for every candidate to reuse."""
    judged = []
    for trace in traces:
        slices = []
        for rec in trace.slices:
            pairs = []
            for pos, (draft_id, true_id) in enumerate(zip(rec.draft_ids, rec.true_ids)):
                if draft_id is None or true_id is None or draft_id == true_id:
                    continue
                pairs.append(
                    (
                        abs(draft_id - true_id),
                        abs(
                            token_to_action(true_id, pos, key)
                            - token_to_action(draft_id, pos, key)
                        ),
                    )
                )
            slices.append(pairs)
        judged.append(slices)
    return judged


def _replay_objective(
    judged: JudgedSlices,
    tau: float,
    phi: float,
    r_max: float,
    r_min: float,
    kvar_ref: float,
    mode: str,
    step_penalty: float,
) -> float:
    """Score one (tau, phi) candidate by replaying recorded draft/true pairs.

    The candidate controller walks r over each trace; at every slice the
    recorded misses are re-judged under floor(r): a miss within it adds its
    action mass, one beyond it counts as a rejection, and the slice's mass
    feeds the next update. The score trades accepted-error action mass (a
    proxy for task success) against re-inference pressure (rejections per
    slice, a proxy for extra decode rounds).
    """
    total_mass = 0.0
    total_rejections = 0
    total_slices = 0
    for slices in judged:
        r = r_max
        prev_mass = 0.0
        frozen = False
        for pairs in slices:
            applied = math.floor(r)
            mass = 0.0
            for dist, miss_mass in pairs:
                if dist <= applied:
                    mass += miss_mass
                else:
                    total_rejections += 1
            total_mass += mass
            total_slices += 1
            r, _, frozen, _ = step_r(
                r, mass - prev_mass, frozen, r_max, r_min, tau, phi, kvar_ref, mode
            )
            prev_mass = mass
    mean_mass = total_mass / total_slices
    mean_rounds = 1.0 + total_rejections / total_slices
    success_proxy = 1.0 / (1.0 + mean_mass)
    return success_proxy - step_penalty * mean_rounds


def calibrate(
    pre_sample_traces: Iterable[EpisodeTrace],
    grid: Sequence[tuple[float, float]],
    *,
    r_max: float = DEFAULT_R_MAX,
    r_min: float = DEFAULT_R_MIN,
    key: NormKey = DEFAULT_KEY,
    mode: str = "rectified",
    step_penalty: float = 0.01,
) -> CalibrationTable:
    """Select (tau, phi) per (task, robot) key from pre-sample traces.

    The reference variability of each key is the mean per-step variability
    observed in its traces and must be strictly positive: pre-sampling has
    to run with relaxed acceptance so that accepted errors actually occur.

    Each group's recorded misses are decoded once (``_judge_group``); every
    candidate then replays them, walking r with ``step_r`` on plain floats,
    so the scores equal those of a per-slice ``adjust`` replay bit for bit.
    ``mode``, the r bounds and the grid are checked before any replay.
    """
    if mode not in ADJUST_MODES:
        raise ThresholdConfigError(f"unknown adjustment mode {mode!r}")
    if not (r_max > r_min >= 0):
        raise ThresholdConfigError(f"need r_max > r_min >= 0, got r_max={r_max}, r_min={r_min}")
    candidates = list(grid)
    if not candidates:
        raise ThresholdConfigError("calibration grid is empty")
    bad = [c for c in candidates if not all(math.isfinite(v) and v > 0 for v in c)]
    if bad:
        raise ThresholdConfigError(f"grid tau and phi must be finite and > 0, got {bad}")
    groups: dict[tuple[str, str], list[EpisodeTrace]] = {}
    for trace in pre_sample_traces:
        groups.setdefault((trace.suite, trace.robot), []).append(trace)
    if not groups:
        raise ThresholdConfigError("no pre-sample traces supplied")

    table = CalibrationTable()
    for (task, robot), traces in sorted(groups.items()):
        steps = [rec.kvar_step for t in traces for rec in t.slices]
        if not steps:
            raise ThresholdConfigError(f"traces for ({task}, {robot}) contain no slices")
        kvar_ref = sum(steps) / len(steps)
        if not (math.isfinite(kvar_ref) and kvar_ref > 0):
            raise ThresholdConfigError(
                f"pre-sample for ({task}, {robot}) has variability {kvar_ref!r}, "
                "need a finite value > 0; pre-sample with relaxed acceptance "
                "(fixed_relaxed mode)"
            )
        judged = _judge_group(traces, key)
        best = None
        best_score = -math.inf
        for tau, phi in candidates:
            score = _replay_objective(
                judged, tau, phi, r_max, r_min, kvar_ref, mode, step_penalty
            )
            if score > best_score:
                best_score = score
                best = (tau, phi)
        assert best is not None
        sr = sum(1.0 for t in traces if t.success) / len(traces)
        avg_steps = sum(t.steps for t in traces) / len(traces)
        table.put(
            task,
            robot,
            CalibrationRow(
                tau=best[0],
                phi=best[1],
                r_max=r_max,
                r_min=r_min,
                kvar_ref=kvar_ref,
                success_rate=sr,
                avg_steps=avg_steps,
            ),
        )
    return table
