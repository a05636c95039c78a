"""Dynamic acceptance-threshold control driven by kinematic variability.

The threshold r bounds the token-id distance a draft token may miss by and
still be accepted. A per-episode controller moves r between configured
bounds in response to step-to-step changes in kinematic variability; the
controller's gain parameters come from a pre-sampled calibration table
keyed by (task, robot).

One update rule exists. Its response direction follows the intent that
rising variability must tighten acceptance:
``dr = -sign(dK) * tau * (r_max - r_min) * (1 - exp(-|dK / kvar_ref| ** phi))``
clamped to [r_min, r_max]. Magnitude grows with |dK|, so a larger
variability jump never yields a weaker correction. A table row with
``r_max == r_min`` moves r by ``tau * 0 * decay = +-0.0``: it is a fixed
threshold with compensation, the arm that tells the adaptive threshold
apart from a fixed relaxed one.

The update as printed in the paper, ``dr = (r_max - r_min) *
exp((-dK / kvar_ref) ** phi)``, is not a run mode. Its delta is positive
wherever it is defined, so from r_max, where a kerv episode starts, the
clamp holds r at r_max on every slice: it runs exactly what an equal-bounds row
runs (``tests/oracles.py`` keeps it as the reference that checks this).

The rule lives in ``step_r``, which works on plain floats. A kerv
episode's controller is its ``CalibrationRow`` plus r and the previous
slice's variability, two floats the decoder holds; ``adjust`` moves r one
slice with the row's parameters. Calibration calls ``step_r`` directly
while it replays a candidate. It judges each (task, robot) group once, in
one numpy pass (``_judge_group``): per slice, its miss distances sorted
and the accepted action mass for each count of them within r. Each
candidate's walk then reads a slice's mass and rejections by a lookup at
its r, and the walk itself stays on plain floats, since numpy's ``exp``
and ``power`` do not round as ``math.exp`` and ``**`` do.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .codec import DEFAULT_KEY, N_DOF, NormKey, token_to_action
from .trace import EpisodeTrace, SliceRecord, _fold, mean_steps, success_rate, write_text_atomic

DEFAULT_R_MAX = 15.0
DEFAULT_R_MIN = 5.0
# calibration's charge per decode round, against its success proxy
STEP_PENALTY = 0.01

# candidate (tau, phi) pairs; large tau exploits the state-dependent
# variability scale (big deltas near r_max, small ones near r_min) to bias
# the threshold walk downward
DEFAULT_GRID: tuple[tuple[float, float], ...] = tuple(
    (tau, phi) for tau in (0.5, 1.0, 2.0, 4.0) for phi in (0.7, 1.0, 1.5)
)


class ThresholdConfigError(ValueError):
    """Raised for unknown table keys, bad bounds, or empty calibration input."""


@dataclass(frozen=True)
class CalibrationRow:
    """One (task, robot) row: a kerv episode's controller parameters and the
    pre-sample statistics they were chosen from. A row is checked once,
    here, wherever it is built. r is real-valued; token distances are ints,
    so one within r is within floor(r). Equal bounds hold r fixed.
    """

    tau: float
    phi: float
    r_max: float
    r_min: float
    kvar_ref: float
    success_rate: float
    avg_steps: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, vars(self).values())):
            raise ThresholdConfigError("every numeric field must be finite")
        if not (self.r_max >= self.r_min >= 0):
            raise ThresholdConfigError(
                f"need r_max >= r_min >= 0, got r_max={self.r_max}, r_min={self.r_min}"
            )
        if not (self.tau > 0 and self.phi > 0):
            raise ThresholdConfigError(
                f"need tau > 0 and phi > 0, got tau={self.tau}, phi={self.phi}"
            )
        if not self.kvar_ref > 0:
            raise ThresholdConfigError(f"kvar_ref must be > 0, got {self.kvar_ref!r}")


def step_r(
    r: float,
    delta_k: float,
    r_max: float,
    r_min: float,
    tau: float,
    phi: float,
    kvar_ref: float,
) -> float:
    """One controller update on plain floats; returns the new threshold."""
    if delta_k == 0.0:
        return r
    try:
        decay = 1.0 - math.exp(-abs(delta_k / kvar_ref) ** phi)
    except OverflowError:  # the power passed the float range, where 1 - exp(-x) is 1.0
        decay = 1.0
    dr = -math.copysign(tau * (r_max - r_min) * decay, delta_k)
    # min(max(r + dr, r_min), r_max), without the two builtin calls
    new_r = r + dr
    if r_min > new_r:
        new_r = r_min
    if new_r > r_max:
        new_r = r_max
    return new_r


def adjust(row: CalibrationRow, r: float, prev_kvar: float, kvar_step: float) -> float:
    """Move r one kerv slice on: ``kvar_step`` is the slice's kinematic
    variability, ``prev_kvar`` the previous slice's (0.0 before the first)."""
    if not (math.isfinite(kvar_step) and kvar_step >= 0):
        raise ThresholdConfigError(f"kvar_step must be finite and >= 0, got {kvar_step!r}")
    return step_r(
        r, kvar_step - prev_kvar, row.r_max, row.r_min, row.tau, row.phi, row.kvar_ref
    )


class CalibrationTable:
    """Pre-sampled controller parameters keyed by (task, robot)."""

    HEADER = ("task", "robot", "tau", "phi", "r_max", "r_min", "kvar_ref", "sr", "steps")

    def __init__(self, rows: dict[tuple[str, str], CalibrationRow] | None = None) -> None:
        self.rows: dict[tuple[str, str], CalibrationRow] = dict(rows or {})

    def dumps(self) -> str:
        lines = [_csv_line(self.HEADER)]
        for (task, robot), row in sorted(self.rows.items()):
            lines.append(_csv_line([task, robot, *map(repr, vars(row).values())]))
        return "".join(lines)

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "CalibrationTable":
        reader = csv.reader(io.StringIO(text))
        try:
            lines = [(reader.line_num, rec) for rec in reader]
        except csv.Error as exc:
            raise ThresholdConfigError(f"calibration table line {reader.line_num}: {exc}") from None
        if not lines:
            raise ThresholdConfigError("empty calibration table")
        header = tuple(lines[0][1])
        if header != cls.HEADER:
            raise ThresholdConfigError(f"unexpected table header {header!r}")
        table = cls()
        for line_num, rec in lines[1:]:
            if not rec:
                continue
            where = f"calibration table line {line_num}"
            if len(rec) != len(cls.HEADER):
                raise ThresholdConfigError(
                    f"{where}: expected {len(cls.HEADER)} fields, got {len(rec)}"
                )
            task, robot = rec[0], rec[1]
            if (task, robot) in table.rows:
                raise ThresholdConfigError(f"{where}: second row for ({task!r}, {robot!r})")
            try:
                row = CalibrationRow(*map(float, rec[2:]))
            except ValueError as exc:  # a ThresholdConfigError is one too
                raise ThresholdConfigError(f"{where}: {exc}") from None
            table.rows[(task, robot)] = row
        return table

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationTable":
        try:
            return cls.loads(Path(path).read_text(encoding="utf-8"))
        except (ThresholdConfigError, UnicodeDecodeError) as exc:
            raise ThresholdConfigError(f"{path}: {exc}") from None


def _csv_line(fields: Iterable[str]) -> str:
    """One table line, ending in LF. The writer quotes a field that holds a
    character of its line terminator, so writing with CR LF (then cut to LF)
    also quotes a field holding a CR, which the reader needs."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def lookup(table: CalibrationTable, task: str, robot: str) -> CalibrationRow:
    """The row a kerv episode of (task, robot) runs from; r starts at its
    r_max. Unknown keys are an error; there is no silent default row.
    """
    try:
        return table.rows[(task, robot)]
    except KeyError:
        known = sorted(table.rows)
        raise ThresholdConfigError(
            f"no calibration row for ({task!r}, {robot!r}); known keys: {known}"
        ) from None


# Per trace, per slice: (its m miss distances in ascending order; its
# accepted action mass for each count k = 0..m of those distances within r,
# summed in position order; m, its miss count). A miss is a verified
# position whose draft id is not its true id.
JudgedSlices = list[list[tuple[list[float], list[float], int]]]


def _id_arrays(records: Sequence[SliceRecord], key: NormKey) -> tuple[np.ndarray, np.ndarray]:
    """The draft and true ids of ``records`` as two (slices, 7) float arrays,
    nan where the filter filled a slot, once every miss is found inside the
    vocabulary.

    A float holds every id in ``[0, vocab)`` exactly, and orders every id it
    can hold against those bounds. When an id cannot be held or lies
    outside, each miss is decoded in (record, position) order, true id
    first, so the first one outside raises ``token_to_action``'s
    ``CodecError``. If none does, the ids outside lie in slots whose ids are
    equal, which are never misses; those slots are blanked, since a float
    may not hold them or may round two of them to one value.
    """
    draft = [rec.draft_ids for rec in records]
    true = [rec.true_ids for rec in records]
    try:
        arrays = [np.array(ids, dtype=float).reshape(-1, N_DOF) for ids in (draft, true)]
        if not any(((ids < 0) | (ids >= key.vocab_size)).any() for ids in arrays):
            return arrays[0], arrays[1]
    except OverflowError:  # an int past the float range
        pass
    pairs = []
    for rec in records:
        for pos, (draft_id, true_id) in enumerate(zip(rec.draft_ids, rec.true_ids)):
            if draft_id is None or true_id is None or draft_id == true_id:
                pairs.append((None, None))
            else:
                token_to_action(true_id, pos, key)
                token_to_action(draft_id, pos, key)
                pairs.append((draft_id, true_id))
    ids = np.array(pairs, dtype=float).reshape(-1, N_DOF, 2)
    return ids[:, :, 0], ids[:, :, 1]


def _judge_group(traces: Sequence[EpisodeTrace], key: NormKey) -> JudgedSlices:
    """Judge a group's recorded misses once, as arrays, for every candidate
    to read by lookup.

    Each miss's action mass is ``token_to_action``'s expression, elementwise.
    The mass accepted with the k nearest misses adds, left to right over the
    positions, the mass of each miss at most the k-th distance away and 0.0
    for every other slot, so it equals a walk that adds each accepted miss
    bit for bit. A count k that splits equal distances is never looked up.
    The arrays pad each slice's misses to 7 with inf distances, which no
    finite r reaches, so a slice keeps only its own distances and masses.
    """
    records = [rec for trace in traces for rec in trace.slices]
    draft, true = _id_arrays(records, key)
    lo = np.array(key.lo)
    span = np.array(key.hi) - lo
    vocab = key.vocab_size
    dist = np.abs(draft - true)
    missed = dist > 0  # a filled slot's nan is never a miss
    miss_mass = np.where(
        missed,
        np.abs((lo + span * (true + 0.5) / vocab) - (lo + span * (draft + 0.5) / vocab)),
        0.0,
    )
    miss_dist = np.where(missed, dist, np.inf)
    thresholds = np.sort(miss_dist, axis=1)
    # the k-th distance cuts the accepted misses; no miss is at distance 0
    cuts = np.concatenate([np.zeros((len(records), 1)), thresholds], axis=1)
    masses = np.zeros_like(cuts)
    for pos in range(N_DOF):
        masses += np.where(miss_dist[:, pos, None] <= cuts, miss_mass[:, pos, None], 0.0)
    misses = missed.sum(axis=1)
    kept = np.arange(N_DOF + 1) <= misses[:, None]  # the masses of k = 0..misses
    near, accepted = thresholds[kept[:, 1:]].tolist(), masses[kept].tolist()
    ends = np.cumsum(misses).tolist()  # where each slice's distances end in near
    rows = iter([
        (near[end - m : end], accepted[end - m + i : end + i + 1], m)
        for i, (m, end) in enumerate(zip(misses.tolist(), ends))
    ])
    return [list(islice(rows, len(trace.slices))) for trace in traces]


def _replay_objective(
    judged: JudgedSlices,
    tau: float,
    phi: float,
    r_max: float,
    r_min: float,
    kvar_ref: float,
) -> float:
    """Score one (tau, phi) candidate by replaying recorded draft/true pairs.

    The candidate controller walks r over each trace. At every slice the
    misses within r are the first k of its ascending distances, found by
    bisection (an int distance is within r exactly when it is at most r, so
    no floor is taken); k reads the slice's accepted mass, its other misses
    count as rejections, and the mass feeds the next update. The score trades accepted-error action
    mass (a proxy for task success) against re-inference pressure
    (rejections per slice, a proxy for extra decode rounds, each charged
    ``STEP_PENALTY``).
    """
    total_mass = 0.0
    total_rejections = 0
    total_slices = 0
    for slices in judged:
        r = r_max
        prev_mass = 0.0
        for thresholds, masses, misses in slices:
            k = bisect_right(thresholds, r)
            mass = masses[k]
            total_mass += mass
            total_rejections += misses - k
            r = step_r(r, mass - prev_mass, r_max, r_min, tau, phi, kvar_ref)
            prev_mass = mass
        total_slices += len(slices)
    mean_mass = total_mass / total_slices
    mean_rounds = 1.0 + total_rejections / total_slices
    success_proxy = 1.0 / (1.0 + mean_mass)
    return success_proxy - STEP_PENALTY * mean_rounds


def calibrate(
    pre_sample_traces: Iterable[EpisodeTrace],
    grid: Sequence[tuple[float, float]],
    *,
    r_max: float = DEFAULT_R_MAX,
    r_min: float = DEFAULT_R_MIN,
    key: NormKey = DEFAULT_KEY,
) -> CalibrationTable:
    """Select (tau, phi) per (task, robot) key from pre-sample traces.

    The reference variability of each key is the mean per-step variability
    observed in its traces and must be strictly positive: pre-sampling has
    to run with relaxed acceptance so that accepted errors actually occur.

    Each group is judged once (``_judge_group``), which refuses a miss with
    an id outside the key's vocabulary; every candidate then replays the
    judgement once (``_replay_objective``), walking r with ``step_r`` on
    plain floats and reading each slice's mass and rejections at its r, so
    the scores equal those of a per-slice ``adjust`` replay that decodes
    every miss, bit for bit. The judgement does not depend on the r bounds.
    With ``r_max == r_min`` r never moves, every candidate scores the same
    and the grid's first one is kept. Each candidate, with the r bounds, is
    checked as the ``CalibrationRow`` it would become, and each trace's mode
    (it must be ``fixed_relaxed``) is checked, before any trace is judged.
    """
    candidates = list(grid)
    if not candidates:
        raise ThresholdConfigError("calibration grid is empty")
    # kvar_ref and the statistics are placeholders until a group sets them
    rows = [CalibrationRow(tau, phi, r_max, r_min, 1.0, 0.0, 0.0) for tau, phi in candidates]
    groups: dict[tuple[str, str], list[EpisodeTrace]] = {}
    for trace in pre_sample_traces:
        if trace.mode != "fixed_relaxed":
            raise ThresholdConfigError(
                f"pre-sample trace {trace.suite} trial {trace.trial} was decoded in "
                f"{trace.mode!r} mode; calibration needs fixed_relaxed traces"
            )
        groups.setdefault((trace.suite, trace.robot), []).append(trace)
    if not groups:
        raise ThresholdConfigError("no pre-sample traces supplied")

    table = CalibrationTable()
    for (task, robot), traces in sorted(groups.items()):
        steps = [rec.kvar_step for t in traces for rec in t.slices]
        if not steps:
            raise ThresholdConfigError(f"traces for ({task}, {robot}) contain no slices")
        try:
            stats = replace(
                rows[0],
                kvar_ref=_fold(steps) / len(steps),
                success_rate=success_rate(traces),
                avg_steps=mean_steps(traces),
            )
        except ThresholdConfigError as exc:
            raise ThresholdConfigError(
                f"pre-sample for ({task}, {robot}): {exc}; pre-sample with relaxed "
                "acceptance (fixed_relaxed mode)"
            ) from None
        judged = _judge_group(traces, key)
        # max keeps the first of equal scores
        best = max(
            rows,
            key=lambda row: _replay_objective(
                judged, row.tau, row.phi, r_max, r_min, stats.kvar_ref
            ),
        )
        table.rows[(task, robot)] = replace(stats, tau=best.tau, phi=best.phi)
    return table
