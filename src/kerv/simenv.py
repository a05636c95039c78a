"""Synthetic 7-DoF tasks and the token oracles that drive them.

A task is a smooth spline trajectory through random waypoints; the plan is
the token path that tracks it: each step's tokens move the pose toward the
next target (``_track_rows``), and their bin centres move the pose
(``_advance``). The plan is built for all steps at once by guess and
confirm: every motion DoF of a pose is guessed on the lattice its
bin-centre steps can reach and the gripper at its target's state, and the
guessed tokens are replayed with ``_advance``'s float operations
(``_replay``) and tracked again, which confirms them exactly up to the
first miss (``_first_miss``); a miss starts another pass from there
(``_quantize``). So replaying the plan's own tokens reproduces it exactly.
The array pass of ``specdec.run_episode`` replays and confirms an
episode's plan steps with the same two functions. The verifier is a
plan-tracking feedback policy (it re-targets the plan from the current
pose, so one-off action errors are corrected on the next slice); the
drafter corrupts the verifier's tokens with per-position noise whose
offset distribution is heavy-tailed (``_corrupt_rows``), producing both
small misses that a relaxed threshold accepts and occasional large ones.
``check_key`` refuses a codec key on which a pose could leave the float
range.

A task (``TaskSpec``) holds what its plan is built from: the kind, the
seed and the waypoints. ``build_plan`` caches the last plan it built, on
the spec and the codec key; a run decodes a task's episodes back to back
(``harness.run_suite`` and ``harness.sweep``), so they all share one build
and no plan is kept past its task. ``SimEnv`` holds the plan and the
episode's state (pose, step count, deviation, termination flags), so no
per-slice call looks the plan up again; the robot a trace names is the
run's (``RunConfig.robot``), not the env's. Every mode has one engine,
``specdec.run_episode``, which draws the episode's noise rows itself. Its
array pass guesses the plan steps of an episode from the plan's tokens
(``Plan.tokens``, the verifier's truths along the plan) and the noise rows
of the plan's steps, and takes the steps it confirms with
``SimEnv.arrive_steps``; a naive episode ends there. Its closed loop makes
each position's truth, draft and move inline with the same rules, from the
plan's poses as float rows (``SimEnv.pose_rows``) and the step's noise
row, and ends each step with ``SimEnv.arrive``. The env adds every float
sum left to right, as ``_replay``'s ``np.cumsum`` does, on every
interpreter (``sum()`` of floats is compensated from Python 3.12). The
per-oracle names stay as the layers of
``tests/oracles.py::reference_run_episode`` and as benchmark span targets:
``oracle_policy`` and ``PlanVerifier`` give one step's truth row,
``NoisyDrafter.draft`` its draft row, and ``SimEnv.step`` moves the env.

The draft noise of step t is a fixed run of draws from a SplitMix64
counter stream keyed by (noise seed, task seed), so it depends on nothing
but (noise seed, task seed, t): every arm of a trial sees the same rows,
and any run of rows can be drawn on its own. It does not depend on the
trajectory (only the clamp at the vocabulary edge reads the truth token),
so ``noise_rows`` draws the error mask and signed offsets of a whole run of
steps in one vectorised pass: ``specdec.run_episode`` draws the plan's rows
as two arrays when an episode starts, which the array pass reads whole,
and the closed loop makes per-step lists of them and draws the rows past
the plan once, when it reaches them. ``NoisyDrafter.draft``, the
per-oracle reference, draws its step's row alone.
``tests/oracles.py::reference_noise_row`` replays the stream one draw at a
time with Python ints and guards the match bit for bit.

The spline is the clamped cubic (zero slope at both ends) through the
waypoints' motion channels, fitted by ``_clamped_spline``'s own
tridiagonal solve; the tests bound its distance from scipy's
``CubicSpline`` (``tests/oracles.py::reference_targets``).

The gripper channel is a three-level impulse: 0 holds the current state,
+/-1 sets it. Offsets never reach half the action range, so draft noise
cannot flip the gripper; only the plan's toggle steps do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import (
    DEFAULT_KEY,
    GRIPPER_DOF,
    N_DOF,
    CodecError,
    NormKey,
)

KINDS = ("reach", "pick_place", "long_horizon")
_KIND_IDS = {k: i + 1 for i, k in enumerate(KINDS)}

# waypoint counts per kind; long_horizon paths must average at least twice
# the reach slice count
_N_WAYPOINTS = {"reach": (4, 5), "pick_place": (7, 9), "long_horizon": (12, 15)}
_N_TOGGLES = {"reach": 0, "pick_place": 2, "long_horizon": 4}
# long segments keep spline curvature low enough for accurate one-step
# constant-velocity prediction; wide rotation hops keep per-step motion high
_SEG_STEPS = (18, 24)
# the most steps any episode takes: a plan's max_steps, for the longest plan
MAX_EPISODE_STEPS = 2 * (max(hi for _, hi in _N_WAYPOINTS.values()) - 1) * _SEG_STEPS[1]
_POS_RANGE = 0.75
_ROT_RANGE = 3.75

# largest goal distance of a successful episode
SUCCESS_TOLERANCE = 0.05
# fraction of plan path length a trial may deviate and still count as clean;
# sized so the relaxed-threshold operating points of interest straddle it
DEVIATION_BUDGET_FRAC = 0.15
GRIPPER_FLIP_LEVEL = 0.5
# the largest draft offset a noise model may draw (see DraftNoiseModel)
MAX_OFFSET = 2**20


class TaskError(ValueError):
    """Raised for unknown task kinds or malformed specs."""


class EnvStateError(RuntimeError):
    """Raised when a finished environment is asked to act."""


@dataclass(frozen=True)
class TaskSpec:
    """What a task's plan is built from."""

    kind: str
    seed: int
    waypoints: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class DraftNoiseModel:
    """Per-position corruption of draft tokens.

    Each of the seven positions errs independently with probability
    ``q_err``; an erring position is offset by a signed token distance drawn
    from a zipf-like categorical over 1..max_offset (weight k**-zipf_s, so
    ``zipf_s`` must be finite and give finite weights). A drawn error
    always lands on a token different from the truth: if clamping at the
    vocabulary edge would cancel it, the offset is mirrored. The draws of
    step t are a fixed run of the (noise seed, task seed) counter stream;
    ``noise_rows`` draws the rows of many steps at once, and
    ``specdec.run_episode`` draws the rows of the plan's steps up front.

    ``max_offset`` is at most ``MAX_OFFSET`` (2**20). The offset weights
    are one float table of ``max_offset`` entries, built when the model is
    made, so the bound keeps that table at 8 MiB; and with any vocabulary
    the codec accepts (below 2**52 tokens), a truth token plus or minus an
    offset stays far inside int64.
    """

    q_err: float = 0.48
    max_offset: int = 60
    zipf_s: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.q_err <= 1.0:
            raise TaskError(f"q_err must be in [0, 1], got {self.q_err}")
        if not 1 <= self.max_offset <= MAX_OFFSET:
            raise TaskError(f"max_offset must be in [1, {MAX_OFFSET}], got {self.max_offset}")
        with np.errstate(over="ignore", invalid="ignore"):
            weights_ok = math.isfinite(self.zipf_s) and np.isfinite(self.offset_cdf).all()
        if not weights_ok:
            raise TaskError(f"zipf_s must be finite with finite offset weights, got {self.zipf_s}")

    @functools.cached_property
    def offset_probs(self) -> np.ndarray:
        w = np.arange(1, self.max_offset + 1, dtype=float) ** (-self.zipf_s)
        return w / w.sum()

    @functools.cached_property
    def offset_cdf(self) -> np.ndarray:
        """Cumulative offset weights, scaled so the last is exactly 1.0: a
        uniform in [0, 1) finds its magnitude with ``searchsorted(side="right")``."""
        cdf = self.offset_probs.cumsum()
        cdf /= cdf[-1]
        return cdf


@dataclass(frozen=True)
class Plan:
    """Token-quantized ground-truth trajectory derived from a TaskSpec; its
    poses and tokens are read-only."""

    poses: np.ndarray  # (T+1, 7); gripper channel holds the latched state
    # (T, 7) ints: step t's tokens, which move pose t to pose t + 1; the
    # verifier's truth from pose t, the gripper's toward pose t + 1's state
    tokens: np.ndarray
    deviation_budget: float  # a share of the motion channels' L1 arc length
    goal: tuple[float, float, float]  # the position of the last pose
    max_steps: int  # the step at which an unfinished episode ends

    @property
    def steps(self) -> int:
        return len(self.poses) - 1


def make_task(kind: str, seed: int) -> TaskSpec:
    """Deterministically draw the waypoints of a task of the given kind."""
    if kind not in KINDS:
        raise TaskError(f"unknown task kind {kind!r}; expected one of {KINDS}")
    rng = np.random.default_rng([_KIND_IDS[kind], seed & 0x7FFFFFFF])
    lo_n, hi_n = _N_WAYPOINTS[kind]
    n_way = int(rng.integers(lo_n, hi_n + 1))

    pos = rng.uniform(-_POS_RANGE, _POS_RANGE, size=(n_way, 3))
    rot = rng.uniform(-_ROT_RANGE, _ROT_RANGE, size=(n_way, 3))
    pos[0] = rng.uniform(-0.1, 0.1, size=3)
    rot[0] = 0.0
    # keep the goal clearly away from the start
    while np.linalg.norm(pos[-1] - pos[0]) < 0.5:
        pos[-1] = rng.uniform(-_POS_RANGE, _POS_RANGE, size=3)

    grip = np.full(n_way, -1.0)
    n_toggles = _N_TOGGLES[kind]
    if n_toggles:
        idx = rng.choice(np.arange(1, n_way), size=n_toggles, replace=False)
        state = -1.0
        for i in sorted(idx):
            state = -state
            grip[i:] = state

    waypoints = tuple(map(tuple, np.column_stack([pos, rot, grip]).tolist()))
    return TaskSpec(kind=kind, seed=seed, waypoints=waypoints)


def _segment_steps(kind: str, seed: int, n_way: int) -> tuple[int, ...]:
    # child generator: the main stream's draw count varies (goal respacing),
    # so step counts must be reproducible from the spec alone
    rng = np.random.default_rng([_KIND_IDS[kind], seed & 0x7FFFFFFF, 2])
    return tuple(
        int(s) for s in rng.integers(_SEG_STEPS[0], _SEG_STEPS[1] + 1, size=n_way - 1)
    )


def check_key(key: NormKey) -> None:
    """Refuse a key on which an episode's poses could pass the float range.

    Every pose an episode reaches, planned or executed, is the start pose
    plus at most ``MAX_EPISODE_STEPS`` actions within the DoF's range, and
    every gap to the plan is the difference of two such poses. Twice that
    many steps of the DoF's widest bound must stay finite, so no pose is
    infinite and no gap NaN. The error names the DoF key.
    """
    for dof in range(N_DOF):
        widest = max(abs(key.lo[dof]), abs(key.hi[dof]))
        if not math.isfinite(2 * MAX_EPISODE_STEPS * widest):
            raise CodecError(
                f"dof{dof} range [{key.lo[dof]!r}, {key.hi[dof]!r}] is too wide: "
                f"{MAX_EPISODE_STEPS} steps of actions up to {widest!r} could pass "
                f"the float range"
            )


@functools.lru_cache(maxsize=1)
def build_plan(spec: TaskSpec, key: NormKey) -> Plan:
    """The quantized ground-truth plan of a task: the pose tracks a spline
    through the waypoints, one ``_track_rows`` row and ``_advance`` per
    step, computed for all steps at once by guess and confirm
    (``_quantize``).
    The last plan built is cached on the spec and key
    (``build_plan.cache_clear()`` empties the cache), and its poses and
    tokens are read-only, since the cache hands them to every episode and
    mode of the task. One plan is enough: ``harness.run_suite`` decodes
    each task's modes back to back, and ``harness.sweep`` a task's naive
    episode and then each swept value's, so no caller comes back to a task
    once it has moved on, and a larger cache would only hold plans nothing
    reads again.

    The confirmation is exact whatever the guess. It decodes the guessed
    tokens with ``token_to_action``'s own expression and replays them from
    the start pose (``_replay``), which makes the same float operations in
    the same order as ``_advance``, gripper latch included. It then tracks
    every step again from those replayed poses (``_first_miss``). The
    first step starts from the exact start pose, so its re-tracked tokens
    are the true ones. If they equal the guess, the replayed pose after it
    is exact too, and so on by induction: every step before the first
    mismatch is the step-by-step loop's, bit for bit, and so is the pose
    the mismatched step starts from. The next pass starts from that pose.

    The plan's gripper tokens are then the verifier's along the plan
    (``_gripper_truths``) rather than ``_quantize``'s, which track the
    waypoint's state even where the gripper cannot latch to it. Replaying
    them still makes the plan's states: a change of state is the impulse to
    the new state, at least as large as the one the plan took, and a hold
    is the 0.0 impulse, which cannot flip a state that a waypoint of the
    other state did not flip (``make_task`` draws every waypoint's state at
    +/-1). So the plan's tokens are the truths of an episode that executes
    the plan wherever tracking a pose toward the next gives back its motion
    tokens, which the array pass of ``specdec.run_episode`` checks.

    A key that ``check_key`` refuses raises its ``CodecError``.
    """
    check_key(key)
    poses, actions, tokens = _quantize(_targets(spec.kind, spec.seed, spec.waypoints), key)
    tokens[:, GRIPPER_DOF] = _gripper_truths(poses[:, GRIPPER_DOF], key)
    poses.flags.writeable = False
    tokens.flags.writeable = False

    path_length = float(np.abs(actions[:, :GRIPPER_DOF]).sum())
    return Plan(
        poses=poses,
        tokens=tokens,
        deviation_budget=DEVIATION_BUDGET_FRAC * path_length,
        goal=tuple(poses[-1, :3].tolist()),
        max_steps=2 * (len(poses) - 1),
    )


def _targets(kind: str, seed: int, waypoints: tuple[tuple[float, ...], ...]) -> np.ndarray:
    """The pose a plan tracks at each time, (T+1, 7): the motion channels of
    the clamped cubic spline through the waypoints (``_clamped_spline``),
    and the gripper state of the last waypoint reached."""
    seg_steps = _segment_steps(kind, seed, len(waypoints))
    way = np.asarray(waypoints, dtype=float)
    t_way = np.concatenate([[0], np.cumsum(seg_steps)]).astype(float)
    ts = np.arange(int(t_way[-1]) + 1, dtype=float)
    motion = _clamped_spline(t_way, way[:, :GRIPPER_DOF], ts)
    way_idx = np.searchsorted(t_way, ts, side="right") - 1
    return np.column_stack([motion, way[way_idx, GRIPPER_DOF]])


def _clamped_spline(x: np.ndarray, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Values at ``ts`` (in ``[x[0], x[-1]]``) of the cubic spline through
    the rows of ``y`` (n, k) at the increasing knots ``x`` (n >= 2) with
    zero slope at both ends (de Boor, *A Practical Guide to Splines*,
    ch. IV).

    The knot slopes ``s`` solve the tridiagonal system whose interior row i
    reads ``dx[i+1] s[i] + 2 (dx[i] + dx[i+1]) s[i+1] + dx[i] s[i+2] =
    3 (dx[i+1] slope[i] + dx[i] slope[i+1])``, with ``s[0] = s[-1] = 0``.
    Every row is strictly diagonally dominant for positive spacings, so
    elimination without pivoting (Thomas) is stable. Each value is its
    interval's Hermite cubic in Horner form, in the interval that
    ``searchsorted(x, t, "right") - 1`` finds, clipped to the last one.
    """
    n = len(x)
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    rhs = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    lower, upper = dx[1:].tolist(), dx[:-1].tolist()
    diag = (2 * (dx[:-1] + dx[1:])).tolist()
    # after the forward sweep, s[i] = ds[i] - cs[i] * s[i + 1] for 0 < i < n - 1
    cs, ds = [0.0], [np.zeros(y.shape[1])]
    for i in range(n - 2):
        w = diag[i] - lower[i] * cs[-1]
        cs.append(upper[i] / w)
        ds.append((rhs[i] - lower[i] * ds[-1]) / w)
    s = np.zeros_like(y)
    for i in range(n - 2, 0, -1):
        s[i] = ds[i] - cs[i] * s[i + 1]

    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c0, c1 = t / dxr, (slope - s[:-1]) / dxr - t
    idx = np.clip(np.searchsorted(x, ts, side="right") - 1, 0, n - 2)
    h = (ts - x[idx])[:, None]
    return y[idx] + h * (s[idx] + h * (c1[idx] + h * c0[idx]))


def _quantize(
    targets: np.ndarray, key: NormKey
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poses (T+1, 7), action values (T, 7) and tokens (T, 7) of tracking the
    rows of ``targets`` from its first row, as ``_track_rows``,
    ``token_to_action`` and ``_advance`` make them one step at a time.

    The gripper of each remaining pose is guessed at the state the pass
    before replayed there, and in the first pass at its target's state.
    Where the gripper latches to each waypoint's state, as on the default
    key, that guess holds. Where it cannot, on a key whose commands never
    pass the flip level or whose hold command flips the state, a pass can
    end at the gripper's first miss, and a flip at every step costs a
    pass for every step or two.

    A motion token k decodes to the bin centre ``lo + b * (k + 1/2)``, so
    j steps after a start pose a motion DoF lies on the lattice
    ``start + j * (lo + b/2) + b * n``, where each step adds 0 to
    vocab - 1 to n. An unclamped step lands on the lattice point nearest
    its target. Each pass guesses every remaining pose that way and
    then applies the two clamps in turn, each to all steps at once as a
    running extreme: n rises by at most vocab - 1 per step (a running
    minimum) and never falls (a running maximum). The guess can miss where
    a step clamped at the top follows one clamped at the bottom, or where a
    target sits within rounding of a bin edge; the check that ``build_plan``
    describes finds the first miss, and the next pass starts there.
    """
    if not np.isfinite(targets).all():
        raise CodecError("plan targets must be finite")
    motion = slice(None, GRIPPER_DOF)
    vocab = key.vocab_size
    lo, hi = np.array(key.lo), np.array(key.hi)
    width = (hi[motion] - lo[motion]) / vocab
    lowest = lo[motion] + width / 2  # the centre of token 0

    n_steps = len(targets) - 1
    poses = targets.copy()
    actions = np.empty((n_steps, N_DOF))
    tokens = np.empty((n_steps, N_DOF), dtype=int)
    start = 0  # poses[: start + 1] are exact
    while start < n_steps:
        ahead = targets[start + 1 :]
        reach = np.arange(1.0, n_steps - start + 1)[:, None]
        base = poses[start, motion] + reach * lowest
        nearest = np.rint((ahead[:, motion] - base) / width)
        top = reach * (vocab - 1)
        bins = np.minimum.accumulate(np.minimum(nearest - top, 0), axis=0) + top
        bins = np.maximum.accumulate(np.maximum(bins, 0), axis=0)
        guessed = poses[start:-1].copy()
        guessed[1:, motion] = (base + width * bins)[:-1]

        ids = _track_rows(ahead, guessed, key)
        values = lo + (hi - lo) * (ids + 0.5) / vocab  # token_to_action's expression
        poses[start:] = _replay(poses[start], values)
        tokens[start:], actions[start:] = ids, values
        # >= 1, since a pass's first step starts from an exact pose
        start += _first_miss(ahead, poses[start:], ids, key)
    return poses, actions, tokens


def _gripper_truths(states: np.ndarray, key: NormKey) -> np.ndarray:
    """The verifier's gripper token at each step along a plan's gripper
    states: ``_track_rows``' impulse from state t toward state t + 1, which
    is the next state where it changes and 0.0 where it holds."""
    impulses = np.where(states[1:] != states[:-1], states[1:], 0.0)
    lo, hi = key.lo[GRIPPER_DOF], key.hi[GRIPPER_DOF]
    ids = np.floor((impulses - lo) / (hi - lo) * key.vocab_size)
    return np.clip(ids, 0, key.vocab_size - 1).astype(int)


def _track_rows(targets: np.ndarray, poses: np.ndarray, key: NormKey) -> np.ndarray:
    """Tokens that move each row of ``poses`` toward the same row of
    ``targets``, as an (n, 7) int array: each motion DoF's gap, clamped to
    the action range, and a gripper impulse to the target's state where it
    differs from the pose's, each encoded with ``action_to_token``'s float
    operations. The plan, the array pass's check and ``oracle_policy`` take
    their truth tokens from here, and the closed loop computes the same
    expressions inline per position."""
    lo, hi = np.array(key.lo), np.array(key.hi)
    desired = np.minimum(np.maximum(targets - poses, lo), hi)
    grip_target, grip_pose = targets[:, GRIPPER_DOF], poses[:, GRIPPER_DOF]
    desired[:, GRIPPER_DOF] = np.where(grip_target != grip_pose, grip_target, 0.0)
    idx = np.floor((desired - lo) / (hi - lo) * key.vocab_size)
    return np.clip(idx, 0, key.vocab_size - 1).astype(int)


def _advance(pose, values) -> list[float]:
    """The pose after one slice of action values: the motion DoFs add their
    values, and the gripper latches (``_latch``)."""
    new = [p + v for p, v in zip(pose[:GRIPPER_DOF], values)]
    new.append(_latch(pose[GRIPPER_DOF], values[GRIPPER_DOF]))
    return new


def _latch(state: float, command: float) -> float:
    """The gripper state after a command: the command's sign once it passes
    ``GRIPPER_FLIP_LEVEL``, else the state held."""
    return math.copysign(1.0, command) if abs(command) > GRIPPER_FLIP_LEVEL else state


def _replay(start: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (n + 1, 7) poses from ``start`` through n rows of action values,
    as ``_advance`` makes them one step at a time: each motion DoF is the
    start plus the running sum of its values (``np.cumsum``, which makes
    ``_advance``'s adds in its order), and the gripper holds the sign of
    the last command past ``GRIPPER_FLIP_LEVEL``, or the start's state
    before the first (``_latch``)."""
    n = len(values)
    poses = np.empty((n + 1, N_DOF))
    poses[0] = start
    poses[1:] = values
    motion = poses[:, :GRIPPER_DOF]
    np.cumsum(motion, axis=0, out=motion)
    commands = values[:, GRIPPER_DOF]
    flips = np.where(np.abs(commands) > GRIPPER_FLIP_LEVEL, np.arange(n), -1)
    last_flip = np.maximum.accumulate(flips)
    poses[1:, GRIPPER_DOF] = np.where(
        last_flip >= 0, np.copysign(1.0, commands[last_flip]), poses[0, GRIPPER_DOF]
    )
    return poses


def _first_miss(targets: np.ndarray, poses: np.ndarray, truths: np.ndarray, key: NormKey) -> int:
    """The first step t whose truth row is not ``_track_rows`` of its pose,
    ``poses[t]`` toward ``targets[t]``, or the step count n if none is;
    ``poses`` are the n + 1 poses a replay of the steps makes.

    This is the check of guess and confirm (``build_plan``): if the
    replay's first pose is exact, so is every pose up to the first miss,
    and the truths before it are the ones tracking the exact poses gives.
    """
    wrong = (_track_rows(targets, poses[:-1], key) != truths).any(axis=1)
    return int(wrong.argmax()) if wrong.any() else len(wrong)


def oracle_policy(env: SimEnv) -> tuple[int, ...]:
    """True (greedy) tokens for the env's next slice: ``_track_rows`` of the
    plan's next pose from the current pose. The per-oracle reference of the
    truth token ``specdec.run_episode`` makes per position."""
    if env.done:
        raise EnvStateError("environment is done; no further actions")
    target = env.plan.poses[min(env.t + 1, env.plan.steps)]
    return tuple(_track_rows(target[None], np.array([env.pose]), env.key)[0].tolist())


def _corrupt_rows(
    truths: np.ndarray, errs: np.ndarray, offsets: np.ndarray, vmax: int
) -> np.ndarray:
    """Draft tokens: each truth token whose ``errs`` flag is set, offset by
    its ``offsets`` cell and clamped to ``[0, vmax]``, with an offset the
    clamp would cancel mirrored; an int array of the shape of ``truths``.

    A cell reads only its own truth, flag and offset, so any shape works:
    the array pass corrupts a whole plan, ``NoisyDrafter.draft`` one row,
    and the closed loop applies the same rule inline per position.
    ``np.clip`` of an int is ``min(max(x, 0), vmax)``. A truth token is
    below 2**52 and an offset at most ``MAX_OFFSET``, so the int64 sums
    cannot wrap.
    """
    shifted = np.clip(truths + offsets, 0, vmax)
    mirrored = np.clip(truths - offsets, 0, vmax)
    return np.where(errs, np.where(shifted == truths, mirrored, shifted), truths)


# --- draft noise: a SplitMix64 counter stream, drawn for many steps at once ---

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's golden gamma
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_DRAWS_PER_STEP = 3 * N_DOF  # error, offset and sign draws of each position


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of each uint64 (Steele, Lea and Flood, OOPSLA
    2014); uint64 array arithmetic wraps mod 2**64 without a warning."""
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def noise_rows(
    noise: DraftNoiseModel, task_seed: int, t0: int, t1: int
) -> tuple[np.ndarray, np.ndarray]:
    """Error mask ``errs`` (bool) and signed ``offsets`` (int), each of shape
    (t1 - t0, 7), of the steps ``t0 <= t < t1``.

    The stream key is ``_mix64`` of the seed word ``(noise.seed &
    0x7FFFFFFF) << 32 | task_seed & 0x7FFFFFFF``, and draw c is SplitMix64's
    c-th output from that key, ``_mix64(key + (c + 1) * gamma)``. Step t
    reads draws ``21 t + j``: j = p gives position p's error uniform, 7 + p
    its offset uniform and 14 + p its sign (top bit set: positive). A
    uniform is the top 53 bits times 2**-53. Any run of rows is addressable
    on its own: rows ``[t0, t1)`` equal rows ``[0, t1)[t0:]``.
    """
    if not 0 <= t0 <= t1 <= 2**32:
        raise TaskError(f"noise steps must lie in [0, 2**32), got [{t0}, {t1})")
    seed_word = (noise.seed & 0x7FFFFFFF) << 32 | task_seed & 0x7FFFFFFF
    key = _mix64(np.array([seed_word], dtype=np.uint64))
    draws = np.arange(_DRAWS_PER_STEP * t0 + 1, _DRAWS_PER_STEP * t1 + 1, dtype=np.uint64)
    out = _mix64(key + draws * _GAMMA).reshape(t1 - t0, _DRAWS_PER_STEP)
    uniform = (out[:, : 2 * N_DOF] >> 11) * 2.0**-53
    errs = uniform[:, :N_DOF] < noise.q_err
    magnitudes = noise.offset_cdf.searchsorted(uniform[:, N_DOF:], side="right") + 1
    return errs, np.where(out[:, 2 * N_DOF :] >> 63 == 1, magnitudes, -magnitudes)


class SimEnv:
    """One episode of a task: the plan it tracks, its suite and trial, and
    the executed pose, step count, deviation from the plan and termination
    flags, which ``arrive`` updates at the end of each closed-loop step
    (``step`` is the per-oracle reference's move). The noise and the robot
    are the run's, which ``specdec.run_episode`` reads from its config."""

    def __init__(
        self,
        spec: TaskSpec,
        key: NormKey = DEFAULT_KEY,
        *,
        suite: str = "",
        trial: int = 0,
    ) -> None:
        self.spec = spec
        self.key = key
        self.suite = suite or spec.kind
        self.trial = trial
        self.plan = build_plan(spec, key)
        self.pose = tuple(self.plan.poses[0].tolist())
        self.t = 0
        self.deviation = 0.0
        self.done = False
        self.succeeded = False

    @functools.cached_property
    def pose_rows(self) -> list[list[float]]:
        """The plan's poses as rows of floats (element reads of the ndarray
        would build numpy scalars), made on the first step of the closed
        loop or of ``step``. An episode that ends inside the array pass
        never makes them, and the rows go with the env rather than staying
        on the cached plan."""
        return self.plan.poses.tolist()

    def step(self, actions: tuple[float, ...]) -> None:
        """Integrate one slice of action values (as ``decode_slice`` returns
        them) and update the termination flags; with ``oracle_policy``, the
        per-oracle reference of ``specdec.run_episode``'s fused step."""
        if self.done:
            raise EnvStateError("environment is done; no further steps")
        pose = _advance(self.pose, actions)
        ref = self.pose_rows[min(self.t + 1, self.plan.steps)]
        gap = 0.0  # summed left to right: sum() of floats is compensated from Python 3.12
        for p, q in zip(pose[:GRIPPER_DOF], ref):
            gap += abs(p - q)
        if pose[GRIPPER_DOF] != ref[GRIPPER_DOF]:
            gap += 2.0
        self.arrive(tuple(pose), gap)

    def arrive(self, pose: tuple[float, ...], gap: float) -> None:
        """Take one step to ``pose``, which lies ``gap`` from the plan's pose
        at the new step (the L1 distance of the motion DoFs, plus 2.0 if the
        gripper state differs), and update the termination flags."""
        plan = self.plan
        t = self.t + 1
        self.pose = pose
        self.t = t
        self.deviation += gap

        if t >= plan.steps:
            goal = plan.goal
            try:
                # left to right, as on every interpreter: not sum(), which
                # is compensated from Python 3.12
                dist = math.sqrt(
                    (pose[0] - goal[0]) ** 2 + (pose[1] - goal[1]) ** 2 + (pose[2] - goal[2]) ** 2
                )
            except OverflowError:  # a square past the float range: far off the goal
                dist = math.inf
            if dist <= SUCCESS_TOLERANCE:
                self.done = True
                self.succeeded = self.deviation <= plan.deviation_budget
        if t >= plan.max_steps:
            self.done = True

    def arrive_steps(self, pose: tuple[float, ...], gaps: list[float]) -> None:
        """Take one step per gap, as ``arrive`` takes them, the last to
        ``pose``: the steps ``specdec.run_episode``'s array pass confirms.
        Every step but the last must end before the plan's last step, where
        ``arrive`` adds the gap and nothing else, so the deviation is folded
        in step order and only the last step's termination is checked."""
        if self.done or not 0 < len(gaps) <= self.plan.steps - self.t:
            raise EnvStateError(
                f"{len(gaps)} steps from step {self.t} do not end inside the "
                f"{self.plan.steps}-step plan"
            )
        deviation = self.deviation
        for gap in gaps[:-1]:
            deviation += gap
        self.deviation = deviation
        self.t += len(gaps) - 1
        self.arrive(pose, gaps[-1])


class PlanVerifier:
    """Verify oracle bound to a live environment: plan-tracking truths; the
    per-oracle reference of ``specdec.run_episode``'s truth tokens."""

    def __init__(self, env: SimEnv) -> None:
        self.env = env

    def verify(self, drafted):
        """The truth row of the env's current step, whatever was drafted."""
        return oracle_policy(self.env)


class NoisyDrafter:
    """Draft oracle bound to a live environment: corrupted plan tokens, one
    draft row per env step; the per-oracle reference of the draft tokens
    that ``specdec.run_episode`` makes from its own noise rows."""

    def __init__(self, env: SimEnv, noise: DraftNoiseModel) -> None:
        self.env = env
        self.noise = noise

    def draft(self):
        """The draft row of the env's current step t: the oracle's tokens
        corrupted (``_corrupt_rows``) by noise row t, which it draws alone
        (``noise_rows``)."""
        env = self.env
        truth = oracle_policy(env)  # raises once the episode is done
        errs, offsets = noise_rows(self.noise, env.spec.seed, env.t, env.t + 1)
        vmax = env.key.vocab_size - 1
        return tuple(_corrupt_rows(np.array(truth), errs[0], offsets[0], vmax).tolist())
