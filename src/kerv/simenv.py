"""Synthetic 7-DoF tasks and the token oracles that drive them.

A task is a smooth spline trajectory through random waypoints; the plan is
the token path that tracks it, one ``_track`` and one ``_advance`` per
step. The plan is built for all steps at once by guess and confirm: every
pose is guessed on the lattice its bin-centre steps can reach, and the
guessed tokens are replayed with the same float operations and tracked
again, which confirms them exactly up to the first miss; a miss starts
another pass from there (``_quantize``). The verify oracle and the env
step use the same ``_track`` and ``_advance``, one slice at a time, so
replaying the plan's own tokens reproduces it exactly. The verify oracle is a
plan-tracking feedback policy (it re-targets the plan from the current
pose, so one-off action errors are corrected on the next slice); the draft
oracle corrupts the verify oracle's tokens with per-position noise whose
offset distribution is heavy-tailed, producing both small misses that a
relaxed threshold accepts and occasional large ones.

A task (``TaskSpec``) holds what its plan is built from: the kind, the
seed and the waypoints. ``build_plan`` caches the plan on the spec and the
codec key, so every episode and mode of a task shares one build, and
``SimEnv`` holds the plan and the episode's state (pose, step count,
deviation, termination flags), so no per-slice call looks the plan up
again. The closed loop (``specdec.run_episode``) makes each position's
truth, draft and move inline, with ``_track``'s, ``_corrupt``'s and
``_advance``'s expressions, from the plan's poses as float rows
(``SimEnv.pose_rows``, made once per episode) and the drafter's noise row
(``NoisyDrafter.noise_row``), and ends each step with ``SimEnv.arrive``.
The oracles answer the same once per step, each with one whole row, and
are its per-oracle reference: ``PlanVerifier`` returns the oracle's
tokens (``SimEnv.truth``, from ``oracle_policy``), ``NoisyDrafter.draft``
returns them corrupted (``_corrupt``), and ``SimEnv.step`` moves the env.
An episode that executes the plan, as strict decoding does, needs none of
these: ``NoisyDrafter.plan_slices`` tracks and corrupts every plan step at
once, as arrays (``_track_rows``, ``_corrupt_rows``).

The draft noise of step t is NumPy's own stream for the seed words (noise
seed, task seed, t, 0x5EED). It does not depend on the trajectory (only the
clamp at the vocabulary edge reads the truth token), so ``noise_rows``
draws the error mask and signed offsets of a whole run of steps in one
vectorised pass: ``NoisyDrafter`` draws the plan's rows as two arrays when
it is made, and the closed loop makes per-step lists of them on its first
row and draws the rows past the plan when it reaches them. The rows equal
the per-step generator's bit for bit on the installed numpy (tested on
2.4.6); that rests on ``Generator.random``/``integers``, which NEP 19 does
not freeze, and ``tests/oracles.py::reference_draft_ids`` is the guard.

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
    action_to_token,
    token_to_action,
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
    step t come from the (noise seed, task seed, t) stream; ``noise_rows``
    draws the rows of many steps at once, and an episode's drafter draws
    the rows of the plan's steps up front.
    """

    q_err: float = 0.48
    max_offset: int = 60
    zipf_s: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.q_err <= 1.0:
            raise TaskError(f"q_err must be in [0, 1], got {self.q_err}")
        if self.max_offset < 1:
            raise TaskError(f"max_offset must be >= 1, got {self.max_offset}")
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
        """Cumulative offset weights, normalized as ``Generator.choice`` does."""
        cdf = self.offset_probs.cumsum()
        cdf /= cdf[-1]
        return cdf


@dataclass(frozen=True)
class Plan:
    """Token-quantized ground-truth trajectory derived from a TaskSpec; its
    poses are read-only."""

    poses: np.ndarray  # (T+1, 7); gripper channel holds the latched state
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


@functools.lru_cache(maxsize=512)
def build_plan(spec: TaskSpec, key: NormKey) -> Plan:
    """The quantized ground-truth plan of a task: the pose tracks a spline
    through the waypoints, one ``_track`` and ``_advance`` per step,
    computed for all steps at once by guess and confirm (``_quantize``).
    The plan is cached on the spec and key (``build_plan.cache_clear()``
    empties the cache), and its poses are read-only, since the cache hands
    them to every episode and mode of the task.

    The confirmation is exact whatever the guess. It decodes the guessed
    tokens with ``token_to_action``'s own expression and sums them onto the
    start pose with ``np.cumsum``, which makes the same float adds in the
    same order as ``_advance``; the gripper column comes from its own
    scalar pass. It then tracks every step again (``_track_rows``, with
    ``_track``'s float operations) from those replayed poses. The first
    step starts from the exact start pose, so its re-tracked token is the
    true one. If it equals the guess, the replayed pose after it is exact
    too, and so on by induction: every step before the first mismatch is
    the step-by-step loop's, bit for bit, and so is the pose the mismatched
    step starts from. The next pass starts from that pose.
    """
    poses, actions, _ = _quantize(_targets(spec.kind, spec.seed, spec.waypoints), key)
    poses.flags.writeable = False

    path_length = float(np.abs(actions[:, :GRIPPER_DOF]).sum())
    return Plan(
        poses=poses,
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
    rows of ``targets`` from its first row, as ``_track``, ``token_to_action``
    and ``_advance`` make them one step at a time.

    The gripper column depends on nothing else, so ``_gripper_states`` runs
    it exactly first. A motion token k decodes to the bin centre
    ``lo + b * (k + 1/2)``, so j steps after a start pose a motion DoF lies
    on the lattice ``start + j * (lo + b/2) + b * n``, where each step adds
    0 to vocab - 1 to n. An unclamped step lands on the lattice point
    nearest its target. Each pass guesses every remaining pose that way and
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
    poses[:, GRIPPER_DOF] = _gripper_states(targets[:, GRIPPER_DOF], key)
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
        steps = values[:, motion].copy()
        steps[0] += poses[start, motion]
        poses[start + 1 :, motion] = np.cumsum(steps, axis=0)
        tokens[start:], actions[start:] = ids, values

        wrong = _track_rows(ahead, poses[start:-1], key) != ids
        if not wrong.any():
            break
        # >= 1, since a pass's first step starts from an exact pose
        start += int(wrong.argmax()) // N_DOF
    return poses, actions, tokens


def _gripper_states(targets: np.ndarray, key: NormKey) -> list[float]:
    """The gripper column of the plan's poses: ``_track``'s impulse toward
    each target and ``_advance``'s latch, as one step at a time makes them.
    An impulse is a target or 0.0, so each distinct one is encoded and
    decoded once.

    A step's state depends only on its target and the state before it, so
    once a step leaves the state as it was, every step after it does too
    until the target changes. Only the steps from each change of target up
    to such a step are walked; the rest of the run repeats the state.
    """
    changes = (np.flatnonzero(targets[1:] != targets[:-1]) + 1).tolist()
    targets = targets.tolist()
    state = targets[0]
    states = [state]
    commands: dict[float, float] = {}
    for step, end in zip([1, *changes], [*changes, len(targets)]):
        while step < end:
            target = targets[step]
            impulse = target if target != state else 0.0
            command = commands.get(impulse)
            if command is None:
                tok = action_to_token(impulse, GRIPPER_DOF, key)
                command = commands[impulse] = token_to_action(tok, GRIPPER_DOF, key)
            latched = _latch(state, command)
            if latched == state:
                break
            state = latched
            states.append(state)
            step += 1
        states.extend([state] * (end - step))
    return states


def _track(target, pose, key: NormKey) -> list[int]:
    """Tokens that move ``pose`` toward ``target``: each motion DoF's gap,
    clamped to the action range, and a gripper impulse to the target's state
    when it differs from the pose's.

    Each value is encoded with ``action_to_token``'s expression inline, and
    each ``min(max(x, a), b)`` is written as the two comparisons that give
    the same result. A non-finite value (a NaN gap, an infinite impulse)
    makes ``math.floor`` raise, and is refused as ``action_to_token``
    refuses it.
    """
    vocab = key.vocab_size
    top = vocab - 1
    ids = []
    try:
        for dof in range(N_DOF):
            lo, hi = key.lo[dof], key.hi[dof]
            if dof == GRIPPER_DOF:
                desired = target[dof] if target[dof] != pose[dof] else 0.0
            else:
                gap = target[dof] - pose[dof]
                desired = lo if lo > gap else hi if hi < gap else gap
            idx = math.floor((desired - lo) / (hi - lo) * vocab)
            ids.append(0 if idx < 0 else top if idx > top else idx)
    except (ValueError, OverflowError):
        if math.isfinite(desired):
            raise
        raise CodecError(f"action value must be finite, got {desired!r}") from None
    return ids


def _track_rows(targets: np.ndarray, poses: np.ndarray, key: NormKey) -> np.ndarray:
    """``_track`` of each row of ``targets`` from the same row of ``poses``,
    as an (n, 7) int array, with ``action_to_token``'s float operations."""
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


def oracle_policy(env: SimEnv) -> tuple[int, ...]:
    """True (greedy) tokens for the env's next slice: track the plan from
    the current pose, clamped to the action range. The per-oracle reference
    of the truth token ``specdec.run_episode`` makes per position."""
    if env.done:
        raise EnvStateError("environment is done; no further actions")
    return tuple(_track(env.pose_rows[min(env.t + 1, env.plan.steps)], env.pose, env.key))


def _corrupt(truth_ids, errs, offsets, vmax: int) -> tuple[int, ...]:
    """Each erring position offset and clamped to ``[0, vmax]``; an offset
    the clamp would cancel is mirrored."""
    ids = []
    for tok, err, off in zip(truth_ids, errs, offsets):
        if not err:
            ids.append(tok)
            continue
        corrupted = min(max(tok + off, 0), vmax)
        if corrupted == tok:  # clamp swallowed the offset; mirror it
            corrupted = min(max(tok - off, 0), vmax)
        ids.append(corrupted)
    return tuple(ids)


def _corrupt_rows(
    truths: np.ndarray, errs: np.ndarray, offsets: np.ndarray, vmax: int
) -> np.ndarray:
    """``_corrupt`` of every row of ``truths`` at once, with the same rows of
    ``errs`` and ``offsets``: an int array of the same shape.

    Each cell takes ``_corrupt``'s rule on its own truth, flag and offset.
    ``np.clip`` of an int is ``min(max(x, 0), vmax)``; the mirrored value
    replaces the offset one wherever that equals the truth, and only
    erring cells change. An offset is at most ``max_offset``, so the int64
    sums cannot wrap.
    """
    shifted = np.clip(truths + offsets, 0, vmax)
    mirrored = np.clip(truths - offsets, 0, vmax)
    return np.where(errs, np.where(shifted == truths, mirrored, shifted), truths)


# --- draft noise: NumPy's per-step stream, drawn for many steps at once ------
#
# Step t's noise is what default_rng([noise seed, task seed, t, 0x5EED])
# gives for random(7) (error mask), random(7) (offset magnitudes, as
# Generator.choice draws them) and integers(0, 2, 7) (signs). That is
# SeedSequence (four uint32 entropy words, pool of four) -> PCG64 seeding
# -> 18 XSL-RR outputs, each recomputed below over one numpy lane per step.

_MASK32 = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_OUTPUTS_PER_STEP = 2 * N_DOF + 4  # two random(7), then 7 buffered uint32 halves


def _split128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & (2**64 - 1) for v in values], dtype=np.uint64),
    )


# k PCG64 steps take a state s to M**k * s + sum(M**i for i < k) * inc; a
# step's outputs read the states k = 2 .. 19 steps on from the seeding's
# ``state += initstate``
_JUMPS = range(2, _OUTPUTS_PER_STEP + 2)
_JUMP_MUL_HI, _JUMP_MUL_LO = _split128([pow(_PCG_MULT, k, 2**128) for k in _JUMPS])
_JUMP_ADD_HI, _JUMP_ADD_LO = _split128(
    [sum(pow(_PCG_MULT, i, 2**128) for i in range(k)) % 2**128 for k in _JUMPS]
)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's running hash multipliers ``init * mult**k`` mod 2**32,
    k < n, as a column that broadcasts over lanes."""
    return np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(n)], np.uint32)[:, None]


_HASH_A = _hash_consts(_SS_INIT_A, _SS_MULT_A, 17)  # 4 + 12 hashmix calls, plus one
_HASH_B = _hash_consts(_SS_INIT_B, _SS_MULT_B, 9)  # 8 state words, plus one


def _hashmix(values: np.ndarray, consts: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """SeedSequence's hashmix calls k0 .. k1 - 1, one per row of the result."""
    values = (values ^ consts[k0:k1]) * consts[k0 + 1 : k1 + 1]
    return values ^ (values >> 16)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` per lane, for
    (4, lanes) uint32 entropy words (the pool size, so none are left over).
    The hash constants do not depend on the data, so all lanes share them,
    and the three mixes from one pool word into the others run as one."""
    pool = _hashmix(entropy, _HASH_A, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * _hashmix(pool[src], _HASH_A, k, k + 3)
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, 0, 8).astype(np.uint64)
    return words[0::2] | (words[1::2] << 32)


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit products of uint64 arrays as (hi, lo), from 32-bit
    partial products."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def noise_rows(
    noise: DraftNoiseModel, task_seed: int, t0: int, t1: int
) -> tuple[np.ndarray, np.ndarray]:
    """Error mask ``errs`` (bool) and signed ``offsets`` (int), each of shape
    (t1 - t0, 7), of the steps ``t0 <= t < t1``: row ``t - t0`` equals what
    ``default_rng([noise.seed & 0x7FFFFFFF, task_seed & 0x7FFFFFFF, t,
    0x5EED])`` followed by ``random(7)``, ``random(7)`` and
    ``integers(0, 2, 7)`` gives, bit for bit.

    The rows rest on the installed numpy's ``Generator.random`` and
    ``integers`` algorithms, which NEP 19 does not freeze (it does freeze
    ``SeedSequence`` and ``PCG64``); ``tests/oracles.py::reference_draft_ids``
    draws the stream through numpy itself and guards the match.
    """
    if not 0 <= t0 <= t1 <= 2**32:
        raise TaskError(f"noise steps must lie in [0, 2**32), got [{t0}, {t1})")
    n = t1 - t0
    entropy = np.empty((4, n), dtype=np.uint32)
    entropy[0] = noise.seed & 0x7FFFFFFF
    entropy[1] = task_seed & 0x7FFFFFFF
    entropy[2] = np.arange(t0, t1, dtype=np.uint64)  # every t < 2**32 fits one word
    entropy[3] = 0x5EED
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_state(entropy)[:, :, None]
    # PCG64 seeding: state = 0, inc = initseq << 1 | 1, step, add initstate;
    # output j then reads the state 1 + j steps further on
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    base_hi, base_lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    hi, lo = _add128(
        *_mul128(base_hi, base_lo, _JUMP_MUL_HI, _JUMP_MUL_LO),
        *_mul128(inc_hi, inc_lo, _JUMP_ADD_HI, _JUMP_ADD_LO),
    )
    # XSL-RR output: the xor of the halves rotated right by the top six bits
    xored, rot = hi ^ lo, hi >> 58
    out = (xored >> rot) | (xored << ((64 - rot) & 63))

    uniform = (out[:, : 2 * N_DOF] >> 11) * 2.0**-53  # Generator.random
    errs = uniform[:, :N_DOF] < noise.q_err
    magnitudes = noise.offset_cdf.searchsorted(uniform[:, N_DOF:], side="right") + 1
    # integers(0, 2) takes uint32 halves, low first; Lemire's method for a
    # range of two never rejects and returns bit 31 of each
    halves = out[:, 2 * N_DOF :]
    sign_bits = np.stack([(halves >> 31) & 1, halves >> 63], axis=2).reshape(n, 8)[:, :N_DOF]
    return errs, np.where(sign_bits == 1, magnitudes, -magnitudes)


class SimEnv:
    """One episode of a task: the plan it tracks, its metadata, and the
    executed pose, step count, deviation from the plan and termination
    flags, which ``step`` updates."""

    def __init__(
        self,
        spec: TaskSpec,
        key: NormKey = DEFAULT_KEY,
        *,
        suite: str = "",
        robot: str = "sim7dof",
        trial: int = 0,
    ) -> None:
        self.spec = spec
        self.key = key
        self.suite = suite or spec.kind
        self.robot = robot
        self.trial = trial
        self.plan = build_plan(spec, key)
        self.pose = tuple(self.plan.poses[0].tolist())
        self.t = 0
        self.deviation = 0.0
        self.done = False
        self.succeeded = False
        self._truth_t: int | None = None
        self._truth: tuple[int, ...] = ()

    @functools.cached_property
    def pose_rows(self) -> list[list[float]]:
        """The plan's poses as rows of floats (element reads of the ndarray
        would build numpy scalars), made on the episode's first ``truth`` or
        ``step``. An episode decoded open-loop makes neither call, so it
        never makes the rows, and the rows go with the env rather than
        staying on the cached plan."""
        return self.plan.poses.tolist()

    def step(self, actions: tuple[float, ...]) -> None:
        """Integrate one slice of action values (as ``decode_slice`` returns
        them) and update the termination flags; with ``truth``, the
        per-oracle reference of ``specdec.run_episode``'s fused step."""
        if self.done:
            raise EnvStateError("environment is done; no further steps")
        pose = _advance(self.pose, actions)
        ref = self.pose_rows[min(self.t + 1, self.plan.steps)]
        gap = sum([abs(p - q) for p, q in zip(pose[:GRIPPER_DOF], ref)])
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
            try:
                dist = math.sqrt(sum((pose[d] - plan.goal[d]) ** 2 for d in range(3)))
            except OverflowError:  # a square past the float range: far off the goal
                dist = math.inf
            if dist <= SUCCESS_TOLERANCE:
                self.done = True
                self.succeeded = self.deviation <= plan.deviation_budget
        if t >= plan.max_steps:
            self.done = True

    def truth(self) -> tuple[int, ...]:
        """The oracle's tokens for the current step, computed once per step;
        part of the per-oracle reference of ``specdec.run_episode``."""
        if self._truth_t != self.t:
            self._truth = oracle_policy(self)
            self._truth_t = self.t
        return self._truth


class PlanVerifier:
    """Verify oracle bound to a live environment: plan-tracking truths; the
    per-oracle reference of ``specdec.run_episode``'s truth tokens."""

    def __init__(self, env: SimEnv) -> None:
        self.env = env

    def verify(self, drafted):
        """The truth row of the env's current step, whatever was drafted."""
        return self.env.truth()


_POS_BITS = 1 << np.arange(N_DOF)  # bit p of a miss mask is position p


class NoisyDrafter:
    """Draft oracle bound to a live environment: corrupted plan tokens, one
    draft row per env step.

    The noise rows (``noise_rows``) of the plan's steps are drawn when the
    drafter is made and kept as the two (steps, 7) arrays. Strict decoding
    reads them whole (``plan_slices``). The closed loop reads row t at step
    t (``noise_row``), from per-step lists that its first read makes of the
    arrays; the rows of the later steps below the plan's ``max_steps`` are
    drawn in one more pass only if the episode runs past the plan.
    ``draft`` applies row t to the oracle's tokens at step t (``_corrupt``),
    as the per-oracle reference of the closed loop's draft tokens.
    """

    def __init__(self, env: SimEnv, noise: DraftNoiseModel) -> None:
        self.env = env
        self.noise = noise
        self._errs, self._offsets = noise_rows(noise, env.spec.seed, 0, env.plan.steps)
        self._rows: list[tuple[list[bool], list[int]]] = []  # (errs, offsets) per step
        self._vmax = env.key.vocab_size - 1

    def draft(self):
        """The draft row of the env's current step: the per-oracle reference
        of the draft token that ``specdec.run_episode`` makes per position."""
        env = self.env
        t = env.t
        truth = env.truth()  # raises once the episode is done
        return _corrupt(truth, *self.noise_row(t), self._vmax)

    def noise_row(self, t: int) -> tuple[list[bool], list[int]]:
        """The error flags and signed offsets of step ``t``'s noise row, as
        lists; ``t`` must be below the plan's ``max_steps``."""
        if t >= len(self._rows):
            self._extend_rows(t)
        return self._rows[t]

    def plan_slices(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
        """The oracle's tokens, the drafter's tokens and the miss mask (bit p
        set where the draft misses position p) at every step of an episode
        that executes the plan, as strict decoding does.

        Step t starts from the plan's pose t, which replaying the plan's
        tokens reproduces bit for bit (``build_plan``), so its truth is
        ``_track`` of pose t + 1 from pose t, taken for every step at once
        (``_track_rows``), and its draft is ``_corrupt`` of that truth with
        noise row t. ``_corrupt_rows`` applies that rule to every cell of
        the plan at once: a cell's draft reads only its own truth, error
        flag and offset, so the arrays give what the per-row calls give.
        Nothing is kept on the cached plan.
        """
        env = self.env
        poses = env.plan.poses
        truths = _track_rows(poses[1:], poses[:-1], env.key)
        drafts = _corrupt_rows(truths, self._errs, self._offsets, self._vmax)
        misses = (drafts != truths) @ _POS_BITS
        return (
            list(map(tuple, truths.tolist())),
            list(map(tuple, drafts.tolist())),
            misses.tolist(),
        )

    def _extend_rows(self, t: int) -> None:
        """Make the per-step lists of the plan's rows, if not yet made, and
        draw the rows of the steps past the plan, up to its ``max_steps``,
        if step ``t`` is one of them."""
        if not self._rows:
            self._rows = list(zip(self._errs.tolist(), self._offsets.tolist()))
        if t >= len(self._rows):
            errs, offsets = noise_rows(
                self.noise, self.env.spec.seed, len(self._rows), self.env.plan.max_steps
            )
            self._rows += zip(errs.tolist(), offsets.tolist())
