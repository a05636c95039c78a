"""Synthetic 7-DoF tasks and the token oracles that drive them.

A task is a smooth spline trajectory through random waypoints; the plan is
the trajectory quantized onto the token grid step by step. The plan build,
the verify oracle and the env step share one tracking rule (``_track``) and
one pose update (``_advance``), so replaying the plan's own tokens
reproduces it exactly. The verify oracle is a
plan-tracking feedback policy (it re-targets the plan from the current
pose, so one-off action errors are corrected on the next slice); the draft
oracle corrupts the verify oracle's tokens with per-position noise whose
offset distribution is heavy-tailed, producing both small misses that a
relaxed threshold accepts and occasional large ones.

Each env step's work is done once: ``SimEnv.truth`` computes the oracle's
tokens once per state, and ``NoisyDrafter`` corrupts them once per state,
so every draft round and verify call of a slice reads the same two slices.
A plan is built once per task (``build_plan`` caches it on the fields it
derives from, so ``make_task`` and ``SimEnv`` share the build).

The gripper channel is a three-level impulse: 0 holds the current state,
+/-1 sets it. Offsets never reach half the action range, so draft noise
cannot flip the gripper; only the plan's toggle steps do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline

from .codec import (
    DEFAULT_KEY,
    GRIPPER_DOF,
    N_DOF,
    ActionSlice,
    NormKey,
    TokenSlice,
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
_POS_RANGE = 0.75
_ROT_RANGE = 3.75

DEFAULT_TOLERANCE = 0.05
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
    kind: str
    seed: int
    goal: tuple[float, float, float]
    waypoints: tuple[tuple[float, ...], ...]
    max_steps: int
    success_tolerance: float


@dataclass(frozen=True)
class EnvState:
    pose: tuple[float, ...]
    t: int
    deviation: float
    done: bool
    succeeded: bool


@dataclass(frozen=True)
class DraftNoiseModel:
    """Per-position corruption of draft tokens.

    Each of the seven positions errs independently with probability
    ``q_err``; an erring position is offset by a signed token distance drawn
    from a zipf-like categorical over 1..max_offset (weight k**-zipf_s).
    A drawn error always lands on a token different from the truth: if
    clamping at the vocabulary edge would cancel it, the offset is mirrored.
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
    """Token-quantized ground-truth trajectory derived from a TaskSpec."""

    poses: np.ndarray  # (T+1, 7); gripper channel holds the latched state
    actions: np.ndarray  # (T, 7) decoded token values, gripper = impulse
    tokens: np.ndarray  # (T, 7) int token ids
    path_length: float  # L1 arc length over the six motion channels
    deviation_budget: float

    @property
    def steps(self) -> int:
        return self.actions.shape[0]


def make_task(kind: str, seed: int, key: NormKey = DEFAULT_KEY) -> TaskSpec:
    """Deterministically generate a task of the given kind."""
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

    waypoints = tuple(
        tuple(map(float, np.concatenate([pos[i], rot[i], [grip[i]]])))
        for i in range(n_way)
    )
    plan = _plan_for(kind, seed, waypoints, key)
    return TaskSpec(
        kind=kind,
        seed=seed,
        goal=tuple(float(x) for x in plan.poses[-1, :3]),
        waypoints=waypoints,
        max_steps=2 * plan.steps,
        success_tolerance=DEFAULT_TOLERANCE,
    )


def _segment_steps(kind: str, seed: int, n_way: int) -> tuple[int, ...]:
    # child generator: the main stream's draw count varies (goal respacing),
    # so step counts must be reproducible from the spec alone
    rng = np.random.default_rng([_KIND_IDS[kind], seed & 0x7FFFFFFF, 2])
    return tuple(
        int(s) for s in rng.integers(_SEG_STEPS[0], _SEG_STEPS[1] + 1, size=n_way - 1)
    )


def build_plan(spec: TaskSpec, key: NormKey = DEFAULT_KEY) -> Plan:
    """Quantized ground-truth plan for a spec.

    The plan derives from the kind, seed and waypoints alone (the goal is
    derived from the plan), so the cache is keyed on those: ``make_task``
    and every later lookup for its spec share one build.
    ``build_plan.cache_clear()`` empties the cache.
    """
    return _plan_for(spec.kind, spec.seed, spec.waypoints, key)


@functools.lru_cache(maxsize=512)
def _plan_for(
    kind: str, seed: int, waypoints: tuple[tuple[float, ...], ...], key: NormKey
) -> Plan:
    seg_steps = _segment_steps(kind, seed, len(waypoints))
    way = np.asarray(waypoints, dtype=float)
    t_way = np.concatenate([[0], np.cumsum(seg_steps)]).astype(float)
    total = int(t_way[-1])
    ts = np.arange(total + 1, dtype=float)

    motion = CubicSpline(t_way, way[:, :GRIPPER_DOF], axis=0, bc_type="clamped")(ts)
    way_idx = np.searchsorted(t_way, ts, side="right") - 1

    # the pose the plan tracks at each time: the spline's motion channels and
    # the gripper state of the last waypoint reached
    targets = np.column_stack([motion, way[way_idx, GRIPPER_DOF]]).tolist()
    pose = targets[0]
    poses, actions, tokens = [pose], [], []
    for target in targets[1:]:
        ids = _track(target, pose, key)
        values = [token_to_action(tok, dof, key) for dof, tok in enumerate(ids)]
        pose = _advance(pose, values)
        poses.append(pose)
        actions.append(values)
        tokens.append(ids)
    actions = np.array(actions)

    path_length = float(np.abs(actions[:, :GRIPPER_DOF]).sum())
    return Plan(
        poses=np.array(poses),
        actions=actions,
        tokens=np.array(tokens, dtype=int),
        path_length=path_length,
        deviation_budget=DEVIATION_BUDGET_FRAC * path_length,
    )


build_plan.cache_clear = _plan_for.cache_clear


def _track(target, pose, key: NormKey) -> list[int]:
    """Tokens that move ``pose`` toward ``target``: each motion DoF's gap,
    clamped to the action range, and a gripper impulse to the target's state
    when it differs from the pose's."""
    ids = []
    for dof in range(GRIPPER_DOF):
        desired = min(max(target[dof] - pose[dof], key.lo[dof]), key.hi[dof])
        ids.append(action_to_token(desired, dof, key))
    impulse = target[GRIPPER_DOF] if target[GRIPPER_DOF] != pose[GRIPPER_DOF] else 0.0
    ids.append(action_to_token(impulse, GRIPPER_DOF, key))
    return ids


def _advance(pose, values) -> list[float]:
    """The pose after one slice of action values: the motion DoFs add their
    values, and the gripper latches to the command's sign once the command
    passes ``GRIPPER_FLIP_LEVEL``."""
    new = [p + v for p, v in zip(pose[:GRIPPER_DOF], values)]
    g_cmd = values[GRIPPER_DOF]
    new.append(math.copysign(1.0, g_cmd) if abs(g_cmd) > GRIPPER_FLIP_LEVEL else pose[GRIPPER_DOF])
    return new


def oracle_policy(state: EnvState, spec: TaskSpec, key: NormKey = DEFAULT_KEY) -> TokenSlice:
    """True (greedy) tokens for the next slice: track the plan from the
    current pose, clamped to the action range."""
    if state.done:
        raise EnvStateError("environment is done; no further actions")
    plan = build_plan(spec, key)
    target = plan.poses[min(state.t + 1, plan.steps)]
    return TokenSlice(tuple(_track(target, state.pose, key)))


def draft_policy(
    state: EnvState,
    spec: TaskSpec,
    noise: DraftNoiseModel,
    key: NormKey = DEFAULT_KEY,
) -> TokenSlice:
    """Noisy copy of the oracle's tokens for the current step.

    Deterministic per (noise seed, task seed, step), so repeated drafting
    within one slice sees the same corruption.
    """
    return corrupt_slice(oracle_policy(state, spec, key), spec.seed, state.t, noise, key)


def corrupt_slice(
    truth: TokenSlice, task_seed: int, t: int, noise: DraftNoiseModel, key: NormKey
) -> TokenSlice:
    """Draft noise applied to a truth slice, drawn from the (noise seed,
    task seed, step) stream."""
    # a uint32 array seeds the same stream as the list of these sub-2**32
    # ints, without coercing each int separately
    rng = np.random.default_rng(
        np.array([noise.seed & 0x7FFFFFFF, task_seed & 0x7FFFFFFF, t, 0x5EED], dtype=np.uint32)
    )
    errs = (rng.random(N_DOF) < noise.q_err).tolist()
    # the draws Generator.choice makes for the p-weighted magnitudes and the
    # uniform signs, without its per-call validation
    magnitudes = noise.offset_cdf.searchsorted(rng.random(N_DOF), side="right") + 1
    signs = 2 * rng.integers(0, 2, N_DOF) - 1
    offsets = (signs * magnitudes).tolist()
    vmax = key.vocab_size - 1
    ids = []
    for tok, err, off in zip(truth.ids, errs, offsets):
        if not err:
            ids.append(tok)
            continue
        corrupted = min(max(tok + off, 0), vmax)
        if corrupted == tok:  # clamp swallowed the offset; mirror it
            corrupted = min(max(tok - off, 0), vmax)
        ids.append(corrupted)
    return TokenSlice(tuple(ids))


def step(
    state: EnvState, actions: ActionSlice, spec: TaskSpec, key: NormKey = DEFAULT_KEY
) -> EnvState:
    """Integrate one slice of actions and update termination flags."""
    if state.done:
        raise EnvStateError("environment is done; no further steps")
    for v in actions.values:
        if not math.isfinite(v):
            # non-finite command aborts the episode as a failure
            return replace(state, done=True, succeeded=False)
    plan = build_plan(spec, key)
    pose = _advance(state.pose, actions.values)

    t = state.t + 1
    ref = plan.poses[min(t, plan.steps)]
    gap = float(sum(abs(pose[d] - ref[d]) for d in range(GRIPPER_DOF)))
    if pose[GRIPPER_DOF] != ref[GRIPPER_DOF]:
        gap += 2.0
    deviation = state.deviation + gap

    done = False
    succeeded = False
    if t >= plan.steps:
        dist = math.sqrt(sum((pose[d] - spec.goal[d]) ** 2 for d in range(3)))
        if dist <= spec.success_tolerance:
            done = True
            succeeded = deviation <= plan.deviation_budget
    if not done and t >= spec.max_steps:
        done = True
        succeeded = False
    return EnvState(
        pose=tuple(pose), t=t, deviation=deviation, done=done, succeeded=succeeded
    )


class SimEnv:
    """Stateful wrapper tying a task, its plan, and episode metadata together."""

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
        self.kind = spec.kind
        self.robot = robot
        self.trial = trial
        self.seed = spec.seed
        self.plan = build_plan(spec, key)
        self.plan_steps = self.plan.steps
        self.state = EnvState(
            pose=tuple(float(x) for x in self.plan.poses[0]),
            t=0,
            deviation=0.0,
            done=False,
            succeeded=False,
        )
        self._truth_state: EnvState | None = None
        self._truth: TokenSlice | None = None

    def step(self, actions: ActionSlice) -> EnvState:
        self.state = step(self.state, actions, self.spec, self.key)
        return self.state

    def truth(self) -> TokenSlice:
        """The oracle's tokens for the current state, computed once per state."""
        if self._truth_state is not self.state:
            self._truth = oracle_policy(self.state, self.spec, self.key)
            self._truth_state = self.state
        return self._truth


class PlanVerifier:
    """Verify oracle bound to a live environment: plan-tracking truths."""

    def __init__(self, env: SimEnv) -> None:
        self.env = env

    def verify(self, prefix, drafted):
        start = len(prefix)
        return self.env.truth().ids[start : start + len(drafted)]


class NoisyDrafter:
    """Draft oracle bound to a live environment: corrupted plan tokens,
    drawn once per env state."""

    def __init__(self, env: SimEnv, noise: DraftNoiseModel) -> None:
        self.env = env
        self.noise = noise
        self._state: EnvState | None = None
        self._ids: tuple[int, ...] = ()

    def draft(self, prefix, depth):
        env, state = self.env, self.env.state
        if self._state is not state:
            self._ids = corrupt_slice(env.truth(), env.seed, state.t, self.noise, env.key).ids
            self._state = state
        start = len(prefix)
        return self._ids[start : start + depth]
