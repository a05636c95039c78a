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

Each env step's work is done once: ``SimEnv.truth`` computes the oracle's
tokens once per state, and ``NoisyDrafter`` corrupts them once per state,
so every draft round and verify call of a slice reads the same two slices.
A plan is built once per task (``build_plan`` caches it on the fields it
derives from, so ``make_task`` and ``SimEnv`` share the build), and
``oracle_policy`` and ``step`` take the plan ``SimEnv`` holds, so no
per-slice call looks it up again.

The draft noise of step t is NumPy's own stream for the seed words (noise
seed, task seed, t, 0x5EED). It does not depend on the trajectory (only the
clamp at the vocabulary edge reads the truth token), so ``noise_rows``
draws the error mask and signed offsets of a whole run of steps in one
vectorised pass: ``NoisyDrafter`` draws the plan's rows when it is made
and the rest when needed. The rows equal the per-step generator's bit for
bit on the installed numpy (tested on 2.4.6); that rests on
``Generator.random``/``integers``, which NEP 19 does not freeze, and
``tests/oracles.py::reference_draft_ids`` is the guard.

The gripper channel is a three-level impulse: 0 holds the current state,
+/-1 sets it. Offsets never reach half the action range, so draft noise
cannot flip the gripper; only the plan's toggle steps do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

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
    arrays are read-only."""

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
    """The plan of a task: the pose tracks a spline through the waypoints,
    one ``_track`` and ``_advance`` per step, computed for all steps at once
    by guess and confirm (``_quantize``). The arrays are read-only, since
    the cache hands them to every episode and mode of the task.

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
    poses, actions, tokens = _quantize(_targets(kind, seed, waypoints), key)
    for array in (poses, actions, tokens):  # the cache shares them with every caller
        array.flags.writeable = False

    path_length = float(np.abs(actions[:, :GRIPPER_DOF]).sum())
    return Plan(
        poses=poses,
        actions=actions,
        tokens=tokens,
        path_length=path_length,
        deviation_budget=DEVIATION_BUDGET_FRAC * path_length,
    )


build_plan.cache_clear = _plan_for.cache_clear


def _targets(kind: str, seed: int, waypoints: tuple[tuple[float, ...], ...]) -> np.ndarray:
    """The pose a plan tracks at each time, (T+1, 7): the spline's motion
    channels and the gripper state of the last waypoint reached."""
    seg_steps = _segment_steps(kind, seed, len(waypoints))
    way = np.asarray(waypoints, dtype=float)
    t_way = np.concatenate([[0], np.cumsum(seg_steps)]).astype(float)
    ts = np.arange(int(t_way[-1]) + 1, dtype=float)
    motion = CubicSpline(t_way, way[:, :GRIPPER_DOF], axis=0, bc_type="clamped")(ts)
    way_idx = np.searchsorted(t_way, ts, side="right") - 1
    return np.column_stack([motion, way[way_idx, GRIPPER_DOF]])


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
    target sits within rounding of a bin edge; the check that ``_plan_for``
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
    poses[:, GRIPPER_DOF] = _gripper_states(targets[:, GRIPPER_DOF].tolist(), key)
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


def _gripper_states(targets: list[float], key: NormKey) -> list[float]:
    """The gripper column of the plan's poses: ``_track``'s impulse toward
    each target and ``_advance``'s latch, one step at a time. An impulse is
    a target or 0.0, so each distinct one is encoded and decoded once."""
    state = targets[0]
    states = [state]
    commands: dict[float, float] = {}
    for target in targets[1:]:
        impulse = target if target != state else 0.0
        command = commands.get(impulse)
        if command is None:
            tok = action_to_token(impulse, GRIPPER_DOF, key)
            command = commands[impulse] = token_to_action(tok, GRIPPER_DOF, key)
        state = _latch(state, command)
        states.append(state)
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


def oracle_policy(state: EnvState, plan: Plan, key: NormKey) -> tuple[int, ...]:
    """True (greedy) tokens for the next slice: track the plan from the
    current pose, clamped to the action range."""
    if state.done:
        raise EnvStateError("environment is done; no further actions")
    # one row as floats: element reads of the ndarray build numpy scalars
    target = plan.poses[min(state.t + 1, plan.steps)].tolist()
    return tuple(_track(target, state.pose, key))


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


def step(state: EnvState, actions: tuple[float, ...], spec: TaskSpec, plan: Plan) -> EnvState:
    """Integrate one slice of action values (as ``decode_slice`` returns
    them) and update termination flags."""
    if state.done:
        raise EnvStateError("environment is done; no further steps")
    pose = _advance(state.pose, actions)

    t = state.t + 1
    ref = plan.poses[min(t, plan.steps)].tolist()
    gap = float(sum(abs(pose[d] - ref[d]) for d in range(GRIPPER_DOF)))
    if pose[GRIPPER_DOF] != ref[GRIPPER_DOF]:
        gap += 2.0
    deviation = state.deviation + gap

    done = False
    succeeded = False
    if t >= plan.steps:
        try:
            dist = math.sqrt(sum((pose[d] - spec.goal[d]) ** 2 for d in range(3)))
        except OverflowError:  # a square past the float range: far off the goal
            dist = math.inf
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
            pose=tuple(self.plan.poses[0].tolist()),
            t=0,
            deviation=0.0,
            done=False,
            succeeded=False,
        )
        self._truth_state: EnvState | None = None
        self._truth: tuple[int, ...] = ()

    def step(self, actions: tuple[float, ...]) -> EnvState:
        self.state = step(self.state, actions, self.spec, self.plan)
        return self.state

    def truth(self) -> tuple[int, ...]:
        """The oracle's tokens for the current state, computed once per state."""
        if self._truth_state is not self.state:
            self._truth = oracle_policy(self.state, self.plan, self.key)
            self._truth_state = self.state
        return self._truth


class PlanVerifier:
    """Verify oracle bound to a live environment: plan-tracking truths."""

    def __init__(self, env: SimEnv) -> None:
        self.env = env

    def verify(self, prefix, drafted):
        start = len(prefix)
        return self.env.truth()[start : start + len(drafted)]


class NoisyDrafter:
    """Draft oracle bound to a live environment: corrupted plan tokens,
    drawn once per env state.

    The noise rows (``noise_rows``) of the plan's steps are drawn when the
    drafter is made, and those of the later steps below the task's
    ``max_steps`` in one more pass only if the episode runs past the plan.
    Each state applies row ``state.t`` to the oracle's tokens (``_corrupt``).
    """

    def __init__(self, env: SimEnv, noise: DraftNoiseModel) -> None:
        self.env = env
        self.noise = noise
        self._rows: list[tuple[list[bool], list[int]]] = []  # (errs, offsets) per step
        self._draw_rows(env.plan_steps)
        self._vmax = env.key.vocab_size - 1
        self._state: EnvState | None = None
        self._ids: tuple[int, ...] = ()

    def draft(self, prefix, depth):
        env, state = self.env, self.env.state
        if self._state is not state:
            truth = env.truth()  # raises once the episode is done
            t = state.t
            if t >= len(self._rows):
                self._draw_rows(env.spec.max_steps)
            self._ids = _corrupt(truth, *self._rows[t], self._vmax)
            self._state = state
        start = len(prefix)
        return self._ids[start : start + depth]

    def _draw_rows(self, t1: int) -> None:
        """Append the rows of the steps from the first undrawn one up to ``t1``."""
        errs, offsets = noise_rows(self.noise, self.env.seed, len(self._rows), t1)
        self._rows += zip(errs.tolist(), offsets.tolist())
