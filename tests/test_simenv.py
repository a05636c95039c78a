"""Synthetic tasks: plan consistency, oracles, noise model, termination."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.stats import chisquare

from kerv import codec, simenv, specdec
from kerv.codec import GRIPPER_DOF, CodecError, NormKey, action_to_token, decode_slice
from kerv.simenv import (
    DEFAULT_KEY,
    KINDS,
    SUCCESS_TOLERANCE,
    DraftNoiseModel,
    EnvStateError,
    NoisyDrafter,
    PlanVerifier,
    SimEnv,
    TaskError,
    build_plan,
    make_task,
    noise_rows,
    oracle_policy,
)
from kerv.config import ConfigError, RunConfig, SuiteConfig
from kerv.harness import run_one_episode, run_suite
from kerv.specdec import run_episode
from kerv.threshold import CalibrationRow, CalibrationTable
from kerv.trace import MODES

from oracles import (
    PLAN_KEYS,
    reference_corrupt,
    reference_draft_ids,
    reference_gripper_states,
    reference_noise_row,
    reference_plan,
    reference_targets,
    reference_task_waypoints,
    reference_track,
)


def plan_arrays(spec, key=DEFAULT_KEY):
    """Poses, actions and tokens of a spec's plan, as ``_quantize`` builds
    them; the cached ``Plan`` keeps only the poses."""
    return simenv._quantize(simenv._targets(spec.kind, spec.seed, spec.waypoints), key)


def test_make_task_deterministic():
    a = make_task("pick_place", 7)
    b = make_task("pick_place", 7)
    assert a == b
    c = make_task("pick_place", 8)
    assert c != a


@pytest.mark.parametrize("kind", KINDS)
def test_make_task_waypoints_match_reference(kind):
    """The waypoints, built from the draws in one call, equal the
    per-waypoint assembly bit for bit, as Python floats."""
    for seed in [*range(300), (1 << 31) + 3, (1 << 32) + 5]:
        got = make_task(kind, seed).waypoints
        expected = reference_task_waypoints(kind, seed)
        assert all(type(v) is float for w in got for v in w)
        assert [[v.hex() for v in w] for w in got] == [[v.hex() for v in w] for w in expected], seed


GRIPPER_KEYS = {
    "default": DEFAULT_KEY,
    # 16 bins over +-0.02: no gripper command passes the flip level
    "vocab16": NormKey(lo=(-0.02,) * 7, hi=(0.02,) * 7, vocab_size=16),
    # two gripper bins with centres -0.55 and 0.65: the hold command flips
    # the state to -1 and the +1 impulse flips it back, so a +1 target
    # makes the state alternate at every step
    "alternating": NormKey(lo=(-1.0,) * 6 + (-1.15,), hi=(1.0,) * 6 + (1.25,), vocab_size=2),
}


@pytest.mark.parametrize("key", GRIPPER_KEYS.values(), ids=GRIPPER_KEYS)
@pytest.mark.parametrize("kind", KINDS)
def test_gripper_states_match_the_step_by_step_walk(kind, key):
    """The plan's gripper column, guessed and confirmed with the motion
    DoFs, equals the walk over every step of its targets bit for bit,
    seeds 0-299."""
    for seed in range(300):
        spec = make_task(kind, seed)
        column = simenv._targets(kind, seed, spec.waypoints)[:, GRIPPER_DOF]
        got = build_plan(spec, key).poses[:, GRIPPER_DOF].tolist()
        expected = reference_gripper_states(column.tolist(), key)
        assert [v.hex() for v in got] == [v.hex() for v in expected], seed


_FLIP = simenv.GRIPPER_FLIP_LEVEL
# exactly at the flip level, one ulp past it, signed zeros, or anywhere
_PAST_FLIP = math.nextafter(_FLIP, 1.0)
_COMMANDS = st.one_of(
    st.sampled_from([_FLIP, -_FLIP, _PAST_FLIP, -_PAST_FLIP, 0.0, -0.0]), st.floats(-2.0, 2.0)
)
# mixed magnitudes, so that a sum in another order would round differently
_MOTIONS = st.one_of(st.floats(-1e-9, 1e-9), st.floats(-1.0, 1.0), st.floats(-1e12, 1e12))
_ROWS = st.tuples(*[_MOTIONS] * GRIPPER_DOF, _COMMANDS)
_HOLD_ROWS = st.tuples(*[_MOTIONS] * GRIPPER_DOF, st.floats(-_FLIP, _FLIP))


@settings(max_examples=300, deadline=None)
@given(
    start=st.tuples(
        *[_MOTIONS] * GRIPPER_DOF,
        st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-3.0, 3.0)),
    ),
    runs=st.lists(
        st.one_of(
            st.lists(_ROWS, min_size=1, max_size=4),
            # a long run with no flip
            st.builds(lambda row, n: [row] * n, _HOLD_ROWS, st.integers(10, 60)),
        ),
        max_size=5,
    ),
)
def test_replay_equals_advance_one_step_at_a_time(start, runs):
    """``_replay``'s array sums and latch equal ``_advance`` folded over the
    rows one at a time, bit for bit, from any start state."""
    rows = [row for run in runs for row in run]
    expected = [list(start)]
    for row in rows:
        expected.append(simenv._advance(expected[-1], row))
    got = simenv._replay(np.array(start), np.array(rows, dtype=float).reshape(-1, 7))
    assert [[v.hex() for v in p] for p in got.tolist()] == [
        [v.hex() for v in p] for p in expected
    ]


def test_unknown_kind_rejected():
    with pytest.raises(TaskError):
        make_task("fly", 0)


def test_plan_replay_succeeds_with_zero_deviation():
    for kind in ("reach", "pick_place", "long_horizon"):
        spec = make_task(kind, 3)
        env = SimEnv(spec)
        plan = env.plan
        _, actions, _ = plan_arrays(spec)
        for t in range(plan.steps):
            env.step(actions[t].tolist())
        assert env.done
        assert env.succeeded
        assert env.deviation == 0.0
        assert env.t == plan.steps


@pytest.mark.parametrize("grip_range", [(-1.0, 1.0), (0.6, 2.0)])
def test_plan_replay_reproduces_every_pose(grip_range):
    # with (0.6, 2.0) every gripper token decodes above the flip level
    key = NormKey(lo=(-1.0,) * 6 + (grip_range[0],), hi=(1.0,) * 6 + (grip_range[1],))
    spec = make_task("pick_place", 3)
    env = SimEnv(spec, key)
    plan = env.plan
    _, _, tokens = plan_arrays(spec, key)
    for t in range(plan.steps):
        env.step(decode_slice(tokens[t].tolist(), key))
        assert env.pose == tuple(plan.poses[t + 1])


@pytest.mark.parametrize("key", GRIPPER_KEYS.values(), ids=GRIPPER_KEYS)
def test_replaying_the_plans_tokens_makes_its_poses(key):
    """The plan's tokens, whose gripper column is the verifier's along the
    plan rather than the waypoints', still replay to the plan's poses bit
    for bit, on a gripper that never latches and one that alternates:
    seeds 0-9 of every kind."""
    for kind in KINDS:
        for seed in range(10):
            env = SimEnv(make_task(kind, seed), key)
            plan = env.plan
            for t in range(plan.steps):
                env.step(decode_slice(plan.tokens[t].tolist(), key))
                assert env.pose == tuple(plan.poses[t + 1].tolist()), (kind, seed, t)


def test_zero_actions_fail_at_max_steps():
    spec = make_task("reach", 5)
    env = SimEnv(spec)
    still = (0.0,) * 7
    while not env.done:
        env.step(still)
    assert env.t == env.plan.max_steps == 2 * env.plan.steps
    assert not env.succeeded


def test_goal_is_plan_endpoint():
    spec = make_task("reach", 9)
    plan = build_plan(spec, DEFAULT_KEY)
    assert np.allclose(plan.poses[-1, :3], plan.goal)
    assert np.linalg.norm(np.asarray(plan.goal) - plan.poses[0, :3]) > SUCCESS_TOLERANCE


def encode(values):
    return tuple(action_to_token(v, dof) for dof, v in enumerate(values))


def test_oracle_tracks_plan_tokens():
    spec = make_task("pick_place", 2)
    env = SimEnv(spec)
    _, _, plan_tokens = plan_arrays(spec)
    for t in range(min(20, env.plan.steps)):
        tokens = oracle_policy(env)
        assert tokens == tuple(plan_tokens[t].tolist())
        env.step(decode_slice(tokens))
    assert env.deviation == 0.0


def test_oracle_idempotent_under_codec_roundtrip():
    env = SimEnv(make_task("long_horizon", 4))
    for _ in range(25):
        tokens = oracle_policy(env)
        actions = decode_slice(tokens)
        assert encode(actions) == tokens
        env.step(actions)


def test_oracle_at_goal_emits_zero_action_tokens():
    spec = make_task("reach", 12)
    env = SimEnv(spec)
    _, actions, _ = plan_arrays(spec)
    for t in range(env.plan.steps):
        env.step(actions[t].tolist())
    # re-open the episode at the final pose to query the policy past the plan
    assert env.done
    env.done = False
    assert oracle_policy(env) == encode((0.0,) * 7)


def test_oracle_refuses_done_env():
    spec = make_task("reach", 1)
    env = SimEnv(spec)
    _, actions, _ = plan_arrays(spec)
    while not env.done:
        env.step(actions[min(env.t, env.plan.steps - 1)].tolist())
    finished = _state(env)
    with pytest.raises(EnvStateError):
        oracle_policy(env)
    with pytest.raises(EnvStateError):
        NoisyDrafter(env, DraftNoiseModel()).draft()
    with pytest.raises(EnvStateError):
        env.step((0.0,) * 7)
    assert _state(env) == finished


def _drafts_along_plan(kind, task_seed, noise, n):
    """(step, truth ids, drafted ids) of the first ``n`` states of an
    episode that follows the oracle, drafted by a ``NoisyDrafter``."""
    env = SimEnv(make_task(kind, task_seed))
    draft = NoisyDrafter(env, noise)
    out = []
    while len(out) < n and not env.done:
        truth = oracle_policy(env)
        out.append((env.t, truth, draft.draft()))
        env.step(decode_slice(truth))
    return out


def test_draft_noiseless_limit_matches_oracle():
    noise = DraftNoiseModel(q_err=0.0, seed=1)
    for _, truth, drafted in _drafts_along_plan("reach", 21, noise, 10):
        assert drafted == truth


def test_draft_saturated_noise_offsets_every_position():
    noise = DraftNoiseModel(q_err=1.0, max_offset=1, seed=2)
    [(_, truth, drafted)] = _drafts_along_plan("reach", 22, noise, 1)
    for d, t in zip(drafted, truth):
        assert abs(d - t) == 1


def test_draft_deterministic_per_step():
    # two drafters of the same task and noise agree at every step, and one
    # drafter asked again within a step returns the same draft
    noise = DraftNoiseModel(seed=3)
    assert _drafts_along_plan("reach", 23, noise, 15) == _drafts_along_plan("reach", 23, noise, 15)
    env = SimEnv(make_task("reach", 23))
    draft = NoisyDrafter(env, noise)
    assert draft.draft() == draft.draft()


def test_draft_error_never_cancelled_by_clamping():
    # truths at the vocabulary edge must still yield a different token
    noise = DraftNoiseModel(q_err=1.0, seed=4)
    steps = _drafts_along_plan("pick_place", 2, noise, 40)
    assert len(steps) == 40
    for _, truth, drafted in steps:
        for d, t in zip(drafted, truth):
            assert d != t


def test_long_horizon_at_least_twice_reach_length():
    reach = [build_plan(make_task("reach", s), DEFAULT_KEY).steps for s in range(100)]
    long = [build_plan(make_task("long_horizon", s), DEFAULT_KEY).steps for s in range(100)]
    assert np.mean(long) >= 2 * np.mean(reach)


def test_gripper_toggles_in_pick_place():
    spec = make_task("pick_place", 6)
    plan = build_plan(spec, DEFAULT_KEY)
    states = plan.poses[:, 6]
    flips = np.sum(states[1:] != states[:-1])
    assert flips == 2
    # toggle steps carry a full-swing impulse, holds stay near zero
    impulses = plan_arrays(spec)[1][:, 6]
    assert np.sum(np.abs(impulses) > 0.5) == 2


def test_deviation_matches_brute_force_replay():
    spec = make_task("reach", 17)
    env = SimEnv(spec)
    plan = env.plan
    _, actions, _ = plan_arrays(spec)
    rng = np.random.default_rng(0)
    executed = []
    for t in range(plan.steps):
        a = actions[t].copy()
        if rng.random() < 0.1:
            a[2] += 0.5  # corrupt one DoF
        executed.append(a)
        env.step(a.tolist())
        if env.done:
            break
    # independent replay of the pose recursion and gap accumulation
    pose = plan.poses[0].copy()
    dev = 0.0
    for t, a in enumerate(executed):
        pose[:6] += a[:6]
        if abs(a[6]) > 0.5:
            pose[6] = np.sign(a[6])
        ref = plan.poses[min(t + 1, plan.steps)]
        dev += float(np.abs(pose[:6] - ref[:6]).sum()) + 2.0 * (pose[6] != ref[6])
    assert env.deviation == pytest.approx(dev, abs=1e-12)


def _state(env):
    """The episode state an env holds."""
    return env.pose, env.t, env.deviation, env.done, env.succeeded


def test_env_is_pure_function_of_spec_and_actions():
    """Two fresh envs of equal specs, stepped with the same actions, hold
    the same state after every step."""
    spec = make_task("pick_place", 33)
    seq = plan_arrays(spec)[1][:10].tolist()
    first, second = SimEnv(spec), SimEnv(make_task("pick_place", 33))
    assert _state(first) == _state(second)
    for a in seq:
        first.step(a)
        second.step(a)
        assert _state(first) == _state(second)


# --- the plan against the scalar loop -----------------------------------------


def _assert_bitwise_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(simenv.KINDS),
    seed=st.one_of(st.integers(0, 200), st.integers(2**31, 2**33)),
    key=st.sampled_from(PLAN_KEYS),
    jitter=st.sampled_from([0.0, 1e-9, 1e-3, 0.05]),
    jitter_seed=st.integers(0, 2**32 - 1),
)
def test_plan_equals_the_scalar_loop_bit_for_bit(kind, seed, key, jitter, jitter_seed):
    """Tokens, poses and actions, sign bits included, against the one-step-
    at-a-time loop: the plan itself, and the same tracking of jittered
    targets (the gripper column jittered too, so it holds values other
    than +/-1)."""
    spec = make_task(kind, seed)
    targets = simenv._targets(kind, seed, spec.waypoints)
    if jitter:
        targets = targets + np.random.default_rng(jitter_seed).normal(0.0, jitter, targets.shape)
    got = simenv._quantize(targets, key)
    for array, expected in zip(got, reference_plan(targets.tolist(), key)):
        _assert_bitwise_equal(array, expected)
    if not jitter:  # the cached plan holds the same poses
        _assert_bitwise_equal(build_plan(spec, key).poses, got[0])


_GRIPPER_VALUES = st.sampled_from([-1.0, 1.0, 0.0, -0.0, 0.5, -0.5])
_FLOATS = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    key=st.sampled_from(PLAN_KEYS),
    rows=st.lists(
        st.tuples(
            st.lists(_FLOATS, min_size=6, max_size=6),  # poses
            st.lists(st.one_of(_FLOATS, st.integers(-300, 300)), min_size=6, max_size=6),
            st.one_of(_GRIPPER_VALUES, _FLOATS),  # pose gripper state
            st.one_of(_GRIPPER_VALUES, _FLOATS),  # target gripper state
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_track_rows_equals_track_row_by_row(key, rows):
    """An integer gap k puts the target at the DoF's k-th bin edge from the
    pose, or within rounding of it."""
    def gap(dof, g):
        if isinstance(g, float):
            return g
        return key.lo[dof] + g * (key.hi[dof] - key.lo[dof]) / key.vocab_size

    poses, targets = [], []
    for pose, gaps, grip_pose, grip_target in rows:
        poses.append(pose + [grip_pose])
        targets.append([p + gap(d, g) for d, (p, g) in enumerate(zip(pose, gaps))] + [grip_target])
    got = simenv._track_rows(np.array(targets), np.array(poses), key)
    assert got.dtype == np.dtype(int)
    assert got.tolist() == [reference_track(t, p, key) for t, p in zip(targets, poses)]


def _edges(key, dof):
    """The DoF's bin edges from one past either clamp, each moved up to two
    floats either way."""
    def edge(k, ulps):
        x = key.lo[dof] + k * (key.hi[dof] - key.lo[dof]) / key.vocab_size
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x

    return st.builds(edge, st.integers(-1, key.vocab_size + 1), st.integers(-2, 2))


_SPECIAL_GAPS = st.sampled_from([0.0, -0.0, 1e300, -1e300])


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(PLAN_KEYS), data=st.data())
def test_track_equals_the_checked_encoder_per_dof(key, data):
    """The inlined encoder against ``action_to_token`` per DoF: gaps on and
    next to bin edges, +/-0.0, and past both clamps; a pose of 0.0 keeps the
    drawn gap exact."""
    target, pose = [], []
    for dof in range(7):
        p = data.draw(st.one_of(st.sampled_from([0.0, -0.0]), _FLOATS, _GRIPPER_VALUES))
        g = data.draw(st.one_of(_edges(key, dof), _FLOATS, _SPECIAL_GAPS))
        if dof == 6 and data.draw(st.booleans()):
            g = 0.0  # the gripper holds: a zero impulse
        pose.append(p)
        target.append(g if p == 0.0 else p + g)
    got = simenv._track_rows(np.array([target]), np.array([pose]), key)[0].tolist()
    assert got == reference_track(target, pose, key)
    assert all(type(tok) is int for tok in got)


@pytest.mark.parametrize("dof", range(7))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_track_refuses_a_non_finite_value_as_the_encoder_does(dof, value):
    """A non-finite target at any DoF is refused with the encoder's
    ``CodecError`` before the plan tracks it; a codec key that
    ``check_key`` accepts keeps every later pose, and so every gap,
    finite."""
    pose = [0.1] * 7
    target = [0.2] * 7
    target[dof] = value
    with pytest.raises(CodecError, match="plan targets must be finite"):
        simenv._quantize(np.array([pose, target]), NormKey())


def test_default_plans_are_built_in_one_guess_pass(monkeypatch):
    """One pass tracks the steps twice: from the guessed poses and from the
    replayed ones. More calls mean the guess missed."""
    calls = []
    real = simenv._track_rows
    monkeypatch.setattr(simenv, "_track_rows", lambda *a: calls.append(a) or real(*a))
    for kind in simenv.KINDS:
        for seed in range(50):
            build_plan.cache_clear()
            calls.clear()
            build_plan(make_task(kind, seed), DEFAULT_KEY)
            assert len(calls) == 2, (kind, seed)


@pytest.mark.parametrize(
    "dof, key",
    [
        # loaded from a config, its long_horizon plans overflowed with
        # numpy warnings only, and naive then wrote a successful trace
        (0, NormKey(lo=(-3e306,) + (-1.0,) * 6, vocab_size=2)),
        # its long_horizon seed 0 plan overflowed to a NaN gap, which the
        # closed loop and the per-oracle loop refused mid-episode
        (3, NormKey(lo=(-1.0,) * 3 + (-3e306,) + (-1.0,) * 3, vocab_size=2)),
    ],
    ids=["dof0", "dof3"],
)
def test_a_key_whose_poses_could_pass_the_float_range_is_refused_before_any_decode(dof, key):
    """``check_key`` refuses the key where the plan is built, so making the
    env raises, names the DoF and caches no plan; ``RunConfig`` refuses it
    as ``ConfigError`` under the same name."""
    build_plan.cache_clear()
    with pytest.raises(CodecError, match=f"^dof{dof} range"):
        SimEnv(make_task("long_horizon", 0), key)
    assert build_plan.cache_info().currsize == 0
    with pytest.raises(ConfigError, match=f"^dof{dof} range"):
        RunConfig(key=key)


def test_plan_arrays_are_read_only():
    """The plan cache hands the same poses and tokens to every episode of a task."""
    plan = build_plan(make_task("reach", 4), DEFAULT_KEY)
    with pytest.raises(ValueError):
        plan.poses[0, 0] = 0
    with pytest.raises(ValueError):
        plan.tokens[0, 0] = 0


# --- the plan's spline against scipy -------------------------------------------

# seeds 0-99, every suite's report trials (c08, and c09's 500 goal trials),
# and the first trials of perfbench seeds 1-10 (seed offset SEED_STRIDE * s)
_SUITE_BASES = (1000, 2000, 3000, 4000)
_SPLINE_SEEDS = sorted(
    {*range(100), *range(1000, 1500), *(b + t for b in _SUITE_BASES for t in range(50))}
    | {100_000 * s + b + t for s in range(1, 11) for b in _SUITE_BASES for t in range(10)}
)


# the spline's own solve differs from scipy's in the last bits only (2.9e-14
# at most, measured over 52,800 report, c08/c09 and perfbench tasks)
_TARGET_BOUND = 1e-12


@pytest.mark.parametrize("kind", simenv.KINDS)
def test_targets_give_scipys_plans(kind):
    """Targets within ``_TARGET_BOUND`` of scipy's clamped spline, and the
    same tokens, poses and actions, sign bits included, from both: only the
    plan reaches a trace or a report."""
    for seed in _SPLINE_SEEDS:
        waypoints = make_task(kind, seed).waypoints
        got = simenv._targets(kind, seed, waypoints)
        expected = reference_targets(kind, seed, waypoints)
        assert np.abs(got - expected).max() <= _TARGET_BOUND, seed
        for array, want in zip(simenv._quantize(got, DEFAULT_KEY),
                               simenv._quantize(expected, DEFAULT_KEY)):
            _assert_bitwise_equal(array, want)


@settings(max_examples=300, deadline=None)
@given(
    spacings=st.lists(st.floats(1.0, 40.0), min_size=1, max_size=15),
    values=st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=16 * 6),
    points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
# unit spacings; the plan's own spacings; a long interval beside short ones,
# with a -0.0 knot
@example(spacings=[1.0] * 4, values=[1.0, -2.0] * 15, points=[0.3, 1.0])
@example(spacings=[18.0, 24.0, 18.0, 24.0], values=[0.5, -1.0, 2.0] * 10, points=[0.5])
@example(spacings=[40.0, 2.0, 2.0], values=[v for v in (0.5, -0.0, -1.0, -3.0) for _ in range(6)],
         points=[0.5])
def test_clamped_spline_is_within_a_bound_of_scipys(spacings, values, points):
    """Within 1e-12 of scipy's clamped ``CubicSpline``, relative to
    max(1, max|y|) (6.1e-13 was the worst of 20,000 draws), over knot
    spacings from 1 to 40; the points include every knot and some between
    them. At every knot but the last, h = 0, so the value is the knot's y
    exactly."""
    x = np.concatenate([[0.0], np.cumsum(spacings)])
    n = len(x)
    y = np.resize(np.array(values), (n, GRIPPER_DOF))
    ts = np.sort(np.concatenate([x, x[-1] * np.array(points)]))
    got = simenv._clamped_spline(x, y, ts)
    expected = CubicSpline(x, y, axis=0, bc_type="clamped")(ts)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(y).max())
    assert np.array_equal(simenv._clamped_spline(x, y, x[:-1]), y[:-1])


def test_importing_kerv_loads_no_scipy():
    """``kerv.cli`` imports every kerv module; none of them pulls in scipy,
    which would add tens of MB to every run's peak memory."""
    src = str(Path(simenv.__file__).resolve().parents[1])
    code = "import sys, kerv.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_plan_targets_must_be_finite():
    targets = np.zeros((3, 7))
    targets[2, 1] = math.nan
    with pytest.raises(CodecError, match="finite"):
        simenv._quantize(targets, NormKey())


# --- draft noise against the reference stream --------------------------------


REFERENCE_NOISES = [
    DraftNoiseModel(seed=0),
    DraftNoiseModel(seed=9),
    DraftNoiseModel(seed=(1 << 31) + 77),  # masked to 31 bits
    DraftNoiseModel(q_err=0.0, seed=3),
    DraftNoiseModel(q_err=1.0, seed=4),
    DraftNoiseModel(q_err=1.0, max_offset=1, seed=5),
    DraftNoiseModel(q_err=0.7, max_offset=3, zipf_s=2.5, seed=6),
]
REFERENCE_TASKS = (("reach", 0), ("pick_place", 41), ("long_horizon", 1 << 31))


@pytest.mark.parametrize("noise", REFERENCE_NOISES)
def test_draft_policy_matches_reference_stream(noise):
    vocab = NormKey().vocab_size
    for kind, task_seed in REFERENCE_TASKS:
        for t, truth, drafted in _drafts_along_plan(kind, task_seed, noise, 30):
            assert drafted == reference_draft_ids(truth, noise, task_seed, t, vocab)


@pytest.mark.parametrize("noise", REFERENCE_NOISES)
def test_plan_slices_match_reference_stream(noise):
    """The truths, drafts and misses at every plan step: the plan's tokens
    are the oracle tracking pose t + 1 from pose t, ``_corrupt_rows`` of
    them with the drafter's plan rows is the reference stream's corruption,
    and a naive episode records both and rejects exactly where they differ."""
    vocab = NormKey().vocab_size
    for kind, task_seed in REFERENCE_TASKS:
        env = SimEnv(make_task(kind, task_seed))
        poses = env.plan.poses.tolist()
        draft = NoisyDrafter(env, noise)
        truths = env.plan.tokens.tolist()
        drafts = simenv._corrupt_rows(
            env.plan.tokens, draft.plan_errs, draft.plan_offsets, vocab - 1
        )
        records = run_episode(env, draft, RunConfig(), "naive").slices
        assert len(truths) == len(drafts) == len(records) == env.plan.steps
        for t, (truth, drafted, rec) in enumerate(zip(truths, drafts.tolist(), records)):
            assert truth == reference_track(poses[t + 1], poses[t], env.key), t
            assert tuple(drafted) == reference_draft_ids(truth, noise, task_seed, t, vocab), t
            assert (rec.true_ids, rec.draft_ids) == (tuple(truth), tuple(drafted)), t
            missed = [p for p in range(7) if rec.statuses[p] == specdec.REJECTED]
            assert missed == [p for p in range(7) if drafted[p] != truth[p]], t


@pytest.mark.parametrize("vocab", [2, 3, 16, 256])
def test_corrupt_rows_match_corrupt_row_by_row(vocab):
    """Every truth token, every offset +-1 .. +-(vocab + 1) and the error
    flag on and off, seven cells to a row, through both corruptions."""
    vmax = vocab - 1
    magnitudes = np.arange(1, vocab + 2)
    cells = np.meshgrid(
        np.arange(vocab), np.concatenate([magnitudes, -magnitudes]), [False, True]
    )
    # repeat cells cyclically to fill whole rows of seven
    n = -(-cells[0].size // 7) * 7
    truths, offsets, errs = (np.resize(c.ravel(), n).reshape(-1, 7) for c in cells)
    got = simenv._corrupt_rows(truths, errs, offsets, vmax).tolist()
    rows = zip(truths.tolist(), errs.tolist(), offsets.tolist())
    assert [tuple(r) for r in got] == [reference_corrupt(*row, vmax) for row in rows]


@pytest.mark.parametrize("max_offset", [1, 60])
@pytest.mark.parametrize("q_err", [0.0, 0.5, 1.0])
def test_corruption_at_vocabulary_edges_matches_reference(q_err, max_offset):
    # offsets that clamping would cancel are mirrored, as in the reference
    key = NormKey()
    vmax = key.vocab_size - 1
    for truth in ((0,) * 7, (vmax,) * 7, (0, vmax, 0, vmax, 0, vmax, 1)):
        for seed in range(4):
            noise = DraftNoiseModel(q_err=q_err, max_offset=max_offset, seed=seed)
            for t in (0, 1, 57, 1000):
                errs, offsets = noise_rows(noise, 11, t, t + 1)
                got = simenv._corrupt_rows(np.array(truth), errs[0], offsets[0], vmax)
                assert tuple(got.tolist()) == reference_draft_ids(
                    truth, noise, 11, t, key.vocab_size
                )


@pytest.mark.parametrize(
    "kind, task_seed, noise",
    [
        ("reach", 0, DraftNoiseModel(seed=0)),
        ("pick_place", 41, DraftNoiseModel(q_err=1.0, seed=9)),
        ("long_horizon", 1 << 31, DraftNoiseModel(seed=(1 << 31) + 77)),
        ("reach", (1 << 32) + 5, DraftNoiseModel(q_err=0.7, max_offset=3, zipf_s=2.5, seed=6)),
    ],
)
def test_drafter_rows_match_reference_at_every_step(kind, task_seed, noise):
    """The rows a drafter draws, applied at every t < max_steps (past the
    plan's end too, where it draws the rest), against the per-step
    reference stream."""
    spec = make_task(kind, task_seed)
    env = SimEnv(spec)
    draft = NoisyDrafter(env, noise)
    vocab = env.key.vocab_size
    for t in range(env.plan.max_steps):
        env.pose, env.t = tuple(env.plan.poses[min(t, env.plan.steps)].tolist()), t
        expected = reference_draft_ids(oracle_policy(env), noise, spec.seed, t, vocab)
        assert draft.draft() == expected, t


@settings(max_examples=60, deadline=None)
@given(
    noise_seed=st.integers(0, 2**33),
    task_seed=st.integers(0, 2**33),
    t0=st.one_of(st.integers(0, 3000), st.integers(0, 2**32 - 6)),
    steps=st.integers(0, 6),
    q_err=st.sampled_from([0.0, 0.5, 1.0]),
    max_offset=st.sampled_from([1, 60]),
    zipf_s=st.floats(-1.0, 4.0),
)
def test_noise_rows_match_reference_stream(
    noise_seed, task_seed, t0, steps, q_err, max_offset, zipf_s
):
    noise = DraftNoiseModel(q_err=q_err, max_offset=max_offset, zipf_s=zipf_s, seed=noise_seed)
    errs, offsets = noise_rows(noise, task_seed, t0, t0 + steps)
    assert errs.shape == offsets.shape == (steps, 7)
    for row, t in enumerate(range(t0, t0 + steps)):
        expected = reference_noise_row(noise, task_seed, t)
        assert (errs[row].tolist(), offsets[row].tolist()) == expected
        assert (np.abs(offsets[row]) >= 1).all() and (np.abs(offsets[row]) <= max_offset).all()


def test_noise_rows_reject_steps_outside_uint32():
    noise = DraftNoiseModel(seed=1)
    for t0, t1 in ((-1, 2), (2**32, 2**32 + 1), (5, 3)):
        with pytest.raises(TaskError):
            noise_rows(noise, 7, t0, t1)
    errs, offsets = noise_rows(noise, 7, 2**32 - 1, 2**32)
    assert (errs[0].tolist(), offsets[0].tolist()) == reference_noise_row(noise, 7, 2**32 - 1)


@pytest.mark.parametrize("zipf_s", [math.nan, -math.inf, math.inf, -1000.0])
def test_noise_model_rejects_non_finite_offset_weights(zipf_s):
    with pytest.raises(TaskError, match="zipf_s"):
        DraftNoiseModel(zipf_s=zipf_s)


@pytest.mark.parametrize("max_offset", [0, -1, simenv.MAX_OFFSET + 1, 10**12, 2**63])
def test_noise_model_refuses_offsets_outside_the_bound(max_offset):
    with pytest.raises(TaskError, match="max_offset"):
        DraftNoiseModel(max_offset=max_offset)


# --- statistics of the noise stream -------------------------------------------
#
# One call draws STAT_ROWS rows (7 cells each) per stream key. The bounds were
# set before the tests first ran: every z score, and every lag-1 correlation
# times sqrt(pairs), within 4; the offset chi-square's p-value at least 1e-4.

STAT_ROWS = 100_000
STAT_KEYS = [(0, 3), ((1 << 31) - 1, (1 << 32) + 5)]  # (noise seed, task seed)


@pytest.fixture(scope="module", params=STAT_KEYS, ids=["seed0", "masked"])
def stat_rows(request):
    noise_seed, task_seed = request.param
    noise = DraftNoiseModel(seed=noise_seed)
    return noise, task_seed, noise_rows(noise, task_seed, 0, STAT_ROWS)


def _z(hits, n, p):
    return (hits - n * p) / math.sqrt(n * p * (1 - p))


def test_noise_error_rate_matches_q_err(stat_rows):
    noise, _, (errs, _) = stat_rows
    assert abs(_z(int(errs.sum()), errs.size, noise.q_err)) <= 4


def test_noise_offset_pmf_matches_the_model(stat_rows):
    noise, _, (_, offsets) = stat_rows
    counts = np.bincount(np.abs(offsets).ravel(), minlength=noise.max_offset + 1)
    assert counts[0] == 0 and len(counts) == noise.max_offset + 1
    assert chisquare(counts[1:], offsets.size * noise.offset_probs).pvalue >= 1e-4


def test_noise_sign_share_is_one_half(stat_rows):
    _, _, (_, offsets) = stat_rows
    assert abs(_z(int((offsets > 0).sum()), offsets.size, 0.5)) <= 4


@pytest.mark.parametrize("axis", [0, 1], ids=["steps", "positions"])
def test_noise_draws_are_uncorrelated_at_lag_one(stat_rows, axis):
    """The error flags, and the signed offsets, of neighbouring steps (at
    each position) and of neighbouring positions (within each step)."""
    _, _, (errs, offsets) = stat_rows
    for cells in (errs.astype(float), offsets.astype(float)):
        a = np.delete(cells, -1, axis=axis).ravel()
        b = np.delete(cells, 0, axis=axis).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) * math.sqrt(a.size) <= 4


@pytest.mark.parametrize("t0, t1", [(20, 50), (0, 0), (0, 7), (999, 1000), (12_345, STAT_ROWS)])
def test_noise_rows_of_a_span_equal_that_span_of_the_rows_from_zero(stat_rows, t0, t1):
    noise, task_seed, _ = stat_rows
    errs, offsets = noise_rows(noise, task_seed, t0, t1)
    from_zero = noise_rows(noise, task_seed, 0, t1)
    assert np.array_equal(errs, from_zero[0][t0:]) and np.array_equal(offsets, from_zero[1][t0:])


# --- work done once per step and per episode ----------------------------------


_ROW = CalibrationRow(
    tau=1.0, phi=0.7, r_max=15.0, r_min=5.0, kvar_ref=0.08, success_rate=0.0, avg_steps=0.0
)


def _decode(env, draft, mode):
    return run_episode(env, draft, RunConfig(), mode, _ROW)


def _episode(spec, mode):
    env = SimEnv(spec, suite="t")
    return _decode(env, NoisyDrafter(env, DraftNoiseModel(seed=9)), mode)


@pytest.mark.parametrize("mode", MODES)
def test_oracle_runs_at_most_once_per_env_step(mode, monkeypatch):
    """The closed loop tracks the plan inline, once per position, and the
    array pass tracks it as arrays, so no mode calls ``oracle_policy`` at
    all."""
    calls = []
    real = simenv.oracle_policy

    def counting(env):
        calls.append(env.t)
        return real(env)

    monkeypatch.setattr(simenv, "oracle_policy", counting)
    trace = _episode(make_task("pick_place", 5), mode)
    assert trace.steps > 0
    assert calls == []


@pytest.mark.parametrize("mode", MODES)
def test_plan_built_once_per_episode(mode, monkeypatch):
    fits = []
    real = simenv._clamped_spline

    def counting(*args):  # one spline fit per plan build
        fits.append(args)
        return real(*args)

    monkeypatch.setattr(simenv, "_clamped_spline", counting)
    build_plan.cache_clear()
    _episode(make_task("reach", 12), mode)
    assert len(fits) == 1
    # a warm cache serves the next episode of the same task ...
    _episode(make_task("reach", 12), mode)
    assert len(fits) == 1
    # ... and cache_clear leaves nothing for it to reuse
    build_plan.cache_clear()
    _episode(make_task("reach", 12), mode)
    assert len(fits) == 2


@pytest.mark.parametrize("mode", MODES)
def test_episode_builds_no_generator_and_looks_up_no_plan(mode, monkeypatch):
    """Once the env and drafter exist, an episode seeds no generator (the
    drafter holds its noise rows) and fetches no plan (the oracle and the
    env step read the plan the env holds)."""
    spec = make_task("pick_place", 5)
    env = SimEnv(spec, suite="t")
    draft = NoisyDrafter(env, DraftNoiseModel(seed=9))
    generators, lookups = [], []
    real_rng, real_plan = np.random.default_rng, simenv.build_plan
    monkeypatch.setattr(
        np.random, "default_rng", lambda *a, **kw: generators.append(a) or real_rng(*a, **kw)
    )
    monkeypatch.setattr(simenv, "build_plan", lambda *a: lookups.append(a) or real_plan(*a))
    trace = _decode(env, draft, mode)
    assert trace.steps > 0
    assert generators == [] and lookups == []


def test_drafter_draws_rows_past_the_plan_only_for_steps_past_it(monkeypatch):
    spans = []
    real = simenv.noise_rows
    monkeypatch.setattr(simenv, "noise_rows", lambda *a: spans.append(a[2:]) or real(*a))
    spec = make_task("reach", 12)
    steps = build_plan(spec, DEFAULT_KEY).steps
    # strict decoding tracks the plan and reaches the goal on its last step
    trace = _episode(spec, "naive")
    assert trace.success and trace.steps == steps
    assert spans == [(0, steps)]

    spans.clear()
    env = SimEnv(spec)
    draft = NoisyDrafter(env, DraftNoiseModel(seed=9))
    max_steps = env.plan.max_steps
    for t in (steps - 1, steps, max_steps - 1):
        env.pose, env.t = tuple(env.plan.poses[min(t, steps)].tolist()), t
        draft.draft()
    assert spans == [(0, steps), (steps, max_steps)]


def test_make_task_builds_no_plan_and_an_episode_builds_one():
    """The plan is built from the task, not by it: drawing a task leaves
    the plan cache empty, and an episode of it builds the plan once."""
    build_plan.cache_clear()
    make_task("pick_place", 5)
    assert build_plan.cache_info().currsize == 0
    suite = SuiteConfig("t", "pick_place", trials=1, seed_base=5)
    run_one_episode(RunConfig(suites=(suite,)), suite, "naive", 0, None)
    info = build_plan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)


@pytest.mark.parametrize("mode", ["naive", "fixed_relaxed", "run_suite"])
def test_naive_episode_corrupts_no_row_and_drafts_nothing(mode, monkeypatch):
    """Every mode makes each truth and draft token in the array pass or
    inline in the closed loop, so no episode calls a per-oracle layer,
    ``decode_slice_sd`` included, and neither does a suite run in all three
    modes (``run_suite``): the layers serve only the reference."""
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    for owner, name in [
        (simenv, "oracle_policy"),
        (NoisyDrafter, "draft"),
        (PlanVerifier, "verify"),
        (SimEnv, "step"),
        (specdec, "relaxed_accept"),
        (specdec, "decode_slice_sd"),
        (specdec, "decode_slice"),
        (codec, "decode_slice"),
    ]:
        spy(owner, name)
    suite = SuiteConfig("t", "pick_place", trials=1, seed_base=5)
    cfg = RunConfig(suites=(suite,))
    if mode == "run_suite":
        _, traces = run_suite(cfg, table=CalibrationTable({("t", cfg.robot): _ROW}))
        assert sorted(m for _, m in traces) == sorted(MODES)
    else:
        assert run_one_episode(cfg, suite, mode, 0, None).steps > 0
    assert calls == []


@pytest.mark.parametrize("mode", MODES)
def test_only_the_closed_loop_makes_the_pose_rows(mode):
    """The closed loop reads the plan's poses as float rows made once per
    episode; an episode that ends inside the array pass never makes them.
    Pick-and-place seed 5 ends on plan step 166 under naive and
    ``fixed_relaxed``, so only kerv, which runs the loop alone, makes them."""
    env = SimEnv(make_task("pick_place", 5), suite="t")
    trace = run_episode(env, NoisyDrafter(env, DraftNoiseModel(seed=9)), RunConfig(), mode, _ROW)
    if mode == "kerv":
        assert vars(env)["pose_rows"] == env.plan.poses.tolist()
    else:
        assert trace.steps == env.plan.steps == 166
        assert "pose_rows" not in vars(env)


def test_arrive_steps_takes_the_steps_arrive_takes_one_by_one():
    """A run of steps inside the plan, taken at once, leaves the env as
    ``arrive`` leaves it one step at a time: the deviation folded in step
    order, bit for bit, and the termination checked on the last step; a run
    that would end past the plan, or an empty one, is refused."""
    spec = make_task("reach", 12)
    one_by_one, at_once = SimEnv(spec), SimEnv(spec)
    poses = [tuple(row) for row in one_by_one.plan.poses.tolist()]
    steps = one_by_one.plan.steps
    gaps = np.random.default_rng(3).random(steps).tolist()
    for pose, gap in zip(poses[1:], gaps):
        one_by_one.arrive(pose, gap)
    at_once.arrive_steps(poses[steps], gaps)

    def state(env):
        return env.t, env.pose, env.deviation.hex(), env.done, env.succeeded

    assert state(at_once) == state(one_by_one)
    assert at_once.done and not at_once.succeeded  # the gaps overrun the budget

    fresh = SimEnv(spec)
    for gaps in ([0.0] * (steps + 1), []):
        with pytest.raises(EnvStateError, match="inside the"):
            fresh.arrive_steps(poses[-1], gaps)
    assert fresh.t == 0
