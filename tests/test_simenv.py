"""Synthetic tasks: plan consistency, oracles, noise model, termination."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerv import simenv
from kerv.codec import CodecError, NormKey, action_to_token, decode_slice
from kerv.simenv import (
    DEFAULT_TOLERANCE,
    DraftNoiseModel,
    EnvState,
    EnvStateError,
    NoisyDrafter,
    PlanVerifier,
    SimEnv,
    TaskError,
    build_plan,
    make_task,
    noise_rows,
    oracle_policy,
    step,
)
from kerv.config import RunConfig
from kerv.specdec import MODES, run_episode
from kerv.threshold import ThresholdState

from oracles import PLAN_KEYS, reference_draft_ids, reference_plan, reference_track


def test_make_task_deterministic():
    a = make_task("pick_place", 7)
    b = make_task("pick_place", 7)
    assert a == b
    c = make_task("pick_place", 8)
    assert c != a


def test_unknown_kind_rejected():
    with pytest.raises(TaskError):
        make_task("fly", 0)


def test_plan_replay_succeeds_with_zero_deviation():
    for kind in ("reach", "pick_place", "long_horizon"):
        spec = make_task(kind, 3)
        env = SimEnv(spec)
        plan = env.plan
        for t in range(plan.steps):
            env.step(plan.actions[t].tolist())
        assert env.state.done
        assert env.state.succeeded
        assert env.state.deviation == 0.0
        assert env.state.t == plan.steps


@pytest.mark.parametrize("grip_range", [(-1.0, 1.0), (0.6, 2.0)])
def test_plan_replay_reproduces_every_pose(grip_range):
    # with (0.6, 2.0) every gripper token decodes above the flip level
    key = NormKey(lo=(-1.0,) * 6 + (grip_range[0],), hi=(1.0,) * 6 + (grip_range[1],))
    env = SimEnv(make_task("pick_place", 3, key), key)
    plan = env.plan
    for t in range(plan.steps):
        env.step(decode_slice(plan.tokens[t].tolist(), key))
        assert env.state.pose == tuple(plan.poses[t + 1])


def test_zero_actions_fail_at_max_steps():
    spec = make_task("reach", 5)
    env = SimEnv(spec)
    still = (0.0,) * 7
    while not env.state.done:
        env.step(still)
    assert env.state.t == spec.max_steps
    assert not env.state.succeeded


def test_goal_is_plan_endpoint():
    spec = make_task("reach", 9)
    plan = build_plan(spec)
    assert np.allclose(plan.poses[-1, :3], spec.goal)
    assert np.linalg.norm(np.asarray(spec.goal) - plan.poses[0, :3]) > DEFAULT_TOLERANCE


def encode(values):
    return tuple(action_to_token(v, dof) for dof, v in enumerate(values))


def test_oracle_tracks_plan_tokens():
    env = SimEnv(make_task("pick_place", 2))
    for t in range(min(20, env.plan.steps)):
        tokens = oracle_policy(env.state, env.plan, env.key)
        assert tokens == tuple(env.plan.tokens[t].tolist())
        env.step(decode_slice(tokens))
    assert env.state.deviation == 0.0


def test_oracle_idempotent_under_codec_roundtrip():
    env = SimEnv(make_task("long_horizon", 4))
    for _ in range(25):
        tokens = oracle_policy(env.state, env.plan, env.key)
        actions = decode_slice(tokens)
        assert encode(actions) == tokens
        env.step(actions)


def test_oracle_at_goal_emits_zero_action_tokens():
    env = SimEnv(make_task("reach", 12))
    for t in range(env.plan.steps):
        env.step(env.plan.actions[t].tolist())
    # re-open the episode at the final pose to query the policy past the plan
    from dataclasses import replace

    state = replace(env.state, done=False)
    tokens = oracle_policy(state, env.plan, env.key)
    assert tokens == encode((0.0,) * 7)


def test_oracle_refuses_done_env():
    spec = make_task("reach", 1)
    env = SimEnv(spec)
    while not env.state.done:
        env.step(env.plan.actions[min(env.state.t, env.plan.steps - 1)].tolist())
    with pytest.raises(EnvStateError):
        oracle_policy(env.state, env.plan, env.key)
    with pytest.raises(EnvStateError):
        step(env.state, (0.0,) * 7, spec, env.plan)


def _drafts_along_plan(kind, task_seed, noise, n):
    """(step, truth ids, drafted ids) of the first ``n`` states of an
    episode that follows the oracle, drafted by a ``NoisyDrafter``."""
    env = SimEnv(make_task(kind, task_seed))
    draft = NoisyDrafter(env, noise)
    out = []
    while len(out) < n and not env.state.done:
        truth = env.truth()
        out.append((env.state.t, truth, draft.draft((), 7)))
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
    assert draft.draft((), 7) == draft.draft((), 7)
    assert draft.draft((1, 2, 3), 4) == draft.draft((), 7)[3:]


def test_draft_error_never_cancelled_by_clamping():
    # truths at the vocabulary edge must still yield a different token
    noise = DraftNoiseModel(q_err=1.0, seed=4)
    steps = _drafts_along_plan("pick_place", 2, noise, 40)
    assert len(steps) == 40
    for _, truth, drafted in steps:
        for d, t in zip(drafted, truth):
            assert d != t


def test_long_horizon_at_least_twice_reach_length():
    reach = [build_plan(make_task("reach", s)).steps for s in range(100)]
    long = [build_plan(make_task("long_horizon", s)).steps for s in range(100)]
    assert np.mean(long) >= 2 * np.mean(reach)


def test_gripper_toggles_in_pick_place():
    spec = make_task("pick_place", 6)
    plan = build_plan(spec)
    states = plan.poses[:, 6]
    flips = np.sum(states[1:] != states[:-1])
    assert flips == 2
    # toggle steps carry a full-swing impulse, holds stay near zero
    impulses = plan.actions[:, 6]
    assert np.sum(np.abs(impulses) > 0.5) == 2


def test_deviation_matches_brute_force_replay():
    spec = make_task("reach", 17)
    env = SimEnv(spec)
    plan = env.plan
    rng = np.random.default_rng(0)
    executed = []
    for t in range(plan.steps):
        a = plan.actions[t].copy()
        if rng.random() < 0.1:
            a[2] += 0.5  # corrupt one DoF
        executed.append(a)
        env.step(a.tolist())
        if env.state.done:
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
    assert env.state.deviation == pytest.approx(dev, abs=1e-12)


def test_env_is_pure_function_of_spec_and_actions():
    spec = make_task("pick_place", 33)
    seq = [build_plan(spec).actions[t].tolist() for t in range(10)]

    def run():
        env = SimEnv(spec)
        for a in seq:
            env.step(a)
        return env.state

    assert run() == run()


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
    spec = make_task(kind, seed, key)
    targets = simenv._targets(kind, seed, spec.waypoints)
    if jitter:
        targets = targets + np.random.default_rng(jitter_seed).normal(0.0, jitter, targets.shape)
        got = simenv._quantize(targets, key)
    else:
        plan = build_plan(spec, key)
        got = (plan.poses, plan.actions, plan.tokens)
    for array, expected in zip(got, reference_plan(targets.tolist(), key)):
        _assert_bitwise_equal(array, expected)


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
    assert got.tolist() == [simenv._track(t, p, key) for t, p in zip(targets, poses)]


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:  # CodecError is a ValueError
        return type(exc), str(exc)


def _edges(key, dof):
    """The DoF's bin edges from one past either clamp, each moved up to two
    floats either way."""
    def edge(k, ulps):
        x = key.lo[dof] + k * (key.hi[dof] - key.lo[dof]) / key.vocab_size
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x

    return st.builds(edge, st.integers(-1, key.vocab_size + 1), st.integers(-2, 2))


_SPECIAL_GAPS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e300, -1e300])


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(PLAN_KEYS), data=st.data())
def test_track_equals_the_checked_encoder_per_dof(key, data):
    """The inlined encoder against ``action_to_token`` per DoF: gaps on and
    next to bin edges, +/-0.0, and past both clamps; a pose of 0.0 keeps the
    drawn gap exact. Infinite gripper impulses are refused by both alike."""
    target, pose = [], []
    for dof in range(7):
        p = data.draw(st.one_of(st.sampled_from([0.0, -0.0]), _FLOATS, _GRIPPER_VALUES))
        g = data.draw(st.one_of(_edges(key, dof), _FLOATS, _SPECIAL_GAPS))
        if dof == 6 and data.draw(st.booleans()):
            g = 0.0  # the gripper holds: a zero impulse
        pose.append(p)
        target.append(g if p == 0.0 else p + g)
    got = _outcome(simenv._track, target, pose, key)
    assert got == _outcome(reference_track, target, pose, key)
    if isinstance(got, list):
        assert all(type(tok) is int for tok in got)


@pytest.mark.parametrize("dof", range(7))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_track_refuses_a_non_finite_value_as_the_encoder_does(dof, value):
    """A NaN gap, or a non-finite gripper impulse, raises the encoder's
    ``CodecError``; an infinite motion gap is clamped like any other."""
    key = NormKey()
    pose = [0.1] * 7
    target = [0.2] * 7
    target[dof] = value
    expected = _outcome(reference_track, target, pose, key)
    assert _outcome(simenv._track, target, pose, key) == expected
    if math.isnan(value) or dof == 6:
        assert expected == (CodecError, f"action value must be finite, got {value!r}")


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
            make_task(kind, seed)
            assert len(calls) == 2, (kind, seed)


def test_plan_arrays_are_read_only():
    """The plan cache hands the same arrays to every episode of a task."""
    plan = build_plan(make_task("reach", 4))
    for array in (plan.poses, plan.actions, plan.tokens):
        with pytest.raises(ValueError):
            array[0, 0] = 0


def test_plan_targets_must_be_finite():
    targets = np.zeros((3, 7))
    targets[2, 1] = math.nan
    with pytest.raises(CodecError, match="finite"):
        simenv._quantize(targets, NormKey())


# --- draft noise against the reference stream --------------------------------


@pytest.mark.parametrize(
    "noise",
    [
        DraftNoiseModel(seed=0),
        DraftNoiseModel(seed=9),
        DraftNoiseModel(seed=(1 << 31) + 77),  # masked to 31 bits
        DraftNoiseModel(q_err=0.0, seed=3),
        DraftNoiseModel(q_err=1.0, seed=4),
        DraftNoiseModel(q_err=1.0, max_offset=1, seed=5),
        DraftNoiseModel(q_err=0.7, max_offset=3, zipf_s=2.5, seed=6),
    ],
)
def test_draft_policy_matches_reference_stream(noise):
    vocab = NormKey().vocab_size
    for kind, task_seed in (("reach", 0), ("pick_place", 41), ("long_horizon", 1 << 31)):
        for t, truth, drafted in _drafts_along_plan(kind, task_seed, noise, 30):
            assert drafted == reference_draft_ids(truth, noise, task_seed, t, vocab)


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
                got = simenv._corrupt(truth, errs[0].tolist(), offsets[0].tolist(), vmax)
                assert got == reference_draft_ids(truth, noise, 11, t, key.vocab_size)


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
    for t in range(spec.max_steps):
        pose = tuple(float(x) for x in env.plan.poses[min(t, env.plan.steps)])
        env.state = EnvState(pose=pose, t=t, deviation=0.0, done=False, succeeded=False)
        expected = reference_draft_ids(env.truth(), noise, spec.seed, t, vocab)
        assert draft.draft((), 7) == expected, t


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
    # a mid-vocabulary truth is never clamped, so the reference's ids give
    # the offset of every erring position
    mid = (128,) * 7
    for row, t in enumerate(range(t0, t0 + steps)):
        expected = np.array(reference_draft_ids(mid, noise, task_seed, t, 256)) - 128
        assert np.where(errs[row], offsets[row], 0).tolist() == expected.tolist()
        assert (np.abs(offsets[row]) >= 1).all() and (np.abs(offsets[row]) <= max_offset).all()


def test_noise_rows_reject_steps_outside_uint32():
    noise = DraftNoiseModel(seed=1)
    for t0, t1 in ((-1, 2), (2**32, 2**32 + 1), (5, 3)):
        with pytest.raises(TaskError):
            noise_rows(noise, 7, t0, t1)
    errs, offsets = noise_rows(noise, 7, 2**32 - 1, 2**32)
    expected = np.array(reference_draft_ids((128,) * 7, noise, 7, 2**32 - 1, 256)) - 128
    assert np.where(errs[0], offsets[0], 0).tolist() == expected.tolist()


@pytest.mark.parametrize("zipf_s", [math.nan, -math.inf, math.inf, -1000.0])
def test_noise_model_rejects_non_finite_offset_weights(zipf_s):
    with pytest.raises(TaskError, match="zipf_s"):
        DraftNoiseModel(zipf_s=zipf_s)


# --- work done once per step and per episode ----------------------------------


def _episode(spec, mode):
    env = SimEnv(spec, suite="t")
    tstate = ThresholdState(kvar_ref=0.08, tau=1.0, phi=0.7) if mode == "kerv" else None
    draft = NoisyDrafter(env, DraftNoiseModel(seed=9))
    return run_episode(env, draft, PlanVerifier(env), RunConfig(), mode, tstate)


@pytest.mark.parametrize("mode", MODES)
def test_oracle_runs_at_most_once_per_env_step(mode, monkeypatch):
    calls = []
    real = simenv.oracle_policy

    def counting(state, plan, key):
        calls.append(state.t)
        return real(state, plan, key)

    monkeypatch.setattr(simenv, "oracle_policy", counting)
    trace = _episode(make_task("pick_place", 5), mode)
    assert trace.steps > 0
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) <= trace.steps


@pytest.mark.parametrize("mode", MODES)
def test_plan_built_once_per_episode(mode, monkeypatch):
    fits = []
    real = simenv.CubicSpline

    def counting(*args, **kwargs):  # one spline fit per plan build
        fits.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simenv, "CubicSpline", counting)
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
    drafter holds its noise rows) and fetches no plan (the env passes its
    own to the oracle and the env step)."""
    spec = make_task("pick_place", 5)
    env = SimEnv(spec, suite="t")
    draft = NoisyDrafter(env, DraftNoiseModel(seed=9))
    tstate = ThresholdState(kvar_ref=0.08, tau=1.0, phi=0.7) if mode == "kerv" else None
    generators, lookups = [], []
    real_rng, real_plan = np.random.default_rng, simenv.build_plan
    monkeypatch.setattr(
        np.random, "default_rng", lambda *a, **kw: generators.append(a) or real_rng(*a, **kw)
    )
    monkeypatch.setattr(simenv, "build_plan", lambda *a: lookups.append(a) or real_plan(*a))
    trace = run_episode(env, draft, PlanVerifier(env), RunConfig(), mode, tstate)
    assert trace.steps > 0
    assert generators == [] and lookups == []


def test_drafter_draws_rows_past_the_plan_only_for_steps_past_it(monkeypatch):
    spans = []
    real = simenv.noise_rows
    monkeypatch.setattr(simenv, "noise_rows", lambda *a: spans.append(a[2:]) or real(*a))
    spec = make_task("reach", 12)
    steps = build_plan(spec).steps
    # strict decoding tracks the plan and reaches the goal on its last step
    trace = _episode(spec, "naive")
    assert trace.success and trace.steps == steps
    assert spans == [(0, steps)]

    spans.clear()
    env = SimEnv(spec)
    draft = NoisyDrafter(env, DraftNoiseModel(seed=9))
    for t in (steps - 1, steps, spec.max_steps - 1):
        pose = tuple(env.plan.poses[min(t, steps)].tolist())
        env.state = EnvState(pose=pose, t=t, deviation=0.0, done=False, succeeded=False)
        draft.draft((), 7)
    assert spans == [(0, steps), (steps, spec.max_steps)]
