"""Draft/verify engine: acceptance, compensation, cooldown, traces."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerv import simenv, specdec, threshold
from kerv.codec import NormKey, decode_slice, token_to_action
from kerv.config import RunConfig, default_config
from kerv.kinematics import KfBank, KfParams, NoContextError
from kerv.simenv import (
    KINDS,
    DraftNoiseModel,
    NoisyDrafter,
    PlanVerifier,
    SimEnv,
    make_task,
    oracle_policy,
)
from kerv.specdec import (
    EXACT,
    REJECTED,
    RELAXED,
    EngineError,
    accepted_error_kvar,
    decode_slice_sd,
    relaxed_accept,
    run_episode,
)
from kerv.threshold import CalibrationRow
from kerv.trace import MODES, loads
from oracles import (
    reference_accepted_error_kvar,
    reference_adjust,
    reference_decode_slice_sd,
    reference_run_episode,
)

KEY = NormKey()


def primed_bank(values=(0.1,) * 7, n=5):
    bank = KfBank(KfParams(), ac=10)
    for _ in range(n):
        bank.push_slice(values)
    return bank


def test_relaxed_accept_trichotomy():
    assert relaxed_accept(140, 140, 0) == EXACT
    assert relaxed_accept(149, 151, 14) == RELAXED
    assert relaxed_accept(183, 128, 14) == REJECTED


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 30))
def test_relaxed_accept_exhaustive(draft, true, r):
    out = relaxed_accept(draft, true, r)
    dist = abs(draft - true)
    if dist == 0:
        assert out == EXACT
    elif dist <= r:
        assert out == RELAXED
    else:
        assert out == REJECTED


@given(st.integers(0, 255), st.integers(0, 255), st.floats(0, 300, allow_nan=False))
def test_a_float_threshold_accepts_what_its_floor_accepts(draft, true, r):
    assert relaxed_accept(draft, true, r) == relaxed_accept(draft, true, math.floor(r))


def test_perfect_draft_needs_ceil_rounds():
    tokens = (10, 20, 30, 40, 50, 60, 70)
    for depth in (1, 2, 3, 4, 7):
        res = decode_slice_sd(tokens, tokens, r=0, depth=depth, key=KEY)
        assert res.tokens == tokens
        assert res.first_error_pos == 7
        assert res.rounds == math.ceil(7 / depth)
        assert res.statuses == (EXACT,) * 7
        assert not res.comp_fired


def test_first_round_rejection_triggers_compensation():
    # draft misses position 2 badly; accepted miss at position 1
    draft = (140, 149, 183, 0, 0, 0, 0)
    verify = (140, 151, 128, 5, 5, 5, 128)
    bank = primed_bank()
    res = decode_slice_sd(draft, verify, r=14, depth=4, key=KEY, bank=bank)
    assert res.comp_fired
    assert res.rounds == 1
    assert res.first_error_pos == 2
    assert res.tokens[:3] == (140, 149, 128)  # corrected token at the miss
    # two drafts kept, the verifier's token at the miss, and the rest filled
    assert res.statuses == (EXACT, RELAXED, REJECTED, None, None, None, None)
    # filled positions tokenize the one-step filter prediction; the gripper
    # channel snaps to its three-level command instead
    pred = primed_bank().predict(1)
    actions = decode_slice(res.tokens, KEY)
    for dof in range(3, 6):
        assert actions[dof] == pytest.approx(pred[dof], abs=2.0 / 256)
    assert res.tokens[6] in (0, 128, 255)


def test_second_round_rejection_resamples_instead_of_compensating():
    # round one (positions 0-3) is clean; the miss at position 4 lands in
    # round two, which must fall back to classic resampling
    draft = (10, 20, 30, 40, 200, 60, 70)
    verify = (10, 20, 30, 40, 50, 60, 70)
    res = decode_slice_sd(draft, verify, r=0, depth=4, key=KEY, bank=primed_bank())
    assert not res.comp_fired
    assert res.first_error_pos == 4
    assert res.tokens == (10, 20, 30, 40, 50, 60, 70)
    assert res.statuses[4] == REJECTED
    assert res.rounds == 3  # clean round, rejected round, resumed round


def test_resample_handles_multiple_rejections():
    draft = (1, 2, 3, 4, 5, 6, 7)
    verify = (100, 2, 120, 4, 140, 6, 160)
    res = decode_slice_sd(draft, verify, r=0, depth=4, key=KEY)
    assert res.tokens == (100, 2, 120, 4, 140, 6, 160)
    assert res.first_error_pos == 0
    assert res.statuses.count(REJECTED) == 4
    assert not res.comp_fired


def test_rejection_at_last_position_never_compensates():
    draft = (10, 20, 30, 40, 50, 60, 200)
    verify = (10, 20, 30, 40, 50, 60, 70)
    res = decode_slice_sd(draft, verify, r=0, depth=7, key=KEY, bank=primed_bank())
    assert not res.comp_fired
    assert res.tokens[6] == 70
    assert res.statuses[6] == REJECTED


def test_an_empty_bank_fails_only_where_it_would_compensate():
    """An empty bank raises ``NoContextError`` on a first-round rejection;
    with nothing rejected it is never read."""
    with pytest.raises(NoContextError):
        decode_slice_sd(
            (1, 2, 3, 4, 5, 6, 7),
            (1, 90, 3, 4, 5, 6, 7),
            r=0,
            depth=4,
            key=KEY,
            bank=KfBank(),
        )
    tokens = (10, 20, 30, 40, 50, 60, 70)
    res = decode_slice_sd(tokens, tokens, r=0, depth=4, key=KEY, bank=KfBank())
    assert res.tokens == tokens
    assert res.statuses == (EXACT,) * 7
    assert not res.comp_fired


def test_parameter_validation():
    draft = (1,) * 7
    verify = (1,) * 7
    with pytest.raises(EngineError):
        decode_slice_sd(draft, verify, r=0, depth=0, key=KEY)
    for r in (-1, math.nan, math.inf):
        with pytest.raises(EngineError, match="acceptance threshold must be finite and >= 0"):
            decode_slice_sd(draft, verify, r=r, depth=4, key=KEY)


@pytest.mark.parametrize("oracle", ["draft", "verify"])
@pytest.mark.parametrize("bad", [999, -40, 7.5, True])
@pytest.mark.parametrize("pos", [1, 5])
def test_a_bad_oracle_token_is_refused_where_it_is_judged(oracle, bad, pos):
    """Each value is rejected against the other oracle's 50. A rejected
    draft token never reaches the slice's tokens, so only this check keeps
    it out of the trace's ids (``True`` would be written as JSON ``true``).
    The error names the oracle, the position and the value, in the first
    draft round (position 1) or a later one (position 5)."""
    good = [140, 141, 142, 143, 144, 145, 146]
    good[pos] = 50
    bad_row = list(good)
    bad_row[pos] = bad
    draft_row, verify_row = (bad_row, good) if oracle == "draft" else (good, bad_row)
    with pytest.raises(EngineError) as err:
        decode_slice_sd(draft_row, verify_row, r=0, depth=4, key=KEY)
    assert str(err.value) == (
        f"{oracle} oracle returned {bad!r} at position {pos}; tokens must be ints in [0, 255]"
    )


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(0, 255), min_size=7, max_size=7),
    st.lists(st.integers(0, 255), min_size=7, max_size=7),
    st.integers(0, 20),
    st.integers(1, 7),
    st.booleans(),
)
def test_slice_always_complete_and_attributed(draft_toks, true_toks, r, depth, comp):
    bank = primed_bank() if comp else None
    res = decode_slice_sd(draft_toks, true_toks, r=r, depth=depth, key=KEY, bank=bank)
    assert len(res.tokens) == 7
    assert len(res.statuses) == 7
    assert set(res.statuses) <= {EXACT, RELAXED, REJECTED, None}
    assert len(decode_slice(res.tokens, KEY)) == 7  # every token in the vocabulary
    if res.comp_fired:
        assert res.rounds == 1
    first = res.first_error_pos
    if first < 7:
        assert all(s in (EXACT, RELAXED) for s in res.statuses[:first])
        assert res.statuses[first] == REJECTED
    else:
        assert all(s in (EXACT, RELAXED) for s in res.statuses)
    # statuses are mutually exclusive and exhaustive, and a slot is empty
    # exactly where nothing was drafted
    for d, t, status in zip(res.draft_ids, res.true_ids, res.statuses):
        assert (status is None) == (d is None)
        if status is not None:
            dist = abs(d - t)
            expected = EXACT if dist == 0 else RELAXED if dist <= r else REJECTED
            assert status == expected


@pytest.mark.parametrize("oracle", ["draft", "verify"])
@pytest.mark.parametrize("n", [6, 8])
def test_a_row_of_the_wrong_length_is_refused(oracle, n):
    """A draft or truth row must hold one token per position."""
    good = (140, 141, 142, 143, 144, 145, 146)
    bad = (good * 2)[:n]
    draft_row, verify_row = (bad, good) if oracle == "draft" else (good, bad)
    with pytest.raises(EngineError) as err:
        decode_slice_sd(draft_row, verify_row, r=0, depth=4, key=KEY)
    assert str(err.value) == f"{oracle} oracle returned {n} tokens, wanted 7"


# keys of vocabularies 256, 16 (over +-0.02) and 2
SLICE_KEYS = (KEY, NormKey(lo=(-0.02,) * 7, hi=(0.02,) * 7, vocab_size=16), NormKey(vocab_size=2))


@st.composite
def _slice_rows(draw):
    """A key, a draft row and a truth row: each truth token the draft's
    offset by up to 25, clamped to the key's vocabulary."""
    key = draw(st.sampled_from(SLICE_KEYS))
    top = key.vocab_size - 1
    pairs = draw(
        st.lists(st.tuples(st.integers(0, top), st.integers(-25, 25)), min_size=7, max_size=7)
    )
    return key, [d for d, _ in pairs], [min(max(d + off, 0), top) for d, off in pairs]


@settings(max_examples=400, deadline=None)
@given(
    _slice_rows(),
    st.one_of(st.integers(0, 20), st.floats(0, 20, allow_nan=False)),
    st.integers(1, 7),
    st.booleans(),
)
def test_one_pass_decoder_matches_the_round_by_round_reference(rows, r, depth, comp):
    """Field for field, the one-pass decoder decides what the per-round
    loop decided; its actions are ``decode_slice`` of its tokens and its
    kvar ``accepted_error_kvar`` of the result, bit for bit, and each judged
    status is ``relaxed_accept``'s."""
    key, drafted, truths = rows
    bank = primed_bank() if comp else None
    res = decode_slice_sd(drafted, truths, r=r, depth=depth, key=key, bank=bank)
    ref = reference_decode_slice_sd(drafted, truths, r, depth, key, bank, 1)
    assert {name: getattr(res, name) for name in ref} == ref
    assert [a.hex() for a in res.actions] == [a.hex() for a in decode_slice(res.tokens, key)]
    assert res.kvar.hex() == accepted_error_kvar(res, key).hex()
    for d, t, status in zip(res.draft_ids, res.true_ids, res.statuses):
        if status is not None:
            assert status == relaxed_accept(d, t, r)


def test_accepted_error_kvar_counts_only_relaxed():
    draft = (140, 149, 183, 0, 0, 0, 0)
    verify = (140, 151, 128, 5, 5, 5, 128)
    res = decode_slice_sd(draft, verify, r=14, depth=4, key=KEY, bank=primed_bank())
    expected = abs(token_to_action(151, 1, KEY) - token_to_action(149, 1, KEY))
    assert accepted_error_kvar(res, KEY) == pytest.approx(expected)


# the default grid's bin centers are multiples of 2**-7, so their sums are
# exact in any order; these ranges are not
ODD_KEY = NormKey(
    lo=(-0.3, -1.7, -0.11, -2.9, -0.7, -3.1, -1.0), hi=(0.7, 1.3, 0.37, 2.3, 1.9, 0.1, 1.0)
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 255), st.integers(-30, 30)), min_size=7, max_size=7),
    st.integers(0, 30),
    st.integers(1, 7),
    st.booleans(),
    st.sampled_from([KEY, ODD_KEY]),
)
def test_accepted_error_kvar_matches_reference_bit_for_bit(pairs, r, depth, comp, key):
    res = decode_slice_sd(
        [d for d, _ in pairs],
        [min(max(d + off, 0), 255) for d, off in pairs],
        r=r,
        depth=depth,
        key=key,
        bank=primed_bank() if comp else None,
    )
    got = accepted_error_kvar(res, key)
    assert type(got) is float
    assert got.hex() == reference_accepted_error_kvar(res, key).hex()


ROW = CalibrationRow(
    tau=1.0, phi=0.7, r_max=15.0, r_min=5.0, kvar_ref=0.08, success_rate=0.0, avg_steps=0.0
)


# the noise of the episodes below
NOISE = DraftNoiseModel(seed=9)


def _episode(mode, seed=5, kind="pick_place", row=ROW, **cfg_kw):
    spec = make_task(kind, seed)
    env = SimEnv(spec, suite="t", trial=0)
    return run_episode(env, RunConfig(noise=NOISE, **cfg_kw), mode, row)


def test_cooldown_blocks_compensation_for_n_slices():
    trace = _episode("kerv")
    blocked = 0
    for i, rec in enumerate(trace.slices):
        if rec.comp_fired:
            assert rec.cooldown_remaining == 4
            for follow in trace.slices[i + 1 : i + 5]:
                assert not follow.comp_fired
                assert None not in follow.statuses
                blocked += 1
    assert trace.comp_events > 0
    assert blocked > 0


def test_naive_mode_never_relaxes_or_compensates():
    trace = _episode("naive")
    for rec in trace.slices:
        assert rec.r == 0.0
        assert not rec.comp_fired
        assert None not in rec.statuses
        assert RELAXED not in [s for s in rec.statuses if s]
    assert trace.success


def test_fixed_mode_uses_static_threshold():
    trace = _episode("fixed_relaxed", fixed_r=9.0)
    assert all(rec.r == 9.0 for rec in trace.slices)
    assert not any(rec.comp_fired for rec in trace.slices)


def test_kerv_requires_calibration_row():
    spec = make_task("reach", 5)
    env = SimEnv(spec, suite="t", trial=0)
    cfg = RunConfig(noise=NOISE)
    with pytest.raises(EngineError):
        run_episode(env, cfg, "kerv")
    with pytest.raises(EngineError):
        run_episode(env, cfg, "greedy")
    # naive decodes through the same engine, and reads no row
    assert run_episode(env, cfg, "naive").mode == "naive"


def _decode(env, mode):
    """The episode ``mode`` decodes; ``open-loop`` is a naive episode as
    ``run_one_episode`` starts it, with no calibration row, which its
    array pass decodes with no draft/verify round."""
    if mode == "open-loop":
        return run_episode(env, RunConfig(noise=NOISE), "naive")
    return run_episode(env, RunConfig(noise=NOISE), mode, ROW)


@pytest.mark.parametrize("mode", ["open-loop", *MODES])
def test_decoders_refuse_a_stepped_env(mode):
    """An env that has stepped would start the trace past step 0 under a
    summary that counts the earlier steps; every mode refuses it."""
    env = SimEnv(make_task("reach", 5), suite="t", trial=0)
    for _ in range(5):
        env.step(decode_slice(oracle_policy(env), KEY))
    with pytest.raises(EngineError, match="fresh.*step 5"):
        _decode(env, mode)
    assert env.t == 5


# r_max == r_min: a fixed threshold with compensation
EQUAL_BOUNDS_ROW = CalibrationRow(
    tau=1.0, phi=0.7, r_max=9.0, r_min=9.0, kvar_ref=0.08, success_rate=0.0, avg_steps=0.0
)


@pytest.mark.parametrize("row", [ROW, EQUAL_BOUNDS_ROW], ids=["adaptive", "equal_bounds"])
def test_recorded_r_walk_is_rebuilt_from_the_trace(row):
    """Each record holds the r its slice was decoded under: the row's r_max
    first, then the reference update over the kvar_step values recorded
    before it."""
    trace = loads(_episode("kerv", row=row).dumps())
    r, prev_kvar = row.r_max, 0.0
    for rec in trace.slices:
        assert rec.r.hex() == r.hex()
        r, prev_kvar = reference_adjust(row, r, prev_kvar, rec.kvar_step), rec.kvar_step
    seen = {rec.r for rec in trace.slices}
    if row.r_max == row.r_min:
        assert seen == {row.r_max}
    else:
        assert len(seen) > 1


@pytest.mark.parametrize("mode", MODES)
def test_adjust_runs_once_per_kerv_slice_and_never_in_other_modes(mode, monkeypatch):
    calls = []
    real = threshold.adjust
    monkeypatch.setattr(threshold, "adjust", lambda *a: calls.append(a) or real(*a))
    trace = _episode(mode)
    assert len(calls) == (len(trace.slices) if mode == "kerv" else 0)


def test_episode_trace_is_deterministic():
    a = _episode("kerv")
    b = _episode("kerv")
    assert a.dumps() == b.dumps()


def test_afep_recomputable_from_trace():
    trace = _episode("naive", seed=8)
    firsts = [r.first_error_pos for r in trace.slices if r.first_error_pos < 7]
    assert firsts, "expected at least one rejection under draft noise"
    afep_trace = sum(p + 1 for p in firsts) / len(firsts)
    # replay the acceptance decisions from recorded pairs
    replayed = []
    for rec in trace.slices:
        first = 7
        for pos in range(7):
            d, t = rec.draft_ids[pos], rec.true_ids[pos]
            if d is None or t is None:
                continue
            if abs(d - t) > math.floor(rec.r):
                first = pos
                break
        if first < 7:
            replayed.append(first + 1)
    assert sum(replayed) / len(replayed) == pytest.approx(afep_trace)


@pytest.mark.parametrize("mode", ["fixed_relaxed", "kerv"])
def test_kvar_rebuilt_exactly_from_the_saved_trace(mode):
    trace = loads(_episode(mode, seed=13).dumps())
    cum = 0.0
    assert any(rec.kvar_step > 0 for rec in trace.slices)
    for rec in trace.slices:
        assert accepted_error_kvar(rec, KEY) == rec.kvar_step
        cum += rec.kvar_step
        assert rec.kvar_cum == cum


def test_kvar_cum_matches_brute_force_sum():
    trace = _episode("kerv", seed=13)
    total = 0.0
    for rec in trace.slices:
        step_mass = 0.0
        for pos in range(7):
            d, t = rec.draft_ids[pos], rec.true_ids[pos]
            if d is None or t is None or rec.statuses[pos] != RELAXED:
                continue
            step_mass += abs(token_to_action(t, pos, KEY) - token_to_action(d, pos, KEY))
        assert rec.kvar_step == pytest.approx(step_mass, abs=1e-12)
        total += step_mass
    assert trace.slices[-1].kvar_cum == pytest.approx(total, abs=1e-9)


@pytest.mark.parametrize("mode", MODES)
def test_only_kerv_builds_a_filter_bank(mode, monkeypatch):
    banks = []

    def counting(*args, **kwargs):
        banks.append(KfBank(*args, **kwargs))
        return banks[-1]

    monkeypatch.setattr(specdec, "KfBank", counting)
    trace = _episode(mode)
    assert len(banks) == (1 if mode == "kerv" else 0)
    if mode == "kerv":
        assert trace.comp_events > 0
        assert len(banks[0].window) == min(trace.steps, banks[0].ac)


def test_bank_window_holds_the_last_executed_slices(monkeypatch):
    """Every kerv slice is pushed once, decoded from the tokens its record
    holds, in step order."""
    banks = []

    def keeping(*args, **kwargs):
        banks.append(KfBank(*args, **kwargs))
        return banks[-1]

    monkeypatch.setattr(specdec, "KfBank", keeping)
    trace = _episode("kerv")
    (bank,) = banks
    assert trace.steps > bank.ac and trace.comp_events > 0
    executed = [decode_slice(rec.tokens, KEY) for rec in trace.slices[-bank.ac :]]
    assert list(bank.window) == executed


# the default key, and keys at the clamp and mirror edges: two tokens, and
# 16 bins over +-0.02, where most plan steps clamp
STRICT_KEYS = {
    "vocab256": KEY,
    "vocab2": NormKey(vocab_size=2),
    "vocab16": NormKey(lo=(-0.02,) * 7, hi=(0.02,) * 7, vocab_size=16),
}
# (q_err, max_offset): no error, the default noise, and every position
# erring by one token or by offsets past every vocabulary above
STRICT_NOISES = list(itertools.product((0.0, 0.48, 1.0), (1, 60, 5000)))


def _first_different_line(text: str, ref: str) -> tuple[str, str] | None:
    """The first line where ``text`` and ``ref`` differ, as (text's, ref's),
    so a failure shows one record rather than a diff of two traces."""
    if text == ref:
        return None
    pairs = itertools.zip_longest(text.splitlines(), ref.splitlines(), fillvalue="<none>")
    return next(p for p in pairs if p[0] != p[1])


@pytest.mark.parametrize("key", STRICT_KEYS.values(), ids=STRICT_KEYS)
@pytest.mark.parametrize("depth", range(1, 8))
def test_strict_episode_writes_the_closed_loop_naive_trace(depth, key):
    """A naive episode writes, byte for byte, the trace that the
    per-oracle closed loop records in naive mode:
    every noise of ``STRICT_NOISES`` at each depth and key, cycling over
    every suite."""
    base = replace(default_config(1), depth=depth, key=key)
    for i, (q_err, max_offset) in enumerate(STRICT_NOISES):
        suite = base.suites[(depth + i) % len(base.suites)]
        spec = make_task(suite.kind, suite.seed_base + i)
        cfg = replace(base, noise=DraftNoiseModel(q_err=q_err, max_offset=max_offset, seed=depth))
        env = SimEnv(spec, key, suite=suite.name, trial=i)
        draft = NoisyDrafter(env, cfg.noise)
        outcomes = []
        ref = reference_run_episode(
            env, draft, PlanVerifier(env), cfg, "naive", outcomes=outcomes
        )
        env = SimEnv(spec, key, suite=suite.name, trial=i)
        got = run_episode(env, cfg, "naive")
        diff = _first_different_line(got.dumps(), ref.dumps())
        assert diff is None, (suite.name, q_err, max_offset, diff)
        assert got.success and got.steps == env.plan.steps
        _assert_derived_outcomes(got, outcomes)


def _assert_derived_outcomes(trace, outcomes):
    """What each record derives from its statuses, and its verify calls, are
    what ``reference_decode_slice_sd`` tracked while deciding the slice one
    round at a time, and the trace's compensation count is the count of its
    compensated slices."""
    got = [(rec.first_error_pos, rec.comp_fired, rec.verify_calls) for rec in trace.slices]
    assert got == outcomes
    assert trace.comp_events == sum(fired for _, fired, _ in outcomes)


def _final_state(env):
    return env.t, env.pose, env.deviation, env.done, env.succeeded


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["fixed_relaxed", "kerv"]),  # naive: the strict test above
    depth=st.integers(1, 7),
    key=st.sampled_from(list(STRICT_KEYS.values())),
    fixed_r=st.one_of(st.sampled_from([0.0, 300.0]), st.floats(0, 20)),
    comp_n=st.integers(0, 6),
    ac=st.integers(1, 12),
    pl=st.integers(1, 3),
    row=st.sampled_from([ROW, EQUAL_BOUNDS_ROW]),
    q_err=st.sampled_from([0.0, 0.48, 1.0]),
    max_offset=st.sampled_from([1, 60, 5000]),
    kind=st.sampled_from(KINDS),
    task_seed=st.integers(0, 40),
    past_plan=st.just(False),
)
# episodes that run past the plan, one per kind: every draft token off by
# up to 5000 bins, accepted at any distance or compensated at once
@example("fixed_relaxed", 4, KEY, 300.0, 4, 10, 1, ROW, 1.0, 5000, "reach", 3, True)
@example("kerv", 2, KEY, 0.0, 0, 3, 2, EQUAL_BOUNDS_ROW, 1.0, 5000, "pick_place", 7, True)
@example(
    "fixed_relaxed", 7, STRICT_KEYS["vocab16"], 300.0, 0, 1, 1, ROW, 1.0, 5000, "long_horizon", 1,
    True,
)
def test_closed_loop_matches_the_per_oracle_reference(
    mode, depth, key, fixed_r, comp_n, ac, pl, row, q_err, max_offset, kind, task_seed, past_plan
):
    """The fused step writes, byte for byte, the trace of the per-oracle
    loop (draft row, truth row, ``decode_slice_sd``, ``SimEnv.step``), and
    leaves the env in the same final state, in every mode, at every depth,
    on keys at the clamp and mirror edges, with thresholds of 0, fractions
    and past the vocabulary, and with compensation, window, horizon and
    noise settings spread over their ranges."""
    noise = DraftNoiseModel(q_err=q_err, max_offset=max_offset, seed=task_seed + 1)
    cfg = RunConfig(
        key=key, depth=depth, fixed_r=fixed_r, comp_n=comp_n, ac=ac, pl=pl, noise=noise
    )
    spec = make_task(kind, task_seed)
    ref_env = SimEnv(spec, key, suite="t", trial=task_seed)
    outcomes = []
    ref = reference_run_episode(
        ref_env, NoisyDrafter(ref_env, noise), PlanVerifier(ref_env), cfg, mode, row,
        outcomes=outcomes,
    )
    env = SimEnv(spec, key, suite="t", trial=task_seed)
    got = run_episode(env, cfg, mode, row)
    diff = _first_different_line(got.dumps(), ref.dumps())
    assert diff is None, diff
    assert _final_state(env) == _final_state(ref_env)
    _assert_derived_outcomes(got, outcomes)
    if past_plan:
        assert env.t > env.plan.steps


@pytest.mark.parametrize("mode", MODES)
def test_the_engine_takes_its_noise_and_robot_from_the_config(mode):
    """The engine draws its noise rows from ``cfg.noise`` and writes
    ``cfg.robot`` into the trace: at a robot and a noise seed off their
    defaults, it writes the trace of the per-oracle loop whose drafter
    holds ``cfg.noise``, and leaves the env in the same final state."""
    cfg = RunConfig(robot="arm2", noise=DraftNoiseModel(seed=31))
    spec = make_task("pick_place", 5)
    ref_env = SimEnv(spec, suite="t", trial=3)
    ref = reference_run_episode(
        ref_env, NoisyDrafter(ref_env, cfg.noise), PlanVerifier(ref_env), cfg, mode, ROW
    )
    env = SimEnv(spec, suite="t", trial=3)
    got = run_episode(env, cfg, mode, ROW)
    assert got.robot == ref.robot == cfg.robot
    assert _first_different_line(got.dumps(), ref.dumps()) is None
    assert _final_state(env) == _final_state(ref_env)
    # the default noise seed writes another trace, so the one above is cfg.noise's
    other = run_episode(SimEnv(spec, suite="t", trial=3), RunConfig(robot="arm2"), mode, ROW)
    assert other.dumps() != got.dumps()


def _narrow_key(vocab, half_widths):
    """A key of ``vocab`` bins over +-w for each DoF's half-width w."""
    return NormKey(
        lo=tuple(-w for w in half_widths), hi=tuple(half_widths), vocab_size=vocab
    )


@settings(max_examples=120, deadline=None)
@given(
    vocab=st.sampled_from([2, 3, 16, 256]),
    half_widths=st.lists(st.sampled_from([0.01, 0.05, 1.0]), min_size=6, max_size=6),
    gripper=st.sampled_from([1.0, 0.5]),  # 0.5: the gripper never latches
    depth=st.integers(1, 7),
    fixed_r=st.one_of(st.sampled_from([0.0, 128.0, 300.0]), st.floats(0, 20)),
    q_err=st.sampled_from([0.0, 0.48, 1.0]),
    max_offset=st.sampled_from([1, 60, 5000]),
    kind=st.sampled_from(KINDS),
    task_seed=st.integers(0, 40),
)
# a gripper draft 5000 bins off, accepted under r >= 128, flips the gripper
@example(256, [1.0] * 6, 1.0, 4, 200.0, 1.0, 5000, "pick_place", 3)
# 16 bins over +-0.02 on every DoF: the plan clamps, and the episode runs past it
@example(16, [0.02] * 6, 1.0, 7, 9.0, 0.48, 60, "reach", 4)
def test_array_pass_matches_the_per_oracle_reference(
    vocab, half_widths, gripper, depth, fixed_r, q_err, max_offset, kind, task_seed
):
    """A ``fixed_relaxed`` episode, whose plan steps the array pass decodes
    up to its first miss and the loop decodes from there, writes the trace
    of the per-oracle loop byte for byte and leaves the env in the same
    final state: on 2, 3, 16 and 256 bins, narrow motion ranges, a gripper
    that never latches, thresholds of 0, fractions and past the vocabulary,
    and drafts up to 5000 bins off."""
    key = _narrow_key(vocab, [*half_widths, gripper])
    noise = DraftNoiseModel(q_err=q_err, max_offset=max_offset, seed=task_seed + 1)
    cfg = RunConfig(key=key, depth=depth, fixed_r=fixed_r, noise=noise)
    spec = make_task(kind, task_seed)
    ref_env = SimEnv(spec, key, suite="t", trial=task_seed)
    outcomes = []
    ref = reference_run_episode(
        ref_env, NoisyDrafter(ref_env, noise), PlanVerifier(ref_env), cfg, "fixed_relaxed",
        outcomes=outcomes,
    )
    env = SimEnv(spec, key, suite="t", trial=task_seed)
    got = run_episode(env, cfg, "fixed_relaxed")
    diff = _first_different_line(got.dumps(), ref.dumps())
    assert diff is None, diff
    assert _final_state(env) == _final_state(ref_env)
    _assert_derived_outcomes(got, outcomes)


def test_array_pass_of_the_narrow_example_runs_past_the_plan():
    """The narrow example above is an episode that the loop carries past the plan."""
    key = _narrow_key(16, [0.02] * 6 + [1.0])
    env = SimEnv(make_task("reach", 4), key, suite="t", trial=4)
    noise = DraftNoiseModel(q_err=0.48, max_offset=60, seed=5)
    run_episode(env, RunConfig(key=key, depth=7, noise=noise), "fixed_relaxed")
    assert env.t > env.plan.steps


def _count_pass_and_row_draws(monkeypatch):
    """Spy on the array pass (how many records each call confirms) and on
    the engine's noise draws (the steps ``(t0, t1)`` of each)."""
    passes, draws = [], []
    real_pass, real_rows = specdec._plan_pass, specdec.noise_rows

    def counting_pass(*args):
        records, kvar_cum = real_pass(*args)
        passes.append(len(records))
        return records, kvar_cum

    def counting_rows(noise, task_seed, t0, t1):
        draws.append((t0, t1))
        return real_rows(noise, task_seed, t0, t1)

    monkeypatch.setattr(specdec, "_plan_pass", counting_pass)
    monkeypatch.setattr(specdec, "noise_rows", counting_rows)
    return passes, draws


def _row_draws(env, trace):
    """The noise draws of an episode: the plan's rows, and the rows of the
    later steps once, if the loop decodes a step past the plan."""
    steps = env.plan.steps
    return [(0, steps)] + ([(steps, env.plan.max_steps)] if trace.steps > steps else [])


@pytest.mark.parametrize("suite", default_config(1).suites, ids=lambda s: s.name)
def test_array_pass_confirms_every_plan_step_of_the_default_config(suite, monkeypatch):
    """On the default config, one pass confirms every plan step of a
    ``fixed_relaxed`` episode, and the loop decodes only the steps past the
    plan; a kerv episode runs the loop alone."""
    passes, draws = _count_pass_and_row_draws(monkeypatch)
    cfg = replace(default_config(1), fixed_r=15.0)
    for trial in range(6):
        passes.clear()
        draws.clear()
        seed = suite.seed_base + trial
        env = SimEnv(make_task(suite.kind, seed), suite=suite.name, trial=trial)
        trace = run_episode(env, cfg, "fixed_relaxed")
        assert passes == [env.plan.steps]
        assert len(trace.slices) == trace.steps and draws == _row_draws(env, trace)
    passes.clear()
    draws.clear()
    env = SimEnv(make_task(suite.kind, suite.seed_base), suite=suite.name)
    trace = run_episode(env, cfg, "kerv", ROW)
    assert passes == [] and draws == _row_draws(env, trace)


@pytest.mark.parametrize("key", STRICT_KEYS.values(), ids=STRICT_KEYS)
def test_plan_tokens_are_the_truths_and_naive_ends_in_the_pass(key, monkeypatch):
    """A plan's tokens are the verifier's truths along it, the gripper
    column included (on 16 bins over +-0.02 the gripper never latches, so
    its truth is the hold impulse, not the waypoint's state), and so the
    r = 0 pass confirms every plan step of a naive episode and the loop
    decodes none: 10 seeds of every kind."""
    passes, draws = _count_pass_and_row_draws(monkeypatch)
    cfg = RunConfig(key=key)
    for kind in KINDS:
        for seed in range(10):
            passes.clear()
            draws.clear()
            env = SimEnv(make_task(kind, seed), key, suite="t", trial=seed)
            poses = env.plan.poses
            truths = simenv._track_rows(poses[1:], poses[:-1], key)
            assert np.array_equal(env.plan.tokens, truths), (kind, seed)
            trace = run_episode(env, cfg, "naive")
            assert passes == [env.plan.steps] and trace.steps == env.plan.steps, (kind, seed)
            assert draws == [(0, env.plan.steps)], (kind, seed)


def test_a_guess_that_misses_inside_the_plan_gets_one_pass_then_the_loop(monkeypatch):
    """Drafts up to 5000 bins off on 3 bins over narrow ranges: the guess
    misses early in the plan, the loop decodes every step from the miss,
    and no second pass runs."""
    passes, draws = _count_pass_and_row_draws(monkeypatch)
    key = _narrow_key(3, [0.05] * 6 + [1.0])
    cfg = RunConfig(key=key, fixed_r=1.0, noise=DraftNoiseModel(max_offset=5000))
    env = SimEnv(make_task("pick_place", 5), key, suite="t")
    trace = run_episode(env, cfg, "fixed_relaxed")
    (confirmed,) = passes
    assert 0 < confirmed < env.plan.steps
    assert len(trace.slices) == trace.steps and draws == _row_draws(env, trace)


@pytest.mark.parametrize("depth", range(1, 8))
def test_round_counts_are_the_strict_table_rounds(depth):
    """The engine's rounds per rejection mask are those that the round by
    round reference decoder counts at r = 0 on a truth row of token 0 and a
    draft row holding token 1 at the mask's set bits."""
    table = [
        reference_decode_slice_sd(
            [(mask >> pos) & 1 for pos in range(7)], [0] * 7, 0.0, depth, KEY, None, 1
        )["rounds"]
        for mask in range(1 << 7)
    ]
    assert specdec._round_counts(depth) == tuple(table)
