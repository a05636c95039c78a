"""Draft/verify engine: acceptance, compensation, cooldown, traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerv import specdec
from kerv.codec import NormKey, decode_slice, token_to_action
from kerv.config import RunConfig
from kerv.kinematics import KfBank, KfParams
from kerv.simenv import DraftNoiseModel, NoisyDrafter, PlanVerifier, SimEnv, make_task
from kerv.specdec import (
    EXACT,
    REJECTED,
    RELAXED,
    SRC_DRAFT,
    SRC_KF,
    SRC_VERIFY,
    MODES,
    EngineError,
    MissingContextError,
    accepted_error_kvar,
    decode_slice_sd,
    relaxed_accept,
    run_episode,
)
from kerv.threshold import ThresholdState
from kerv.trace import loads
from oracles import reference_accepted_error_kvar

KEY = NormKey()


class ScriptedOracle:
    """Draft or verify oracle backed by a fixed 7-token slice."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self.calls = 0

    def draft(self, prefix, depth):
        self.calls += 1
        return self.tokens[len(prefix) : len(prefix) + depth]

    def verify(self, prefix, drafted):
        self.calls += 1
        return self.tokens[len(prefix) : len(prefix) + len(drafted)]


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


def test_perfect_draft_needs_ceil_rounds():
    tokens = (10, 20, 30, 40, 50, 60, 70)
    for depth in (1, 2, 3, 4, 7):
        res = decode_slice_sd(
            ScriptedOracle(tokens),
            ScriptedOracle(tokens),
            r=0,
            depth=depth,
            compensation_enabled=False,
            bank=None,
            key=KEY,
        )
        assert res.tokens == tokens
        assert res.first_error_position == 7
        assert res.verify_calls == math.ceil(7 / depth)
        assert all(s == SRC_DRAFT for s in res.sources)
        assert not res.comp_fired


def test_first_round_rejection_triggers_compensation():
    # draft misses position 2 badly; accepted miss at position 1
    draft = ScriptedOracle((140, 149, 183, 0, 0, 0, 0))
    verify = ScriptedOracle((140, 151, 128, 5, 5, 5, 128))
    bank = primed_bank()
    res = decode_slice_sd(
        draft, verify, r=14, depth=4, compensation_enabled=True, bank=bank, key=KEY
    )
    assert res.comp_fired
    assert res.verify_calls == 1 and res.draft_calls == 1
    assert res.first_error_position == 2
    assert res.tokens[:3] == (140, 149, 128)  # corrected token at the miss
    assert res.sources[:3] == (SRC_DRAFT, SRC_DRAFT, SRC_VERIFY)
    assert all(s == SRC_KF for s in res.sources[3:])
    assert res.statuses == (EXACT, RELAXED, REJECTED, None, None, None, None)
    # filled positions tokenize the one-step filter prediction; the gripper
    # channel snaps to its three-level command instead
    pred = primed_bank().predict(1)
    for dof in range(3, 6):
        assert res.actions[dof] == pytest.approx(pred[dof], abs=2.0 / 256)
    assert res.tokens[6] in (0, 128, 255)


def test_second_round_rejection_resamples_instead_of_compensating():
    # round one (positions 0-3) is clean; the miss at position 4 lands in
    # round two, which must fall back to classic resampling
    draft = ScriptedOracle((10, 20, 30, 40, 200, 60, 70))
    verify = ScriptedOracle((10, 20, 30, 40, 50, 60, 70))
    res = decode_slice_sd(
        draft,
        verify,
        r=0,
        depth=4,
        compensation_enabled=True,
        bank=primed_bank(),
        key=KEY,
    )
    assert not res.comp_fired
    assert res.first_error_position == 4
    assert res.tokens == (10, 20, 30, 40, 50, 60, 70)
    assert res.sources[4] == SRC_VERIFY
    assert res.verify_calls == 3  # clean round, rejected round, resumed round


def test_resample_handles_multiple_rejections():
    draft = ScriptedOracle((1, 2, 3, 4, 5, 6, 7))
    verify = ScriptedOracle((100, 2, 120, 4, 140, 6, 160))
    res = decode_slice_sd(
        draft, verify, r=0, depth=4, compensation_enabled=False, bank=None, key=KEY
    )
    assert res.tokens == (100, 2, 120, 4, 140, 6, 160)
    assert res.first_error_position == 0
    assert res.sources.count(SRC_VERIFY) == 4
    assert not res.comp_fired


def test_rejection_at_last_position_never_compensates():
    draft = ScriptedOracle((10, 20, 30, 40, 50, 60, 200))
    verify = ScriptedOracle((10, 20, 30, 40, 50, 60, 70))
    res = decode_slice_sd(
        draft,
        verify,
        r=0,
        depth=7,
        compensation_enabled=True,
        bank=primed_bank(),
        key=KEY,
    )
    assert not res.comp_fired
    assert res.tokens[6] == 70
    assert res.sources[6] == SRC_VERIFY


def test_compensation_requires_context():
    draft = ScriptedOracle((1,) * 7)
    verify = ScriptedOracle((1,) * 7)
    with pytest.raises(MissingContextError):
        decode_slice_sd(
            draft, verify, r=0, depth=4, compensation_enabled=True, bank=KfBank(), key=KEY
        )


def test_parameter_validation():
    draft = ScriptedOracle((1,) * 7)
    verify = ScriptedOracle((1,) * 7)
    with pytest.raises(EngineError):
        decode_slice_sd(
            draft, verify, r=0, depth=0, compensation_enabled=False, bank=None, key=KEY
        )
    with pytest.raises(EngineError):
        decode_slice_sd(
            draft, verify, r=-1, depth=4, compensation_enabled=False, bank=None, key=KEY
        )


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
        decode_slice_sd(
            ScriptedOracle(draft_row),
            ScriptedOracle(verify_row),
            r=0,
            depth=4,
            compensation_enabled=False,
            bank=None,
            key=KEY,
        )
    assert str(err.value) == (
        f"{oracle} oracle returned {bad!r} at position {pos}; tokens must be ints in [0, 255]"
    )


def test_final_slice_pushed_into_bank():
    tokens = (10, 20, 30, 40, 50, 60, 70)
    bank = primed_bank()
    res = decode_slice_sd(
        ScriptedOracle(tokens),
        ScriptedOracle(tokens),
        r=0,
        depth=4,
        compensation_enabled=True,
        bank=bank,
        key=KEY,
    )
    assert bank.window[-1] == res.actions


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
    res = decode_slice_sd(
        ScriptedOracle(draft_toks),
        ScriptedOracle(true_toks),
        r=r,
        depth=depth,
        compensation_enabled=comp,
        bank=bank,
        key=KEY,
    )
    assert len(res.tokens) == 7
    assert len(res.actions) == 7
    assert len(res.sources) == 7
    assert set(res.sources) <= {SRC_DRAFT, SRC_VERIFY, SRC_KF}
    assert res.actions == decode_slice(res.tokens, KEY)
    if res.comp_fired:
        assert res.verify_calls == 1
    first = res.first_error_position
    if first < 7:
        assert all(s == SRC_DRAFT for s in res.sources[:first])
        assert res.sources[first] == SRC_VERIFY
    else:
        assert all(s == SRC_DRAFT for s in res.sources)
    # statuses are mutually exclusive and exhaustive, and a slot is empty
    # exactly where nothing was drafted
    for d, t, status in zip(res.draft_ids, res.true_ids, res.statuses):
        assert (status is None) == (d is None)
        if status is not None:
            dist = abs(d - t)
            expected = EXACT if dist == 0 else RELAXED if dist <= r else REJECTED
            assert status == expected


def test_accepted_error_kvar_counts_only_relaxed():
    draft = ScriptedOracle((140, 149, 183, 0, 0, 0, 0))
    verify = ScriptedOracle((140, 151, 128, 5, 5, 5, 128))
    res = decode_slice_sd(
        draft, verify, r=14, depth=4, compensation_enabled=True, bank=primed_bank(), key=KEY
    )
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
        ScriptedOracle([d for d, _ in pairs]),
        ScriptedOracle([min(max(d + off, 0), 255) for d, off in pairs]),
        r=r,
        depth=depth,
        compensation_enabled=comp,
        bank=primed_bank() if comp else None,
        key=key,
    )
    got = accepted_error_kvar(res, key)
    assert type(got) is float
    assert got.hex() == reference_accepted_error_kvar(res, key).hex()


def _episode(mode, seed=5, kind="pick_place", **cfg_kw):
    spec = make_task(kind, seed)
    env = SimEnv(spec, suite="t", trial=0)
    draft = NoisyDrafter(env, DraftNoiseModel(seed=9))
    verify = PlanVerifier(env)
    tstate = ThresholdState(kvar_ref=0.08, tau=1.0, phi=0.7) if mode == "kerv" else None
    return run_episode(env, draft, verify, RunConfig(**cfg_kw), mode, tstate)


def test_cooldown_blocks_compensation_for_n_slices():
    trace = _episode("kerv")
    blocked = 0
    for i, rec in enumerate(trace.slices):
        if rec.comp_fired:
            assert rec.cooldown_remaining == 4
            for follow in trace.slices[i + 1 : i + 5]:
                assert not follow.comp_fired
                assert SRC_KF not in follow.sources
                blocked += 1
    assert trace.comp_events > 0
    assert blocked > 0


def test_naive_mode_never_relaxes_or_compensates():
    trace = _episode("naive")
    for rec in trace.slices:
        assert rec.r == 0.0
        assert not rec.comp_fired
        assert SRC_KF not in rec.sources
        assert RELAXED not in [s for s in rec.statuses if s]
    assert trace.success


def test_fixed_mode_uses_static_threshold():
    trace = _episode("fixed_relaxed", fixed_r=9.0)
    assert all(rec.r == 9.0 for rec in trace.slices)
    assert not any(rec.comp_fired for rec in trace.slices)


def test_kerv_requires_threshold_state():
    spec = make_task("reach", 5)
    env = SimEnv(spec, suite="t", trial=0)
    draft, verify = NoisyDrafter(env, DraftNoiseModel(seed=9)), PlanVerifier(env)
    with pytest.raises(EngineError):
        run_episode(env, draft, verify, RunConfig(), "kerv")
    with pytest.raises(EngineError):
        run_episode(env, draft, verify, RunConfig(), "greedy")


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
