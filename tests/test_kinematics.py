"""Filter bank: cache bounds, oracle equivalence, running variability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerv.codec import ActionSlice, CodecError
from kerv.kinematics import (
    KfBank,
    KfParams,
    KinematicsError,
    NoContextError,
    accumulate_kvar,
)
from oracles import matrix_kf_predict, reference_kf_replay


def slice_of(value):
    return ActionSlice((value,) * 7)


def test_params_validated():
    with pytest.raises(KinematicsError):
        KfParams(process_noise=0.0)
    with pytest.raises(KinematicsError):
        KfParams(dt=-1.0)


def test_cache_eviction_oldest_first():
    with pytest.raises(KinematicsError):
        KfBank(ac=0)
    bank = KfBank(ac=3)
    for v in (1.0, 2.0, 3.0, 4.0):
        bank.push_slice(slice_of(v))
    assert [row[0] for row in bank.window] == [2.0, 3.0, 4.0]
    assert len(bank.window) == 3


def test_cache_rejects_non_finite():
    # every push is an ActionSlice, which refuses non-finite values, so
    # none can reach the window
    bank = KfBank(ac=3)
    bank.push_slice(slice_of(0.5))
    with pytest.raises(CodecError):
        bank.push_slice(slice_of(float("nan")))
    assert list(bank.window) == [(0.5,) * 7]


def test_first_push_initializes_at_observation():
    bank = KfBank()
    bank.push_slice(slice_of(0.37))
    for dof in range(7):
        pos, vel = bank.state(dof)
        assert pos == 0.37
        assert vel == 0.0


def test_constant_input_is_fixed_point():
    bank = KfBank()
    for _ in range(10):
        bank.push_slice(slice_of(0.25))
    pred = bank.predict(1)[0]
    assert all(v == pytest.approx(0.25, abs=1e-12) for v in pred.values)
    for dof in range(7):
        assert abs(bank.state(dof)[1]) < 1e-3


def test_cache_bounded_at_capacity():
    bank = KfBank(ac=10)
    for i in range(11):
        bank.push_slice(slice_of(float(i)))
    assert len(bank.window) == 10


def test_predict_requires_context():
    with pytest.raises(NoContextError):
        KfBank().predict(1)


@pytest.mark.parametrize("dof", [-1, 7])
def test_reads_reject_a_dof_outside_the_slice(dof):
    bank = KfBank()
    bank.push_slice(slice_of(0.1))
    for read in (bank.state, bank.covariance):
        with pytest.raises(KinematicsError, match="dof"):
            read(dof)


def test_predict_does_not_mutate():
    bank = KfBank()
    for i in range(5):
        bank.push_slice(slice_of(0.1 * i))
    before = [bank.state(d) for d in range(7)]
    bank.predict(3)
    assert [bank.state(d) for d in range(7)] == before


def test_matches_matrix_oracle_on_ramp():
    params = KfParams()
    bank = KfBank(params)
    obs = [0.1 * t for t in range(8)]
    for z in obs:
        bank.push_slice(slice_of(z))
    expect = matrix_kf_predict(obs, params)
    got = bank.predict(1)[0].values[0]
    assert got == pytest.approx(expect, abs=1e-6)


def test_matches_matrix_oracle_random_sequences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = KfParams(
            process_noise=float(rng.uniform(1e-4, 1e-1)),
            measurement_noise=float(rng.uniform(1e-4, 1e-1)),
            initial_variance=float(rng.uniform(0.1, 5.0)),
        )
        n = int(rng.integers(2, 10))
        obs = list(rng.normal(0, 0.5, n))
        bank = KfBank(params, ac=16)
        for z in obs:
            bank.push_slice(slice_of(z))
        for horizon in (1, 2, 4):
            expect = matrix_kf_predict(obs, params, horizon)
            got = bank.predict(horizon)[horizon - 1].values[3]
            assert got == pytest.approx(expect, abs=1e-9)


def test_window_replay_uses_last_ac_observations():
    # once the cache evicts, state must reflect only the retained window
    params = KfParams()
    obs = [float(np.sin(0.3 * t)) for t in range(25)]
    bank = KfBank(params, ac=10)
    for z in obs:
        bank.push_slice(slice_of(z))
    expect = matrix_kf_predict(obs[-10:], params)
    assert bank.predict(1)[0].values[0] == pytest.approx(expect, abs=1e-9)


def test_deterministic_replay():
    def run():
        bank = KfBank(KfParams(), ac=10)
        rng = np.random.default_rng(3)
        for _ in range(30):
            bank.push_slice(ActionSlice(tuple(rng.uniform(-1, 1, 7))))
        return bank.predict(2)

    a, b = run(), run()
    assert [s.values for s in a] == [s.values for s in b]


def test_covariance_stays_psd():
    rng = np.random.default_rng(5)
    bank = KfBank(KfParams(), ac=10)
    for _ in range(40):
        bank.push_slice(ActionSlice(tuple(rng.uniform(-1, 1, 7))))
        for dof in range(7):
            p00, p01, p11 = bank.covariance(dof)
            assert p00 >= -1e-9
            assert p11 >= -1e-9
            assert p00 * p11 - p01 * p01 >= -1e-9


def test_accumulate_kvar():
    cum = accumulate_kvar(0.5, 0.2)
    assert cum == 0.5 + 0.2
    assert accumulate_kvar(cum, 0.0) == cum
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(KinematicsError):
            accumulate_kvar(cum, bad)


_finite = st.floats(-2.0, 2.0, allow_nan=False, width=64)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.tuples(*[_finite] * 7)),
        st.tuples(st.just("predict"), st.integers(1, 4)),
        st.tuples(st.just("state"), st.integers(0, 6)),
        st.tuples(st.just("covariance"), st.integers(0, 6)),
    ),
    max_size=60,
)


_PARAMS = KfParams(process_noise=2e-3, measurement_noise=5e-3)


def _read(bank, op, arg):
    out = getattr(bank, op)(arg)
    return [p.values for p in out] if op == "predict" else out


@given(ops=_ops, ac=st.sampled_from([1, 10, 40]))
@settings(max_examples=150, deadline=None)
def test_lazy_replay_equals_eager_replay_bit_for_bit(ops, ac):
    # a bank read between interleaved pushes equals a fresh bank fed only
    # the last ac pushes bit for bit; against the scalar replay of that
    # window, its covariance is equal bit for bit and its estimates are
    # within 1e-12 (the weight form sums in another order)
    bank = KfBank(_PARAMS, ac=ac)
    pushed = []
    for op, arg in ops:
        if op == "push":
            bank.push_slice(ActionSlice(arg))
            pushed.append(arg)
            continue
        if not pushed:
            with pytest.raises(NoContextError):
                getattr(bank, op)(arg)
            continue
        fresh = KfBank(_PARAMS, ac=ac)
        for values in pushed[-ac:]:
            fresh.push_slice(ActionSlice(values))
        got = _read(bank, op, arg)
        assert got == _read(fresh, op, arg)
        ref = [reference_kf_replay(tuple(v[d] for v in pushed[-ac:]), _PARAMS) for d in range(7)]
        if op == "covariance":
            assert got == ref[arg][2:]
        elif op == "state":
            assert np.allclose(got, ref[arg][:2], rtol=0, atol=1e-12)
        else:
            expect = [[p + k * _PARAMS.dt * v for p, v, *_ in ref] for k in range(1, arg + 1)]
            assert np.allclose(got, expect, rtol=0, atol=1e-12)
