"""Filter bank: cache bounds, oracle equivalence, running variability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerv.kinematics import (
    KfBank,
    KfParams,
    KinematicsError,
    NoContextError,
    _weights,
    accumulate_kvar,
)
from oracles import matrix_kf_predict, reference_kf_replay


def slice_of(value):
    return (value,) * 7


def estimates(bank):
    """Per-DoF [positions, velocities]: the cached weights over the window."""
    return (_weights(bank.params, len(bank.window))[0] @ np.array(bank.window)).tolist()


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


def test_first_push_initializes_at_observation():
    bank = KfBank()
    bank.push_slice(slice_of(0.37))
    pos, vel = estimates(bank)
    assert pos == [0.37] * 7
    assert vel == [0.0] * 7


def test_constant_input_is_fixed_point():
    bank = KfBank()
    for _ in range(10):
        bank.push_slice(slice_of(0.25))
    pred = bank.predict(1)
    assert all(v == pytest.approx(0.25, abs=1e-12) for v in pred)
    assert all(abs(v) < 1e-3 for v in estimates(bank)[1])


def test_cache_bounded_at_capacity():
    bank = KfBank(ac=10)
    for i in range(11):
        bank.push_slice(slice_of(float(i)))
    assert len(bank.window) == 10


def test_predict_requires_context():
    with pytest.raises(NoContextError):
        KfBank().predict(1)


def test_predict_does_not_mutate():
    bank = KfBank()
    for i in range(5):
        bank.push_slice(slice_of(0.1 * i))
    before = list(bank.window), estimates(bank)
    bank.predict(3)
    assert (list(bank.window), estimates(bank)) == before


def test_matches_matrix_oracle_on_ramp():
    params = KfParams()
    bank = KfBank(params)
    obs = [0.1 * t for t in range(8)]
    for z in obs:
        bank.push_slice(slice_of(z))
    expect = matrix_kf_predict(obs, params)
    got = bank.predict(1)[0]
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
        obs = rng.normal(0, 0.5, n).tolist()
        bank = KfBank(params, ac=16)
        for z in obs:
            bank.push_slice(slice_of(z))
        for horizon in (1, 2, 4):
            expect = matrix_kf_predict(obs, params, horizon)
            got = bank.predict(horizon)[3]
            assert got == pytest.approx(expect, abs=1e-9)


def test_window_replay_uses_last_ac_observations():
    # once the cache evicts, state must reflect only the retained window
    params = KfParams()
    obs = [float(np.sin(0.3 * t)) for t in range(25)]
    bank = KfBank(params, ac=10)
    for z in obs:
        bank.push_slice(slice_of(z))
    expect = matrix_kf_predict(obs[-10:], params)
    assert bank.predict(1)[0] == pytest.approx(expect, abs=1e-9)


def test_deterministic_replay():
    def run():
        bank = KfBank(KfParams(), ac=10)
        rng = np.random.default_rng(3)
        for _ in range(30):
            bank.push_slice(tuple(rng.uniform(-1, 1, 7).tolist()))
        return bank.predict(2)

    assert run() == run()


def test_covariance_stays_psd():
    # the covariance depends only on the window length, which runs 1 .. ac
    for n in range(1, 11):
        p00, p01, p11 = _weights(KfParams(), n)[1]
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
        st.tuples(st.just("estimate"), st.none()),
    ),
    max_size=60,
)


_PARAMS = KfParams(process_noise=2e-3, measurement_noise=5e-3)


@given(ops=_ops, ac=st.sampled_from([1, 10, 40]))
@settings(max_examples=150, deadline=None)
def test_lazy_replay_equals_eager_replay_bit_for_bit(ops, ac):
    # a bank read between interleaved pushes equals a fresh bank fed only
    # the last ac pushes bit for bit; against the scalar replay of that
    # window, the weights' covariance is equal bit for bit and the
    # estimates are within 1e-12 (the weight form sums in another order)
    bank = KfBank(_PARAMS, ac=ac)
    pushed = []
    for op, arg in ops:
        if op == "push":
            bank.push_slice(arg)
            pushed.append(arg)
            continue
        if not pushed:
            if op == "predict":
                with pytest.raises(NoContextError):
                    bank.predict(arg)
            continue
        fresh = KfBank(_PARAMS, ac=ac)
        for values in pushed[-ac:]:
            fresh.push_slice(values)
        assert bank.window == fresh.window
        ref = [reference_kf_replay(tuple(v[d] for v in pushed[-ac:]), _PARAMS) for d in range(7)]
        if op == "estimate":
            assert _weights(_PARAMS, len(bank.window))[1] == ref[0][2:]
            expect = [[p for p, *_ in ref], [v for _, v, *_ in ref]]
            assert np.allclose(estimates(bank), expect, rtol=0, atol=1e-12)
        else:
            got = bank.predict(arg)
            assert got == fresh.predict(arg)
            expect = [p + arg * _PARAMS.dt * v for p, v, *_ in ref]
            assert np.allclose(got, expect, rtol=0, atol=1e-12)
