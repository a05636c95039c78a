"""Filter bank: cache bounds, oracle equivalence, variability metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerv.codec import ActionSlice
from kerv.kinematics import (
    DofCache,
    KfBank,
    KfParams,
    KinVar,
    KinematicsError,
    NoContextError,
    _replay,
    accumulate_kvar,
    kin_variability,
)


def matrix_kf_predict(observations, params, horizon=1):
    """Independent reference: textbook 2x2 matrix Kalman filter.

    First observation initializes [pos, 0]; the rest run predict/update.
    Returns the position extrapolated ``horizon`` steps past the last
    observation.
    """
    dt = params.dt
    F = np.array([[1.0, dt], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    Q = params.process_noise * np.array(
        [[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]]
    )
    R = np.array([[params.measurement_noise]])
    x = np.array([[observations[0]], [0.0]])
    P = np.eye(2) * params.initial_variance
    for z in observations[1:]:
        x = F @ x
        P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x = x + K @ (np.array([[z]]) - H @ x)
        P = (np.eye(2) - K @ H) @ P
    return float(x[0, 0] + horizon * dt * x[1, 0])


def slice_of(value):
    return ActionSlice((value,) * 7)


def test_params_validated():
    with pytest.raises(KinematicsError):
        KfParams(process_noise=0.0)
    with pytest.raises(KinematicsError):
        KfParams(dt=-1.0)


def test_cache_eviction_oldest_first():
    cache = DofCache(capacity=3)
    for v in (1.0, 2.0, 3.0, 4.0):
        cache.append(v)
    assert cache.values() == (2.0, 3.0, 4.0)
    assert len(cache) == 3


def test_cache_rejects_non_finite():
    with pytest.raises(KinematicsError):
        DofCache(3).append(float("nan"))


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
    assert all(len(c) == 10 for c in bank.caches)


def test_predict_requires_context():
    with pytest.raises(NoContextError):
        KfBank().predict(1)


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


def test_kin_variability_identity_and_arithmetic():
    a = ActionSlice((0.1, 0.2, 0.3, 0.0, 0.0, 0.0, -1.0))
    assert kin_variability(a, a) == 0.0
    b = ActionSlice((0.2, 0.2, 0.3, 0.1, 0.0, 0.0, -1.0))
    assert kin_variability(a, b) == pytest.approx(0.2)


@given(
    st.lists(st.floats(-10, 10), min_size=7, max_size=7),
    st.lists(st.floats(-10, 10), min_size=7, max_size=7),
)
@settings(max_examples=100)
def test_kin_variability_metric_properties(xs, ys):
    a, b = ActionSlice(tuple(xs)), ActionSlice(tuple(ys))
    v = kin_variability(a, b)
    assert v >= 0.0
    assert v == kin_variability(b, a)
    assert (v == 0.0) == (a.values == b.values)


def test_accumulate_kvar():
    kv = KinVar(per_step=0.1, cumulative=0.5)
    kv = accumulate_kvar(kv, 0.2)
    assert kv.per_step == 0.2
    assert kv.cumulative == pytest.approx(0.7)
    kv = accumulate_kvar(kv, 0.0)
    assert kv.cumulative == pytest.approx(0.7)
    with pytest.raises(KinematicsError):
        accumulate_kvar(kv, -0.1)


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


@given(ops=_ops, ac=st.sampled_from([1, 10, 40]))
@settings(max_examples=150, deadline=None)
def test_lazy_replay_equals_eager_replay_bit_for_bit(ops, ac):
    params = KfParams(process_noise=2e-3, measurement_noise=5e-3)
    bank = KfBank(params, ac=ac)
    pushed = []

    def eager(dof):
        return _replay(tuple(v[dof] for v in pushed[-ac:]), params)

    for op, arg in ops:
        if op == "push":
            bank.push_slice(ActionSlice(arg))
            pushed.append(arg)
            continue
        if not pushed:
            with pytest.raises(NoContextError):
                getattr(bank, op)(arg)
            continue
        if op == "predict":
            states = [eager(dof) for dof in range(7)]
            expect = [
                tuple(s.pos + k * params.dt * s.vel for s in states) for k in range(1, arg + 1)
            ]
            assert [p.values for p in bank.predict(arg)] == expect
        elif op == "state":
            s = eager(arg)
            assert bank.state(arg) == (s.pos, s.vel)
        else:
            s = eager(arg)
            assert bank.covariance(arg) == (s.p00, s.p01, s.p11)
