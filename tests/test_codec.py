"""Token/action codec: bin-center mapping, roundtrips, norm-key parsing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerv.codec import (
    DEFAULT_KEY,
    GRIPPER_DOF,
    CodecError,
    ActionSlice,
    NormKey,
    TokenSlice,
    action_to_token,
    decode_slice,
    encode_slice,
    gripper_tokens,
    snap_gripper_token,
    token_distance,
    token_to_action,
)


def test_bin_center_value():
    # center of bin 128 on a 256-bin grid over [-1, 1]: -1 + 2 * 128.5 / 256
    key = NormKey()
    assert token_to_action(128, 0, key) == 0.00390625


def test_two_bin_symmetry():
    key = NormKey(vocab_size=2)
    assert token_to_action(0, 0, key) == -0.5
    assert token_to_action(1, 0, key) == 0.5


def test_extreme_bins():
    key = NormKey()
    half_bin = 2.0 / (2 * 256)
    assert token_to_action(0, 3, key) == pytest.approx(-1.0 + half_bin)
    assert token_to_action(255, 3, key) == pytest.approx(1.0 - half_bin)


def test_decode_slice_midpoint_bins():
    key = NormKey()
    actions = decode_slice(TokenSlice((128,) * 7), key)
    assert all(v == pytest.approx(2.0 / 512) for v in actions.values)


def test_roundtrip_all_tokens():
    key = NormKey()
    for dof in range(7):
        for tok in range(256):
            assert action_to_token(token_to_action(tok, dof, key), dof, key) == tok


def test_encode_clamps_out_of_range():
    key = NormKey()
    assert action_to_token(-5.0, 0, key) == 0
    assert action_to_token(5.0, 0, key) == 255


def test_encode_inverse_of_bin_center():
    assert action_to_token(0.00390625, 0, DEFAULT_KEY) == 128


def test_token_distance_values():
    assert token_distance(149, 151) == 2
    assert token_distance(183, 128) == 55
    assert token_distance(42, 42) == 0


def test_token_to_action_domain_errors():
    key = NormKey(vocab_size=16)
    with pytest.raises(CodecError):
        token_to_action(16, 0, key)
    with pytest.raises(CodecError):
        token_to_action(-1, 0, key)
    with pytest.raises(CodecError):
        token_to_action(3, 7, key)


def test_action_to_token_rejects_non_finite():
    with pytest.raises(CodecError):
        action_to_token(float("nan"), 0)
    with pytest.raises(CodecError):
        action_to_token(float("inf"), 0)


def test_slice_length_enforced():
    with pytest.raises(CodecError):
        TokenSlice((1, 2, 3))
    with pytest.raises(CodecError):
        ActionSlice((0.0,) * 6)
    with pytest.raises(CodecError):
        ActionSlice((0.0,) * 6 + (float("nan"),))


def test_norm_key_validation():
    with pytest.raises(CodecError):
        NormKey(lo=(1.0,) * 7, hi=(0.0,) * 7)
    with pytest.raises(CodecError):
        NormKey(vocab_size=1)


def test_gripper_snap():
    key = NormKey()
    low, hold, high = gripper_tokens(key)
    assert (low, high) == (0, 255)
    assert hold == action_to_token(0.0, GRIPPER_DOF, key)
    assert snap_gripper_token(-0.99, key) == low
    assert snap_gripper_token(0.02, key) == hold
    assert snap_gripper_token(0.97, key) == high


@given(
    st.integers(min_value=2, max_value=512),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=1e-3, max_value=100, allow_nan=False),
)
def test_roundtrip_property(vocab, tok, lo, width):
    tok = tok % vocab
    key = NormKey(lo=(lo,) * 7, hi=(lo + width,) * 7, vocab_size=vocab)
    assert action_to_token(token_to_action(tok, 2, key), 2, key) == tok


@given(st.integers(min_value=2, max_value=300))
def test_monotonicity(vocab):
    key = NormKey(vocab_size=vocab)
    vals = [token_to_action(t, 1, key) for t in range(vocab)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@settings(max_examples=50)
@given(st.data())
def test_distance_is_metric(data):
    vocab = 12  # exhaustive triangle check on a small vocabulary
    a = data.draw(st.integers(0, vocab - 1))
    b = data.draw(st.integers(0, vocab - 1))
    assert token_distance(a, b) == token_distance(b, a)
    assert (token_distance(a, b) == 0) == (a == b)
    for c in range(vocab):
        assert token_distance(a, b) <= token_distance(a, c) + token_distance(c, b)


def test_encode_slice_matches_per_dof():
    key = NormKey()
    vals = (0.1, -0.2, 0.3, 0.0, -0.9, 0.99, -1.0)
    tokens = encode_slice(vals, key)
    for dof, v in enumerate(vals):
        assert tokens.ids[dof] == action_to_token(v, dof, key)
