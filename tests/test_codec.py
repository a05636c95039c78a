"""Token/action codec: bin-center mapping, roundtrips, norm-key parsing."""

import math

import numpy as np
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
    gripper_tokens,
    snap_gripper_token,
    token_distance,
    token_to_action,
)

from oracles import PLAN_KEYS, reference_decode_slice


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


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(PLAN_KEYS), data=st.data())
def test_decode_slice_equals_token_to_action_per_dof(key, data):
    """The inlined decoder against ``token_to_action`` per DoF, bit for bit,
    with the end and middle bins drawn often."""
    top = key.vocab_size - 1
    tok = st.one_of(st.sampled_from([0, 1, top - 1, top, top // 2, (top + 1) // 2]), st.integers(0, top))
    ids = data.draw(st.lists(tok, min_size=7, max_size=7))
    got = decode_slice(TokenSlice(tuple(ids)), key).values
    assert [v.hex() for v in got] == [v.hex() for v in reference_decode_slice(ids, key)]


@pytest.mark.parametrize("dof", range(7))
def test_decode_slice_refuses_a_token_past_the_vocabulary_as_token_to_action(dof):
    key = NormKey(vocab_size=16)
    ids = [3] * 7
    ids[dof] = 16
    with pytest.raises(CodecError) as expected:
        reference_decode_slice(ids, key)
    with pytest.raises(CodecError) as got:
        decode_slice(TokenSlice(tuple(ids)), key)
    assert str(got.value) == str(expected.value) == f"token id 16 outside [0, 15] for dof{dof}"


# what the slices did with each input before their checks took a fast path
# for plain in-range values: the normalized slice, or the refusal message
@pytest.mark.parametrize(
    "value, expected",
    [
        (3, (0, 1, 3, 3, 4, 5, 6)),
        (3.0, (0, 1, 3, 3, 4, 5, 6)),
        (True, (0, 1, 1, 3, 4, 5, 6)),
        (np.int64(3), (0, 1, 3, 3, 4, 5, 6)),
        (3.5, "token id must be a non-negative integer, got 3.5"),
        ("3", "token id must be a non-negative integer, got '3'"),
        (-1, "token id must be a non-negative integer, got -1"),
        (math.nan, "token id must be an integer, got nan"),
    ],
)
def test_token_slice_outcomes_are_unchanged(value, expected):
    ids = [0, 1, value, 3, 4, 5, 6]
    for given_ids in (tuple(ids), ids):
        if isinstance(expected, str):
            with pytest.raises(CodecError) as got:
                TokenSlice(given_ids)
            assert str(got.value) == expected
        else:
            got = TokenSlice(given_ids).ids
            assert type(got) is tuple and got == expected
            assert all(type(tok) is int for tok in got)


@pytest.mark.parametrize("ids", [(1, 2, 3), (1,) * 8, ()])
def test_token_slice_length_message_is_unchanged(ids):
    with pytest.raises(CodecError, match=f"^token slice needs 7 ids, got {len(ids)}$"):
        TokenSlice(ids)


@pytest.mark.parametrize(
    "value, expected",
    [
        (1, (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        (np.float64(0.5), (0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)),
        (-0.0, (0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        (math.nan, "action value must be finite, got nan"),
        (math.inf, "action value must be finite, got inf"),
        (-math.inf, "action value must be finite, got -inf"),
    ],
)
def test_action_slice_outcomes_are_unchanged(value, expected):
    values = [0.0, value, 0.0, 0.0, 0.0, 0.0, 0.0]
    for given_values in (tuple(values), values):
        if isinstance(expected, str):
            with pytest.raises(CodecError) as got:
                ActionSlice(given_values)
            assert str(got.value) == expected
        else:
            got = ActionSlice(given_values).values
            assert type(got) is tuple
            assert [v.hex() for v in got] == [v.hex() for v in expected]
            assert all(type(v) is float for v in got)


@pytest.mark.parametrize("values", [(0.0,) * 6, (0.0,) * 8])
def test_action_slice_length_message_is_unchanged(values):
    with pytest.raises(CodecError, match=f"^action slice needs 7 values, got {len(values)}$"):
        ActionSlice(values)
