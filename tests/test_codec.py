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
    NormKey,
    action_to_token,
    decode_slice,
    gripper_tokens,
    snap_gripper_token,
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
    actions = decode_slice((128,) * 7, key)
    assert all(v == pytest.approx(2.0 / 512) for v in actions)


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
        decode_slice((1, 2, 3))


def test_norm_key_validation():
    with pytest.raises(CodecError):
        NormKey(lo=(1.0,) * 7, hi=(0.0,) * 7)
    with pytest.raises(CodecError):
        NormKey(vocab_size=1)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (-1e308, 1e308),  # each end finite, the width is not
        (-math.inf, 1.0),
        (0.0, math.nan),
        (-5e307, 5e307),  # the width is finite, (hi - lo) * vocab is not
    ],
)
def test_norm_key_refuses_a_range_too_wide_for_floats(lo, hi):
    with pytest.raises(CodecError, match="^dof3 range must be finite"):
        NormKey(lo=(-1.0,) * 3 + (lo,) + (-1.0,) * 3, hi=(1.0,) * 3 + (hi,) + (1.0,) * 3)


def test_widest_norm_key_decodes_finite_values():
    top = math.floor(1.7e308 / 256)
    key = NormKey(lo=(-top / 2,) * 7, hi=(top / 2,) * 7)
    for tok in (0, 1, 127, 128, 254, 255):
        assert all(math.isfinite(v) for v in decode_slice((tok,) * 7, key))


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


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(PLAN_KEYS), data=st.data())
def test_decode_slice_equals_token_to_action_per_dof(key, data):
    """The inlined decoder against ``token_to_action`` per DoF, bit for bit,
    with the end and middle bins drawn often."""
    top = key.vocab_size - 1
    tok = st.one_of(st.sampled_from([0, 1, top - 1, top, top // 2, (top + 1) // 2]), st.integers(0, top))
    ids = data.draw(st.lists(tok, min_size=7, max_size=7))
    got = decode_slice(ids, key)
    assert [v.hex() for v in got] == [v.hex() for v in reference_decode_slice(ids, key)]


@pytest.mark.parametrize("dof", range(7))
def test_decode_slice_refuses_a_token_past_the_vocabulary_as_token_to_action(dof):
    key = NormKey(vocab_size=16)
    ids = [3] * 7
    ids[dof] = 16
    with pytest.raises(CodecError) as expected:
        reference_decode_slice(ids, key)
    with pytest.raises(CodecError) as got:
        decode_slice(ids, key)
    assert str(got.value) == str(expected.value) == f"token id 16 outside [0, 15] for dof{dof}"


def _with_dof2(value):
    return (0, 1, value, 3, 4, 5, 6)


@pytest.mark.parametrize(
    "ids, message",
    [
        (_with_dof2(value), f"token id must be an int, got {value!r} for dof2")
        for value in (True, np.int64(3), 3.0, "3")
    ]
    + [
        (_with_dof2(-1), "token id -1 outside [0, 255] for dof2"),
        (_with_dof2(256), "token id 256 outside [0, 255] for dof2"),
        ((1,) * 6, "token slice needs 7 ids, got 6"),
        ((1,) * 8, "token slice needs 7 ids, got 8"),
    ],
)
def test_decode_slice_refuses_anything_but_seven_ints_in_the_vocabulary(ids, message):
    # one rule for every token id, as specdec.decode_slice_sd applies to
    # oracle tokens: bools, numpy ints and integral floats are refused too
    with pytest.raises(CodecError) as got:
        decode_slice(ids)
    assert str(got.value) == message


@pytest.mark.parametrize("ids", [(1, 2, 3), (1,) * 8, ()])
def test_token_slice_length_message_is_unchanged(ids):
    with pytest.raises(CodecError, match=f"^token slice needs 7 ids, got {len(ids)}$"):
        decode_slice(ids)
