"""Conversion between discrete action tokens and continuous 7-DoF actions.

A control step ("slice") covers seven degrees of freedom: end-effector
position X, Y, Z, rotation angles about the three axes, and a gripper
command. Each DoF is emitted as one token on a uniform bin grid whose
range is given by per-DoF normalization statistics (the norm key).
The mapping uses bin centers, so decoding a token and re-encoding the
value is exact.

Where values are checked: the norm key when the config is loaded
(``NormKey``); every token an oracle returns, where the decoder judges it
(``specdec.decode_slice_sd``: an ``int`` in ``[0, vocab)``); and every
``TokenSlice``/``ActionSlice`` when it is built, in one pass that accepts
plain in-range values as they are and falls back to the normalizing loop
for anything else. Token ids read back from a trace are range-checked by
``token_to_action`` when calibration or ``accepted_error_kvar`` decodes
them. The per-slice paths compute the codec's expressions inline on plain
ints and floats instead of calling the checked scalar functions:
``decode_slice`` (one range check per token, then ``token_to_action``'s
expression) and ``simenv._track`` (``action_to_token``'s expression on a
gap already clamped to the action range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

N_DOF = 7
GRIPPER_DOF = 6
DEFAULT_VOCAB_SIZE = 256


class CodecError(ValueError):
    """Raised for out-of-domain tokens, DoF indices, or action values."""


@dataclass(frozen=True)
class TokenSlice:
    """Seven token ids, one per DoF, in slice order (X, Y, Z, rx, ry, rz, G)."""

    ids: tuple[int, ...]

    def __post_init__(self) -> None:
        ids = self.ids
        if len(ids) != N_DOF:
            raise CodecError(f"token slice needs {N_DOF} ids, got {len(ids)}")
        for tok in ids:
            if type(tok) is not int or tok < 0:
                object.__setattr__(self, "ids", _normalized_ids(ids))
                return
        if type(ids) is not tuple:
            object.__setattr__(self, "ids", tuple(ids))


def _normalized_ids(ids) -> tuple[int, ...]:
    """Each id as an ``int``, refusing one that is not a non-negative
    integer (``3.0`` and ``np.int64(3)`` pass, ``3.5`` and ``"3"`` do not)."""
    norm = []
    for tok in ids:
        try:
            as_int = int(tok)
        except (TypeError, ValueError):
            raise CodecError(f"token id must be an integer, got {tok!r}") from None
        if as_int != tok or as_int < 0:
            raise CodecError(f"token id must be a non-negative integer, got {tok!r}")
        norm.append(as_int)
    return tuple(norm)


@dataclass(frozen=True)
class ActionSlice:
    """Seven continuous action values in normalized units, one per DoF."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = self.values
        if len(values) != N_DOF:
            raise CodecError(f"action slice needs {N_DOF} values, got {len(values)}")
        for v in values:
            if type(v) is not float or not math.isfinite(v):
                object.__setattr__(self, "values", _normalized_values(values))
                return
        if type(values) is not tuple:
            object.__setattr__(self, "values", tuple(values))


def _normalized_values(values) -> tuple[float, ...]:
    """Each value as a ``float``, refusing one that is not finite."""
    norm = []
    for v in values:
        f = float(v)
        if not math.isfinite(f):
            raise CodecError(f"action value must be finite, got {v!r}")
        norm.append(f)
    return tuple(norm)


@dataclass(frozen=True)
class NormKey:
    """Per-DoF action ranges plus the shared token vocabulary size.

    Each DoF's tokens index a uniform grid of ``vocab_size`` bins spanning
    ``[lo[dof], hi[dof]]``; token values are the bin centers.
    """

    lo: tuple[float, ...] = (-1.0,) * N_DOF
    hi: tuple[float, ...] = (1.0,) * N_DOF
    vocab_size: int = DEFAULT_VOCAB_SIZE

    def __post_init__(self) -> None:
        if len(self.lo) != N_DOF or len(self.hi) != N_DOF:
            raise CodecError("norm key needs lo/hi for all 7 DoF")
        if self.vocab_size < 2:
            raise CodecError(f"vocab_size must be >= 2, got {self.vocab_size}")
        for dof in range(N_DOF):
            if not (math.isfinite(self.lo[dof]) and math.isfinite(self.hi[dof])):
                raise CodecError(f"dof{dof} range must be finite")
            if self.lo[dof] >= self.hi[dof]:
                raise CodecError(f"dof{dof} range needs lo < hi")


DEFAULT_KEY = NormKey()


def _check_dof(dof: int) -> None:
    if not 0 <= dof < N_DOF:
        raise CodecError(f"dof index must be in [0, {N_DOF - 1}], got {dof}")


def token_to_action(token_id: int, dof: int, key: NormKey = DEFAULT_KEY) -> float:
    """Decode a token to the center of its bin on the DoF's uniform grid."""
    _check_dof(dof)
    if not 0 <= token_id < key.vocab_size:
        raise CodecError(
            f"token id {token_id} outside [0, {key.vocab_size - 1}] for dof{dof}"
        )
    lo, hi = key.lo[dof], key.hi[dof]
    return lo + (hi - lo) * (token_id + 0.5) / key.vocab_size


def action_to_token(value: float, dof: int, key: NormKey = DEFAULT_KEY) -> int:
    """Encode a value as the nearest bin index, clamped to the vocabulary.

    Exact inverse of :func:`token_to_action` on bin centers.
    """
    _check_dof(dof)
    if not math.isfinite(value):
        raise CodecError(f"action value must be finite, got {value!r}")
    lo, hi = key.lo[dof], key.hi[dof]
    idx = math.floor((value - lo) / (hi - lo) * key.vocab_size)
    return min(max(idx, 0), key.vocab_size - 1)


def decode_slice(tokens: TokenSlice, key: NormKey = DEFAULT_KEY) -> ActionSlice:
    """Decode all seven tokens of a slice to continuous actions, with
    ``token_to_action``'s range check and expression inline per DoF."""
    vocab = key.vocab_size
    values = []
    for dof, tok in enumerate(tokens.ids):
        if tok >= vocab:  # a TokenSlice holds non-negative ints
            raise CodecError(f"token id {tok} outside [0, {vocab - 1}] for dof{dof}")
        lo, hi = key.lo[dof], key.hi[dof]
        values.append(lo + (hi - lo) * (tok + 0.5) / vocab)
    return ActionSlice(tuple(values))


def token_distance(a: int, b: int) -> int:
    """Absolute difference between two token ids."""
    return abs(a - b)


def gripper_tokens(key: NormKey = DEFAULT_KEY) -> tuple[int, int, int]:
    """The three valid gripper command tokens: close (lo end), hold (zero
    action), open (hi end)."""
    return (0, action_to_token(0.0, GRIPPER_DOF, key), key.vocab_size - 1)


def snap_gripper_token(value: float, key: NormKey = DEFAULT_KEY) -> int:
    """Snap an arbitrary gripper value to the nearest valid gripper token.

    Used when tokenizing filter predictions: the gripper channel is a
    three-level command (close / hold / open), not a dense grid.
    """
    if not math.isfinite(value):
        raise CodecError(f"gripper value must be finite, got {value!r}")
    candidates = gripper_tokens(key)
    return min(
        candidates, key=lambda tok: abs(token_to_action(tok, GRIPPER_DOF, key) - value)
    )
