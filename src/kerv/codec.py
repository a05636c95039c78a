"""Conversion between discrete action tokens and continuous 7-DoF actions.

A control step ("slice") covers seven degrees of freedom: end-effector
position X, Y, Z, rotation angles about the three axes, and a gripper
command. Each DoF is emitted as one token on a uniform bin grid whose
range is given by per-DoF normalization statistics (the norm key).
The mapping uses bin centers, so decoding a token and re-encoding the
value is exact.

Where values are checked: a slice flows as a plain tuple (seven ``int``
token ids, or the seven ``float`` values ``decode_slice`` returns), and
its values are checked at four boundaries:

* the norm key when the config is loaded and when a plan is built
  (``NormKey``, ``simenv.check_key``): every range is finite and narrow
  enough that ``(hi - lo) * vocab_size`` is too, so every decoded value is
  finite, and that an episode's longest run of actions is too, so every
  pose is finite and every gap to the plan is a number;
* every token an oracle returns, where the decoder judges it
  (``specdec.decode_slice_sd``);
* every id ``decode_slice`` decodes: seven ids, each an ``int`` (not a
  ``bool``), which ``token_to_action`` decodes in ``[0, vocab)``;
* every record read back from a trace (``trace.loads``): each field of
  its type and in its range, nothing in it contradicting the rest of it or
  the record before it (its null slots follow its only rejection, its fill
  holds a token for each of them, and its ``kvar_cum`` adds its
  ``kvar_step`` to the previous one), and nothing its header's run could
  not have decoded (only kerv compensates, never on the first record or
  while the cooldown rebuilt from the header's ``comp_n`` runs; naive
  decodes at r = 0, and fixed_relaxed at one r). A record's tokens are
  derived from its ids and fill, each checked there as an int.

Tokens the decoder fills from filter predictions come from
``action_to_token``/``snap_gripper_token``, which refuse a non-finite
value and clamp to the vocabulary. Every other token is made on plain ints
and floats, or numpy arrays, with the codec's expressions inline rather
than through the checked scalar functions: the truth tokens of the plan,
the array pass of ``specdec.run_episode`` and ``simenv.oracle_policy``
(``simenv._track_rows``, ``action_to_token``'s expression on a gap
already clamped to the action range), and the closed
loop's fused step, ``specdec.run_episode``, which computes the same truth
token, its corruption by the step's noise row, its action (``token_to_action``'s
expression) and the move of the pose per position.
A token the simulator tracks or corrupts is an ``int`` in the vocabulary
by construction, so the fused step does not check it again; the rows of
the per-oracle reference are checked where ``decode_slice_sd`` judges
them, and its actions are ``decode_slice`` of its tokens, each through
``token_to_action``. ``decode_slice`` serves that reference and the tests
and stays a benchmark span target; no suite run calls it.
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
        if not 2 <= self.vocab_size <= 2**52:  # a bin centre tok + 0.5 is exact below 2**52
            raise CodecError(f"vocab_size must be in [2, 2**52], got {self.vocab_size}")
        for dof in range(N_DOF):
            lo, hi = self.lo[dof], self.hi[dof]
            # (hi - lo) * vocab bounds every product the bin centres take
            if not math.isfinite((hi - lo) * self.vocab_size):
                raise CodecError(
                    f"dof{dof} range must be finite, with (hi - lo) * vocab_size finite"
                )
            if lo >= hi:
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


def decode_slice(ids, key: NormKey = DEFAULT_KEY) -> tuple[float, ...]:
    """Decode the seven token ids of a slice to continuous actions with
    ``token_to_action``.

    Each id must be an ``int`` (not a ``bool``) in ``[0, vocab)``, the rule
    ``specdec.decode_slice_sd`` applies to oracle tokens.
    """
    if len(ids) != N_DOF:
        raise CodecError(f"token slice needs {N_DOF} ids, got {len(ids)}")
    values = []
    for dof, tok in enumerate(ids):
        if type(tok) is not int:
            raise CodecError(f"token id must be an int, got {tok!r} for dof{dof}")
        values.append(token_to_action(tok, dof, key))
    return tuple(values)


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
