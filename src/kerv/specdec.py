"""Speculative decoding engine for 7-token action slices.

One slice is decoded by chain-drafting up to ``depth`` tokens at a time and
verifying each batch with a single oracle call. Draft tokens within the
acceptance threshold r of the verifier's token are kept; the first
rejected position takes the verifier's token, and the engine then either

* fills the remaining positions from the Kalman-filter bank instead of
  re-inference (compensation, at most one verify call per slice), or
* resamples classically: start a new draft round after the correction.

Compensation is followed by a cooldown of n slices during which rejections
fall back to classic resampling, keeping the filter's inputs dominated by
verified actions. Compensation is only taken when the first rejection lands
in the first draft round, so a compensated slice never pays more than one
verify call.

Each drafted position's draft id, verified id and status are kept in the
trace record's three 7-slot tuples; the slice's kinematic variability
(``accepted_error_kvar``) reads them, from a decoded slice or a trace.

``run_episode`` decodes a whole episode in one of the three ``MODES``
(strict ``naive``, static-threshold ``fixed_relaxed``, adaptive ``kerv``)
and reads its engine parameters straight from the run's ``RunConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from . import threshold as threshold_mod
from .codec import (
    GRIPPER_DOF,
    N_DOF,
    NormKey,
    action_to_token,
    decode_slice,
    snap_gripper_token,
    token_distance,
    token_to_action,
)
from .kinematics import KfBank, accumulate_kvar
from .threshold import ThresholdState
from .trace import EXACT, REJECTED, RELAXED, SRC_DRAFT, SRC_KF, SRC_VERIFY, EpisodeTrace, SliceRecord

if TYPE_CHECKING:  # config imports this module for MODES
    from .config import RunConfig
    from .simenv import SimEnv

# the decoding policies, in report order
MODES = ("naive", "fixed_relaxed", "kerv")


class EngineError(RuntimeError):
    """Raised for oracle contract violations or invalid engine parameters."""


class MissingContextError(EngineError):
    """Raised when compensation is requested with an empty action cache."""


class DraftOracle(Protocol):
    def draft(self, prefix: Sequence[int], depth: int) -> Sequence[int]:
        """Propose ``depth`` tokens for the positions following ``prefix``.

        The result is a sequence of exactly ``depth`` tokens, each an
        ``int`` (not a ``bool``) in ``[0, vocab_size)``. The decoder reads it
        without copying, refuses a wrong length, and refuses a bad token
        with ``EngineError`` when it judges that position.
        """
        ...


class VerifyOracle(Protocol):
    def verify(self, prefix: Sequence[int], drafted: Sequence[int]) -> Sequence[int]:
        """Return the true token at each drafted position, in one call.

        The same contract as ``DraftOracle.draft``: exactly
        ``len(drafted)`` tokens, each an ``int`` in ``[0, vocab_size)``,
        checked by the decoder where it judges that position.
        """
        ...


def relaxed_accept(draft_id: int, true_id: int, r: float) -> str:
    """Judge one draft token against the verifier's token: ``EXACT``,
    ``RELAXED`` or ``REJECTED``.

    Exact match always accepts; a nonzero miss is accepted while the token
    distance stays within floor(r); anything farther is rejected.
    """
    dist = token_distance(draft_id, true_id)
    if dist == 0:
        return EXACT
    if dist <= r:
        return RELAXED
    return REJECTED


@dataclass
class SliceResult:
    """One decoded slice. ``draft_ids``, ``true_ids`` and ``statuses`` hold
    one slot per position, ``None`` where nothing was drafted, as the trace
    records them."""

    tokens: tuple[int, ...]
    actions: tuple[float, ...]
    first_error_position: int
    sources: tuple[str, ...]
    verify_calls: int
    draft_calls: int
    comp_fired: bool
    draft_ids: tuple[int | None, ...]
    true_ids: tuple[int | None, ...]
    statuses: tuple[str | None, ...]


def decode_slice_sd(
    draft: DraftOracle,
    verify: VerifyOracle,
    *,
    r: float,
    depth: int,
    compensation_enabled: bool,
    bank: KfBank | None,
    key: NormKey,
    kf_pl: int = 1,
) -> SliceResult:
    """Decode one full 7-token slice through the draft/verify loop."""
    if not 1 <= depth <= N_DOF:
        raise EngineError(f"draft depth must be in [1, {N_DOF}], got {depth}")
    if r < 0:
        raise EngineError(f"acceptance threshold must be >= 0, got {r}")
    if compensation_enabled and (bank is None or not bank.has_context):
        raise MissingContextError("no action context: compensation needs a primed bank")

    vocab = key.vocab_size
    tokens: list[int] = []
    sources: list[str] = []
    draft_ids: list[int | None] = [None] * N_DOF
    true_ids: list[int | None] = [None] * N_DOF
    statuses: list[str | None] = [None] * N_DOF
    first_error = N_DOF
    rounds = 0  # one draft call and one verify call each
    comp_fired = False

    base = 0  # positions decoded so far
    while base < N_DOF:
        want = min(depth, N_DOF - base)
        prefix = tuple(tokens)
        drafted = draft.draft(prefix, want)
        if len(drafted) != want:
            raise EngineError(f"draft oracle returned {len(drafted)} tokens, wanted {want}")
        truths = verify.verify(prefix, drafted)
        if len(truths) != want:
            raise EngineError(f"verify oracle returned {len(truths)} tokens, wanted {want}")
        rounds += 1

        for pos, d_tok, t_tok in zip(range(base, N_DOF), drafted, truths):
            # the oracle boundary: each judged token is checked once, here
            if type(d_tok) is not int or not 0 <= d_tok < vocab:
                raise _bad_token("draft", pos, d_tok, vocab)
            if type(t_tok) is not int or not 0 <= t_tok < vocab:
                raise _bad_token("verify", pos, t_tok, vocab)
            draft_ids[pos] = d_tok
            true_ids[pos] = t_tok
            status = statuses[pos] = relaxed_accept(d_tok, t_tok, r)
            if status != REJECTED:
                tokens.append(d_tok)
                sources.append(SRC_DRAFT)
                continue

            if first_error == N_DOF:
                first_error = pos
            tokens.append(t_tok)
            sources.append(SRC_VERIFY)
            # compensation replaces re-inference only when the miss shows up
            # in the first round; a compensated slice must cost one verify
            if compensation_enabled and rounds == 1 and pos < N_DOF - 1:
                assert bank is not None
                predicted = bank.predict(kf_pl)
                for dof in range(pos + 1, N_DOF):
                    tokens.append(_tokenize_prediction(predicted[dof], dof, key))
                    sources.append(SRC_KF)
                comp_fired = True
            break
        base = len(tokens)  # a compensated slice is full

    final_tokens = tuple(tokens)
    actions = decode_slice(final_tokens, key)
    if bank is not None:
        bank.push_slice(actions)
    return SliceResult(
        tokens=final_tokens,
        actions=actions,
        first_error_position=first_error,
        sources=tuple(sources),
        verify_calls=rounds,
        draft_calls=rounds,
        comp_fired=comp_fired,
        draft_ids=tuple(draft_ids),
        true_ids=tuple(true_ids),
        statuses=tuple(statuses),
    )


def _bad_token(oracle: str, pos: int, tok, vocab: int) -> EngineError:
    return EngineError(
        f"{oracle} oracle returned {tok!r} at position {pos}; "
        f"tokens must be ints in [0, {vocab - 1}]"
    )


def _tokenize_prediction(value: float, dof: int, key: NormKey) -> int:
    if dof == GRIPPER_DOF:
        return snap_gripper_token(value, key)
    return action_to_token(value, dof, key)


def accepted_error_kvar(rec: SliceResult | SliceRecord, key: NormKey) -> float:
    """Per-step kinematic variability: the L1 action error of the
    relaxed-accepted tokens of one slice.

    Rejected tokens were replaced and exact tokens carry no error, so only
    ``RELAXED`` slots contribute, summed in position order. ``rec`` is a
    decoded slice or a trace record, so a trace's ``kvar_step`` can be
    rebuilt from the trace alone.
    """
    kvar = 0.0
    for pos, status in enumerate(rec.statuses):
        if status == RELAXED:
            kvar += abs(
                token_to_action(rec.true_ids[pos], pos, key)
                - token_to_action(rec.draft_ids[pos], pos, key)
            )
    return kvar


def run_episode(
    env: SimEnv,
    draft: DraftOracle,
    verify: VerifyOracle,
    cfg: RunConfig,
    mode: str,
    threshold_state: ThresholdState | None = None,
) -> EpisodeTrace:
    """Decode slices in ``mode`` until the environment terminates; record
    everything.

    ``mode`` is one of ``MODES``: ``naive`` is strict speculative decoding
    (r = 0, no compensation), ``fixed_relaxed`` accepts within the static
    ``cfg.fixed_r`` and resamples classically, ``kerv`` walks r from
    ``threshold_state`` (required) with ``cfg.threshold_mode`` updates and
    compensates from a filter bank. The engine reads ``cfg.depth``,
    ``cfg.fixed_r``, ``cfg.comp_n`` (cooldown slices), ``cfg.pl``,
    ``cfg.ac``, ``cfg.kf_params`` and ``cfg.key``.

    ``env`` must be freshly reset; the trace's header and summary come from
    its metadata and final state.
    """
    if mode not in MODES:
        raise EngineError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "kerv" and threshold_state is None:
        raise EngineError("kerv mode needs a threshold state (see threshold.lookup)")
    # only kerv compensates, so only kerv feeds and reads a filter bank
    bank = KfBank(cfg.kf_params, ac=cfg.ac) if mode == "kerv" else None
    kvar_cum = 0.0
    tstate = threshold_state
    cooldown = 0
    comp_events = 0
    records: list[SliceRecord] = []

    while not env.state.done:
        if mode == "naive":
            r_now = 0.0
        elif mode == "fixed_relaxed":
            r_now = float(cfg.fixed_r)
        else:
            assert tstate is not None
            r_now = tstate.r
        allow_comp = bank is not None and cooldown == 0 and bank.has_context

        result = decode_slice_sd(
            draft,
            verify,
            r=math.floor(r_now),
            depth=cfg.depth,
            compensation_enabled=allow_comp,
            bank=bank,
            key=cfg.key,
            kf_pl=cfg.pl,
        )
        step_index = env.state.t
        env.step(result.actions)

        kstep = accepted_error_kvar(result, cfg.key)
        kvar_cum = accumulate_kvar(kvar_cum, kstep)
        if mode == "kerv":
            assert tstate is not None
            tstate = threshold_mod.adjust(tstate, kstep, cfg.threshold_mode)

        if result.comp_fired:
            comp_events += 1
            cooldown = cfg.comp_n
        elif cooldown > 0:
            cooldown -= 1

        records.append(
            SliceRecord(
                step=step_index,
                draft_ids=result.draft_ids,
                true_ids=result.true_ids,
                statuses=result.statuses,
                tokens=result.tokens,
                sources=result.sources,
                first_error_pos=result.first_error_position,
                r=r_now,
                kvar_step=kstep,
                kvar_cum=kvar_cum,
                verify_calls=result.verify_calls,
                draft_calls=result.draft_calls,
                comp_fired=result.comp_fired,
                cooldown_remaining=cooldown,
            )
        )

    return EpisodeTrace(
        suite=env.suite,
        kind=env.kind,
        mode=mode,
        robot=env.robot,
        trial=env.trial,
        seed=env.seed,
        slices=records,
        success=env.state.succeeded,
        steps=env.state.t,
        deviation=env.state.deviation,
        plan_steps=env.plan_steps,
        comp_events=comp_events,
    )
