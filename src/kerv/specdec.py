"""Speculative decoding engine for 7-token action slices.

Each step has a token-domain part and a kinematic-domain part. Every
oracle answers from one fixed row per step, so the engine asks each
oracle once per step: the draft oracle gives the step's draft row and the
verify oracle its truth row. In the token domain, ``decode_slice_sd``
decides the slice's tokens from the two rows in one pass, walking the
rounds of chain drafting: a round drafts up to ``depth`` tokens and
verifies them with one verify call. Draft tokens within the acceptance
threshold r of the verifier's token are kept; the first rejected position
takes the verifier's token, and the engine then either

* fills the remaining positions from the Kalman-filter bank it was handed
  (compensation; only in the first draft round, so a compensated slice
  never pays more than one verify call), or
* resamples classically: start a new draft round after the correction.

In the kinematic domain, the same pass decodes each placed token to its
action and sums the slice's variability (the ``accepted_error_kvar`` of
the draft ids, verified ids and statuses the trace records, so a trace
rebuilds it). ``run_episode`` pushes the actions to the filter bank,
steps the environment and moves the threshold by the variability. It
hands the decoder the bank only when the bank holds context and no
cooldown runs: a compensation starts n slices of classic resampling,
keeping the filter's inputs dominated by verified actions.

``run_episode`` decodes a whole episode in one of the three ``MODES``
(strict ``naive``, static-threshold ``fixed_relaxed``, adaptive ``kerv``)
and reads its engine parameters straight from the run's ``RunConfig``.

``run_strict_episode`` decodes a naive episode of the simulator's own
oracles open-loop, with no draft/verify loop. That is exact: strict
speculative decoding returns the verifier's tokens (Leviathan, Kalman and
Matias, ICML 2023), the verifier tracks the plan, and replaying the
plan's tokens reproduces its poses bit for bit (``simenv.build_plan``), so
every step's truth and draft are known before the first slice. Each
slice's record then follows from where its draft misses, through a table
that ``decode_slice_sd`` builds. ``run_episode``'s naive mode is the
reference it is tested against, and serves any other oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from . import threshold as threshold_mod
from .codec import (
    GRIPPER_DOF,
    N_DOF,
    NormKey,
    action_to_token,
    decode_slice,  # noqa: F401 (perfbench/spans.py traces the codec under this name)
    snap_gripper_token,
    token_distance,
    token_to_action,
)
from .kinematics import KfBank, accumulate_kvar
from .threshold import CalibrationRow
from .trace import (
    EXACT,
    MODES,
    REJECTED,
    RELAXED,
    SRC_DRAFT,
    SRC_KF,
    SRC_VERIFY,
    EpisodeTrace,
    SliceRecord,
)

if TYPE_CHECKING:  # for annotations only
    from .config import RunConfig
    from .simenv import NoisyDrafter, SimEnv


class EngineError(RuntimeError):
    """Raised for oracle contract violations or invalid engine parameters."""


class DraftOracle(Protocol):
    def draft(self) -> Sequence[int]:
        """Propose the current step's whole slice: its draft row.

        The decoder asks once per step. The row holds exactly ``N_DOF``
        tokens, each an ``int`` (not a ``bool``) in ``[0, vocab_size)``. The
        decoder reads it without copying, refuses a wrong length, and
        refuses a bad token with ``EngineError`` when it judges that
        position.
        """
        ...


class VerifyOracle(Protocol):
    def verify(self, drafted: Sequence[int]) -> Sequence[int]:
        """Return the true token at every position of the step's slice, in
        one call: its truth row.

        The decoder asks once per step, after ``draft``. The same contract
        as ``DraftOracle.draft``: exactly ``N_DOF`` tokens, each an ``int``
        in ``[0, vocab_size)``, checked by the decoder where it judges that
        position.
        """
        ...


def relaxed_accept(draft_id: int, true_id: int, r: float) -> str:
    """Judge one draft token against the verifier's token: ``EXACT``,
    ``RELAXED`` or ``REJECTED``.

    Exact match always accepts; a nonzero miss is accepted while the token
    distance stays within r, and anything farther is rejected. Distances are
    ints, so a float r accepts exactly what floor(r) does.
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
    records them. ``actions`` are ``tokens`` decoded (``decode_slice``), and
    ``kvar`` is the slice's ``accepted_error_kvar``."""

    tokens: tuple[int, ...]
    first_error_pos: int
    sources: tuple[str, ...]
    rounds: int  # one draft call and one verify call each
    comp_fired: bool
    draft_ids: tuple[int | None, ...]
    true_ids: tuple[int | None, ...]
    statuses: tuple[str | None, ...]
    actions: tuple[float, ...]
    kvar: float


def decode_slice_sd(
    drafted: Sequence[int],
    truths: Sequence[int],
    *,
    r: float,
    depth: int,
    key: NormKey,
    bank: KfBank | None = None,
    kf_pl: int = 1,
) -> SliceResult:
    """Decide one full 7-token slice from the step's draft row and truth row
    in one pass; a given ``bank`` compensates a first-round rejection from
    ``bank.predict(kf_pl)``.

    The rows are walked in the rounds of the draft/verify loop: a round
    judges up to ``depth`` positions and ends at the first rejection, and
    ``rounds`` counts them, each one draft and one verify call. Every
    position is judged as ``relaxed_accept`` judges it. Each placed token is
    decoded with ``token_to_action``'s expression, so ``actions`` equals
    ``decode_slice(tokens)``, and the action errors of the ``RELAXED``
    positions are summed in position order, so ``kvar`` equals
    ``accepted_error_kvar`` of the result, bit for bit.
    """
    if not 1 <= depth <= N_DOF:
        raise EngineError(f"draft depth must be in [1, {N_DOF}], got {depth}")
    if not 0 <= r < math.inf:  # refuses nan too
        raise EngineError(f"acceptance threshold must be finite and >= 0, got {r}")
    if len(drafted) != N_DOF:
        raise EngineError(f"draft oracle returned {len(drafted)} tokens, wanted {N_DOF}")
    if len(truths) != N_DOF:
        raise EngineError(f"verify oracle returned {len(truths)} tokens, wanted {N_DOF}")

    vocab = key.vocab_size
    lo, hi = key.lo, key.hi
    tokens: list[int] = []
    actions: list[float] = []
    sources: list[str] = []
    statuses: list[str] = []
    first_error = N_DOF
    rounds = 0
    round_end = 0  # the positions before it are in rounds already counted
    kvar = 0.0

    for pos in range(N_DOF):
        if pos == round_end:
            rounds += 1
            round_end = pos + depth
        d_tok = drafted[pos]
        t_tok = truths[pos]
        # the oracle boundary: each judged token is checked once, here
        if type(d_tok) is not int or not 0 <= d_tok < vocab:
            raise _bad_token("draft", pos, d_tok, vocab)
        if type(t_tok) is not int or not 0 <= t_tok < vocab:
            raise _bad_token("verify", pos, t_tok, vocab)
        low = lo[pos]
        span = hi[pos] - low
        if d_tok == t_tok:
            statuses.append(EXACT)
            tokens.append(d_tok)
            actions.append(low + span * (d_tok + 0.5) / vocab)
            sources.append(SRC_DRAFT)
            continue
        if abs(d_tok - t_tok) <= r:
            action = low + span * (d_tok + 0.5) / vocab
            kvar += abs(low + span * (t_tok + 0.5) / vocab - action)
            statuses.append(RELAXED)
            tokens.append(d_tok)
            actions.append(action)
            sources.append(SRC_DRAFT)
            continue

        statuses.append(REJECTED)
        if first_error == N_DOF:
            first_error = pos
        tokens.append(t_tok)
        actions.append(low + span * (t_tok + 0.5) / vocab)
        sources.append(SRC_VERIFY)
        # compensation replaces re-inference only when the miss shows up
        # in the first round; a compensated slice must cost one verify
        if bank is not None and rounds == 1 and pos < N_DOF - 1:
            predicted = bank.predict(kf_pl)
            for dof in range(pos + 1, N_DOF):
                tok = _tokenize_prediction(predicted[dof], dof, key)
                tokens.append(tok)
                actions.append(lo[dof] + (hi[dof] - lo[dof]) * (tok + 0.5) / vocab)
                sources.append(SRC_KF)
            # the filled positions were never drafted: their slots stay empty
            empty = (None,) * (N_DOF - 1 - pos)
            return SliceResult(
                tuple(tokens), first_error, tuple(sources), rounds, True,
                (*drafted[: pos + 1], *empty), (*truths[: pos + 1], *empty),
                (*statuses, *empty), tuple(actions), kvar,
            )
        round_end = pos + 1  # the next round starts after the correction

    # every position was judged
    return SliceResult(
        tuple(tokens), first_error, tuple(sources), rounds, False,
        tuple(drafted), tuple(truths), tuple(statuses), tuple(actions), kvar,
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


def _require_fresh(env: SimEnv) -> None:
    """Refuse an env that has stepped: the trace numbers its records from
    step 0, and its summary's ``steps`` counts every step the env took."""
    if env.t != 0:
        raise EngineError(f"env must be fresh to decode an episode, but it is at step {env.t}")


def _require_bound(env: SimEnv, *oracles: object) -> None:
    """Refuse an oracle bound to another env (the simulator's oracles keep
    theirs as ``env``): it would answer from that env's steps, not from
    the steps of the episode decoded."""
    for oracle in oracles:
        if getattr(oracle, "env", env) is not env:
            raise EngineError(
                f"{type(oracle).__name__} is bound to another env than the one it decodes"
            )


def run_episode(
    env: SimEnv,
    draft: DraftOracle,
    verify: VerifyOracle,
    cfg: RunConfig,
    mode: str,
    row: CalibrationRow | None = None,
) -> EpisodeTrace:
    """Decode slices in ``mode`` until the environment terminates; record
    everything.

    ``mode`` is one of ``MODES``: ``naive`` is strict speculative decoding
    (r = 0, no compensation), ``fixed_relaxed`` accepts within the static
    ``cfg.fixed_r`` and resamples classically, ``kerv`` starts r at the
    calibration ``row``'s r_max (a row is required), moves it with
    ``threshold.adjust`` after every slice and compensates from a filter
    bank. A row whose bounds are equal keeps r fixed, so ``kerv`` with such
    a row is a fixed threshold with compensation. Each record holds the r
    its slice was decoded under. The engine reads ``cfg.depth``,
    ``cfg.fixed_r``, ``cfg.comp_n`` (cooldown slices), ``cfg.pl``,
    ``cfg.ac``, ``cfg.kf_params`` and ``cfg.key``.

    Each step asks each oracle once: ``draft.draft()`` gives the step's
    draft row and ``verify.verify(drafted)`` its truth row, and
    ``decode_slice_sd`` judges, decodes and measures the slice from the
    two rows in one pass.

    ``env`` must be fresh (no step taken), and an oracle bound to an env
    (``NoisyDrafter``, ``PlanVerifier``) must be bound to this one;
    ``EngineError`` otherwise. The trace's header and summary come from the
    env's spec, metadata and final state.
    """
    if mode not in MODES:
        raise EngineError(f"unknown mode {mode!r}; expected one of {MODES}")
    _require_fresh(env)
    _require_bound(env, draft, verify)
    kerv = mode == "kerv"
    if kerv:
        if row is None:
            raise EngineError("kerv mode needs a calibration row (see threshold.lookup)")
        r = float(row.r_max)
    else:
        r = 0.0 if mode == "naive" else float(cfg.fixed_r)
    # only kerv compensates, so only kerv feeds and reads a filter bank
    bank = KfBank(cfg.kf_params, ac=cfg.ac) if kerv else None
    prev_kvar = 0.0
    kvar_cum = 0.0
    cooldown = 0
    comp_events = 0
    records: list[SliceRecord] = []

    while not env.done:
        # the decoder compensates only from a bank it is handed
        comp_bank = bank if cooldown == 0 and bank is not None and bank.has_context else None
        drafted = draft.draft()
        result = decode_slice_sd(
            drafted, verify.verify(drafted), r=r, depth=cfg.depth, key=cfg.key,
            bank=comp_bank, kf_pl=cfg.pl,
        )
        if bank is not None:
            bank.push_slice(result.actions)
        step_index = env.t
        env.step(result.actions)

        kstep = result.kvar
        kvar_cum = accumulate_kvar(kvar_cum, kstep)

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
                first_error_pos=result.first_error_pos,
                r=r,
                kvar_step=kstep,
                kvar_cum=kvar_cum,
                verify_calls=result.rounds,
                draft_calls=result.rounds,
                comp_fired=result.comp_fired,
                cooldown_remaining=cooldown,
            )
        )
        if kerv:
            r = threshold_mod.adjust(row, r, prev_kvar, kstep)
            prev_kvar = kstep

    return EpisodeTrace(
        suite=env.suite,
        kind=env.spec.kind,
        mode=mode,
        robot=env.robot,
        trial=env.trial,
        seed=env.spec.seed,
        slices=records,
        success=env.succeeded,
        steps=env.t,
        deviation=env.deviation,
        plan_steps=env.plan.steps,
        comp_events=comp_events,
    )


@functools.lru_cache(maxsize=64)
def _strict_slices(
    depth: int, key: NormKey
) -> tuple[tuple[tuple[str, ...], tuple[str, ...], int, int], ...]:
    """What strict decoding records of a slice at ``depth``, for each set of
    positions where the draft misses the truth: entry m holds the statuses,
    sources, first error position and rounds of a slice whose draft misses
    at the set bits of m.

    Each entry is ``decode_slice_sd`` at r = 0 on a truth row of token 0
    and a draft row holding token 1 at the misses. Both tokens are valid
    in every vocabulary (``NormKey`` holds at least two), and under r = 0
    only whether a draft token equals its truth matters, so the round rule
    is written once.
    """
    table = []
    for misses in range(1 << N_DOF):
        drafted = tuple((misses >> pos) & 1 for pos in range(N_DOF))
        res = decode_slice_sd(drafted, (0,) * N_DOF, r=0.0, depth=depth, key=key)
        table.append((res.statuses, res.sources, res.first_error_pos, res.rounds))
    return tuple(table)


def run_strict_episode(env: SimEnv, draft: NoisyDrafter, cfg: RunConfig) -> EpisodeTrace:
    """The trace ``run_episode(env, draft, PlanVerifier(env), cfg, "naive")``
    records, decoded open-loop from the plan and the drafter's noise rows.

    Strict speculative decoding (r = 0, no compensation) executes exactly
    the verifier's tokens, and the verifier tracks the plan, whose own
    tokens reproduce its poses bit for bit (``simenv.build_plan``). So the
    episode executes the plan: step t starts from the plan's pose t, the
    truths and drafts of every step are known before the first slice
    (``NoisyDrafter.plan_slices``), and the episode ends on the plan's last
    step on its goal, with no deviation. With no compensation every
    position is judged once, so a record holds the whole draft and truth
    rows and executes the truth, and its statuses, sources, first error
    position and rounds depend only on where the draft misses
    (``_strict_slices``). ``run_episode``'s naive mode stays the reference,
    and the one to use with other oracles. ``env`` must be fresh and
    ``draft`` bound to it (``EngineError`` otherwise); ``env`` is left as it
    is.

    The drafter derives every step's truth, draft and miss mask as arrays
    in one pass, so each record costs one table lookup and one
    ``SliceRecord``, built positionally in its field order.
    """
    _require_fresh(env)
    _require_bound(env, draft)
    table = _strict_slices(cfg.depth, cfg.key)
    truths, drafts, misses = draft.plan_slices()
    records = []
    for step, (truth, drafted, missed) in enumerate(zip(truths, drafts, misses)):
        statuses, sources, first_error, rounds = table[missed]
        records.append(
            SliceRecord(
                step, drafted, truth, statuses, truth, sources, first_error,
                0.0, 0.0, 0.0, rounds, rounds, False, 0,
            )
        )
    plan = env.plan
    return EpisodeTrace(
        suite=env.suite,
        kind=env.spec.kind,
        mode="naive",
        robot=env.robot,
        trial=env.trial,
        seed=env.spec.seed,
        slices=records,
        success=True,
        steps=plan.steps,
        deviation=0.0,
        plan_steps=plan.steps,
        comp_events=0,
    )
