"""Speculative decoding engine for 7-token action slices.

Each step has a token-domain part and a kinematic-domain part. In the
token domain, a slice is decided by the rounds of chain drafting: a round
drafts up to ``depth`` tokens and verifies them with one verify call.
Draft tokens within the acceptance threshold r of the verifier's token are
kept; the first rejected position takes the verifier's token, and the
engine then either

* fills the remaining positions from its Kalman-filter bank
  (compensation; only in the first draft round, so a compensated slice
  never pays more than one verify call), or
* resamples classically: start a new draft round after the correction.

In the kinematic domain, each placed token is decoded to its action, and
the slice's variability is summed (the ``accepted_error_kvar`` of the draft
ids, verified ids and statuses the trace records, so a trace rebuilds it).
The actions go to the filter bank and move the environment, and the
variability moves the threshold. The bank compensates only when it holds
context and no cooldown runs: a compensation starts n slices of classic
resampling, keeping the filter's inputs dominated by verified actions.

Each mode has one engine. ``run_strict_episode`` decodes a naive episode
open-loop, with no draft/verify loop. That is exact: strict speculative
decoding returns the verifier's tokens (Leviathan, Kalman and Matias, ICML
2023), the verifier tracks the plan, and replaying the plan's tokens
reproduces its poses bit for bit (``simenv.build_plan``), so every step's
truth and draft are known before the first slice. Each slice's record then
follows from where its draft misses, through a table that
``decode_slice_sd`` builds.

``run_episode`` decodes a ``fixed_relaxed`` or ``kerv`` episode in the
closed loop, reading its engine parameters straight from the run's
``RunConfig``. Each step is one pass over the seven positions: a
position's truth token (the plan-tracking verifier's), its draft token
(that truth corrupted by the drafter's noise row), its judgement, action
and variability, and its move of the pose are made together, and the step
ends as ``SimEnv.step`` ends one.

The per-oracle names stay as the layers of
``tests/oracles.py::reference_run_episode``, which checks both engines,
and as benchmark span targets: ``NoisyDrafter.draft`` and
``PlanVerifier.verify`` give a step's draft and truth rows,
``decode_slice_sd`` decides a slice from two rows (``relaxed_accept``
judges one position), and ``SimEnv.step`` moves the env.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import threshold as threshold_mod
from .codec import (
    GRIPPER_DOF,
    N_DOF,
    NormKey,
    action_to_token,
    decode_slice,  # noqa: F401 (perfbench/spans.py traces the codec under this name)
    snap_gripper_token,
    token_to_action,
)
from .kinematics import KfBank, accumulate_kvar
from .simenv import _latch
from .threshold import CalibrationRow
from .trace import EXACT, REJECTED, RELAXED, EpisodeTrace, SliceRecord

if TYPE_CHECKING:  # for annotations only
    from .config import RunConfig
    from .simenv import NoisyDrafter, SimEnv


# where a decoded slice's final token came from
SRC_DRAFT, SRC_VERIFY, SRC_KF = "draft", "verify_corrected", "kf"


class EngineError(RuntimeError):
    """Raised for oracle contract violations or invalid engine parameters."""


def relaxed_accept(draft_id: int, true_id: int, r: float) -> str:
    """Judge one draft token against the verifier's token: ``EXACT``,
    ``RELAXED`` or ``REJECTED``.

    Exact match always accepts; a nonzero miss is accepted while the token
    distance stays within r, and anything farther is rejected. Distances are
    ints, so a float r accepts exactly what floor(r) does.
    """
    dist = abs(draft_id - true_id)
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
    ``kvar`` is the slice's ``accepted_error_kvar``. ``first_error_pos``,
    ``sources`` and ``comp_fired`` are tracked apart from the statuses."""

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
    ``accepted_error_kvar`` of the result, bit for bit. ``run_episode``
    makes the same decision inline, position by position; this is its
    per-oracle reference, and the judge of ``_strict_slices``' table.
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


def _require_episode(env: SimEnv, cfg: RunConfig, draft: NoisyDrafter) -> None:
    """Refuse an env that has stepped (the trace numbers its records from
    step 0, and its summary's ``steps`` counts every step the env took), a
    drafter bound to another env (it would answer from that env's steps),
    and a config whose codec key is not the env's (its plan's tokens would
    be decoded on another grid)."""
    if env.t != 0:
        raise EngineError(f"env must be fresh to decode an episode, but it is at step {env.t}")
    if draft.env is not env:
        raise EngineError("NoisyDrafter is bound to another env than the one it decodes")
    if cfg.key != env.key:
        raise EngineError("the config's codec key is not the env's, which its plan is built on")


def run_episode(
    env: SimEnv,
    draft: NoisyDrafter,
    cfg: RunConfig,
    mode: str,
    row: CalibrationRow | None = None,
) -> EpisodeTrace:
    """Decode slices in ``mode`` until the environment terminates; record
    everything.

    ``mode`` is ``fixed_relaxed`` or ``kerv``; a naive episode is decoded
    by ``run_strict_episode``. ``fixed_relaxed`` accepts within the static
    ``cfg.fixed_r`` and resamples classically, ``kerv`` starts r at the
    calibration ``row``'s r_max (a row is required), moves it with
    ``threshold.adjust`` after every slice and compensates from a filter
    bank. A row whose bounds are equal keeps r fixed, so ``kerv`` with such
    a row is a fixed threshold with compensation. Each record holds the r
    its slice was decoded under. The engine reads ``cfg.depth``,
    ``cfg.fixed_r``, ``cfg.comp_n`` (cooldown slices), ``cfg.pl``,
    ``cfg.ac``, ``cfg.kf_params`` and ``cfg.key``.

    Each step is one pass over the slice's seven positions. A position
    takes its truth token (``simenv._track_rows``' expression, toward the
    plan's pose t + 1 from the current pose), its draft token
    (``simenv._corrupt_rows``' rule on the drafter's noise row t), its
    judgement and action (``decode_slice_sd``'s rule, filling the positions
    after a first-round rejection from ``KfBank.predict`` when the bank is
    handed over), and its move of the pose (``simenv._advance``); the step
    then records its deviation from the plan and the termination flags as
    ``SimEnv.step`` does. The per-oracle loop
    (``tests/oracles.py::reference_run_episode``) is the reference this
    pass is tested against, trace and final env alike. The config's key
    passed ``simenv.check_key`` when the env's plan was built, so every
    pose is finite and no gap is NaN.

    ``env`` must be fresh (no step taken), and ``draft`` bound to it and
    ``cfg.key`` equal to its key; ``EngineError`` otherwise. The trace's
    header and summary come from the env's spec, metadata and final state.
    """
    if mode not in ("fixed_relaxed", "kerv"):
        raise EngineError(
            f"run_episode decodes fixed_relaxed or kerv, got {mode!r}; "
            "a naive episode is decoded open-loop by run_strict_episode"
        )
    _require_episode(env, cfg, draft)
    kerv = mode == "kerv"
    if kerv:
        if row is None:
            raise EngineError("kerv mode needs a calibration row (see threshold.lookup)")
        r = float(row.r_max)
    else:
        r = float(cfg.fixed_r)
    # only kerv compensates, so only kerv feeds and reads a filter bank
    bank = KfBank(cfg.kf_params, ac=cfg.ac) if kerv else None
    prev_kvar = 0.0
    kvar_cum = 0.0
    cooldown = 0
    records: list[SliceRecord] = []

    key = env.key
    vocab = key.vocab_size
    top = vocab - 1
    los, his = key.lo, key.hi
    spans = [hi - lo for lo, hi in zip(los, his)]
    depth, pl = cfg.depth, cfg.pl
    plan = env.plan
    pose_rows = env.pose_rows
    last = plan.steps
    floor = math.floor

    while not env.done:
        t = env.t
        pose = env.pose
        target = pose_rows[t + 1 if t < last else last]  # the plan's pose after this step
        errs, offsets = draft.noise_row(t)
        # the bank compensates only with context, and never in a cooldown
        comp = cooldown == 0 and bank is not None and bank.has_context
        predicted = None  # the bank's prediction, once the slice compensates
        drafts: list[int | None] = []
        truths: list[int | None] = []
        statuses: list[str | None] = []
        tokens: list[int] = []
        actions: list[float] = []
        moved: list[float] = []  # the pose after the step
        rounds = 0
        round_end = 0  # the positions before it are in rounds already counted
        kvar = 0.0
        gap = 0.0  # the moved pose's distance from the target, as SimEnv.step sums it

        for pos in range(N_DOF):
            low = los[pos]
            span = spans[pos]
            here = pose[pos]
            there = target[pos]
            if predicted is None:
                if pos == round_end:
                    rounds += 1
                    round_end = pos + depth
                # the truth: _track_rows' expression
                if pos == GRIPPER_DOF:
                    desired = there if there != here else 0.0
                else:
                    desired = there - here
                    high = his[pos]
                    desired = low if low > desired else high if high < desired else desired
                true_tok = floor((desired - low) / span * vocab)
                true_tok = 0 if true_tok < 0 else top if true_tok > top else true_tok
                # the draft: _corrupt_rows' rule on the step's noise row
                d_tok = true_tok
                if errs[pos]:
                    off = offsets[pos]
                    d_tok = true_tok + off
                    d_tok = 0 if d_tok < 0 else top if d_tok > top else d_tok
                    if d_tok == true_tok:  # the clamp swallowed the offset; mirror it
                        d_tok = true_tok - off
                        d_tok = 0 if d_tok < 0 else top if d_tok > top else d_tok
                drafts.append(d_tok)
                truths.append(true_tok)
                # the judgement and the action: decode_slice_sd's rule
                if d_tok == true_tok:
                    statuses.append(EXACT)
                    tokens.append(d_tok)
                    action = low + span * (d_tok + 0.5) / vocab
                elif abs(d_tok - true_tok) <= r:
                    action = low + span * (d_tok + 0.5) / vocab
                    kvar += abs(low + span * (true_tok + 0.5) / vocab - action)
                    statuses.append(RELAXED)
                    tokens.append(d_tok)
                else:
                    statuses.append(REJECTED)
                    tokens.append(true_tok)
                    action = low + span * (true_tok + 0.5) / vocab
                    # compensation replaces re-inference only when the miss
                    # shows up in the first round, so it costs one verify
                    if comp and rounds == 1 and pos < GRIPPER_DOF:
                        predicted = bank.predict(pl)
                    else:
                        round_end = pos + 1  # the next round starts after the correction
            else:
                # filled from the bank: never drafted, so its slots stay empty
                tok = _tokenize_prediction(predicted[pos], pos, key)
                drafts.append(None)
                truths.append(None)
                statuses.append(None)
                tokens.append(tok)
                action = low + span * (tok + 0.5) / vocab
            actions.append(action)
            # the pose: _advance, and the step's gap from the target
            if pos == GRIPPER_DOF:
                state = _latch(here, action)
                moved.append(state)
                if state != there:
                    gap += 2.0
            else:
                here += action
                moved.append(here)
                gap += abs(here - there)

        if bank is not None:
            bank.push_slice(tuple(actions))
        env.arrive(tuple(moved), gap)

        kvar_cum = accumulate_kvar(kvar_cum, kvar)
        if predicted is not None:  # compensated
            cooldown = cfg.comp_n
        elif cooldown > 0:
            cooldown -= 1
        records.append(
            SliceRecord(
                tuple(drafts), tuple(truths), tuple(statuses), tuple(tokens),
                r, kvar, kvar_cum, rounds, cooldown,
            )
        )
        if kerv:
            r = threshold_mod.adjust(row, r, prev_kvar, kvar)
            prev_kvar = kvar

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
        plan_steps=plan.steps,
    )


@functools.lru_cache(maxsize=64)
def _strict_slices(depth: int, key: NormKey) -> tuple[tuple[tuple[str, ...], int], ...]:
    """What strict decoding records of a slice at ``depth``, for each set of
    positions where the draft misses the truth: entry m holds the statuses
    and rounds of a slice whose draft misses at the set bits of m. Nothing
    else is kept: the record's first error position and compensation flag
    are read from its statuses (``SliceRecord``).

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
        table.append((res.statuses, res.rounds))
    return tuple(table)


def run_strict_episode(env: SimEnv, draft: NoisyDrafter, cfg: RunConfig) -> EpisodeTrace:
    """A naive episode's trace, decoded open-loop from the plan and the
    drafter's noise rows.

    Strict speculative decoding (r = 0, no compensation) executes exactly
    the verifier's tokens, and the verifier tracks the plan, whose own
    tokens reproduce its poses bit for bit (``simenv.build_plan``). So the
    episode executes the plan: step t starts from the plan's pose t, the
    truths and drafts of every step are known before the first slice
    (``NoisyDrafter.plan_slices``), and the episode ends on the plan's last
    step on its goal, with no deviation. With no compensation every
    position is judged once, so a record holds the whole draft and truth
    rows and executes the truth, and its statuses and rounds depend only on
    where the draft misses (``_strict_slices``). The per-oracle loop in
    naive mode, ``tests/oracles.py::reference_run_episode``, is the
    reference it is tested against. ``env`` must be fresh, ``draft`` bound
    to it and ``cfg.key`` its key (``EngineError`` otherwise); ``env`` is
    left as it is.

    The drafter derives every step's truth, draft and miss mask as arrays
    in one pass, so each record costs one table lookup and one
    ``SliceRecord``, built positionally in its field order.
    """
    _require_episode(env, cfg, draft)
    table = _strict_slices(cfg.depth, cfg.key)
    truths, drafts, misses = draft.plan_slices()
    records = []
    for truth, drafted, missed in zip(truths, drafts, misses):
        statuses, rounds = table[missed]
        records.append(SliceRecord(drafted, truth, statuses, truth, 0.0, 0.0, 0.0, rounds, 0))
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
    )
