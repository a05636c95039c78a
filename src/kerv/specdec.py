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

The decoders never walk the rounds: a rejection is in the first round
when no position before it was rejected and it lies before ``depth``, and
an uncompensated slice's rounds are its rejection mask's entry in
``_round_counts``, the engine's one round walk.

In the kinematic domain, each placed token is decoded to its action, and
the slice's variability is summed (the ``accepted_error_kvar`` of the draft
ids, verified ids and statuses the trace records, so a trace rebuilds it).
The actions go to the filter bank and move the environment, and the
variability moves the threshold. The bank compensates only when it holds
context and no cooldown runs: a compensation starts n slices of classic
resampling, keeping the filter's inputs dominated by verified actions.

Every mode has one engine, ``run_episode``, which reads its parameters
straight from the run's ``RunConfig``: strict speculative decoding
(``naive``) is relaxed decoding at r = 0 with no compensation (Leviathan,
Kalman and Matias, ICML 2023), ``fixed_relaxed`` accepts within a static
r, and ``kerv`` moves r and compensates. The engine draws the episode's
draft noise itself, from ``cfg.noise`` keyed by the task's seed
(``simenv.noise_rows``): the rows of the plan's steps when it starts, and
the rows of the later steps once, only if it decodes a step past the plan.
Each step of its closed loop is one pass over the seven positions: a
position's truth token (the plan-tracking verifier's), its draft token
(that truth corrupted by the step's noise row), its judgement, action and
variability, and its move of the pose are made together, and the step
ends as ``SimEnv.step`` ends one. An episode whose threshold never moves
and which never compensates (``naive`` and ``fixed_relaxed``) first
decodes its plan steps in one array pass (``_plan_pass``), by guess and
confirm as ``simenv.build_plan`` builds a plan: every step's truth row is
guessed from the plan's tokens and the offsets the step before executed,
every draft, judgement and action follows at once, the poses are the
actions replayed from the plan's start (``simenv._replay``), and tracking
them again confirms the steps up to the first wrong guess
(``simenv._first_miss``), with the two functions the plan build uses. The
loop decodes every step from there, which covers every step past the
plan; a ``kerv`` episode runs the loop alone. At r = 0 no offset is
executed, so the guess is the plan's own tokens, which are the verifier's
truths along the plan (``simenv.build_plan``): the pass confirms every
plan step, and a naive episode ends on the plan's last step.

The per-oracle names stay as the layers of
``tests/oracles.py::reference_run_episode``, which checks the engine in
every mode, and as benchmark span targets; no suite run calls them.
``NoisyDrafter.draft`` and ``PlanVerifier.verify`` give a step's draft and
truth rows (the drafter draws its step's noise row alone), and
``SimEnv.step`` moves the env. ``decode_slice_sd`` decides a slice from
two rows as the plain composition of the rules the engine inlines:
``relaxed_accept`` judges each position, ``codec.decode_slice`` gives the
actions and ``accepted_error_kvar`` the variability.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from . import threshold as threshold_mod
from .codec import (
    GRIPPER_DOF,
    N_DOF,
    NormKey,
    action_to_token,
    decode_slice,
    snap_gripper_token,
    token_to_action,
)
from .kinematics import KfBank, accumulate_kvar
from .simenv import _corrupt_rows, _first_miss, _latch, _replay, noise_rows
from .threshold import CalibrationRow
from .trace import EXACT, MODES, REJECTED, RELAXED, EpisodeTrace, SliceRecord

if TYPE_CHECKING:  # for annotations only
    from .config import RunConfig
    from .simenv import SimEnv


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
    ``kvar`` is the slice's ``accepted_error_kvar``. ``first_error_pos`` and
    ``comp_fired`` are derived from the statuses, as a record derives them."""

    tokens: tuple[int, ...]
    rounds: int  # one draft call and one verify call each
    draft_ids: tuple[int | None, ...]
    true_ids: tuple[int | None, ...]
    statuses: tuple[str | None, ...]
    actions: tuple[float, ...]
    kvar: float

    first_error_pos = SliceRecord.first_error_pos
    comp_fired = SliceRecord.comp_fired


@functools.lru_cache(maxsize=8)
def _round_counts(depth: int) -> tuple[int, ...]:
    """Entry m: the rounds of an uncompensated slice at ``depth`` whose
    rejections are at the set bits of m. A round judges up to ``depth``
    positions and ends at a rejection, and the next round starts after it.
    This is the one round walk of the engine: ``decode_slice_sd``, the
    loop and the array pass read their rounds here, and
    ``tests/oracles.py::reference_decode_slice_sd``, which decides a slice
    one round at a time, is its reference."""
    counts = []
    for rejected in range(1 << N_DOF):
        rounds = start = 0  # start: the first position of the next round
        while start < N_DOF:
            rounds += 1
            judged = range(start, min(start + depth, N_DOF))
            start = next((pos + 1 for pos in judged if rejected >> pos & 1), judged.stop)
        counts.append(rounds)
    return tuple(counts)


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
    """Decide one full 7-token slice from the step's draft row and truth row;
    a given ``bank`` compensates a first-round rejection from
    ``bank.predict(kf_pl)``.

    Each position is judged with ``relaxed_accept`` and its tokens are
    checked there. A rejection compensates only when no position before it
    was rejected, it lies in the first round (before ``depth``) and a
    position is left to fill; a compensated slice is one round, and any
    other has the rounds of its rejection mask (``_round_counts``), each one
    draft and one verify call.
    The slice's ``actions`` are ``decode_slice`` of its tokens, and its
    ``kvar`` is ``accepted_error_kvar`` of the result. ``run_episode`` makes
    the same decision inline, position by position, or for every plan step
    at once in its array pass; this is its per-oracle reference.
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
    tokens: list[int] = []
    statuses: list[str] = []
    rejected = 0  # bit p is set when position p is rejected
    for pos in range(N_DOF):
        d_tok = drafted[pos]
        t_tok = truths[pos]
        # the oracle boundary: each judged token is checked once, here
        if type(d_tok) is not int or not 0 <= d_tok < vocab:
            raise _bad_token("draft", pos, d_tok, vocab)
        if type(t_tok) is not int or not 0 <= t_tok < vocab:
            raise _bad_token("verify", pos, t_tok, vocab)
        status = relaxed_accept(d_tok, t_tok, r)
        statuses.append(status)
        if status != REJECTED:
            tokens.append(d_tok)
            continue
        tokens.append(t_tok)
        # compensation replaces re-inference only when the first rejection
        # is in the first round, so a compensated slice costs one verify
        if bank is not None and not rejected and pos < depth and pos < GRIPPER_DOF:
            predicted = bank.predict(kf_pl)
            tokens += (
                _tokenize_prediction(predicted[dof], dof, key) for dof in range(pos + 1, N_DOF)
            )
            break
        rejected |= 1 << pos

    # the filled positions were never drafted: their slots stay empty
    judged = len(statuses)
    empty = (None,) * (N_DOF - judged)
    rounds = _round_counts(depth)[rejected] if judged == N_DOF else 1
    result = SliceResult(
        tuple(tokens), rounds, (*drafted[:judged], *empty), (*truths[:judged], *empty),
        (*statuses, *empty), decode_slice(tokens, key), kvar=0.0,
    )
    result.kvar = accepted_error_kvar(result, key)
    return result


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


def _require_episode(env: SimEnv, cfg: RunConfig) -> None:
    """Refuse an env that has stepped (the trace numbers its records from
    step 0, and its summary's ``steps`` counts every step the env took),
    and a config whose codec key is not the env's (its plan's tokens would
    be decoded on another grid)."""
    if env.t != 0:
        raise EngineError(f"env must be fresh to decode an episode, but it is at step {env.t}")
    if cfg.key != env.key:
        raise EngineError("the config's codec key is not the env's, which its plan is built on")


def run_episode(
    env: SimEnv, cfg: RunConfig, mode: str, row: CalibrationRow | None = None
) -> EpisodeTrace:
    """Decode slices in ``mode`` until the environment terminates; record
    everything.

    ``naive`` decodes strictly (r = 0, no compensation), and
    ``fixed_relaxed`` accepts within the static ``cfg.fixed_r`` and
    resamples classically; ``kerv`` starts r at the calibration ``row``'s
    r_max (a row is required), moves it with ``threshold.adjust`` after
    every slice and compensates from a filter bank. A row whose bounds are
    equal keeps r fixed, so ``kerv`` with such a row is a fixed threshold
    with compensation. Each record holds the r its slice was decoded under.
    The engine reads ``cfg.depth``, ``cfg.fixed_r``, ``cfg.comp_n``
    (cooldown slices), ``cfg.pl``, ``cfg.ac``, ``cfg.kf_params``,
    ``cfg.key``, ``cfg.noise`` (the draft noise) and ``cfg.robot`` (written
    into the trace).

    The noise rows of the plan's steps are drawn when the episode starts
    (``simenv.noise_rows`` of ``cfg.noise`` and the task's seed), as two
    (steps, 7) arrays; the loop makes per-step lists of them, and draws the
    rows of the steps past the plan, up to its ``max_steps``, in one more
    pass only if it reaches the first of them.

    A ``naive`` or ``fixed_relaxed`` episode first decodes its plan steps
    in one array pass (``_plan_pass``), which guesses every step's truth
    row, derives the rest of each step from it with the loop's own float
    operations, and keeps the steps up to its first wrong guess, which
    tracking the replayed poses again finds; ``SimEnv.arrive_steps`` takes
    them. The loop decodes every later step, so a guess that misses inside
    the plan costs one pass, never more.

    Each step of the loop is one pass over the slice's seven positions. A
    position takes its truth token (``simenv._track_rows``' expression,
    toward the plan's pose t + 1 from the current pose), its draft token
    (``simenv._corrupt_rows``' rule on noise row t), its
    judgement and executed token (``decode_slice_sd``'s rule, filling the
    positions after a first-round rejection from ``KfBank.predict`` while
    compensation is on), its action and variability, and its move of the
    pose (``simenv._advance``). The step takes its rounds from its
    rejection mask as ``decode_slice_sd`` does, then records its deviation
    from the plan and the termination flags as ``SimEnv.step`` does. The
    per-oracle loop
    (``tests/oracles.py::reference_run_episode``) is the reference the
    array pass and the loop are tested against, trace and final env alike.
    The config's key passed ``simenv.check_key`` when the env's plan was
    built, so every pose is finite and no gap is NaN.

    ``env`` must be fresh (no step taken) and ``cfg.key`` equal to its key;
    ``EngineError`` otherwise. The trace's header and summary come from the
    env's spec, metadata and final state, and its robot from ``cfg.robot``.
    """
    if mode not in MODES:
        raise EngineError(f"unknown mode {mode!r}; expected one of {MODES}")
    _require_episode(env, cfg)
    plan = env.plan
    seed = env.spec.seed
    errs, offsets = noise_rows(cfg.noise, seed, 0, plan.steps)  # (steps, 7) each
    kerv = mode == "kerv"
    bank = None
    if kerv:
        if row is None:
            raise EngineError("kerv mode needs a calibration row (see threshold.lookup)")
        r = float(row.r_max)
        # only kerv compensates, so only kerv feeds and reads a filter bank
        bank = KfBank(cfg.kf_params, ac=cfg.ac)
        records, kvar_cum = [], 0.0
    else:
        r = 0.0 if mode == "naive" else float(cfg.fixed_r)
        records, kvar_cum = _plan_pass(env, errs, offsets, r, cfg.depth)
    prev_kvar = 0.0
    cooldown = 0

    key = env.key
    vocab = key.vocab_size
    top = vocab - 1
    los, his = key.lo, key.hi
    spans = [hi - lo for lo, hi in zip(los, his)]
    depth, pl = cfg.depth, cfg.pl
    round_counts = _round_counts(depth)
    last = plan.steps
    floor = math.floor
    # each step's (error flags, offsets) as lists, made only if the loop runs
    rows = [] if env.done else list(zip(errs.tolist(), offsets.tolist()))

    while not env.done:
        t = env.t
        if t == last:  # the first step past the plan: draw the rows of the rest
            more = noise_rows(cfg.noise, seed, last, plan.max_steps)
            rows += zip(more[0].tolist(), more[1].tolist())
        step_errs, step_offsets = rows[t]
        pose = env.pose
        target = env.pose_rows[t + 1 if t < last else last]  # the plan's pose after this step
        # the bank compensates only with context, and never in a cooldown
        comp = cooldown == 0 and bank is not None and bank.has_context
        predicted = None  # the bank's prediction, once the slice compensates
        drafts: list[int | None] = []
        truths: list[int | None] = []
        statuses: list[str | None] = []
        tokens: list[int] = []
        actions: list[float] = []
        moved: list[float] = []  # the pose after the step
        rejected = 0  # bit p is set when position p is rejected
        kvar = 0.0
        gap = 0.0  # the moved pose's distance from the target, as SimEnv.step sums it

        for pos in range(N_DOF):
            low = los[pos]
            span = spans[pos]
            here = pose[pos]
            there = target[pos]
            if predicted is None:
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
                if step_errs[pos]:
                    off = step_offsets[pos]
                    d_tok = true_tok + off
                    d_tok = 0 if d_tok < 0 else top if d_tok > top else d_tok
                    if d_tok == true_tok:  # the clamp swallowed the offset; mirror it
                        d_tok = true_tok - off
                        d_tok = 0 if d_tok < 0 else top if d_tok > top else d_tok
                # the judgement and the executed token: decode_slice_sd's rule
                if d_tok == true_tok:
                    status, tok = EXACT, d_tok
                elif abs(d_tok - true_tok) <= r:
                    status, tok = RELAXED, d_tok
                else:
                    status, tok = REJECTED, true_tok
                    # compensation replaces re-inference only when the first
                    # rejection is in the first round, so it costs one verify
                    if comp and not rejected and pos < depth and pos < GRIPPER_DOF:
                        predicted = bank.predict(pl)
                    rejected |= 1 << pos
            else:
                # filled from the bank: never drafted, so its slots stay empty
                tok = _tokenize_prediction(predicted[pos], pos, key)
                d_tok = true_tok = status = None
            drafts.append(d_tok)
            truths.append(true_tok)
            statuses.append(status)
            tokens.append(tok)
            action = low + span * (tok + 0.5) / vocab  # token_to_action's expression
            if status is RELAXED:
                kvar += abs(low + span * (true_tok + 0.5) / vocab - action)
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
        rounds = 1 if predicted is not None else round_counts[rejected]
        if predicted is not None:
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
        robot=cfg.robot,
        trial=env.trial,
        seed=seed,
        slices=records,
        success=env.succeeded,
        steps=env.t,
        deviation=env.deviation,
        plan_steps=plan.steps,
    )


# a judged position's status is digit p, in base 3, of its step's status code
_STATUS_NAMES = (EXACT, RELAXED, REJECTED)
_STATUS_DIGITS = 3 ** np.arange(N_DOF)
_POS_BITS = 1 << np.arange(N_DOF)  # bit p of a rejection mask is position p
# a record from the tuple of its fields, made in C (``SliceRecord(*fields)``
# would run the named tuple's Python-level ``__new__`` once per record)
_RECORD = functools.partial(tuple.__new__, SliceRecord)
# status code -> the statuses it stands for, filled as codes appear (at most 3**7)
_STATUS_ROWS: dict[int, tuple[str, ...]] = {}


def _statuses(codes: list[int]) -> Iterator[tuple[str, ...]]:
    """The statuses of each status code, from a cache filled as codes appear."""
    rows = _STATUS_ROWS
    for code in set(codes).difference(rows):
        rows[code] = tuple(_STATUS_NAMES[code // 3**p % 3] for p in range(N_DOF))
    return map(rows.__getitem__, codes)


def _plan_pass(
    env: SimEnv, errs: np.ndarray, offsets: np.ndarray, r: float, depth: int
) -> tuple[list[SliceRecord], float]:
    """The records of a ``naive`` or ``fixed_relaxed`` episode's plan steps
    that one array pass confirms, and their summed variability; ``errs``
    and ``offsets`` are the (steps, 7) noise rows of the plan's steps, and
    ``env`` is left after the last confirmed step, for the loop to decode
    the rest.

    The pass guesses every step's truth row, as ``simenv._quantize``
    guesses a plan. The verifier re-targets the plan on every step, so a
    step starts from the plan's pose moved by the offsets the step before
    executed, and a motion truth is the plan's token less that offset; the
    gripper's state is latched, not summed, so its truth is the plan's. An
    executed offset is guessed as the noise row's offset wherever the
    threshold accepts it. Step 0 has no step before it and starts from the
    plan's start pose. The drafts (``_corrupt_rows``), judgements, actions
    and kinematic variability of every step then follow at once, each with
    the loop's float operations, and the poses are the actions replayed
    from the plan's start pose (``simenv._replay``, which makes the loop's
    adds in the loop's order and latches the gripper as it does).

    Where no position is relaxed, as always at r < 1, every executed token
    is its truth and no offset moved a truth off the plan's tokens: the
    steps execute the plan, whose poses replaying its tokens makes
    (``simenv.build_plan``), so the pass takes the plan's poses, each
    record executes its truth row, and no step has variability or a gap.

    Tracking each replayed pose again (``simenv._first_miss``) confirms
    the guess up to its first miss, as ``simenv.build_plan`` describes:
    step 0 starts from the exact pose, and a step whose guessed truth is
    the tracked one leaves the exact pose for the next. Past the plan the
    target stands still while the reachable lattice moves half a bin per
    step, so no guess holds there, and the pass stops at the plan's end.
    """
    plan = env.plan
    key = env.key
    vocab = key.vocab_size
    top = vocab - 1
    lo, hi = np.array(key.lo), np.array(key.hi)
    span = hi - lo
    motion = slice(None, GRIPPER_DOF)

    truths = plan.tokens
    executed = errs & (np.abs(offsets) <= r)
    if executed.any():
        truths = truths.copy()
        truths[1:, motion] -= np.where(executed, offsets, 0)[:-1, motion]
        np.clip(truths, 0, top, out=truths)
    drafts = _corrupt_rows(truths, errs, offsets, top)
    dist = np.abs(drafts - truths)
    rejected = dist > r
    relaxed = (dist != 0) & ~rejected
    replayed = relaxed.any()
    if replayed:
        tokens = np.where(rejected, truths, drafts)
        actions = lo + span * (tokens + 0.5) / vocab  # token_to_action's expression
        poses = _replay(plan.poses[0], actions)
    else:
        poses = plan.poses

    targets = plan.poses[1:]
    confirmed = _first_miss(targets, poses, truths, key)
    if confirmed == 0:
        return [], 0.0

    kept = slice(None, confirmed)
    truth_rows = list(map(tuple, truths[kept].tolist()))
    if replayed:
        masses = np.abs(lo + span * (truths[kept] + 0.5) / vocab - actions[kept])
        reached = poses[1 : confirmed + 1]
        with np.errstate(over="ignore"):  # a sum past the float range is infinite, as in the loop
            kvars = np.where(relaxed[kept], masses, 0.0).cumsum(axis=1)[:, -1]
            cums = kvars.cumsum()  # left to right, as the loop adds
            gaps = np.abs(reached[:, motion] - targets[kept, motion]).cumsum(axis=1)[:, -1]
            gaps += np.where(reached[:, GRIPPER_DOF] != targets[kept, GRIPPER_DOF], 2.0, 0.0)
        token_rows = map(tuple, tokens[kept].tolist())
        kvar_steps, kvar_cums, gaps = kvars.tolist(), cums.tolist(), gaps.tolist()
        kvar_cum = kvar_cums[-1]
    else:  # the plan's steps: each executes its truth row, with no variability and no gap
        token_rows, gaps, kvar_cum = truth_rows, [0.0] * confirmed, 0.0
        kvar_steps = kvar_cums = itertools.repeat(0.0)
    fields = zip(
        map(tuple, drafts[kept].tolist()),
        truth_rows,
        _statuses(((relaxed[kept] + 2 * rejected[kept]) @ _STATUS_DIGITS).tolist()),
        token_rows,
        itertools.repeat(r),
        kvar_steps,
        kvar_cums,
        map(_round_counts(depth).__getitem__, (rejected[kept] @ _POS_BITS).tolist()),
        itertools.repeat(0),
    )
    records = list(map(_RECORD, fields))
    env.arrive_steps(tuple(poses[confirmed].tolist()), gaps)
    return records, kvar_cum
