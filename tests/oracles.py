"""Independent reference implementations used to generate expected values.

These deliberately avoid the library's code paths: the filter oracle uses
textbook 2x2 matrix arithmetic via numpy, the filter reference replays the
scalar recursion over each window's observations (the library applies
precomputed linear weights instead), and the first-error-position
oracle is a direct Monte-Carlo simulation of per-position Bernoulli misses.
The draft-noise reference runs SplitMix64 as a stateful generator on Python
ints, one draw at a time (``reference_noise_row``; the library finalises a
whole array of counters at once), and the relaxed rejection probability
sums the offset weights past the threshold (``relaxed_reject_prob``).
The task, plan, tracking, decoding, calibration, variability and trace
references keep the original straightforward forms: each task waypoint
assembled on its own, the plan tracked one step and one DoF at a time,
each tracked or decoded value sent through the checked scalar
``action_to_token``/``token_to_action`` (the library inlines their
expressions), r clamped with the builtin ``min`` and ``max`` per
slice, every token pair decoded again per candidate, zero-padded action
slices compared over all seven positions, one ``json.dumps(...,
sort_keys=True)`` per trace line (the library writes records from a
template and the other lines with one encoder), and the trace loader that
checked slots, then scalar types, then ranges, in three passes, then walks
each record's slots one at a time for what contradicts the rest of it
(``reference_trace_loads``; the library counts and compares whole id
lists, and judges a slot at r where this loader judges it at floor(r);
it finds the cooldown from the last compensated record, where the library
carries it from record to record),
a slice decided one draft/verify round at a
time, with its rounds, first error position and compensation flag
tracked as it is decided (``reference_decode_slice_sd``; the library
reads the rounds from its rejection mask and derives the other two from
the statuses), an episode decoded by asking each oracle for its row, then
deciding the slice with ``decode_slice_sd`` and stepping the env, per
step (``reference_run_episode``; its drafter draws each step's noise row
alone, where the engine draws an episode's rows from ``cfg.noise`` in one
or two passes, and both write ``cfg.robot``), and the plan's gripper
column walked one step at a time (``reference_gripper_states``; the
library guesses it and confirms it with the motion DoFs, replaying each
pass's commands at once with ``simenv._replay``, whose latch the tests
also check against ``_advance`` folded one row at a time). The library's
``decode_slice_sd`` is itself the composition of ``relaxed_accept``,
``decode_slice`` and ``accepted_error_kvar``, so the per-oracle loop
checks the engine's fused step against the rules it inlines. The plan's
target poses come from scipy's own ``CubicSpline`` (``reference_targets``),
which the library's own solve matches to within a stated bound; scipy
stays a test-only dependency, imported here and by the spline tests
alone. The threshold update as the paper prints it (``printed_delta``,
``printed_walk``) is kept here as a reference only: the library has one
update rule, and the printed one's walk from r_max is the same as that
rule's on equal bounds.
"""

import json
import math
import sys
from operator import itemgetter

import numpy as np
from scipy.interpolate import CubicSpline

from kerv.codec import (
    GRIPPER_DOF,
    N_DOF,
    NormKey,
    action_to_token,
    snap_gripper_token,
    token_to_action,
)
from kerv.simenv import (
    _KIND_IDS,
    _N_TOGGLES,
    _N_WAYPOINTS,
    _POS_RANGE,
    _ROT_RANGE,
    KINDS,
    _advance,
    _latch,
    _segment_steps,
)
from kerv.kinematics import KfBank, accumulate_kvar
from kerv.specdec import (
    REJECTED,
    EngineError,
    decode_slice_sd,
    relaxed_accept,
)
from kerv import threshold as threshold_mod
from kerv.threshold import CalibrationRow, ThresholdConfigError
from kerv.trace import MODES, EpisodeTrace, SliceRecord, TraceError


def matrix_kf_predict(observations, params, horizon=1):
    """Textbook constant-velocity Kalman filter over a window of observations.

    First observation initializes [position, 0]; later ones run
    predict/update. Returns the position extrapolated ``horizon`` steps past
    the final observation.
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


def reference_kf_replay(values, params):
    """The scalar constant-velocity filter run over a window from scratch.

    The first observation initializes position (velocity 0); each later one
    is a predict-then-correct cycle. Returns ``(pos, vel, p00, p01, p11)``.
    """
    dt = params.dt
    q = params.process_noise
    r = params.measurement_noise
    q00 = q * dt**4 / 4.0
    q01 = q * dt**3 / 2.0
    q11 = q * dt**2

    pos = values[0]
    vel = 0.0
    p00 = p11 = params.initial_variance
    p01 = 0.0
    for z in values[1:]:
        # predict
        pos = pos + dt * vel
        p00 = p00 + 2.0 * dt * p01 + dt * dt * p11 + q00
        p01 = p01 + dt * p11 + q01
        p11 = p11 + q11
        # correct
        s = p00 + r
        k0 = p00 / s
        k1 = p01 / s
        innov = z - pos
        pos = pos + k0 * innov
        vel = vel + k1 * innov
        p00, p01, p11 = (1.0 - k0) * p00, (1.0 - k0) * p01, p11 - k1 * p01
    return pos, vel, p00, p01, p11


def expected_verify_calls(q, depth, n=7):
    """Closed-form expected verify calls per slice under strict acceptance.

    Each round drafts ``m = min(depth, k)`` of the ``k`` open positions and
    verifies them in one call; every position misses independently with
    probability ``q``. A first miss at offset ``i`` (probability
    ``q(1-q)**i``) is replaced by the verifier's token, leaving
    ``k - i - 1`` positions; a clean round leaves ``k - m``:
    ``f(k) = 1 + sum_{i<m} q(1-q)**i f(k-i-1) + (1-q)**m f(k-m)``, ``f(0) = 0``.
    """
    f = [0.0] * (n + 1)
    for k in range(1, n + 1):
        m = min(depth, k)
        misses = sum(q * (1 - q) ** i * f[k - i - 1] for i in range(m))
        f[k] = 1.0 + misses + (1 - q) ** m * f[k - m]
    return f[n]


def relaxed_reject_prob(noise, r):
    """Probability that relaxed acceptance at threshold r rejects a draft
    position: it errs (``q_err``) and its offset magnitude passes floor(r),
    summed over the offset weights one at a time. A clamp at the vocabulary
    edge can shorten an offset; this ignores it, which is exact for a truth
    token at least ``max_offset`` from both edges."""
    return noise.q_err * sum(noise.offset_probs.tolist()[math.floor(r) :])


def mc_first_error_position(q_err, n_positions=7, samples=1_000_000, seed=0):
    """Monte-Carlo expectation of the 1-based first-miss position.

    Each of ``n_positions`` drafts misses independently with probability
    ``q_err``; slices with no miss are excluded, matching how the average
    first error position is reported.
    """
    rng = np.random.default_rng(seed)
    miss = rng.random((samples, n_positions)) < q_err
    any_miss = miss.any(axis=1)
    firsts = miss[any_miss].argmax(axis=1) + 1
    return float(firsts.mean())


_MASK64 = 2**64 - 1


def reference_mix64(z):
    """SplitMix64's finaliser of a 64-bit int, on Python ints."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_splitmix64(state):
    """SplitMix64 as Steele, Lea and Flood print it: each output adds the
    golden gamma to the state and returns the state's finaliser. Yields
    outputs without end."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        yield reference_mix64(state)


def reference_noise_row(noise, task_seed, t):
    """Step t's error flags and signed offsets, drawn one output at a time.

    The stream is SplitMix64 seeded with the finaliser of the seed word
    ``(noise seed << 32) | task seed`` (each masked to 31 bits); step t
    starts 21 t outputs in, which the state reaches by adding 21 t gammas.
    The step's 21 outputs are seven error uniforms, seven offset uniforms
    and seven signs (top bit); a uniform is the top 53 bits over 2**53, and
    an offset magnitude is one more than the number of cumulative weights,
    summed one at a time, that do not exceed its uniform.
    """
    seed_word = ((noise.seed & 0x7FFFFFFF) << 32) | (task_seed & 0x7FFFFFFF)
    key = reference_mix64(seed_word)
    draws = reference_splitmix64((key + 21 * t * 0x9E3779B97F4A7C15) & _MASK64)
    out = [next(draws) for _ in range(21)]
    uniforms = [(z >> 11) / 2**53 for z in out[:14]]
    cdf, acc = [], 0.0
    for p in noise.offset_probs.tolist():
        acc += p
        cdf.append(acc)
    cdf = [c / acc for c in cdf]
    errs = [u < noise.q_err for u in uniforms[:7]]
    magnitudes = [1 + sum(c <= u for c in cdf) for u in uniforms[7:]]
    offsets = [m if z >> 63 else -m for m, z in zip(magnitudes, out[14:])]
    return errs, offsets


def reference_draft_ids(truth_ids, noise, task_seed, t, vocab_size):
    """Draft-noise corruption of one truth slice: ``reference_noise_row``
    applied with ``reference_corrupt``."""
    return reference_corrupt(truth_ids, *reference_noise_row(noise, task_seed, t), vocab_size - 1)


def reference_corrupt(truth_ids, errs, offsets, vmax):
    """Each erring position offset and clamped to ``[0, vmax]``, one token
    at a time; an offset the clamp would cancel is mirrored."""
    ids = []
    for tok, err, off in zip(truth_ids, errs, offsets):
        if not err:
            ids.append(tok)
            continue
        corrupted = min(max(tok + off, 0), vmax)
        if corrupted == tok:
            corrupted = min(max(tok - off, 0), vmax)
        ids.append(corrupted)
    return tuple(ids)


def reference_task_waypoints(kind, seed):
    """The waypoints ``make_task`` draws, drawn in the same order and
    assembled the original way: one ``np.concatenate`` of a waypoint's
    position, rotation and gripper state, then ``float`` of each value."""
    rng = np.random.default_rng([_KIND_IDS[kind], seed & 0x7FFFFFFF])
    lo_n, hi_n = _N_WAYPOINTS[kind]
    n_way = int(rng.integers(lo_n, hi_n + 1))
    pos = rng.uniform(-_POS_RANGE, _POS_RANGE, size=(n_way, 3))
    rot = rng.uniform(-_ROT_RANGE, _ROT_RANGE, size=(n_way, 3))
    pos[0] = rng.uniform(-0.1, 0.1, size=3)
    rot[0] = 0.0
    while np.linalg.norm(pos[-1] - pos[0]) < 0.5:
        pos[-1] = rng.uniform(-_POS_RANGE, _POS_RANGE, size=3)
    grip = np.full(n_way, -1.0)
    if _N_TOGGLES[kind]:
        idx = rng.choice(np.arange(1, n_way), size=_N_TOGGLES[kind], replace=False)
        state = -1.0
        for i in sorted(idx):
            state = -state
            grip[i:] = state
    return tuple(
        tuple(map(float, np.concatenate([pos[i], rot[i], [grip[i]]])))
        for i in range(n_way)
    )


# norm keys for the bit-exact plan, tracking and decoding tests
PLAN_KEYS = [
    NormKey(),
    NormKey(lo=(-1.0,) * 6 + (0.6,), hi=(1.0,) * 6 + (2.0,)),  # every gripper token latches
    NormKey(lo=(-0.5,) * 7, hi=(0.5,) * 7, vocab_size=64),  # the gripper never latches
    NormKey(lo=(-0.05,) * 6 + (-1.0,), hi=(0.05,) * 6 + (1.0,), vocab_size=16),  # heavy clamping
    NormKey(vocab_size=2),
    NormKey(
        lo=(-0.3, -1.0, -0.2, -2.0, -0.7, -1.5, -1.0),
        hi=(0.9, 0.4, 1.1, 1.0, 0.6, 2.5, 1.0),
        vocab_size=200,
    ),
]


def reference_track(target, pose, key):
    """Tokens that move ``pose`` toward ``target``, one checked
    ``action_to_token`` call per DoF."""
    ids = []
    for dof in range(GRIPPER_DOF):
        desired = min(max(target[dof] - pose[dof], key.lo[dof]), key.hi[dof])
        ids.append(action_to_token(desired, dof, key))
    impulse = target[GRIPPER_DOF] if target[GRIPPER_DOF] != pose[GRIPPER_DOF] else 0.0
    ids.append(action_to_token(impulse, GRIPPER_DOF, key))
    return ids


def reference_decode_slice(ids, key):
    """Seven token ids decoded one checked ``token_to_action`` call at a time."""
    return tuple(token_to_action(tok, dof, key) for dof, tok in enumerate(ids))


def reference_targets(kind, seed, waypoints):
    """The pose a plan tracks at each time, (T+1, 7), with the motion
    channels fitted and evaluated by scipy's clamped ``CubicSpline``."""
    seg_steps = _segment_steps(kind, seed, len(waypoints))
    way = np.asarray(waypoints, dtype=float)
    t_way = np.concatenate([[0], np.cumsum(seg_steps)]).astype(float)
    ts = np.arange(int(t_way[-1]) + 1, dtype=float)
    motion = CubicSpline(t_way, way[:, :GRIPPER_DOF], axis=0, bc_type="clamped")(ts)
    way_idx = np.searchsorted(t_way, ts, side="right") - 1
    return np.column_stack([motion, way[way_idx, GRIPPER_DOF]])


def reference_plan(targets, key):
    """Poses, actions and tokens of a plan that tracks ``targets`` (rows of
    seven floats, the first the start pose), built the original way: one
    ``reference_track``, seven ``token_to_action`` calls and one
    ``_advance`` per step."""
    pose = targets[0]
    poses, actions, tokens = [pose], [], []
    for target in targets[1:]:
        ids = reference_track(target, pose, key)
        values = [token_to_action(tok, dof, key) for dof, tok in enumerate(ids)]
        pose = _advance(pose, values)
        poses.append(pose)
        actions.append(values)
        tokens.append(ids)
    return np.array(poses), np.array(actions), np.array(tokens, dtype=int)


def printed_delta(delta_k, r_max, r_min, phi, kvar_ref):
    """The paper's threshold update as printed,
    ``dr = (r_max - r_min) * exp((-dK / kvar_ref) ** phi)``; ``None`` where
    it is not defined (a negative base under a fractional power, or a
    result past the float range)."""
    try:
        dr = (r_max - r_min) * math.exp(math.pow(-delta_k / kvar_ref, phi))
    except (ValueError, OverflowError):
        return None
    return dr if math.isfinite(dr) else None


def printed_walk(kvar_steps, r_max, r_min, phi, kvar_ref):
    """r after each step of the printed controller loop, started at r_max
    with no prior variability: an undefined or zero-input update leaves r
    alone, ``r + dr`` is clamped to r_max, and r freezes at r_min once it
    reaches it."""
    r, prev, frozen = r_max, 0.0, False
    seen = []
    for k in kvar_steps:
        delta_k, prev = k - prev, k
        dr = None
        if delta_k != 0.0 and not frozen:
            dr = printed_delta(delta_k, r_max, r_min, phi, kvar_ref)
        if dr is not None:
            r = r + dr
            if r <= r_min:
                r, frozen = r_min, True
            r = min(r, r_max)
        seen.append(r)
    return seen


def reference_adjust(row, r, prev_kvar, kvar_step):
    """One controller step from ``row``'s parameters; returns the new r,
    clamped with the builtin ``min`` and ``max``."""
    if not (math.isfinite(kvar_step) and kvar_step >= 0):
        raise ThresholdConfigError(f"kvar_step must be finite and >= 0, got {kvar_step!r}")

    delta_k = kvar_step - prev_kvar
    if delta_k == 0.0:
        return r
    magnitude = (
        row.tau
        * (row.r_max - row.r_min)
        * (1.0 - math.exp(-abs(delta_k / row.kvar_ref) ** row.phi))
    )
    dr = -math.copysign(magnitude, delta_k)
    return min(max(r + dr, row.r_min), row.r_max)


def reference_replay_objective(traces, tau, phi, r_max, r_min, kvar_ref, key, step_penalty):
    """Score one (tau, phi) candidate the direct way: r walked afresh from
    r_max per trace, every recorded token pair decoded and judged again per
    slice."""
    row = CalibrationRow(tau, phi, r_max, r_min, kvar_ref, 0.0, 0.0)
    total_mass = 0.0
    total_rejections = 0
    total_slices = 0
    for trace in traces:
        r, prev_kvar = r_max, 0.0
        for rec in trace.slices:
            applied = math.floor(r)
            mass = 0.0
            for pos, (draft_id, true_id) in enumerate(zip(rec.draft_ids, rec.true_ids)):
                if draft_id is None or true_id is None:
                    continue
                dist = abs(draft_id - true_id)
                if dist == 0:
                    continue
                if dist <= applied:
                    mass += abs(
                        token_to_action(true_id, pos, key)
                        - token_to_action(draft_id, pos, key)
                    )
                else:
                    total_rejections += 1
            total_mass += mass
            total_slices += 1
            r, prev_kvar = reference_adjust(row, r, prev_kvar, mass), mass
    if total_slices == 0:
        raise ThresholdConfigError("calibration traces contain no slices")
    mean_mass = total_mass / total_slices
    mean_rounds = 1.0 + total_rejections / total_slices
    success_proxy = 1.0 / (1.0 + mean_mass)
    return success_proxy - step_penalty * mean_rounds


def reference_accepted_error_kvar(rec, key):
    """Per-slice kinematic variability as first written: zero-padded
    correct and erroneous action slices, holding the true and draft actions
    at the relaxed-accepted positions, then their L1 distance over all
    seven positions."""
    correct = [0.0] * 7
    erroneous = [0.0] * 7
    for pos, status in enumerate(rec.statuses):
        if status == "relaxed":
            correct[pos] = token_to_action(rec.true_ids[pos], pos, key)
            erroneous[pos] = token_to_action(rec.draft_ids[pos], pos, key)
    return sum(abs(c - e) for c, e in zip(correct, erroneous))


def reference_decode_slice_sd(drafted, truths, r, depth, key, bank, kf_pl):
    """A slice decided the way the per-round draft/verify loop decided it:
    each round asks each row for the ``want`` tokens after the ones placed
    so far, as an oracle answering from one fixed row per step did, then
    judges them with ``relaxed_accept`` until the first rejection. Returns
    the tokens, rounds, ids and statuses, with the first error position
    and the compensation flag tracked while deciding, apart from the
    statuses that ``SliceResult`` derives them from, as a dict."""
    if not 1 <= depth <= N_DOF:
        raise EngineError(f"draft depth must be in [1, {N_DOF}], got {depth}")
    if not 0 <= r < math.inf:  # refuses nan too
        raise EngineError(f"acceptance threshold must be finite and >= 0, got {r}")

    vocab = key.vocab_size
    tokens = []
    draft_ids = [None] * N_DOF
    true_ids = [None] * N_DOF
    statuses = [None] * N_DOF
    first_error = N_DOF
    rounds = 0
    comp_fired = False

    base = 0  # positions decoded so far
    while base < N_DOF:
        want = min(depth, N_DOF - base)
        prefix = tuple(tokens)
        round_drafts = drafted[len(prefix) : len(prefix) + want]
        if len(round_drafts) != want:
            raise EngineError(f"draft oracle returned {len(round_drafts)} tokens, wanted {want}")
        round_truths = truths[len(prefix) : len(prefix) + len(round_drafts)]
        if len(round_truths) != want:
            raise EngineError(f"verify oracle returned {len(round_truths)} tokens, wanted {want}")
        rounds += 1

        for pos, d_tok, t_tok in zip(range(base, N_DOF), round_drafts, round_truths):
            if type(d_tok) is not int or not 0 <= d_tok < vocab:
                raise _bad_token("draft", pos, d_tok, vocab)
            if type(t_tok) is not int or not 0 <= t_tok < vocab:
                raise _bad_token("verify", pos, t_tok, vocab)
            draft_ids[pos] = d_tok
            true_ids[pos] = t_tok
            status = statuses[pos] = relaxed_accept(d_tok, t_tok, r)
            if status != REJECTED:
                tokens.append(d_tok)
                continue

            if first_error == N_DOF:
                first_error = pos
            tokens.append(t_tok)
            if bank is not None and rounds == 1 and pos < N_DOF - 1:
                predicted = bank.predict(kf_pl)
                for dof in range(pos + 1, N_DOF):
                    if dof == GRIPPER_DOF:
                        tokens.append(snap_gripper_token(predicted[dof], key))
                    else:
                        tokens.append(action_to_token(predicted[dof], dof, key))
                comp_fired = True
            break
        base = len(tokens)  # a compensated slice is full

    return {
        "tokens": tuple(tokens),
        "first_error_pos": first_error,
        "rounds": rounds,
        "comp_fired": comp_fired,
        "draft_ids": tuple(draft_ids),
        "true_ids": tuple(true_ids),
        "statuses": tuple(statuses),
    }


def reference_run_episode(env, draft, verify, cfg, mode, row=None, *, outcomes=None):
    """An episode decoded the way ``run_episode`` decoded it before it fused
    each step into one pass: per step, ``draft.draft()`` gives the draft
    row and ``verify.verify(drafted)`` the truth row (``oracle_policy``),
    ``decode_slice_sd`` judges and decodes the slice, the bank takes its
    actions and ``env.step`` moves the env (``_advance``). The loop is kept
    as it was, and serves any oracles that answer with one row per step. It
    is the reference of ``run_episode`` in every mode.

    A given ``outcomes`` list gets each slice's (first error position,
    compensation flag, rounds) as ``reference_decode_slice_sd`` tracks them
    while deciding it one round at a time, apart from the ids and r a record
    derives the first two from and the rejection mask the engine reads its
    rounds from. A record stores no statuses, so each slice's statuses, as
    ``decode_slice_sd`` judged them, are checked against the ones its record
    derives from its ids and r."""
    if mode not in MODES:
        raise EngineError(f"unknown mode {mode!r}; expected one of {MODES}")
    if env.t != 0:
        raise EngineError(f"env must be fresh to decode an episode, but it is at step {env.t}")
    for oracle in (draft, verify):
        if getattr(oracle, "env", env) is not env:
            raise EngineError(
                f"{type(oracle).__name__} is bound to another env than the one it decodes"
            )
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
    records = []

    while not env.done:
        # the decoder compensates only from a bank it is handed
        comp_bank = bank if cooldown == 0 and bank is not None and bank.has_context else None
        drafted = draft.draft()
        truths = verify.verify(drafted)
        result = decode_slice_sd(
            drafted, truths, r=r, depth=cfg.depth, key=cfg.key, bank=comp_bank, kf_pl=cfg.pl
        )
        if outcomes is not None:  # before the bank takes this slice
            ref = reference_decode_slice_sd(
                drafted, truths, r, cfg.depth, cfg.key, comp_bank, cfg.pl
            )
            outcomes.append((ref["first_error_pos"], ref["comp_fired"], ref["rounds"]))
        if bank is not None:
            bank.push_slice(result.actions)
        env.step(result.actions)

        kstep = result.kvar
        kvar_cum = accumulate_kvar(kvar_cum, kstep)

        if result.comp_fired:
            cooldown = cfg.comp_n
        elif cooldown > 0:
            cooldown -= 1

        drafted = N_DOF - result.draft_ids.count(None)
        record = SliceRecord(
            draft_ids=result.draft_ids,
            true_ids=result.true_ids,
            fill=result.tokens[drafted:],
            r=r,
            kvar_step=kstep,
            kvar_cum=kvar_cum,
            verify_calls=result.rounds,
        )
        assert record.statuses == result.statuses, (env.t, record.statuses, result.statuses)
        assert record.tokens == result.tokens, (env.t, record.tokens, result.tokens)
        records.append(record)
        if kerv:
            r = threshold_mod.adjust(row, r, prev_kvar, kstep)
            prev_kvar = kstep

    return EpisodeTrace(
        suite=env.suite,
        kind=env.spec.kind,
        mode=mode,
        robot=cfg.robot,
        trial=env.trial,
        seed=env.spec.seed,
        comp_n=cfg.comp_n,
        slices=records,
        success=env.succeeded,
        steps=env.t,
        deviation=env.deviation,
        plan_steps=env.plan.steps,
    )


def _bad_token(oracle, pos, tok, vocab):
    return EngineError(
        f"{oracle} oracle returned {tok!r} at position {pos}; "
        f"tokens must be ints in [0, {vocab - 1}]"
    )


def reference_gripper_states(targets, key):
    """The gripper column of a plan's poses, one step at a time: the
    impulse toward each target (a list of floats), encoded and decoded,
    then latched."""
    state = targets[0]
    states = [state]
    commands = {}
    for target in targets[1:]:
        impulse = target if target != state else 0.0
        command = commands.get(impulse)
        if command is None:
            tok = action_to_token(impulse, GRIPPER_DOF, key)
            command = commands[impulse] = token_to_action(tok, GRIPPER_DOF, key)
        state = _latch(state, command)
        states.append(state)
    return states


# a slice record's fields, written out here rather than read from the
# record type
TRACE_RECORD_FIELDS = (
    "draft_ids", "true_ids", "fill", "r", "kvar_step", "kvar_cum", "verify_calls",
)


def reference_trace_dumps(trace):
    """JSON-lines text of a trace, one ``json.dumps(..., sort_keys=True)``
    per line; a record's field dict is read field by field."""
    lines = [json.dumps({"episode": trace.meta()}, sort_keys=True)]
    for rec in trace.slices:
        fields = {name: getattr(rec, name) for name in TRACE_RECORD_FIELDS}
        lines.append(json.dumps(fields, sort_keys=True))
    lines.append(json.dumps({"summary": trace.summary()}, sort_keys=True))
    return "\n".join(lines) + "\n"


# The trace loader as it was before it checked each record in one pass:
# ``reference_trace_loads`` and its helpers are kept as they were written,
# with their tables copied here. The scalar type tables are written out, as
# the loader read them from string annotations the record type no longer
# has. The tables follow the 7-field record and the header that holds the
# run's comp_n, and ``_check_judged`` walks the slots one at a time where
# the library counts nulls. ``_check_known`` was added later, with the
# library's rule that a line names no key it does not define; it lists the
# keys one at a time where the library compares counts.
# ``_check_compensated``, ``_check_fill``, ``_check_verify_calls``,
# ``_check_kvar_cum`` and ``_check_runnable`` were added with the library's
# rules that a record does not contradict itself, the record before it or
# what its header's run could decode, written from the rules themselves.
_HEADER_FIELDS = ("suite", "kind", "mode", "robot", "trial", "seed", "comp_n")
_SUMMARY_FIELDS = ("success", "steps", "deviation", "plan_steps")
_SLOT_FIELDS = ("draft_ids", "true_ids", "fill")
_SLOTS = itemgetter(*_SLOT_FIELDS)
_TYPE_NAMES = {int: "an int", float: "a float", str: "a string", bool: "a bool"}
_RANGES = {
    "episode": (("trial", 0, math.inf, ">= 0"), ("comp_n", 0, math.inf, ">= 0")),
    "record": (
        ("verify_calls", 1, 7, "in [1, 7]"),
        ("r", 0, sys.float_info.max, "finite and >= 0"),
        ("kvar_step", 0, sys.float_info.max, "finite and >= 0"),
        ("kvar_cum", 0, math.inf, ">= 0"),
    ),
    "summary": (
        ("steps", 0, math.inf, ">= 0"),
        ("deviation", 0, math.inf, ">= 0"),
        ("plan_steps", 0, math.inf, ">= 0"),
    ),
}
_INT, _FLOAT, _STR, _BOOL = {int}, {int, float}, {str}, {bool}
_HEADER_TYPES = (
    ("suite", _STR), ("kind", _STR), ("mode", _STR), ("robot", _STR), ("trial", _INT),
    ("seed", _INT), ("comp_n", _INT),
)
_SUMMARY_TYPES = (
    ("success", _BOOL), ("steps", _INT), ("deviation", _FLOAT), ("plan_steps", _INT),
)
_RECORD_TYPES = (
    ("r", _FLOAT), ("kvar_step", _FLOAT), ("kvar_cum", _FLOAT), ("verify_calls", _INT),
)


def _parse_constant(name):
    # a run writes +-Infinity where a deviation overflows, but never NaN
    if name == "NaN":
        raise ValueError("NaN is not a trace value")
    return float(name)


_DECODER = json.JSONDecoder(parse_constant=_parse_constant)


def _record_from_dict(d: dict) -> SliceRecord:
    return SliceRecord(
        draft_ids=tuple(d["draft_ids"]),
        true_ids=tuple(d["true_ids"]),
        fill=tuple(d["fill"]),
        r=d["r"],
        kvar_step=d["kvar_step"],
        kvar_cum=d["kvar_cum"],
        verify_calls=d["verify_calls"],
    )


def _check_scalars(obj, part: str, types: tuple, lineno: int) -> None:
    """Each scalar field of a line's ``part`` of an accepted type, and each
    numeric one in its range (``_RANGES``)."""
    if type(obj) is not dict:
        raise TraceError(f"line {lineno}: {part} must be a JSON object, got {obj!r}")
    for name, allowed in types:
        value = obj[name]
        if type(value) not in allowed:
            what = " or ".join(sorted(_TYPE_NAMES[t] for t in allowed))
            raise TraceError(f"line {lineno}: {part} {name} must be {what}, got {value!r}")
    for name, lowest, highest, need in _RANGES[part]:
        value = obj[name]
        if not lowest <= value <= highest:
            raise TraceError(f"line {lineno}: {part} {name} must be {need}, got {value!r}")


def _check_slots(obj: dict, lineno: int) -> None:
    """Each id field a list of 7 slots, each an int or null, and the fill a
    list of ints."""
    lists = _SLOTS(obj)
    for name, slots in zip(_SLOT_FIELDS, lists):
        if type(slots) is not list:
            shape = "a list" if name == "fill" else "a list of 7 items"
            raise TraceError(f"line {lineno}: {name} must be {shape}, got {slots!r}")
        if name != "fill" and len(slots) != 7:
            raise TraceError(f"line {lineno}: {name} must be a list of 7 items, got {slots!r}")
    draft_ids, true_ids, fill = lists
    for tok in draft_ids + true_ids:
        if type(tok) is not int and tok is not None:
            raise TraceError(f"line {lineno}: ids must be ints or null, got {tok!r}")
    for tok in fill:
        if type(tok) is not int:
            raise TraceError(f"line {lineno}: fill tokens must be ints, got {tok!r}")


def _check_known(obj: dict, names: tuple, part: str, lineno: int) -> None:
    """No key of a line's ``part`` outside ``names``; the others are named, sorted."""
    unknown = sorted(key for key in obj if key not in names)
    if unknown:
        raise TraceError(f"line {lineno}: {part} has unknown keys {unknown}")


def _check_judged(obj: dict, lineno: int) -> None:
    """Each slot judged (both ids) or filled (neither), one slot at a time."""
    draft_ids, true_ids = obj["draft_ids"], obj["true_ids"]
    for d, t in zip(draft_ids, true_ids):
        if (d is None) != (t is None):
            raise TraceError(
                f"line {lineno}: draft_ids and true_ids must be null at the same slots, got "
                f"draft_ids {tuple(draft_ids)!r}, true_ids {tuple(true_ids)!r}"
            )


def _check_compensated(obj: dict, lineno: int) -> None:
    """A record with a null slot was compensated: walking its slots, every
    drafted one comes before every null, exactly one drafted slot is
    rejected and it is the last, and the slice took one verify call."""
    draft_ids, true_ids, r = obj["draft_ids"], obj["true_ids"], obj["r"]
    if all(d is not None for d in draft_ids):
        return
    nulls = rejections = 0
    drafted_after_a_null = last_rejected = False
    for d, t in zip(draft_ids, true_ids):
        if d is None:
            nulls += 1
            continue
        drafted_after_a_null |= nulls > 0
        last_rejected = abs(d - t) > math.floor(r)
        rejections += last_rejected
    if drafted_after_a_null or rejections != 1 or not last_rejected:
        raise TraceError(
            f"line {lineno}: null slots must follow the only rejection to the end, got "
            f"draft_ids {tuple(draft_ids)!r}, true_ids {tuple(true_ids)!r} at r {r!r}"
        )
    if obj["verify_calls"] != 1:
        raise TraceError(
            f"line {lineno}: a compensated record must have verify_calls 1, "
            f"got {obj['verify_calls']}"
        )


def _check_fill(obj: dict, lineno: int) -> None:
    """The fill holds one token for each slot the filter filled, which has
    null ids."""
    nulls = sum(1 for d in obj["draft_ids"] if d is None)
    if len(obj["fill"]) != nulls:
        raise TraceError(
            f"line {lineno}: fill must hold {nulls} tokens, one per null slot, got {obj['fill']!r}"
        )


def _check_verify_calls(obj: dict, lineno: int) -> None:
    """A record with no null slot took at least a round per rejection, and
    one more unless its last rejection is at slot 6."""
    draft_ids, true_ids, r = obj["draft_ids"], obj["true_ids"], obj["r"]
    if None in draft_ids:
        return
    rejected = [pos for pos in range(7) if abs(draft_ids[pos] - true_ids[pos]) > math.floor(r)]
    rounds = len(rejected)
    if not rejected or rejected[-1] != 6:
        rounds += 1
    if obj["verify_calls"] < rounds:
        last = rejected[-1] if rejected else -1
        raise TraceError(
            f"line {lineno}: a record with {len(rejected)} rejections, the last at slot "
            f"{last}, must have verify_calls >= {rounds}, got {obj['verify_calls']}"
        )


def _check_kvar_cum(obj: dict, previous: float, lineno: int) -> None:
    """A record's ``kvar_cum`` is the previous record's plus its ``kvar_step``."""
    if obj["kvar_cum"] != previous + obj["kvar_step"]:
        raise TraceError(
            f"line {lineno}: record kvar_cum must be the previous {previous!r} plus "
            f"{obj['kvar_step']!r}, got {obj['kvar_cum']!r}"
        )


def _check_runnable(obj: dict, trace: EpisodeTrace, lineno: int) -> None:
    """What the header's run could decode after ``trace.slices``: only kerv
    compensates, and only from a filter that holds a slice and more than
    comp_n records after its last compensation; naive decodes at r = 0, and
    fixed_relaxed at one r throughout."""
    mode, slices, r = trace.mode, trace.slices, obj["r"]
    if any(d is None for d in obj["draft_ids"]):
        if mode in ("naive", "fixed_relaxed"):
            raise TraceError(f"line {lineno}: a {mode} record cannot be compensated")
        if not slices:
            raise TraceError(
                f"line {lineno}: the first record cannot be compensated: the filter holds no "
                "context"
            )
        compensated = [i for i, rec in enumerate(slices) if None in rec.draft_ids]
        if compensated:
            since = len(slices) - compensated[-1]  # records since the last compensation
            if since <= trace.comp_n:
                raise TraceError(
                    f"line {lineno}: a record cannot be compensated with "
                    f"{trace.comp_n - since + 1} cooldown slices left"
                )
    if mode == "naive" and r != 0:
        raise TraceError(f"line {lineno}: a naive record must have r 0.0, got {r!r}")
    if mode == "fixed_relaxed" and slices and r != slices[0].r:
        raise TraceError(
            f"line {lineno}: a fixed_relaxed record must have the first record's r "
            f"{slices[0].r!r}, got {r!r}"
        )


def reference_trace_loads(text: str) -> EpisodeTrace:
    trace: EpisodeTrace | None = None
    summarized = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = _DECODER.decode(raw)
        except ValueError as exc:  # malformed JSON, or NaN
            raise TraceError(f"line {lineno}: not a JSON record ({exc})") from None
        if not isinstance(obj, dict):
            raise TraceError(f"line {lineno}: not a JSON object")
        if summarized:
            raise TraceError(f"line {lineno}: record after the summary line")
        try:
            if "episode" in obj:
                if trace is not None:
                    raise TraceError(f"line {lineno}: second episode header")
                _check_known(obj, ("episode",), "episode line", lineno)
                m = obj["episode"]
                _check_scalars(m, "episode", _HEADER_TYPES, lineno)
                _check_known(m, _HEADER_FIELDS, "episode", lineno)
                for name, known in (("mode", MODES), ("kind", KINDS)):
                    if m[name] not in known:
                        raise TraceError(
                            f"line {lineno}: episode {name} must be one of {known}, got {m[name]!r}"
                        )
                trace = EpisodeTrace(**{name: m[name] for name in _HEADER_FIELDS})
            elif "summary" in obj:
                if trace is None:
                    raise TraceError(f"line {lineno}: summary before episode header")
                _check_known(obj, ("summary",), "summary line", lineno)
                s = obj["summary"]
                _check_scalars(s, "summary", _SUMMARY_TYPES, lineno)
                _check_known(s, _SUMMARY_FIELDS, "summary", lineno)
                for name in _SUMMARY_FIELDS:
                    setattr(trace, name, s[name])
                summarized = True
            else:
                if trace is None:
                    raise TraceError(f"line {lineno}: slice record before episode header")
                _check_slots(obj, lineno)
                _check_scalars(obj, "record", _RECORD_TYPES, lineno)
                _check_known(obj, TRACE_RECORD_FIELDS, "record", lineno)
                _check_judged(obj, lineno)
                _check_compensated(obj, lineno)
                _check_fill(obj, lineno)
                _check_verify_calls(obj, lineno)
                previous = trace.slices[-1].kvar_cum if trace.slices else 0.0
                _check_kvar_cum(obj, previous, lineno)
                _check_runnable(obj, trace, lineno)
                trace.slices.append(_record_from_dict(obj))
        except KeyError as exc:
            raise TraceError(f"line {lineno}: record has no {exc.args[0]!r} field") from None
    if trace is None:
        raise TraceError("empty trace stream")
    if not summarized:
        raise TraceError("trace stream ends without a summary line (truncated?)")
    if len(trace.slices) != trace.steps:
        raise TraceError(
            f"trace has {len(trace.slices)} slice records but its summary says "
            f"{trace.steps} steps"
        )
    return trace


def reference_default_config_text(trials=50):
    """The hand-written default configuration that ``config.default_config``
    replaced; every value in it is written out independently of the
    dataclass defaults."""
    return f"""\
# token grid
codec.vocab_size = 256
dof0 = -1,1
dof1 = -1,1
dof2 = -1,1
dof3 = -1,1
dof4 = -1,1
dof5 = -1,1
dof6 = -1,1

# kinematic predictor
kf.process_noise = 1e-3
kf.measurement_noise = 1e-2
kf.initial_variance = 1.0
kf.dt = 1.0
kf.ac = 10
kf.pl = 1

# compensation
comp.n = 4

# drafting and thresholds
sd.depth = 4
threshold.fixed_r = 9
threshold.r_max = 15
threshold.r_min = 5

# latency cost model (time units per operation)
cost.verify = 1.0
cost.draft = 0.02
cost.kf = 0.001
cost.adjust = 0.0005
cost.transfer = 0.002

# draft noise
noise.q_err = 0.48
noise.max_offset = 60
noise.zipf_s = 0.8
noise.seed = 0

robot = sim7dof
run.modes = naive,fixed_relaxed,kerv
run.seed_offset = 0

# task suites
suite.goal.kind = reach
suite.goal.trials = {trials}
suite.goal.seed_base = 1000
suite.object.kind = pick_place
suite.object.trials = {trials}
suite.object.seed_base = 2000
suite.spatial.kind = reach
suite.spatial.trials = {trials}
suite.spatial.seed_base = 3000
suite.long.kind = long_horizon
suite.long.trials = {trials}
suite.long.seed_base = 4000
"""
