"""Independent reference implementations used to generate expected values.

These deliberately avoid the library's code paths: the filter oracle uses
textbook 2x2 matrix arithmetic via numpy, and the first-error-position
oracle is a direct Monte-Carlo simulation of per-position Bernoulli misses.
"""

import numpy as np


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


def reference_draft_ids(truth_ids, noise, task_seed, t, vocab_size):
    """Draft-noise corruption of one truth slice, drawn the original way.

    One ``default_rng`` per (noise seed, task seed, step), then the error
    mask, ``choice`` over offset magnitudes weighted by ``offset_probs``,
    and ``choice`` over the signs; an offset that clamping at the
    vocabulary edge would cancel is mirrored.
    """
    n = len(truth_ids)
    rng = np.random.default_rng(
        [noise.seed & 0x7FFFFFFF, task_seed & 0x7FFFFFFF, t, 0x5EED]
    )
    errs = rng.random(n) < noise.q_err
    magnitudes = rng.choice(
        np.arange(1, noise.max_offset + 1), size=n, p=noise.offset_probs
    )
    signs = rng.choice(np.array([-1, 1]), size=n)
    vmax = vocab_size - 1
    ids = []
    for dof, tok in enumerate(truth_ids):
        if not errs[dof]:
            ids.append(tok)
            continue
        off = int(signs[dof] * magnitudes[dof])
        corrupted = min(max(tok + off, 0), vmax)
        if corrupted == tok:
            corrupted = min(max(tok - off, 0), vmax)
        ids.append(corrupted)
    return tuple(ids)
