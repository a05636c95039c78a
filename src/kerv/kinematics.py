"""Per-DoF Kalman-filter action prediction and the running kinematic variability.

Each DoF gets an independent constant-velocity scalar filter (state =
position and velocity) over a bounded window of the most recent executed
action values, so the action-context bound genuinely limits how much history
the predictor sees: prediction behaves like a sliding-window filter. The
filter's covariance and gains do not depend on the observations, so its
estimates are fixed linear weights on the window (``_weights``, cached per
parameters and window length): pushing only appends to the window, and a
read is one (2, n) x (n, 7) product. The weights' largest norms over every
window length (``weight_norms``) bound every prediction, so a config can
refuse settings whose predictions could pass the float range.

``accumulate_kvar`` checks one slice's kinematic variability and folds it
into an episode's running sum; the closed loop (``specdec.run_episode``)
measures that per-slice value as it decodes the slice, and
``specdec.accepted_error_kvar`` rebuilds it from a trace record.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

DEFAULT_AC = 10


class KinematicsError(ValueError):
    """Raised for invalid filter parameters, window bounds or variability values."""


class NoContextError(RuntimeError):
    """Raised when a prediction is requested before any action was cached."""


@dataclass(frozen=True)
class KfParams:
    """Filter noise configuration.

    process_noise scales a discrete white-noise-acceleration covariance,
    measurement_noise is the observation variance, initial_variance seeds
    the state covariance diagonal, dt is the inter-slice interval.
    """

    process_noise: float = 1e-3
    measurement_noise: float = 1e-2
    initial_variance: float = 1.0
    dt: float = 1.0

    def __post_init__(self) -> None:
        for name in ("process_noise", "measurement_noise", "initial_variance", "dt"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise KinematicsError(f"{name} must be finite and > 0, got {v!r}")
        try:
            terms = _process_noise(self)
        except OverflowError:  # a power past the float range
            terms = (math.inf,)
        if not all(map(math.isfinite, terms)):
            raise KinematicsError(
                f"dt = {self.dt!r} with process_noise = {self.process_noise!r} puts the "
                f"filter's process noise q * dt**4 / 4 past the float range"
            )


def _process_noise(params: KfParams) -> tuple[float, float, float]:
    """The (q00, q01, q11) process-noise covariance of one filter step."""
    dt = params.dt
    q = params.process_noise
    return q * dt**4 / 4.0, q * dt**3 / 2.0, q * dt**2


def _filter_runs(params: KfParams, n: int):
    """The filter run over coefficient vectors of length ``n``: yields the
    position and velocity weights (each an (n,) array, zero past the
    observations taken) and the (p00, p01, p11) covariance after each of
    the ``n`` observations.

    The first observation initializes position (velocity 0); each later one
    is a predict-then-correct cycle. The covariance and gains do not depend
    on the observations, so the recursion runs once over coefficient
    vectors. Entry i is untouched until observation i, so the weights after
    m observations are, in their first m entries, those of a run over
    vectors of length m.
    """
    dt = params.dt
    r = params.measurement_noise
    q00, q01, q11 = _process_noise(params)

    pos = np.zeros(n)
    pos[0] = 1.0
    vel = np.zeros(n)
    p00 = p11 = params.initial_variance
    p01 = 0.0
    yield pos, vel, (p00, p01, p11)
    for i in range(1, n):
        # predict
        pos = pos + dt * vel
        p00 = p00 + 2.0 * dt * p01 + dt * dt * p11 + q00
        p01 = p01 + dt * p11 + q01
        p11 = p11 + q11
        # correct
        s = p00 + r
        k0 = p00 / s
        k1 = p01 / s
        innov = -pos
        innov[i] += 1.0
        pos = pos + k0 * innov
        vel = vel + k1 * innov
        p00, p01, p11 = (1.0 - k0) * p00, (1.0 - k0) * p01, p11 - k1 * p01
        yield pos, vel, (p00, p01, p11)


@functools.lru_cache(maxsize=256)
def _weights(params: KfParams, n: int) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Fixed linear weights of the filter run over a window of ``n`` observations.

    Row 0 of the returned (2, n) array weighs the window into the position
    estimate and row 1 into the velocity (``_filter_runs`` after the last
    observation). The second item is the final (p00, p01, p11) covariance.
    """
    for pos, vel, cov in _filter_runs(params, n):
        pass
    weights = np.stack([pos, vel])
    weights.flags.writeable = False
    return weights, cov


@functools.lru_cache(maxsize=64)
def weight_norms(params: KfParams, n: int) -> tuple[float, float]:
    """The largest L1 norm of the position weights and of the velocity
    weights over windows of 1 to ``n`` observations; NaN if a weight is.

    Each window's weights are the first entries of one run's
    (``_filter_runs``), so their norms are read off that run as it goes.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        norms = [(np.abs(pos).sum(), np.abs(vel).sum()) for pos, vel, _ in _filter_runs(params, n)]
    pos_norm, vel_norm = np.max(norms, axis=0).tolist()
    return pos_norm, vel_norm


class KfBank:
    """Seven independent constant-velocity filters over one bounded window.

    The window holds the last ``ac`` executed slices, oldest first. Every
    read applies the cached ``_weights`` for the current window length, so
    identical (params, window) always yield identical estimates.
    Single-writer: one bank per episode.
    """

    def __init__(self, params: KfParams | None = None, ac: int = DEFAULT_AC) -> None:
        if ac < 1:
            raise KinematicsError(f"action context must be >= 1, got {ac}")
        self.params = params or KfParams()
        self.ac = ac
        self.window: deque[tuple[float, ...]] = deque(maxlen=ac)

    @property
    def has_context(self) -> bool:
        return bool(self.window)

    def push_slice(self, values: tuple[float, ...]) -> None:
        """Append one executed slice (the seven floats ``decode_slice``
        returns), evicting the oldest past ``ac``."""
        self.window.append(values)

    def predict(self, pl: int) -> tuple[float, ...]:
        """Roll each filter forward ``pl`` steps with no new measurements
        and return the slice predicted that far ahead; the window does not
        change."""
        if pl < 1:
            raise KinematicsError(f"prediction length must be >= 1, got {pl}")
        if not self.window:
            raise NoContextError("no action context: push at least one slice first")
        n = len(self.window)
        weights, _ = _weights(self.params, n)
        # the (n, 7) window, read straight from the floats of its tuples
        window = np.fromiter(itertools.chain.from_iterable(self.window), float, n * 7)
        pos, vel = (weights @ window.reshape(n, 7)).tolist()
        dt = self.params.dt
        return tuple(p + pl * dt * v for p, v in zip(pos, vel))


def accumulate_kvar(cumulative: float, step_value: float) -> float:
    """Fold one step's kinematic variability into the running sum."""
    if not (math.isfinite(step_value) and step_value >= 0):
        raise KinematicsError(f"step variability must be finite and >= 0, got {step_value!r}")
    return cumulative + step_value
