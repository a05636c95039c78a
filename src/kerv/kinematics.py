"""Per-DoF Kalman-filter action prediction and the running kinematic variability.

Each DoF gets an independent constant-velocity scalar filter (state =
position and velocity) over a bounded window of the most recent executed
action values, so the action-context bound genuinely limits how much history
the predictor sees: prediction behaves like a sliding-window filter. The
filter's covariance and gains do not depend on the observations, so its
estimates are fixed linear weights on the window (``_weights``, cached per
parameters and window length): pushing only appends to the window, and a
read is one (2, n) x (n, 7) product.

``accumulate_kvar`` checks one slice's kinematic variability and folds it
into an episode's running sum; ``specdec.accepted_error_kvar`` measures that
per-slice value from the decoded slice.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=256)
def _weights(params: KfParams, n: int) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Fixed linear weights of the filter run over a window of ``n`` observations.

    The first observation initializes position (velocity 0); each later one
    is a predict-then-correct cycle. The covariance and gains do not depend
    on the observations, so the recursion runs once over coefficient
    vectors: row 0 of the returned (2, n) array weighs the window into the
    position estimate and row 1 into the velocity. The second item is the
    final (p00, p01, p11) covariance.
    """
    dt = params.dt
    q = params.process_noise
    r = params.measurement_noise
    q00 = q * dt**4 / 4.0
    q01 = q * dt**3 / 2.0
    q11 = q * dt**2

    pos = np.zeros(n)
    pos[0] = 1.0
    vel = np.zeros(n)
    p00 = p11 = params.initial_variance
    p01 = 0.0
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
    weights = np.stack([pos, vel])
    weights.flags.writeable = False
    return weights, (p00, p01, p11)


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
        weights, _ = _weights(self.params, len(self.window))
        pos, vel = (weights @ np.array(self.window)).tolist()
        dt = self.params.dt
        return tuple(p + pl * dt * v for p, v in zip(pos, vel))


def accumulate_kvar(cumulative: float, step_value: float) -> float:
    """Fold one step's kinematic variability into the running sum."""
    if not (math.isfinite(step_value) and step_value >= 0):
        raise KinematicsError(f"step variability must be finite and >= 0, got {step_value!r}")
    return cumulative + step_value
