"""Per-DoF Kalman-filter action prediction and the kinematic-variability metric.

Each DoF gets an independent constant-velocity scalar filter (state =
position and velocity) fed from a bounded cache of the most recent executed
action values. Filter state is the deterministic replay of the cache
contents, so the action-context bound genuinely limits how much history the
predictor sees: prediction behaves like a sliding-window filter. Pushing
only appends to the caches; the replay runs when a prediction or state is
read and the caches changed since the last replay.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .codec import N_DOF, ActionSlice

DEFAULT_AC = 10


class KinematicsError(ValueError):
    """Raised for invalid filter parameters or non-finite observations."""


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


class DofCache:
    """Bounded history of executed action values for one DoF, oldest-first."""

    def __init__(self, capacity: int = DEFAULT_AC) -> None:
        if capacity < 1:
            raise KinematicsError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._values: deque[float] = deque(maxlen=capacity)

    def append(self, value: float) -> None:
        if not math.isfinite(value):
            raise KinematicsError(f"cached action must be finite, got {value!r}")
        self._values.append(value)

    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)


@dataclass
class _FilterState:
    """Scalar constant-velocity state: estimates plus 2x2 covariance terms."""

    pos: float
    vel: float
    p00: float
    p01: float
    p11: float


def _replay(values: tuple[float, ...], params: KfParams) -> _FilterState:
    """Run the filter over a window of observations from scratch.

    The first observation initializes position (velocity 0); each later one
    is a predict-then-correct cycle.
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
    return _FilterState(pos, vel, p00, p01, p11)


class KfBank:
    """Seven independent constant-velocity filters with bounded action caches.

    Single-writer: one bank per episode. Every read sees the replay of the
    current cache contents, so identical (params, observation window)
    always yield identical predictions.
    """

    def __init__(self, params: KfParams | None = None, ac: int = DEFAULT_AC) -> None:
        self.params = params or KfParams()
        self.ac = ac
        self.caches = [DofCache(ac) for _ in range(N_DOF)]
        self._states: list[_FilterState] = []
        self._stale = False

    @property
    def has_context(self) -> bool:
        return all(len(c) > 0 for c in self.caches)

    def push_slice(self, actions: ActionSlice) -> None:
        """Append one executed slice; filter states are replayed on the next read."""
        for dof in range(N_DOF):
            self.caches[dof].append(actions.values[dof])
        self._stale = True

    def _replayed(self) -> list[_FilterState]:
        if self._stale:
            self._states = [_replay(c.values(), self.params) for c in self.caches]
            self._stale = False
        return self._states

    def predict(self, pl: int) -> list[ActionSlice]:
        """Roll each filter forward ``pl`` steps with no new measurements.

        Returns one predicted slice per step ahead; does not change the
        filters' inputs.
        """
        if pl < 1:
            raise KinematicsError(f"prediction length must be >= 1, got {pl}")
        if not self.has_context:
            raise NoContextError("no action context: push at least one slice first")
        dt = self.params.dt
        states = self._replayed()
        return [
            ActionSlice(tuple(st.pos + k * dt * st.vel for st in states))
            for k in range(1, pl + 1)
        ]

    def _dof_state(self, dof: int) -> _FilterState:
        if not self.caches[dof]:
            raise NoContextError("no action context for this DoF")
        return self._replayed()[dof]

    def covariance(self, dof: int) -> tuple[float, float, float]:
        """Current (p00, p01, p11) covariance terms for one DoF's filter."""
        st = self._dof_state(dof)
        return (st.p00, st.p01, st.p11)

    def state(self, dof: int) -> tuple[float, float]:
        """Current (position, velocity) estimate for one DoF's filter."""
        st = self._dof_state(dof)
        return (st.pos, st.vel)


@dataclass(frozen=True)
class KinVar:
    """Kinematic variability: L1 action discrepancy per step and its running sum."""

    per_step: float = 0.0
    cumulative: float = 0.0


def kin_variability(correct: ActionSlice, erroneous: ActionSlice) -> float:
    """L1 distance between two slices, summed over all seven DoF.

    Positions with no accepted-but-erroneous token should carry equal values
    in both slices so they contribute zero.
    """
    return sum(
        abs(c - e) for c, e in zip(correct.values, erroneous.values)
    )


def accumulate_kvar(kv: KinVar, step_value: float) -> KinVar:
    """Fold one step's variability into the running record."""
    if not (math.isfinite(step_value) and step_value >= 0):
        raise KinematicsError(f"step variability must be finite and >= 0, got {step_value!r}")
    return KinVar(per_step=step_value, cumulative=kv.cumulative + step_value)
