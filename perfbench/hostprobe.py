"""Host-speed probe: scales measured times to a nominal host.

The speed of a shared host changes by tens of percent from one stretch of
a fraction of a second, or of minutes, to the next. So a small fixed
reference kernel, a mix of the interpreter, allocation, JSON and small
numpy work the simulator does, is timed in probe windows, and the time
between two windows is scaled to a host that runs the kernel in
REF_NOMINAL_NS.

A window runs just before and just after each timed call. A long call is
split further at probe points: calls into the simulator that the long
call makes in sequence (an episode of a whole run, or one grid point of a
calibration), where a window runs before the inner call starts. Each
segment between two windows is scaled by their mean kernel time, so a
long call follows the host's changes in speed as closely as a short one.
The kernel never runs inside a segment, so it adds to no measured time;
and no window opens inside a traced span, because the benchmark sets no
probe points while it traces.

Every window has the same shape, whatever the work around it: the cyclic
garbage collector off, one untimed warm-up kernel, then REF_SAMPLES timed
ones, of which the median counts. A window that grew with the length of
the work before it would time more warmed-up kernels after long calls and
so read the host as faster. The kernel does not use kerv, so changes to
the simulator do not move it.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
import statistics
import sys
from dataclasses import dataclass, replace
from time import perf_counter_ns
from typing import Any, NamedTuple

import numpy as np

REF_SAMPLES = 3
REF_NOMINAL_NS = 600_000
_REF_KEYS = tuple(str(i) for i in range(97))
_REF_TABLE = {k: float(i) for i, k in enumerate(_REF_KEYS)}
_REF_OFFSETS = np.arange(1, 61)
_REF_PROBS = _REF_OFFSETS ** -0.8 / (_REF_OFFSETS ** -0.8).sum()
_REF_RECORDS = [{"step": i, "ids": [i, None, i + 1], "r": i * 0.25} for i in range(12)]


@dataclass(frozen=True)
class _RefState:
    r: float = 15.0
    prev: float = 0.0


def _reference_kernel() -> float:
    acc = 0.0
    rows = {}
    for i in range(150):
        acc += math.sqrt(_REF_TABLE[_REF_KEYS[i % 97]] + i * 0.5)
        rows[i % 211] = (i, acc, (i, i + 1))
    state = _RefState()
    for i in range(100):
        state = replace(state, r=min(max(state.r - math.exp(-i * 0.01), 5.0), 15.0), prev=acc)
    for i in range(2):
        rng = np.random.default_rng([7, i])
        acc += float(rng.choice(_REF_OFFSETS, size=7, p=_REF_PROBS).sum())
    text = "\n".join(json.dumps(r, sort_keys=True) for r in _REF_RECORDS)
    return acc + state.r + len([json.loads(line) for line in text.splitlines()])


def _window() -> float:
    """Median time of the reference kernel in ns, taken now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _reference_kernel()
        samples = []
        for _ in range(REF_SAMPLES):
            t0 = perf_counter_ns()
            _reference_kernel()
            samples.append(perf_counter_ns() - t0)
        return statistics.median(samples)
    finally:
        if collecting:
            gc.enable()


class Timed(NamedTuple):
    result: Any
    ns: int
    # nominal over host time of the whole call
    scale: float


class Clock:
    """Times calls in segments between probe windows."""

    def __init__(self) -> None:
        self._open: tuple[int, float] | None = None
        self._ns = 0
        self._scaled = 0.0

    def _boundary(self) -> None:
        end = perf_counter_ns()
        kernel_ns = _window()
        if self._open is not None:
            start, opening_ns = self._open
            self._ns += end - start
            self._scaled += (end - start) * 2 * REF_NOMINAL_NS / (opening_ns + kernel_ns)
        self._open = (perf_counter_ns(), kernel_ns)

    def timed(self, fn, *args) -> Timed:
        """Call ``fn`` and time it, with windows before, after and at every
        probe point installed at the time.

        The caller releases what earlier calls left before this one, so only
        ``fn``'s own objects are held during its windows.
        """
        self._open, self._ns, self._scaled = None, 0, 0.0
        self._boundary()
        result = fn(*args)
        self._boundary()
        self._open = None
        return Timed(result, self._ns, self._scaled / self._ns)

    @contextlib.contextmanager
    def probe_points(self, points):
        """Open a window before each call of the ``(owner, attribute)``
        functions in ``points`` while the block runs, if a timed call is in
        progress. A point the code no longer has is skipped, with a note."""
        saved = []
        try:
            for owner, attr in points:
                original = owner.__dict__.get(attr)
                if original is None:
                    print(f"note: no probe point {owner.__name__}.{attr}", file=sys.stderr)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self._open is not None:
                self._boundary()
            return fn(*args, **kwargs)

        return probed
