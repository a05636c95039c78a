"""Flat ``key = value`` run configuration.

One text file covers the codec ranges, filter parameters, compensation and
threshold settings, the latency cost model, draft-noise shape, and the task
suites. Unknown keys are a startup error (all of them are listed), so typos
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .codec import N_DOF, NormKey
from .kinematics import KfParams
from .simenv import KINDS, DraftNoiseModel
from .specdec import MODES
from .threshold import ADJUST_MODES


class ConfigError(ValueError):
    """Raised for unknown keys, malformed values, or missing suite fields."""


_SCALAR_KEYS = {
    "codec.vocab_size",
    "kf.process_noise",
    "kf.measurement_noise",
    "kf.initial_variance",
    "kf.dt",
    "kf.ac",
    "kf.pl",
    "comp.n",
    "comp.p_source",
    "sd.depth",
    "threshold.mode",
    "threshold.table",
    "threshold.fixed_r",
    "threshold.r_max",
    "threshold.r_min",
    "cost.verify",
    "cost.draft",
    "cost.kf",
    "cost.adjust",
    "cost.transfer",
    "noise.q_err",
    "noise.max_offset",
    "noise.zipf_s",
    "noise.seed",
    "robot",
    "run.modes",
    "run.seed_offset",
}
_DOF_RE = re.compile(r"^dof[0-6]$")
_SUITE_RE = re.compile(r"^suite\.([A-Za-z0-9_]+)\.(kind|trials|seed_base)$")


@dataclass(frozen=True)
class SuiteConfig:
    name: str
    kind: str
    trials: int
    seed_base: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"suite {self.name!r}: unknown kind {self.kind!r}")
        if self.trials < 0:
            raise ConfigError(f"suite {self.name!r}: trials must be >= 0")


@dataclass(frozen=True)
class CostModel:
    """Abstract per-operation latency costs, in arbitrary time units."""

    verify_cost: float = 1.0
    draft_cost: float = 0.02
    kf_cost: float = 0.001
    adjust_cost: float = 0.0005
    transfer_cost: float = 0.002

    def __post_init__(self) -> None:
        for name in ("verify_cost", "draft_cost", "kf_cost", "adjust_cost", "transfer_cost"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    key: NormKey = field(default_factory=NormKey)
    kf_params: KfParams = field(default_factory=KfParams)
    ac: int = 10
    pl: int = 1
    comp_n: int = 4
    p_source: str = "verify"
    depth: int = 4
    threshold_mode: str = "rectified"
    table_path: str = ""
    fixed_r: float = 9.0
    r_max: float = 15.0
    r_min: float = 5.0
    cost: CostModel = field(default_factory=CostModel)
    noise: DraftNoiseModel = field(default_factory=DraftNoiseModel)
    robot: str = "sim7dof"
    modes: tuple[str, ...] = MODES
    seed_offset: int = 0
    suites: tuple[SuiteConfig, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= N_DOF:
            raise ConfigError(f"sd.depth must be in [1, {N_DOF}], got {self.depth}")
        if self.p_source not in ("verify", "kf"):
            raise ConfigError(f"comp.p_source must be verify or kf, got {self.p_source!r}")
        if self.ac < 1:
            raise ConfigError(f"kf.ac must be >= 1, got {self.ac}")
        if self.pl < 1:
            raise ConfigError(f"kf.pl must be >= 1, got {self.pl}")
        if self.comp_n < 0:
            raise ConfigError(f"comp.n must be >= 0, got {self.comp_n}")
        if not self.fixed_r >= 0:
            raise ConfigError(f"threshold.fixed_r must be >= 0, got {self.fixed_r}")
        if self.threshold_mode not in ADJUST_MODES:
            raise ConfigError(
                f"unknown threshold.mode {self.threshold_mode!r}; expected one of {ADJUST_MODES}"
            )
        if not (self.r_max > self.r_min >= 0):
            raise ConfigError(
                "need threshold.r_max > threshold.r_min >= 0, "
                f"got r_max={self.r_max}, r_min={self.r_min}"
            )
        for m in self.modes:
            if m not in MODES:
                raise ConfigError(f"unknown mode {m!r} in run.modes")

    def suite(self, name: str) -> SuiteConfig:
        for s in self.suites:
            if s.name == name:
                return s
        raise ConfigError(f"unknown suite {name!r}; configured: {[s.name for s in self.suites]}")


def parse_mapping(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        name, _, value = line.partition("=")
        out[name.strip()] = value.strip()
    return out


def _validate_keys(mapping: dict[str, str]) -> None:
    bad = [
        k
        for k in mapping
        if k not in _SCALAR_KEYS and not _DOF_RE.match(k) and not _SUITE_RE.match(k)
    ]
    if bad:
        raise ConfigError(f"unknown configuration keys: {sorted(bad)}")


def _range(text: str) -> tuple[float, float]:
    lo, hi = text.split(",")
    return float(lo), float(hi)


def _get(mapping: dict[str, str], key: str, cast, default):
    if key not in mapping:
        return default
    try:
        return cast(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {mapping[key]!r} ({exc})") from None


def from_mapping(mapping: dict[str, str]) -> RunConfig:
    _validate_keys(mapping)
    base = RunConfig()

    ranges = [
        _get(mapping, f"dof{dof}", _range, (base.key.lo[dof], base.key.hi[dof]))
        for dof in range(N_DOF)
    ]
    key = NormKey(
        lo=tuple(lo for lo, _ in ranges),
        hi=tuple(hi for _, hi in ranges),
        vocab_size=_get(mapping, "codec.vocab_size", int, base.key.vocab_size),
    )

    kf = KfParams(
        process_noise=_get(mapping, "kf.process_noise", float, base.kf_params.process_noise),
        measurement_noise=_get(
            mapping, "kf.measurement_noise", float, base.kf_params.measurement_noise
        ),
        initial_variance=_get(
            mapping, "kf.initial_variance", float, base.kf_params.initial_variance
        ),
        dt=_get(mapping, "kf.dt", float, base.kf_params.dt),
    )
    cost = CostModel(
        verify_cost=_get(mapping, "cost.verify", float, base.cost.verify_cost),
        draft_cost=_get(mapping, "cost.draft", float, base.cost.draft_cost),
        kf_cost=_get(mapping, "cost.kf", float, base.cost.kf_cost),
        adjust_cost=_get(mapping, "cost.adjust", float, base.cost.adjust_cost),
        transfer_cost=_get(mapping, "cost.transfer", float, base.cost.transfer_cost),
    )
    noise = DraftNoiseModel(
        q_err=_get(mapping, "noise.q_err", float, base.noise.q_err),
        max_offset=_get(mapping, "noise.max_offset", int, base.noise.max_offset),
        zipf_s=_get(mapping, "noise.zipf_s", float, base.noise.zipf_s),
        seed=_get(mapping, "noise.seed", int, base.noise.seed),
    )

    suite_names = sorted({m.group(1) for k in mapping if (m := _SUITE_RE.match(k))})
    suite_cfgs = []
    for name in suite_names:
        prefix = f"suite.{name}."
        if prefix + "kind" not in mapping:
            raise ConfigError(f"suite {name!r} is missing {prefix}kind")
        suite_cfgs.append(
            SuiteConfig(
                name=name,
                kind=mapping[prefix + "kind"],
                trials=_get(mapping, prefix + "trials", int, 50),
                seed_base=_get(mapping, prefix + "seed_base", int, 0),
            )
        )

    modes_raw = mapping.get("run.modes", ",".join(base.modes))

    return RunConfig(
        key=key,
        kf_params=kf,
        ac=_get(mapping, "kf.ac", int, base.ac),
        pl=_get(mapping, "kf.pl", int, base.pl),
        comp_n=_get(mapping, "comp.n", int, base.comp_n),
        p_source=_get(mapping, "comp.p_source", str, base.p_source),
        depth=_get(mapping, "sd.depth", int, base.depth),
        threshold_mode=_get(mapping, "threshold.mode", str, base.threshold_mode),
        table_path=_get(mapping, "threshold.table", str, base.table_path),
        fixed_r=_get(mapping, "threshold.fixed_r", float, base.fixed_r),
        r_max=_get(mapping, "threshold.r_max", float, base.r_max),
        r_min=_get(mapping, "threshold.r_min", float, base.r_min),
        cost=cost,
        noise=noise,
        robot=_get(mapping, "robot", str, base.robot),
        modes=tuple(m.strip() for m in modes_raw.split(",") if m.strip()),
        seed_offset=_get(mapping, "run.seed_offset", int, base.seed_offset),
        suites=tuple(suite_cfgs),
    )


def loads(text: str) -> RunConfig:
    return from_mapping(parse_mapping(text))


def load(path: str | Path) -> RunConfig:
    return loads(Path(path).read_text())


def default_config_text(trials: int = 50) -> str:
    """A ready-to-run configuration with four suites and all defaults spelled out."""
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
comp.p_source = verify

# drafting and thresholds
sd.depth = 4
threshold.mode = rectified
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


def default_config(trials: int = 50) -> RunConfig:
    return loads(default_config_text(trials))
