"""Flat ``key = value`` run configuration.

One text file covers the codec ranges, filter parameters, compensation and
threshold settings, the latency cost model, draft-noise shape, and the task
suites. ``SCHEMA`` is the schema: it names, once, every scalar key with the
``RunConfig`` field it sets and the parser of its text; the per-DoF ranges
``dof<i>`` and the ``suite.<name>.<field>`` entries are the only other keys.
The dataclasses hold every default, so a key left out of a file keeps its
dataclass default, and ``dumps`` writes any config back out through the
same schema. Unknown keys are a startup error (all of them are listed), so
typos fail loudly instead of silently running defaults. Every value is
checked when the config is made, before any episode runs, including the
codec ranges on which a pose could pass the float range
(``simenv.check_key``) and the filter settings whose predictions could
(``RunConfig._check_predictions``).

``kerv calibrate --config`` decodes its pre-sample from the config (every
suite's trials, ``fixed_relaxed`` at ``threshold.fixed_r``) and judges it
with the config's codec between ``threshold.r_max``/``r_min``, which
nothing else reads: ``kerv run`` takes each suite's bounds from its table
row. The threshold has one update rule, so no key picks one: equal bounds
calibrate a table whose rows hold r fixed, with compensation.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from .codec import N_DOF, CodecError, NormKey
from .kinematics import DEFAULT_AC, KfParams, KinematicsError, weight_norms
from .simenv import KINDS, MAX_EPISODE_STEPS, DraftNoiseModel, TaskError, check_key
from .threshold import DEFAULT_R_MAX, DEFAULT_R_MIN, CalibrationRow, ThresholdConfigError
from .trace import MODES


class ConfigError(ValueError):
    """Raised for unknown keys, malformed values, or missing suite fields."""


def _names(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _range(text: str) -> tuple[float, float]:
    lo, hi = text.split(",")
    return float(lo), float(hi)


# key -> (RunConfig field, parser); "section.field" sets a field of the
# value object held in the RunConfig field ``section``.
SCHEMA = {
    "codec.vocab_size": ("key.vocab_size", int),
    "kf.process_noise": ("kf_params.process_noise", float),
    "kf.measurement_noise": ("kf_params.measurement_noise", float),
    "kf.initial_variance": ("kf_params.initial_variance", float),
    "kf.dt": ("kf_params.dt", float),
    "kf.ac": ("ac", int),
    "kf.pl": ("pl", int),
    "comp.n": ("comp_n", int),
    "sd.depth": ("depth", int),
    "threshold.table": ("table_path", str),
    "threshold.fixed_r": ("fixed_r", float),
    "threshold.r_max": ("r_max", float),
    "threshold.r_min": ("r_min", float),
    "cost.verify": ("cost.verify_cost", float),
    "cost.draft": ("cost.draft_cost", float),
    "cost.kf": ("cost.kf_cost", float),
    "cost.adjust": ("cost.adjust_cost", float),
    "cost.transfer": ("cost.transfer_cost", float),
    "noise.q_err": ("noise.q_err", float),
    "noise.max_offset": ("noise.max_offset", int),
    "noise.zipf_s": ("noise.zipf_s", float),
    "noise.seed": ("noise.seed", int),
    "robot": ("robot", str),
    "run.modes": ("modes", _names),
    "run.seed_offset": ("seed_offset", int),
}
_KEY_OF = {path: key for key, (path, _) in SCHEMA.items()}
_SUITE_FIELDS = {"kind": str, "trials": int, "seed_base": int}
_DOF_RE = re.compile(r"^dof[0-6]$")
_COMMENT_RE = re.compile(r"(^|\s)#.*")
_SUITE_RE = re.compile(rf"^suite\.([A-Za-z0-9_]+)\.({'|'.join(_SUITE_FIELDS)})$")


@dataclass(frozen=True)
class SuiteConfig:
    name: str
    kind: str
    trials: int = 50
    seed_base: int = 0

    def __post_init__(self) -> None:
        if not _SUITE_RE.match(f"suite.{self.name}.kind"):
            raise ConfigError(f"suite {self.name!r}: a name is letters, digits and underscores")
        if self.kind not in KINDS:
            raise ConfigError(f"suite {self.name!r}: unknown kind {self.kind!r}")
        if self.trials < 0:
            raise ConfigError(f"suite {self.name!r}: trials must be >= 0, got {self.trials}")


@dataclass(frozen=True)
class CostModel:
    """Abstract per-operation latency costs, in arbitrary time units."""

    verify_cost: float = 1.0
    draft_cost: float = 0.02
    kf_cost: float = 0.001
    adjust_cost: float = 0.0005
    transfer_cost: float = 0.002

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{f.name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class RunConfig:
    key: NormKey = field(default_factory=NormKey)
    kf_params: KfParams = field(default_factory=KfParams)
    ac: int = DEFAULT_AC
    pl: int = 1
    comp_n: int = 4
    depth: int = 4
    table_path: str = ""
    fixed_r: float = 9.0
    r_max: float = DEFAULT_R_MAX
    r_min: float = DEFAULT_R_MIN
    cost: CostModel = field(default_factory=CostModel)
    noise: DraftNoiseModel = field(default_factory=DraftNoiseModel)
    robot: str = "sim7dof"
    modes: tuple[str, ...] = MODES
    seed_offset: int = 0
    suites: tuple[SuiteConfig, ...] = ()

    def __post_init__(self) -> None:
        checks = (
            ("depth", 1 <= self.depth <= N_DOF, f"must be in [1, {N_DOF}]"),
            # the bank's window is a deque, whose bound is a C ssize_t
            ("ac", 1 <= self.ac <= sys.maxsize, f"must be in [1, {sys.maxsize}]"),
            ("pl", self.pl >= 1, "must be >= 1"),
            ("comp_n", self.comp_n >= 0, "must be >= 0"),
            ("fixed_r", 0 <= self.fixed_r < math.inf, "must be finite and >= 0"),
        )
        for name, ok, need in checks:
            if not ok:
                raise ConfigError(f"{_KEY_OF[name]} {need}, got {getattr(self, name)!r}")
        try:
            check_key(self.key)  # its error names the DoF key
        except CodecError as exc:
            raise ConfigError(str(exc)) from None
        self._check_predictions()
        # the bounds are checked as the calibration row they become
        try:
            CalibrationRow(1.0, 1.0, self.r_max, self.r_min, 1.0, 0.0, 0.0)
        except ThresholdConfigError as exc:
            raise ConfigError(
                f"{_KEY_OF['r_max']} = {self.r_max!r}, {_KEY_OF['r_min']} = {self.r_min!r}: {exc}"
            ) from None
        if not self.modes:
            raise ConfigError(f"{_KEY_OF['modes']} names no mode; expected some of {MODES}")
        for m in self.modes:
            if m not in MODES:
                raise ConfigError(f"unknown mode {m!r} in {_KEY_OF['modes']}")
        names = [s.name for s in self.suites]
        for name in names:
            if names.count(name) > 1:  # its keys would merge, and its rows collide
                raise ConfigError(f"suite {name!r} is configured more than once")
        # a text value must read back from the line that dumps writes for it
        for name in ("robot", "table_path"):
            value = getattr(self, name)
            if len(value.splitlines()) > 1 or parse_mapping(f"k = {value}") != {"k": value}:
                raise ConfigError(f"{_KEY_OF[name]} = {value!r} does not read back from a line")

    def _check_predictions(self) -> None:
        """Refuse a filter whose predictions could pass the float range.

        A prediction is ``pos + pl * dt * vel``, each estimate a weighted sum
        of a window of executed actions (``kinematics._weights``). The window
        holds at most ``ac`` slices, and never more than an episode's steps,
        and each action lies within the key's widest bound, so the weights'
        largest norms (``weight_norms``) bound every prediction; twice that
        bound must stay finite, which leaves room for rounding.
        """
        pos_norm, vel_norm = weight_norms(self.kf_params, min(self.ac, MAX_EPISODE_STEPS))
        widest = max(map(abs, self.key.lo + self.key.hi))
        try:
            bound = 2.0 * widest * (pos_norm + self.pl * self.kf_params.dt * vel_norm)
        except OverflowError:  # pl past the float range
            bound = math.inf
        if not bound < math.inf:  # refuses nan too
            raise ConfigError(
                f"{_KEY_OF['pl']} = {self.pl} with {_KEY_OF['kf_params.dt']} = "
                f"{self.kf_params.dt!r}, on actions up to {widest!r}: a filter "
                f"prediction that far ahead could pass the float range"
            )

    def suite(self, name: str) -> SuiteConfig:
        for s in self.suites:
            if s.name == name:
                return s
        raise ConfigError(f"unknown suite {name!r}; configured: {[s.name for s in self.suites]}")


def parse_mapping(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; the last assignment to a key wins.
    A ``#`` at the start of a line or after whitespace starts a comment; one
    inside a value (``threshold.table = runs/#3/table.csv``) does not."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        name, _, value = line.partition("=")
        out[name.strip()] = value.strip()
    return out


def _validate_keys(mapping: dict[str, str]) -> None:
    bad = [
        k for k in mapping if k not in SCHEMA and not _DOF_RE.match(k) and not _SUITE_RE.match(k)
    ]
    if bad:
        raise ConfigError(f"unknown configuration keys: {sorted(bad)}")


def parse_value(mapping: dict[str, str], key: str, parse):
    """``parse(mapping[key])``; text it cannot parse is a ``ConfigError`` naming the key."""
    try:
        return parse(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {mapping[key]!r} ({exc})") from None


def from_mapping(mapping: dict[str, str]) -> RunConfig:
    _validate_keys(mapping)
    base = RunConfig()
    top: dict = {}  # the top-level RunConfig fields
    # the value objects, set one key at a time, so that a value the
    # section's own check rejects is reported under the key that set it
    sections: dict = {}

    def set_section(key: str, section: str, **values) -> None:
        try:
            sections[section] = replace(sections.get(section, getattr(base, section)), **values)
        except (CodecError, ConfigError, KinematicsError, TaskError) as exc:
            raise ConfigError(f"bad value for {key}: {mapping[key]!r} ({exc})") from None

    for key, (path, parse) in SCHEMA.items():
        if key in mapping:
            section, _, name = path.rpartition(".")
            value = parse_value(mapping, key, parse)
            if section:
                set_section(key, section, **{name: value})
            else:
                top[name] = value
    for dof in range(N_DOF):
        key = f"dof{dof}"
        if key in mapping:
            lo, hi = parse_value(mapping, key, _range)
            norm = sections.get("key", base.key)
            set_section(
                key,
                "key",
                lo=norm.lo[:dof] + (lo,) + norm.lo[dof + 1 :],
                hi=norm.hi[:dof] + (hi,) + norm.hi[dof + 1 :],
            )
    top.update(sections)

    suites = []
    for name in sorted({m.group(1) for k in mapping if (m := _SUITE_RE.match(k))}):
        prefix = f"suite.{name}."
        if prefix + "kind" not in mapping:
            raise ConfigError(f"suite {name!r} is missing {prefix}kind")
        suites.append(
            SuiteConfig(
                name=name,
                **{
                    f: parse_value(mapping, prefix + f, parse)
                    for f, parse in _SUITE_FIELDS.items()
                    if prefix + f in mapping
                },
            )
        )
    return RunConfig(**top, suites=tuple(suites))


def loads(text: str) -> RunConfig:
    return from_mapping(parse_mapping(text))


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a config or grid file; text that is not UTF-8 is a
    ``ConfigError`` that starts with the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load(path: str | Path) -> RunConfig:
    return loads(read_text(path))


def _format(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def dumps(cfg: RunConfig) -> str:
    """Every key of ``cfg`` as ``key = value`` text that ``loads`` reads back
    to an equal config."""
    lines = [
        f"{key} = {_format(attrgetter(path)(cfg))}".rstrip() for key, (path, _) in SCHEMA.items()
    ]
    lines += [f"dof{dof} = {cfg.key.lo[dof]},{cfg.key.hi[dof]}" for dof in range(N_DOF)]
    lines += [
        f"suite.{s.name}.{f} = {getattr(s, f)}" for s in cfg.suites for f in _SUITE_FIELDS
    ]
    return "\n".join(lines) + "\n"


def default_config(trials: int = 50) -> RunConfig:
    """The dataclass defaults with four suites of ``trials`` trials each."""
    suites = (
        ("goal", "reach", 1000),
        ("long", "long_horizon", 4000),
        ("object", "pick_place", 2000),
        ("spatial", "reach", 3000),
    )
    return RunConfig(suites=tuple(SuiteConfig(n, k, trials, s) for n, k, s in suites))


def default_config_text(trials: int = 50) -> str:
    """A ready-to-run configuration with four suites and all defaults spelled out."""
    return dumps(default_config(trials))
