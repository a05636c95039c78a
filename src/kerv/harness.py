"""Suite runner, metrics, latency cost model, and result emission.

Episode latency is modeled, not measured: each slice contributes its verify
and draft calls at configured per-call costs, plus a filter-predict and a
host round-trip charge when compensation fired, plus the per-slice
threshold-adjustment charge. Every output is deterministic for fixed seeds.

Each mode has one engine, which reads the simulator's plan and the
drafter's noise rows itself. A naive episode is decoded open-loop
(``specdec.run_strict_episode``): strict speculative decoding executes
exactly the verifier's tokens, which track the plan, and ``build_plan``
guarantees that the plan's tokens reproduce its poses bit for bit. The
other modes run the closed loop (``specdec.run_episode``), one pass per
step over the slice's positions: each position's truth, draft, judgement,
action and move of the pose are made together, with no oracle call. The
per-oracle names (``oracle_policy``, ``NoisyDrafter.draft``,
``PlanVerifier.verify``, ``SimEnv.step``) stay as the layers of
``tests/oracles.py::reference_run_episode``, which checks both engines,
and as benchmark span targets; no suite run calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import threshold as threshold_mod
from .codec import N_DOF
from .config import ConfigError, CostModel, RunConfig, SuiteConfig
from .simenv import NoisyDrafter, SimEnv, make_task
from .specdec import run_episode, run_strict_episode
from .threshold import CalibrationTable
from .trace import MODES, EpisodeTrace


def modeled_latency(trace: EpisodeTrace, cm: CostModel) -> float:
    """Total modeled time units for one episode; a round is one draft and one verify call."""
    total = 0.0
    for rec in trace.slices:
        total += rec.verify_calls * cm.verify_cost
        total += rec.verify_calls * cm.draft_cost
        if rec.comp_fired:
            total += cm.kf_cost + cm.transfer_cost
        total += cm.adjust_cost
    return total


def afep(traces: Iterable[EpisodeTrace]) -> float:
    """Average first error position, 1-based, over slices with a rejection."""
    firsts = [
        pos + 1 for t in traces for rec in t.slices if (pos := rec.first_error_pos) < N_DOF
    ]
    if not firsts:
        return 0.0
    return sum(firsts) / len(firsts)


def mean_r(traces: Sequence[EpisodeTrace]) -> float:
    rs = [rec.r for t in traces for rec in t.slices]
    return sum(rs) / len(rs) if rs else 0.0


def success_rate(traces: Sequence[EpisodeTrace]) -> float:
    if not traces:
        return 0.0
    return sum(1.0 for t in traces if t.success) / len(traces)


def mean_steps(traces: Sequence[EpisodeTrace]) -> float:
    if not traces:
        return 0.0
    return sum(t.steps for t in traces) / len(traces)


@dataclass(frozen=True)
class ReportRow:
    suite: str
    mode: str
    sr: float
    modeled_speedup: float
    afep: float
    avg_steps: float
    avg_r: float
    comp_events: int


# ReportRow field -> its format spec in a table; any other field is written as str() writes it
_FORMATS = {
    "sr": ".4f", "modeled_speedup": ".4f", "afep": ".4f", "avg_steps": ".2f", "avg_r": ".3f",
}


def _cells(row: ReportRow, cols: Sequence[str]) -> list[str]:
    return [format(getattr(row, c), _FORMATS.get(c, "")) for c in cols]


def _table(cols: Sequence[str], rows: Iterable[Sequence[str]], width: int) -> str:
    """A header line, then one line per row, every cell right-aligned to ``width``."""
    lines = [" ".join(f"{v:>{width}}" for v in vals) for vals in (cols, *rows)]
    return "\n".join(lines) + "\n"


@dataclass
class SuiteReport:
    rows: list[ReportRow]

    def render(self) -> str:
        """Plain columnar text, one column per ``ReportRow`` field."""
        cols = [f.name for f in fields(ReportRow)]
        return _table(cols, (_cells(r, cols) for r in self.rows), 18)


def run_one_episode(
    cfg: RunConfig,
    suite_cfg: SuiteConfig,
    mode: str,
    trial: int,
    table: CalibrationTable | None,
) -> EpisodeTrace:
    """Decode trial ``trial`` of a suite in ``mode`` with the simulator's
    oracles; ``kerv`` runs from the suite's row of ``table``.

    A naive episode is decoded open-loop (``specdec.run_strict_episode``),
    with no draft/verify round: strict decoding executes the verifier's
    tokens, the verifier tracks the plan, and the plan's tokens reproduce
    its poses bit for bit. The other modes run the closed loop,
    ``run_episode``.
    """
    seed = suite_cfg.seed_base + cfg.seed_offset + trial
    spec = make_task(suite_cfg.kind, seed)
    env = SimEnv(spec, cfg.key, suite=suite_cfg.name, robot=cfg.robot, trial=trial)
    draft = NoisyDrafter(env, cfg.noise)
    if mode == "naive":
        return run_strict_episode(env, draft, cfg)
    row = None
    if mode == "kerv":
        if table is None:
            raise ConfigError("kerv mode needs a calibration table")
        row = threshold_mod.lookup(table, suite_cfg.name, cfg.robot)
    return run_episode(env, draft, cfg, mode, row)


def pre_sample(cfg: RunConfig) -> Iterator[EpisodeTrace]:
    """The episodes a calibration reads: every suite's trials of ``cfg``, in
    config order, decoded ``fixed_relaxed`` at ``cfg.fixed_r``. Lazy, so a
    caller can check its other inputs before the first episode runs."""
    for suite_cfg in cfg.suites:
        for trial in range(suite_cfg.trials):
            yield run_one_episode(cfg, suite_cfg, "fixed_relaxed", trial, None)


def run_suite(
    cfg: RunConfig,
    *,
    modes: Sequence[str] | None = None,
    suites: Sequence[str] | None = None,
    trials: int | None = None,
    table: CalibrationTable | None = None,
) -> tuple[SuiteReport, dict[tuple[str, str], list[EpisodeTrace]]]:
    """Run every (suite, mode, trial) episode and aggregate metrics.

    ``modes``, ``suites`` and ``trials`` are set on the config (``suites``
    keeps the configured order), so ``RunConfig`` and ``SuiteConfig`` check
    them as they check a loaded file, before any episode runs. The
    strict-acceptance baseline is always executed for each suite (even when
    not among the requested modes) because speedups are defined against it.
    Returns the report plus all traces keyed by (suite, mode).
    """
    if modes is not None:
        cfg = replace(cfg, modes=tuple(modes))
    if suites is not None:
        names = {cfg.suite(name).name for name in suites}  # an unknown name raises
        cfg = replace(cfg, suites=tuple(s for s in cfg.suites if s.name in names))
    if trials is not None:
        cfg = replace(cfg, suites=tuple(replace(s, trials=trials) for s in cfg.suites))

    if "kerv" in cfg.modes:
        if table is None:
            if not cfg.table_path:
                raise ConfigError(
                    "kerv mode needs a calibration table: set threshold.table or pass one"
                )
            table = CalibrationTable.load(cfg.table_path)
        # every row kerv reads is looked up before the first episode runs
        for suite_cfg in cfg.suites:
            threshold_mod.lookup(table, suite_cfg.name, cfg.robot)

    run_modes = tuple(m for m in MODES if m == "naive" or m in cfg.modes)
    all_traces: dict[tuple[str, str], list[EpisodeTrace]] = {}
    for suite_cfg in cfg.suites:
        for mode in run_modes:
            all_traces[(suite_cfg.name, mode)] = [
                run_one_episode(cfg, suite_cfg, mode, trial, table)
                for trial in range(suite_cfg.trials)
            ]

    rows: list[ReportRow] = []
    for suite_cfg in cfg.suites:
        base = all_traces[(suite_cfg.name, "naive")]
        if not base:
            continue  # zero-trial suite contributes no rows
        base_latency = sum(modeled_latency(t, cfg.cost) for t in base)
        for mode in MODES:
            if mode not in cfg.modes:
                continue
            traces = all_traces[(suite_cfg.name, mode)]
            latency = sum(modeled_latency(t, cfg.cost) for t in traces)
            rows.append(
                ReportRow(
                    suite=suite_cfg.name,
                    mode=mode,
                    sr=success_rate(traces),
                    modeled_speedup=base_latency / latency if latency else 0.0,
                    afep=afep(traces),
                    avg_steps=mean_steps(traces),
                    avg_r=mean_r(traces),
                    comp_events=sum(t.comp_events for t in traces),
                )
            )
    return SuiteReport(rows=rows), all_traces


def emit_results(
    report: SuiteReport,
    traces: dict[tuple[str, str], list[EpisodeTrace]],
    out_dir: str | Path,
) -> None:
    """Write the report table, per-episode trace streams, and plot data.

    ``report.txt`` and everything under ``traces/`` and ``plotdata/`` are
    deterministic for fixed seeds. Before anything is written, a file under
    ``traces/`` or ``plotdata/`` that this run would not write (the output of
    another run) raises ``FileExistsError``; no file is deleted.
    """
    out = Path(out_dir)
    trace_paths = {
        out / "traces" / f"{suite}_{mode}_{t.trial:04d}.jsonl": t
        for (suite, mode), ts in sorted(traces.items())
        for t in ts
    }
    plots = {}
    for (suite, mode), ts in sorted(traces.items()):
        r_lines = ["trial step r"]
        k_lines = ["trial step kvar_step kvar_cum"]
        hist = [0] * N_DOF
        for t in ts:
            for step, rec in enumerate(t.slices):
                r_lines.append(f"{t.trial} {step} {rec.r!r}")
                k_lines.append(f"{t.trial} {step} {rec.kvar_step!r} {rec.kvar_cum!r}")
                pos = rec.first_error_pos
                if pos < N_DOF:
                    hist[pos] += 1
        h_lines = ["first_error_pos count"]
        h_lines += [f"{pos + 1} {count}" for pos, count in enumerate(hist)]
        stem = f"{suite}_{mode}"
        plots[out / "plotdata" / f"r_vs_step_{stem}.txt"] = r_lines
        plots[out / "plotdata" / f"kvar_vs_step_{stem}.txt"] = k_lines
        plots[out / "plotdata" / f"afep_hist_{stem}.txt"] = h_lines

    for path in sorted(out.glob("traces/*")) + sorted(out.glob("plotdata/*")):
        if path not in trace_paths and path not in plots:
            raise FileExistsError(f"{path} is not an output of this run; use a new directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "traces").mkdir(exist_ok=True)
        (out / "plotdata").mkdir(exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write results under {out}: {exc}") from exc

    (out / "report.txt").write_text(report.render())
    for path, t in trace_paths.items():
        t.save(path)
    for path, lines in plots.items():
        path.write_text("\n".join(lines) + "\n")


# sweep parameter -> the RunConfig field it sets
SWEEP_PARAMS = {"n": "comp_n", "ac": "ac", "pl": "pl", "r": "fixed_r"}


def sweep(
    cfg: RunConfig,
    param: str,
    values: Sequence[float],
    *,
    suites: Sequence[str] | None = None,
    trials: int | None = None,
    table: CalibrationTable | None = None,
) -> list[tuple[float, ReportRow]]:
    """Hyperparameter sweep: n / ac / pl vary the adaptive mode, r varies the
    static relaxed threshold. Returns each swept value with a report row of
    its run, one per suite.

    The swept field and the mode are set on the config in one ``replace``,
    so every value is checked by ``RunConfig`` before any episode runs;
    ``suites`` and ``trials`` are set and checked as ``run_suite`` sets them.
    """
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {tuple(SWEEP_PARAMS)}, got {param!r}")
    if param == "r":
        mode, cast = "fixed_relaxed", float
    else:
        mode, cast = "kerv", int
        bad = [v for v in values if not float(v).is_integer()]
        if bad:
            raise ConfigError(f"sweep {param} takes integer values, got {bad}")
    run_cfgs = [replace(cfg, modes=(mode,), **{SWEEP_PARAMS[param]: cast(v)}) for v in values]
    rows: list[tuple[float, ReportRow]] = []
    for value, run_cfg in zip(values, run_cfgs):
        report, _ = run_suite(run_cfg, suites=suites, trials=trials, table=table)
        rows.extend((float(value), r) for r in report.rows)
    return rows


_SWEEP_COLS = ("suite", "sr", "modeled_speedup", "afep", "avg_steps", "comp_events")


def render_sweep(param: str, rows: Sequence[tuple[float, ReportRow]]) -> str:
    """The ``sweep_<param>.txt`` table of ``sweep``'s (value, row) pairs."""
    cells = ([param, f"{value:g}", *_cells(r, _SWEEP_COLS)] for value, r in rows)
    return _table(("param", "value", *_SWEEP_COLS), cells, 16)
