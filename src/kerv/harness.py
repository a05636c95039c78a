"""Suite runner, metrics, latency cost model, and result emission.

Episode latency is modeled, not measured: each slice contributes its verify
and draft calls at configured per-call costs, plus a filter-predict and a
host round-trip charge when compensation fired, plus the per-slice
threshold-adjustment charge. Every output is deterministic for fixed seeds,
and float totals and means are added left to right (``trace._fold``), so
they do not depend on the interpreter either.

Every mode has one engine, ``specdec.run_episode``, which reads the
simulator's plan and draws its noise rows from the run's config itself,
with no oracle call.
It first decodes the plan steps of a ``naive`` or ``fixed_relaxed``
episode (the baseline and the calibration pre-sample's mode) in one array
pass, and its closed loop takes over at the pass's first wrong guess, at
the latest past the plan; a naive episode, at r = 0, executes the plan and
ends inside the pass. A ``kerv`` episode runs the closed loop alone, one
pass per step over the slice's positions: each position's truth, draft,
judgement, action and move of the pose are made together. The per-oracle
names (``oracle_policy``, ``NoisyDrafter.draft``, ``PlanVerifier.verify``,
``SimEnv.step``) stay as the layers of
``tests/oracles.py::reference_run_episode``, which checks the engine in
every mode, and as benchmark span targets; no suite run calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import threshold as threshold_mod
from .codec import N_DOF
from .config import ConfigError, CostModel, RunConfig, SuiteConfig
from .simenv import SimEnv, make_task
from .specdec import run_episode
from .threshold import CalibrationTable
from .trace import MODES, EpisodeTrace, _fold, mean_steps, success_rate, write_text_atomic


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
    return _fold(rs) / len(rs) if rs else 0.0


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
    """Decode trial ``trial`` of a suite in ``mode`` with ``run_episode`` on
    a fresh env of the trial's task; ``kerv`` runs from the suite's row of
    ``table``."""
    seed = suite_cfg.seed_base + cfg.seed_offset + trial
    spec = make_task(suite_cfg.kind, seed)
    env = SimEnv(spec, cfg.key, suite=suite_cfg.name, trial=trial)
    row = None
    if mode == "kerv":
        if table is None:
            raise ConfigError("kerv mode needs a calibration table")
        row = threshold_mod.lookup(table, suite_cfg.name, cfg.robot)
    return run_episode(env, cfg, mode, row)


def pre_sample(cfg: RunConfig) -> Iterator[EpisodeTrace]:
    """The episodes a calibration reads: every suite's trials of ``cfg``, in
    config order, decoded ``fixed_relaxed`` at ``cfg.fixed_r``. Lazy, so a
    caller can check its other inputs before the first episode runs."""
    for suite_cfg in cfg.suites:
        for trial in range(suite_cfg.trials):
            yield run_one_episode(cfg, suite_cfg, "fixed_relaxed", trial, None)


def _selected(
    cfg: RunConfig,
    modes: Sequence[str] | None,
    suites: Sequence[str] | None,
    trials: int | None,
) -> RunConfig:
    """``cfg`` with ``modes``, ``suites`` (in the configured order) and
    ``trials`` set where given, each checked by ``RunConfig`` and
    ``SuiteConfig`` as a loaded file is."""
    if modes is not None:
        cfg = replace(cfg, modes=tuple(modes))
    if suites is not None:
        names = {cfg.suite(name).name for name in suites}  # an unknown name raises
        cfg = replace(cfg, suites=tuple(s for s in cfg.suites if s.name in names))
    if trials is not None:
        cfg = replace(cfg, suites=tuple(replace(s, trials=trials) for s in cfg.suites))
    return cfg


def _kerv_table(cfg: RunConfig, table: CalibrationTable | None) -> CalibrationTable | None:
    """The table kerv mode reads, loaded from ``cfg.table_path`` if none is
    given, with every suite's row looked up before any episode runs; where
    kerv does not run, ``table`` as given."""
    if "kerv" not in cfg.modes:
        return table
    if table is None:
        if not cfg.table_path:
            raise ConfigError(
                "kerv mode needs a calibration table: set threshold.table or pass one"
            )
        table = CalibrationTable.load(cfg.table_path)
    for suite_cfg in cfg.suites:
        threshold_mod.lookup(table, suite_cfg.name, cfg.robot)
    return table


def _decode_tasks(
    suite_cfg: SuiteConfig,
    arms: Sequence[tuple[RunConfig, str]],
    table: CalibrationTable | None,
) -> list[list[EpisodeTrace]]:
    """Each (config, mode) arm's episodes of the suite's trials, in trial
    order. A trial's arms are decoded back to back, so they all read the
    plan the first one built, which is the last ``build_plan`` cached."""
    decoded: list[list[EpisodeTrace]] = [[] for _ in arms]
    for trial in range(suite_cfg.trials):
        for (arm_cfg, mode), traces in zip(arms, decoded):
            traces.append(run_one_episode(arm_cfg, suite_cfg, mode, trial, table))
    return decoded


def _suite_rows(
    suite: str,
    cm: CostModel,
    naive: list[EpisodeTrace],
    runs: Iterable[tuple[str, list[EpisodeTrace]]],
) -> list[ReportRow]:
    """A report row for each (mode, traces) run of a suite, its speedup
    taken against the suite's ``naive`` episodes; none for zero trials."""
    if not naive:
        return []
    base_latency = _fold(modeled_latency(t, cm) for t in naive)
    rows = []
    for mode, traces in runs:
        latency = _fold(modeled_latency(t, cm) for t in traces)
        rows.append(
            ReportRow(
                suite=suite,
                mode=mode,
                sr=success_rate(traces),
                modeled_speedup=base_latency / latency if latency else 0.0,
                afep=afep(traces),
                avg_steps=mean_steps(traces),
                avg_r=mean_r(traces),
                comp_events=sum(t.comp_events for t in traces),
            )
        )
    return rows


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

    Suites run in config order, and within a suite task by task: each
    trial's modes are decoded back to back (``_decode_tasks``), so a task's
    plan is built once and read by no later task, and the one plan
    ``build_plan`` caches is all a run needs.

    Returns the report plus all traces keyed by (suite, mode).
    """
    cfg = _selected(cfg, modes, suites, trials)
    table = _kerv_table(cfg, table)
    run_modes = tuple(m for m in MODES if m == "naive" or m in cfg.modes)
    all_traces: dict[tuple[str, str], list[EpisodeTrace]] = {}
    rows: list[ReportRow] = []
    for suite_cfg in cfg.suites:
        decoded = _decode_tasks(suite_cfg, [(cfg, mode) for mode in run_modes], table)
        runs = list(zip(run_modes, decoded))
        all_traces.update(((suite_cfg.name, mode), traces) for mode, traces in runs)
        asked = [(mode, traces) for mode, traces in runs if mode in cfg.modes]
        rows += _suite_rows(suite_cfg.name, cfg.cost, decoded[0], asked)
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

    write_text_atomic(out / "report.txt", report.render())
    for path, t in trace_paths.items():
        t.save(path)
    for path, lines in plots.items():
        write_text_atomic(path, "\n".join(lines) + "\n")


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
    its run, one per suite, in value order and then config order.

    The mode, ``suites`` and ``trials`` are set on the config as
    ``run_suite`` sets them, and each swept value on a copy of it, so
    every value is checked by ``RunConfig`` before any episode runs.

    Each task is decoded as ``run_suite`` decodes it, back to back
    (``_decode_tasks``): its naive episode once, then one episode per swept
    value. A naive episode reads none of the swept fields (``comp.n``,
    ``kf.ac``, ``kf.pl``, ``threshold.fixed_r``), so one baseline serves
    every value's speedup, and a task's episodes all read the one plan
    ``build_plan`` caches. The rows are ``run_suite``'s (``_suite_rows``).
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
    base = _selected(cfg, (mode,), suites, trials)
    arms = [(base, "naive")]
    arms += [(replace(base, **{SWEEP_PARAMS[param]: cast(v)}), mode) for v in values]
    table = _kerv_table(base, table)
    rows: list[list[ReportRow]] = [[] for _ in values]
    for suite_cfg in base.suites:
        naive, *value_traces = _decode_tasks(suite_cfg, arms, table)
        runs = [(mode, traces) for traces in value_traces]
        for value_rows, row in zip(rows, _suite_rows(suite_cfg.name, base.cost, naive, runs)):
            value_rows.append(row)
    return [(float(value), row) for value, value_rows in zip(values, rows) for row in value_rows]


_SWEEP_COLS = ("suite", "sr", "modeled_speedup", "afep", "avg_steps", "comp_events")


def render_sweep(param: str, rows: Sequence[tuple[float, ReportRow]]) -> str:
    """The ``sweep_<param>.txt`` table of ``sweep``'s (value, row) pairs."""
    cells = ([param, f"{value:g}", *_cells(r, _SWEEP_COLS)] for value, r in rows)
    return _table(("param", "value", *_SWEEP_COLS), cells, 16)
