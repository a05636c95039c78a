"""Layered benchmark of the kerv speculative-decoding simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports ``kerv`` from
``src/`` there and exits non-zero without a result if that is missing.
Each run is one single-threaded process: the BLAS/OpenMP thread variables
are pinned to 1 before numpy loads, and the module-level plan cache is
cleared after set-up, so nothing carries over from one run or phase to the
next.

Set-up is the same for every workload and is timed three times: load the
config, run the 8-trial ``fixed_relaxed`` pre-sample at r = 15 on every
suite, save those traces, and ``calibrate`` with ``DEFAULT_GRID`` (the
table ``tests/conftest.py`` builds). The seed s becomes
``run.seed_offset = SEED_STRIDE * s``, so different seeds decode disjoint
episode sets.

Operations repeat until ``--seconds`` have passed and at least the
workload's check set has run. The check set (the first few operations)
gives the deterministic quality figures and the sha256 output digests; the
digests are compared with those pinned for the seed in ``digests.json``
and a mismatch is reported by name, without counting as a failure. An
operation counts as failed when it raises or its outputs fail a check
(trace round trip, slice count, compensation cost, report text,
calibration table).

Every time reported is scaled to a nominal host speed by ``hostprobe``: a
small fixed reference kernel is timed in windows just before and after
each operation and each set-up step, and, in the untraced runs, at the
probe points of a long operation (before each episode of ``paper_report``
and each grid point of a calibration), so the shared host's changes in
speed divide out. The factor and the unscaled figures are printed on the
``unscaled`` line. ``episodes_per_s`` and ``op_ms_p50`` are printed on the
``ungated`` line: they follow the seed's episode lengths (a failed episode
runs up to twice its plan), so only the per-slice times are gated.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` splits the time
into an untraced and a traced phase over the same operations, requires
equal digests from both and that the spans account for the independently
timed operation wall time, and prints every per-layer metric plus
``tracing_overhead_frac``; a layer that does not run in the workload reads 0
and is named on the ``absent`` line. Tier-1 test wall time is not measured: one run
takes minutes, and its slow tests drive the same ``run_one_episode`` path
the episode workloads time. The harness's ``wallclock_speedup`` column and
``wallclock.txt`` are never read.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("paper_report", "strict_long", "adaptive_reach", "calibrate")
SEED_STRIDE = 100_000
SETUP_REPEATS = 3
PRE_SAMPLE_TRIALS = 8
PRE_SAMPLE_R = 15.0
PAPER_TRIALS = 1
# operations in the check set; each fits well inside one run
CHECK_OPS = {"paper_report": 2, "strict_long": 16, "adaptive_reach": 64, "calibrate": 2}
# largest share by which the spans' total may differ from the op wall time
ACCOUNTING_TOLERANCE = 0.01


def _import_kerv():
    src = ROOT / "src"
    if not (src / "kerv" / "__init__.py").is_file():
        raise SystemExit(f"error: no kerv sources under {src}")
    sys.path.insert(0, str(src))


_import_kerv()

from kerv import config, harness, simenv, specdec, threshold, trace  # noqa: E402

import spans  # noqa: E402
from hostprobe import Clock  # noqa: E402

CLOCK = Clock()
# calls a long operation makes in sequence, where the clock opens a probe
# window; episode operations are short and need none
CALIBRATE_POINTS = ((threshold, "_replay_objective"),)
PROBE_POINTS = {
    "paper_report": ((harness, "run_one_episode"),),
    "strict_long": (),
    "adaptive_reach": (),
    "calibrate": CALIBRATE_POINTS,
}


@dataclass
class Setup:
    cfg: object
    table: object
    table_path: Path
    presample_dir: Path
    presample_files: list[str]
    seconds: list[float]
    scaled_seconds: list[float]


def _load_config(tmp: Path, seed_offset: int):
    cfg_path = tmp / "kerv.conf"
    cfg_path.write_text(config.default_config_text() + f"run.seed_offset = {seed_offset}\n")
    return config.load(cfg_path)


def _save_presample(pre, tmp: Path) -> None:
    for t in pre:
        t.save(tmp / "presample" / f"{t.suite}_{t.trial:04d}.jsonl")


def _set_up_once(tmp: Path, seed_offset: int):
    """One set-up, timed step by step so that the host probe's windows fall
    between steps; returns the config, the table, and the time in ns on
    the host and scaled to the nominal host."""
    elapsed_ns = 0
    scaled_ns = 0.0

    def step(fn, *args):
        nonlocal elapsed_ns, scaled_ns
        t = CLOCK.timed(fn, *args)
        elapsed_ns += t.ns
        scaled_ns += t.ns * t.scale
        return t.result

    cfg = step(_load_config, tmp, seed_offset)
    pre_cfg = replace(cfg, fixed_r=PRE_SAMPLE_R)
    pre = [
        step(harness.run_one_episode, pre_cfg, suite, "fixed_relaxed", trial, None)
        for suite in cfg.suites
        for trial in range(PRE_SAMPLE_TRIALS)
    ]
    step(_save_presample, pre, tmp)
    table = step(threshold.calibrate, pre, threshold.DEFAULT_GRID)
    step(table.save, tmp / "table.csv")
    return cfg, table, elapsed_ns, scaled_ns


def set_up(tmp: Path, seed_offset: int) -> Setup:
    """Build the pre-sample traces and calibration table, timed each time."""
    presample_dir = tmp / "presample"
    seconds = []
    scaled = []
    tables = []
    for _ in range(SETUP_REPEATS):
        simenv.build_plan.cache_clear()
        shutil.rmtree(presample_dir, ignore_errors=True)
        presample_dir.mkdir()
        with CLOCK.probe_points(CALIBRATE_POINTS):
            cfg, table, elapsed_ns, scaled_ns = _set_up_once(tmp, seed_offset)
        seconds.append(elapsed_ns / 1e9)
        scaled.append(scaled_ns / 1e9)
        tables.append(table.dumps())
    if len(set(tables)) != 1:
        raise SystemExit("error: set-up built different calibration tables")
    simenv.build_plan.cache_clear()
    files = [p.read_text() for p in sorted(presample_dir.glob("*.jsonl"))]
    return Setup(cfg, table, tmp / "table.csv", presample_dir, files, seconds, scaled)


def trace_problems(t, text: str) -> list[str]:
    """Checks every trace must pass, produced or loaded; ``text`` is
    ``t.dumps()``."""
    where = f"{t.suite}/{t.mode}/{t.trial}"
    problems = []
    if trace.loads(text).dumps() != text:
        problems.append(f"{where}: trace does not round-trip")
    if len(t.slices) != t.steps:
        problems.append(f"{where}: {len(t.slices)} slices for {t.steps} steps")
    if any(rec.comp_fired and rec.verify_calls != 1 for rec in t.slices):
        problems.append(f"{where}: compensated slice with more than one verify call")
    return problems


@dataclass
class OpOutput:
    """What one operation produced: its traces, the deterministic bytes to
    digest by output name, and any failed checks."""

    traces: list
    outputs: dict[str, bytes] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class EpisodeWorkload:
    """One ``run_one_episode`` call per operation, cycling over suites."""

    def __init__(self, setup: Setup, mode: str, suites: tuple[str, ...]) -> None:
        self.cfg = setup.cfg
        self.table = setup.table if mode == "kerv" else None
        self.mode = mode
        self.suites = [setup.cfg.suite(s) for s in suites]

    def op(self, i: int):
        suite = self.suites[i % len(self.suites)]
        return harness.run_one_episode(self.cfg, suite, self.mode, i // len(self.suites), self.table)

    def check(self, t) -> OpOutput:
        text = t.dumps()
        return OpOutput([t], {"traces": text.encode()}, trace_problems(t, text))


class PaperReportWorkload:
    """The ``kerv run`` path over all suites and modes with a few trials.

    Every operation is the same run from a cold plan cache, as a fresh
    ``kerv run`` process would be, so its outputs must equal the first's.
    """

    def __init__(self, setup: Setup, tmp: Path) -> None:
        self.tmp = tmp
        self.cfg_path = tmp / "paper.conf"
        self.cfg_path.write_text(
            config.default_config_text(trials=PAPER_TRIALS)
            + f"threshold.table = {setup.table_path}\n"
            + f"run.seed_offset = {setup.cfg.seed_offset}\n"
        )
        self.first_outputs = None

    def op(self, i: int):
        out = self.tmp / f"paper_{i}"
        cfg = config.load(self.cfg_path)
        report, traces = harness.run_suite(cfg)
        harness.emit_results(report, traces, out)
        return report, traces, out

    def check(self, result) -> OpOutput:
        report, traces, out = result
        try:
            all_traces = [t for _, ts in sorted(traces.items()) for t in ts]
            report_bytes = (out / "report.txt").read_bytes()
            files = sorted((out / "traces").glob("*.jsonl"))
            texts = [t.dumps() for t in all_traces]
            problems = [p for t, text in zip(all_traces, texts) for p in trace_problems(t, text)]
            if report_bytes != report.render().encode():
                problems.append("report.txt differs from report.render()")
            expected = {
                f"{t.suite}_{t.mode}_{t.trial:04d}.jsonl": text for t, text in zip(all_traces, texts)
            }
            written = {p.name: p.read_text() for p in files}
            if written != expected:
                problems.append("written trace files differ from the returned traces")
            traces_bytes = "".join(n + "\n" + written[n] for n in sorted(written)).encode()
            outputs = {"report": report_bytes, "traces": traces_bytes}
            self.first_outputs = self.first_outputs or outputs
            if outputs != self.first_outputs:
                problems.append("outputs differ from the first run's")
            return OpOutput(all_traces, outputs, problems)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            simenv.build_plan.cache_clear()


class CalibrateWorkload:
    """Reload the set-up pre-sample traces and calibrate from them."""

    def __init__(self, setup: Setup) -> None:
        self.dir = setup.presample_dir
        self.expected_traces = setup.presample_files
        self.expected_table = setup.table.dumps()

    def op(self, i: int):
        traces = trace.load_dir(self.dir)
        return traces, threshold.calibrate(traces, threshold.DEFAULT_GRID)

    def check(self, result) -> OpOutput:
        traces, table = result
        dumps = [t.dumps() for t in traces]
        problems = [p for t, text in zip(traces, dumps) for p in trace_problems(t, text)]
        if dumps != self.expected_traces:
            problems.append("loaded traces differ from the saved pre-sample traces")
        table_text = table.dumps()
        if table_text != self.expected_table:
            problems.append("calibration table differs from the set-up table")
        return OpOutput(traces, {"traces": "".join(dumps).encode(), "table": table_text.encode()}, problems)


def make_workload(name: str, setup: Setup, tmp: Path):
    if name == "paper_report":
        return PaperReportWorkload(setup, tmp)
    if name == "strict_long":
        return EpisodeWorkload(setup, "naive", ("long",))
    if name == "adaptive_reach":
        return EpisodeWorkload(setup, "kerv", ("goal", "spatial"))
    return CalibrateWorkload(setup)


@dataclass
class Quality:
    """Deterministic figures over the traces of the check set."""

    episodes: int = 0
    successes: int = 0
    slices: int = 0
    verify_calls: int = 0
    modeled_cost: float = 0.0
    drafted: int = 0
    accepted: int = 0
    comp_fired: int = 0
    naive_cost: float = 0.0
    kerv_cost: float = 0.0

    def add(self, traces, cost) -> None:
        for t in traces:
            latency = harness.modeled_latency(t, cost)
            self.episodes += 1
            self.successes += t.success
            self.slices += len(t.slices)
            self.modeled_cost += latency
            if t.mode == "naive":
                self.naive_cost += latency
            elif t.mode == "kerv":
                self.kerv_cost += latency
            for rec in t.slices:
                self.verify_calls += rec.verify_calls
                self.comp_fired += rec.comp_fired
                self.drafted += sum(d is not None for d in rec.draft_ids)
                self.accepted += sum(s in (specdec.EXACT, specdec.RELAXED) for s in rec.statuses)

    def summary(self) -> dict[str, float]:
        out = {
            "success_rate": self.successes / self.episodes,
            "verify_calls_per_slice": self.verify_calls / self.slices,
            "modeled_cost_per_slice": self.modeled_cost / self.slices,
            "accepted_per_drafted": self.accepted / self.drafted if self.drafted else 0.0,
            "comp_fired_per_slice": self.comp_fired / self.slices,
        }
        if self.naive_cost and self.kerv_cost:
            out["modeled_speedup"] = self.naive_cost / self.kerv_cost
        return out


@dataclass
class Phase:
    """Timings, counters, checks and digests of one measured phase."""

    op_ns: list[int] = field(default_factory=list)
    op_scale: list[float] = field(default_factory=list)
    op_slices: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    slices: int = 0
    episodes: int = 0
    quality: Quality = field(default_factory=Quality)
    hashes: dict = field(default_factory=dict)

    def digests(self) -> dict[str, str]:
        return {name: h.hexdigest() for name, h in sorted(self.hashes.items())}

    def scaled_ns(self) -> list[float]:
        """Each operation's time on the nominal host."""
        return [ns * scale for ns, scale in zip(self.op_ns, self.op_scale)]

    @property
    def seconds(self) -> float:
        """Operation time on the nominal host."""
        return sum(self.scaled_ns()) / 1e9

    @property
    def host_scale(self) -> float:
        """Nominal over host operation time, over the whole phase."""
        return sum(self.scaled_ns()) / sum(self.op_ns)

    def op_ms_p50(self) -> float:
        return statistics.median(self.scaled_ns()) / 1e6

    def slice_us_p50(self) -> float:
        """Median over operations of the time per slice processed."""
        return statistics.median(ns / n for ns, n in zip(self.scaled_ns(), self.op_slices)) / 1e3


def measure(name: str, workload, cost, seconds: float, op=None, points=()) -> Phase:
    """Run operations until ``seconds`` have passed and the check set is done,
    with probe windows at ``points``."""
    with CLOCK.probe_points(points):
        return _measure(name, workload, cost, seconds, op or workload.op)


def _measure(name: str, workload, cost, seconds: float, op) -> Phase:
    phase = Phase()
    check_ops = CHECK_OPS[name]
    start = perf_counter()
    i = 0
    while i < check_ops or perf_counter() - start < seconds:
        phase.attempted += 1
        try:
            t = CLOCK.timed(op, i)
            got = workload.check(t.result)
        except Exception:
            traceback.print_exc()
            phase.failed += 1
            i += 1
            continue
        if got.problems:
            phase.failed += 1
            for p in got.problems[:5]:
                print(f"check failed in {name} op {i}: {p}", file=sys.stderr)
        phase.op_ns.append(t.ns)
        phase.op_scale.append(t.scale)
        phase.op_slices.append(sum(len(t.slices) for t in got.traces))
        phase.slices += phase.op_slices[-1]
        phase.episodes += len(got.traces)
        if i < check_ops:
            phase.quality.add(got.traces, cost)
            for key, data in got.outputs.items():
                phase.hashes.setdefault(key, hashlib.sha256()).update(data)
        del t, got
        i += 1
    return phase


def pinned_digests(name: str, seed: int) -> dict[str, str] | None:
    """The digests pinned in ``digests.json`` for this workload and seed."""
    path = BENCH_DIR / "digests.json"
    pinned = json.loads(path.read_text()) if path.is_file() else {}
    return pinned.get(str(seed), {}).get(name)


def pinned_mismatches(name: str, pinned: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Names of outputs whose digest differs from the pinned one."""
    return [f"{name}.{k}" for k in sorted(set(pinned) | set(digests)) if pinned.get(k) != digests.get(k)]


def end_to_end_metrics(setup: Setup, phase: Phase) -> dict[str, dict]:
    q = phase.quality.summary()
    return {
        "setup_s": {"value": statistics.median(setup.scaled_seconds), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "slices_per_s": {"value": phase.slices / phase.seconds, "unit": "1/s"},
        "slice_us_p50": {"value": phase.slice_us_p50(), "unit": "us"},
        "verify_calls_per_slice": {"value": q["verify_calls_per_slice"], "unit": "calls/slice"},
        "modeled_cost_per_slice": {"value": q["modeled_cost_per_slice"], "unit": "units/slice"},
    }


def per_layer_metrics(
    name: str, workload, setup: Setup, seconds: float
) -> tuple[dict, Phase, bool]:
    """Untraced then traced phase over the same operations, both with probe
    windows only around operations, so that no window falls inside a span."""
    cost = setup.cfg.cost
    plain = measure(name, workload, cost, seconds / 2)
    simenv.build_plan.cache_clear()
    tracer = spans.Tracer()
    with tracer.installed():
        traced = measure(
            name, workload, cost, seconds / 2, op=tracer.wrap(spans.ROOT_SPAN, workload.op)
        )
    totals, min_self_ns = tracer.totals()
    counters = {
        "slices": traced.slices,
        "episodes": traced.episodes,
        "ops": len(traced.op_ns),
        "replayed_slices": traced.slices * len(threshold.DEFAULT_GRID),
    }
    metrics = spans.layer_metrics(totals, counters, traced.host_scale)
    absent = spans.absent(totals)
    # ratios of the decoding the operations did, so 0 where they decode nothing
    decoded = "specdec.decode_slice.self_us_per_slice" not in absent
    q = traced.quality.summary()
    for ratio in ("accepted_per_drafted", "comp_fired_per_slice"):
        metrics[f"specdec.{ratio}"] = {"value": q[ratio] if decoded else 0.0, "unit": "ratio"}
        if not decoded:
            absent.append(f"specdec.{ratio}")
    overhead = 1.0 - (traced.slices / traced.seconds) / (plain.slices / plain.seconds)
    metrics["tracing_overhead_frac"] = {"value": overhead, "unit": "frac"}

    # The root spans' total is the sum of every span's self time; it must
    # match the operation wall time that ``measure`` took around the spans.
    root = totals[spans.ROOT_SPAN]
    op_ns = sum(traced.op_ns)
    gap = (op_ns - root.total_ns) / op_ns
    accounted = min_self_ns >= 0 and abs(gap) <= ACCOUNTING_TOLERANCE
    print(f"accounting: span self times {root.total_ns / 1e9:.4f} s, op wall time "
          f"{op_ns / 1e9:.4f} s, gap {gap:.4%}, untraced remainder "
          f"{root.self_ns / root.total_ns:.4%}, smallest self time {min_self_ns} ns: "
          f"{'ok' if accounted else 'FAILED'}")
    print("absent (layer does not run, reported as 0): " + (", ".join(sorted(absent)) or "none"))
    same = plain.digests() == traced.digests()
    if not same:
        print("traced digests differ from untraced digests", file=sys.stderr)
    merged = Phase(
        op_ns=traced.op_ns,
        op_scale=traced.op_scale,
        op_slices=traced.op_slices,
        slices=traced.slices,
        episodes=traced.episodes,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        hashes=traced.hashes,
        quality=traced.quality,
    )
    return metrics, merged, accounted and same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        setup = set_up(tmp, SEED_STRIDE * args.seed)
        workload = make_workload(args.workload, setup, tmp)
        if args.trace:
            metrics, phase, consistent = per_layer_metrics(
                args.workload, workload, setup, args.seconds
            )
        else:
            phase = measure(
                args.workload, workload, setup.cfg.cost, args.seconds, points=PROBE_POINTS[args.workload]
            )
            metrics, consistent = end_to_end_metrics(setup, phase), True
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    digests = phase.digests()
    print("ungated " + json.dumps({
        "episodes_per_s": phase.episodes / phase.seconds,
        "op_ms_p50": phase.op_ms_p50(),
    }))
    print("unscaled " + json.dumps({
        "host_scale": phase.host_scale,
        "setup_host_scale": statistics.median(
            s / u for s, u in zip(setup.scaled_seconds, setup.seconds)
        ),
        "ops": len(phase.op_ns),
        "setup_s": statistics.median(setup.seconds),
        "op_ms_p50": statistics.median(phase.op_ns) / 1e6,
        "slices_per_s": phase.slices / (sum(phase.op_ns) / 1e9),
    }))
    print("quality " + json.dumps(phase.quality.summary(), sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))
    pinned = pinned_digests(args.workload, args.seed)
    if pinned is None:
        print(f"no digests pinned for seed {args.seed}")
    else:
        mismatched = pinned_mismatches(args.workload, pinned, digests)
        print("digest mismatch against digests.json: " + (", ".join(mismatched) or "none"))
    result = {
        "correct": phase.failed == 0 and consistent,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
