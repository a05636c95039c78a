"""Suite runner, cost model, emission, configuration, CLI."""

import ast
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from kerv import cli, harness, simenv
from kerv.codec import NormKey
from kerv.config import ConfigError, CostModel, default_config, default_config_text, load, loads
from kerv.harness import (
    SuiteReport,
    afep,
    emit_results,
    modeled_latency,
    run_one_episode,
    run_suite,
    sweep,
)
from kerv.simenv import NoisyDrafter, PlanVerifier, SimEnv, make_task
from kerv.threshold import (
    CalibrationRow,
    CalibrationTable,
    ThresholdConfigError,
    calibrate,
    DEFAULT_GRID,
)
from kerv.trace import EpisodeTrace, SliceRecord, load as load_trace, load_dir
from oracles import reference_run_episode


def make_record(verify=1, comp=False, fep=7, r=0.0, kv=0.0, cum=0.0):
    """A record whose first rejection is at ``fep`` (none at 7), after which
    the filter filled the slice when ``comp``."""
    statuses = ["exact"] * 7
    if fep < 7:
        statuses[fep] = "rejected"
    if comp:
        statuses[fep + 1 :] = [None] * (6 - fep)
    ids = tuple(None if s is None else 0 for s in statuses)
    return SliceRecord(
        draft_ids=ids,
        true_ids=ids,
        statuses=tuple(statuses),
        tokens=(0,) * 7,
        r=r,
        kvar_step=kv,
        kvar_cum=cum,
        verify_calls=verify,
        cooldown_remaining=0,
    )


def make_trace(records, **kw):
    base = dict(
        suite="s", kind="reach", mode="naive", robot="arm", trial=0, seed=0,
        success=True, steps=len(records), deviation=0.0, plan_steps=len(records),
    )
    base.update(kw)
    return EpisodeTrace(slices=list(records), **base)


def test_modeled_latency_linear_accumulation():
    cm = CostModel()
    trace = make_trace([make_record() for _ in range(10)])
    expected = 10 * (cm.verify_cost + cm.draft_cost + cm.adjust_cost)
    assert modeled_latency(trace, cm) == pytest.approx(expected)


def test_modeled_latency_counts_compensation_round_trip():
    cm = CostModel()
    trace = make_trace([make_record(comp=True, fep=2)])
    expected = cm.verify_cost + cm.draft_cost + cm.kf_cost + cm.transfer_cost + cm.adjust_cost
    assert modeled_latency(trace, cm) == pytest.approx(expected)


def test_modeled_latency_homogeneous_in_costs():
    cm = CostModel()
    doubled = CostModel(
        verify_cost=2 * cm.verify_cost,
        draft_cost=2 * cm.draft_cost,
        kf_cost=2 * cm.kf_cost,
        adjust_cost=2 * cm.adjust_cost,
        transfer_cost=2 * cm.transfer_cost,
    )
    trace = make_trace(
        [make_record(verify=2, comp=(i % 3 == 0), fep=2) for i in range(9)]
    )
    assert modeled_latency(trace, doubled) == pytest.approx(2 * modeled_latency(trace, cm))


def test_afep_is_one_based_mean_over_rejection_slices():
    trace = make_trace([make_record(fep=0), make_record(fep=3), make_record()])
    assert afep([trace]) == pytest.approx((1 + 4) / 2)
    assert afep([make_trace([make_record()])]) == 0.0


def test_default_cost_ordering():
    cm = CostModel()
    assert cm.verify_cost >= cm.draft_cost >= cm.kf_cost


def test_config_roundtrip_and_defaults():
    cfg = default_config()
    assert cfg.key.vocab_size == 256
    assert cfg.comp_n == 4
    assert cfg.depth == 4
    assert cfg.pl == 1
    assert cfg.ac == 10
    assert cfg.r_max == 15.0 and cfg.r_min == 5.0
    assert {s.name for s in cfg.suites} == {"goal", "object", "spatial", "long"}


def test_unknown_config_keys_listed():
    with pytest.raises(ConfigError) as err:
        loads("kf.typo = 1\nnoise.oops = 2\n")
    assert "kf.typo" in str(err.value)
    assert "noise.oops" in str(err.value)


def test_config_bad_value_reported():
    with pytest.raises(ConfigError):
        loads("kf.ac = banana\n")


@pytest.mark.parametrize(
    "lines",
    [
        "threshold.mode = bogus\n",  # not a key: one update rule exists
        "threshold.r_max = 5\nthreshold.r_min = 5.5\n",  # floor above ceiling
        "threshold.r_max = 4\n",
        "threshold.r_min = -1\n",
        "threshold.r_max = nan\n",
    ],
)
def test_config_validates_threshold_at_load(lines):
    with pytest.raises(ConfigError, match="threshold"):
        loads(default_config_text() + lines)


@pytest.mark.parametrize(
    "lines, match",
    [
        ("sd.depth = 9", "sd.depth"),
        ("sd.depth = 0", "sd.depth"),
        ("comp.p_source = foo", "comp.p_source"),  # not a key: the verifier's token is taken
        ("kf.ac = 0", "kf.ac"),
        ("kf.pl = 0", "kf.pl"),
        ("comp.n = -1", "comp.n"),
        ("threshold.fixed_r = -1", "threshold.fixed_r"),
        ("threshold.fixed_r = inf", "threshold.fixed_r"),
        ("threshold.r_max = inf", "threshold.r_max"),
        ("run.modes = naive,greedy", "greedy"),
        ("run.modes =", "run.modes"),
        ("suite.goal.trials = many", "suite.goal.trials"),
        ("suite.goal.seed_base = 1.5", "suite.goal.seed_base"),
        ("threshold.tau = 1.0", "threshold.tau"),
        ("threshold.phi = 1.0", "threshold.phi"),
        ("vocab_size = 128", "vocab_size"),
    ],
)
def test_config_validates_engine_values_at_load(lines, match):
    with pytest.raises(ConfigError, match=match):
        loads(default_config_text() + lines)


def test_config_validates_values_set_by_replace():
    cfg = default_config()
    for kw in (
        {"depth": 8},
        {"comp_n": -2},
        {"fixed_r": float("nan")},
        {"fixed_r": float("inf")},
        {"r_max": float("inf")},
        {"pl": 0},
        {"modes": ()},
    ):
        with pytest.raises(ConfigError):
            replace(cfg, **kw)


def test_config_norm_key_loads_and_load(tmp_path):
    text = "\n".join(
        ["codec.vocab_size = 128", "dof0 = -2, 2", "dof6 = 0,1", "# comment", "kf.dt = 1.0"]
    )
    key = loads(text).key
    assert key.vocab_size == 128
    assert key.lo[0] == -2.0 and key.hi[0] == 2.0
    assert key.lo[6] == 0.0 and key.hi[6] == 1.0
    assert key.lo[3] == -1.0 and key.hi[3] == 1.0  # absent DoF defaults

    path = tmp_path / "key.cfg"
    path.write_text(text)
    assert load(path) == loads(text)

    with pytest.raises(ConfigError, match="dof3"):
        loads(text + "\ndof3 = 1\n")


def test_config_threshold_zero_floor_and_equal_bounds_load():
    cfg = loads(default_config_text() + "threshold.r_min = 0\n")
    assert cfg.r_min == 0.0
    cfg = loads(default_config_text() + "threshold.r_max = 5\nthreshold.r_min = 5\n")
    assert cfg.r_max == cfg.r_min == 5.0


def test_config_suite_requires_kind():
    with pytest.raises(ConfigError):
        loads("suite.x.trials = 3\n")
    with pytest.raises(ConfigError):
        loads("suite.x.kind = swim\n")


@pytest.fixture(scope="module")
def small_cfg():
    text = default_config_text(trials=3)
    return loads(text)


@pytest.fixture(scope="module")
def small_table(small_cfg):
    goal = replace(small_cfg.suite("goal"), trials=4)
    pre = harness.pre_sample(replace(small_cfg, fixed_r=15.0, suites=(goal,)))
    return calibrate(list(pre), DEFAULT_GRID)


def _uneven_trials(cfg):
    """``cfg`` with 2, 0, 1 and 2 trials in its four suites, at r = 12."""
    suites = tuple(replace(s, trials=n) for s, n in zip(cfg.suites, (2, 0, 1, 2)))
    return replace(cfg, suites=suites, fixed_r=12.0)


def test_pre_sample_decodes_every_suites_trials_in_config_order(small_cfg):
    cfg = _uneven_trials(small_cfg)
    traces = list(harness.pre_sample(cfg))
    assert [(t.suite, t.trial) for t in traces] == [
        ("goal", 0), ("goal", 1), ("object", 0), ("spatial", 0), ("spatial", 1)
    ]
    for t in traces:
        assert t.mode == "fixed_relaxed"
        assert t.seed == cfg.suite(t.suite).seed_base + cfg.seed_offset + t.trial
        assert t.slices and all(rec.r == cfg.fixed_r for rec in t.slices)


def test_pre_sample_runs_no_episode_before_it_is_drawn(small_cfg, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_one_episode", lambda *a: ran.append(a) or len(ran))
    cfg = _uneven_trials(small_cfg)
    episodes = harness.pre_sample(cfg)
    assert ran == []
    assert next(episodes) == 1
    assert ran == [(cfg, cfg.suites[0], "fixed_relaxed", 0, None)]
    assert list(episodes) == [2, 3, 4, 5]


def test_run_suite_zero_trials_is_empty_report(small_cfg):
    report, traces = run_suite(small_cfg, modes=("naive",), suites=("goal",), trials=0)
    assert report.rows == []
    assert traces[("goal", "naive")] == []


def test_run_suite_negative_trials_is_error_before_any_episode(small_cfg, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_one_episode", lambda *a: ran.append(a))
    with pytest.raises(ConfigError, match="trials must be >= 0, got -2"):
        run_suite(small_cfg, modes=("naive",), trials=-2)
    assert ran == []


def test_run_suite_no_modes_is_error_before_any_episode(small_cfg, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_one_episode", lambda *a: ran.append(a))
    with pytest.raises(ConfigError, match="modes names no mode"):
        run_suite(small_cfg, modes=(), trials=1)
    assert ran == []


@pytest.mark.parametrize(
    "override, config_raises",
    [
        ({"trials": -2}, lambda cfg: replace(cfg.suites[0], trials=-2)),
        ({"modes": ()}, lambda cfg: replace(cfg, modes=())),
        ({"modes": ("greedy",)}, lambda cfg: replace(cfg, modes=("greedy",))),
        ({"suites": ("mars",)}, lambda cfg: cfg.suite("mars")),
    ],
    ids=["negative_trials", "no_mode", "unknown_mode", "unknown_suite"],
)
def test_run_suite_override_fails_as_the_config_fails(
    small_cfg, monkeypatch, override, config_raises
):
    with pytest.raises(ConfigError) as expected:
        config_raises(small_cfg)
    ran = []
    monkeypatch.setattr(harness, "run_one_episode", lambda *a: ran.append(a))
    with pytest.raises(ConfigError) as got:
        run_suite(small_cfg, **override)
    assert str(got.value) == str(expected.value)
    assert ran == []


def test_naive_episodes_are_decoded_open_loop(small_cfg, monkeypatch):
    """``run_one_episode`` decodes every mode with ``run_episode``, a naive
    episode in its array pass, with no draft/verify round, to the trace
    the per-oracle loop records."""
    suite = small_cfg.suite("object")
    spec = make_task(suite.kind, suite.seed_base + small_cfg.seed_offset + 1)
    env = SimEnv(spec, small_cfg.key, suite=suite.name, trial=1)
    draft = NoisyDrafter(env, small_cfg.noise)
    ref = reference_run_episode(env, draft, PlanVerifier(env), small_cfg, "naive")
    loops = []
    real = harness.run_episode
    monkeypatch.setattr(harness, "run_episode", lambda *a: loops.append(a[2]) or real(*a))
    same = run_one_episode(small_cfg, suite, "naive", 1, None).dumps() == ref.dumps()
    assert same
    run_one_episode(small_cfg, suite, "fixed_relaxed", 1, None)
    assert loops == ["naive", "fixed_relaxed"]


def test_run_suite_report_shape(small_cfg, small_table):
    table = CalibrationTable({("goal", "sim7dof"): small_table.rows[("goal", "sim7dof")]})
    report, _ = run_suite(small_cfg, suites=("goal",), trials=3, table=table)
    assert [r.mode for r in report.rows] == ["naive", "fixed_relaxed", "kerv"]
    naive_row = report.rows[0]
    assert naive_row.modeled_speedup == 1.0
    assert naive_row.sr == 1.0
    assert all(r.avg_steps > 0 for r in report.rows)


def test_run_suite_kerv_without_table_is_startup_error(small_cfg):
    with pytest.raises(ConfigError):
        run_suite(small_cfg, modes=("kerv",), suites=("goal",), trials=1)


@pytest.mark.parametrize("entry", ["run_suite", "sweep"])
def test_missing_calibration_row_is_error_before_any_episode(
    small_cfg, small_table, monkeypatch, entry
):
    ran = []
    monkeypatch.setattr(harness, "run_one_episode", lambda *a: ran.append(a))
    row = small_table.rows[("goal", "sim7dof")]
    table = CalibrationTable({(name, "sim7dof"): row for name in ("goal", "long", "object")})
    with pytest.raises(ThresholdConfigError, match=r"no calibration row for \('spatial', 'sim7dof'\)"):
        if entry == "run_suite":
            run_suite(small_cfg, trials=2, table=table)
        else:
            sweep(small_cfg, "n", [2, 4], trials=2, table=table)
    assert ran == []


def test_run_suite_unknown_suite_is_error(small_cfg):
    with pytest.raises(ConfigError):
        run_suite(small_cfg, modes=("naive",), suites=("mars",), trials=1)


def test_emit_results_and_cost_accounting_roundtrip(tmp_path, small_cfg):
    report, traces = run_suite(small_cfg, modes=("naive", "fixed_relaxed"), suites=("goal",), trials=2)
    out = tmp_path / "res"
    emit_results(report, traces, out)
    assert (out / "report.txt").exists()
    files = sorted(p.name for p in (out / "traces").glob("*.jsonl"))
    assert files == [
        "goal_fixed_relaxed_0000.jsonl",
        "goal_fixed_relaxed_0001.jsonl",
        "goal_naive_0000.jsonl",
        "goal_naive_0001.jsonl",
    ]
    # recompute modeled latency from the emitted traces: must match exactly
    emitted = {}
    for name in files:
        t = load_trace(out / "traces" / name)
        emitted.setdefault((t.suite, t.mode), []).append(t)
    base = sum(modeled_latency(t, small_cfg.cost) for t in emitted[("goal", "naive")])
    for row in report.rows:
        lat = sum(modeled_latency(t, small_cfg.cost) for t in emitted[("goal", row.mode)])
        assert row.modeled_speedup == base / lat
    for stem in ("r_vs_step", "kvar_vs_step", "afep_hist"):
        assert (out / "plotdata" / f"{stem}_goal_naive.txt").exists()


def test_emit_results_empty_report_writes_headers(tmp_path):
    emit_results(SuiteReport(rows=[]), {}, tmp_path / "empty")
    text = (tmp_path / "empty" / "report.txt").read_text()
    assert text.splitlines()[0].split() == [
        "suite", "mode", "sr", "modeled_speedup", "afep", "avg_steps", "avg_r", "comp_events",
    ]
    assert len(text.splitlines()) == 1


def _files(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_emit_results_refuses_to_mix_runs(tmp_path, small_cfg, capsys):
    """A 3-trial naive+fixed run, then a 1-trial naive run into the same
    directory: the second writes nothing, from the library or the CLI, and
    names the first file it would leave stale. The same run again may
    rewrite its own files."""
    out = tmp_path / "out"
    first = run_suite(small_cfg, modes=("fixed_relaxed",), suites=("goal",), trials=3)
    emit_results(*first, out)
    before = _files(out)
    assert len(before) == 1 + 6 + 6  # the report, 6 traces, 3 plot files per mode
    second = run_suite(small_cfg, modes=("naive",), suites=("goal",), trials=1)
    stale = out / "traces" / "goal_fixed_relaxed_0000.jsonl"
    with pytest.raises(FileExistsError, match=f"^{stale} is not an output of this run"):
        emit_results(*second, out)
    assert _files(out) == before
    rc = cli.main(
        ["run", "--config", str(_write_cfg(tmp_path)), "--out", str(out), "--mode", "naive",
         "--suite", "goal", "--trials", "1"]
    )
    assert rc == 2
    assert f"{stale} is not an output of this run" in capsys.readouterr().err
    assert _files(out) == before
    emit_results(*first, out)
    assert _files(out) == before


def test_sweep_r_uses_fixed_mode(small_cfg):
    rows = sweep(small_cfg, "r", [9, 15], suites=("goal",), trials=2)
    assert [value for value, _ in rows] == [9.0, 15.0]
    assert all(row.mode == "fixed_relaxed" for _, row in rows)


def test_run_suite_builds_each_tasks_plan_once_and_keeps_one(small_cfg, small_table, monkeypatch):
    """A task's modes are decoded back to back, so its plan is built once
    (one spline fit) and only the last task's plan stays cached."""
    fits = []
    real = simenv._clamped_spline
    monkeypatch.setattr(simenv, "_clamped_spline", lambda *a: fits.append(a) or real(*a))
    row = small_table.rows[("goal", "sim7dof")]
    table = CalibrationTable({(name, "sim7dof"): row for name in ("goal", "object")})
    simenv.build_plan.cache_clear()
    report, traces = run_suite(small_cfg, suites=("goal", "object"), trials=3, table=table)
    assert [(r.suite, r.mode) for r in report.rows] == [
        (suite, mode) for suite in ("goal", "object") for mode in ("naive", "fixed_relaxed", "kerv")
    ]
    assert sum(map(len, traces.values())) == 18
    assert len(fits) == 6
    assert simenv.build_plan.cache_info().currsize <= 1


def test_sweep_decodes_each_tasks_naive_episode_once(small_cfg, monkeypatch):
    """The naive baseline of a task is decoded once for all swept values,
    and each value's rows are those ``run_suite`` gives at that value."""
    naive = []
    real = harness.run_episode
    monkeypatch.setattr(
        harness, "run_episode", lambda *a: a[2] == "naive" and naive.append(a) or real(*a)
    )
    rows = sweep(small_cfg, "r", [5, 9, 15], trials=2)
    assert len(naive) == 8  # 4 suites x 2 trials
    monkeypatch.undo()
    for r in (5, 9, 15):
        report, _ = run_suite(
            replace(small_cfg, fixed_r=float(r)), modes=("fixed_relaxed",), trials=2
        )
        assert [row for value, row in rows if value == r] == report.rows


def test_sweep_rejects_unknown_param(small_cfg):
    with pytest.raises(ConfigError):
        sweep(small_cfg, "depth", [1], suites=("goal",), trials=1)


def _write_cfg(tmp_path, trials=2):
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text(trials=trials))
    return path


def test_cli_run_and_outputs(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["run", "--config", str(cfg_path), "--out", str(out), "--mode", "naive",
         "--suite", "goal", "--trials", "2"]
    )
    assert rc == 0
    assert (out / "report.txt").exists()
    assert "naive" in capsys.readouterr().out


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("definitely.unknown = 1\n")
    rc = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_cli_names_a_config_or_grid_file_that_is_not_utf8(tmp_path, capsys, command):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe" + default_config_text(trials=1).encode())
    if command == "run":
        rc = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    else:
        rc = _calibrate_cli(_write_cfg(tmp_path), bad, tmp_path / "table.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert len(err.strip().splitlines()) == 1


def test_cli_negative_trials_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(
        ["run", "--config", str(_write_cfg(tmp_path)), "--out", str(out), "--trials", "-2"]
    )
    assert rc != 0
    assert "trials must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def _calibrate_cli(cfg_path, grid, out):
    return cli.main(["calibrate", "--config", str(cfg_path), "--grid", str(grid), "--out", str(out)])


def test_cli_calibrate_then_kerv_run(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, trials=2)
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 1.0,2.0\ngrid.phi = 0.7,1.0\n")
    table_path = tmp_path / "table.csv"
    assert _calibrate_cli(cfg_path, grid, table_path) == 0
    assert capsys.readouterr().out == f"wrote 4 calibration rows to {table_path}\n"
    # a config whose suites run no trial gives no pre-sample
    empty_cfg = tmp_path / "empty.cfg"
    empty_cfg.write_text(default_config_text(trials=0))
    assert _calibrate_cli(empty_cfg, grid, tmp_path / "none.csv") == 2
    assert "no pre-sample traces supplied" in capsys.readouterr().err
    assert not (tmp_path / "none.csv").exists()

    kerv_cfg = tmp_path / "kerv.cfg"
    kerv_cfg.write_text(
        default_config_text(trials=2) + f"threshold.table = {table_path}\n"
    )
    out = tmp_path / "kerv_out"
    rc = cli.main(
        ["run", "--config", str(kerv_cfg), "--out", str(out), "--mode", "kerv",
         "--suite", "goal", "--trials", "2"]
    )
    assert rc == 0
    # the baseline always runs (speedups are relative to it) and is emitted too
    traces = load_dir(out / "traces")
    assert {t.mode for t in traces} == {"kerv", "naive"}
    report_text = (out / "report.txt").read_text()
    assert "kerv" in report_text and "fixed_relaxed" not in report_text


def test_cli_calibrate_writes_the_golden_table(tmp_path, calib_table):
    """``kerv calibrate`` decodes the pre-sample the ``calib_table`` fixture is
    calibrated from, and writes that table."""
    cfg_path = tmp_path / "pre.cfg"
    cfg_path.write_text(default_config_text(trials=8) + "threshold.fixed_r = 15\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 0.5,1.0,2.0,4.0\ngrid.phi = 0.7,1.0,1.5\n")
    assert cli._parse_grid(grid) == list(DEFAULT_GRID)
    out = tmp_path / "table.csv"
    assert _calibrate_cli(cfg_path, grid, out) == 0
    assert out.read_text() == calib_table.dumps()


def test_cli_calibrate_passes_config_threshold_through(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 0.5,2.0\ngrid.phi = 0.7,1.5\n")
    cfg_path = tmp_path / "bounds.cfg"
    cfg_path.write_text(
        default_config_text(trials=2)
        + "threshold.fixed_r = 15\nthreshold.r_max = 12\nthreshold.r_min = 0\n"
    )
    out = tmp_path / "table.csv"
    assert _calibrate_cli(cfg_path, grid, out) == 0
    pre_cfg = replace(default_config(trials=2), fixed_r=15.0)
    pre = [
        run_one_episode(pre_cfg, suite, "fixed_relaxed", t, None)
        for suite in pre_cfg.suites
        for t in range(2)
    ]
    expected = calibrate(
        pre, [(0.5, 0.7), (0.5, 1.5), (2.0, 0.7), (2.0, 1.5)],
        r_max=12.0, r_min=0.0,
    )
    assert out.read_text() == expected.dumps()

    cfg_path.write_text(default_config_text(trials=2) + "threshold.mode = bogus\n")
    assert _calibrate_cli(cfg_path, grid, tmp_path / "bad.csv") != 0
    assert "threshold.mode" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


def test_cli_equal_bounds_table_runs_a_fixed_threshold_with_compensation(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 1.0,2.0\ngrid.phi = 0.7,1.0\n")
    bounds_cfg = tmp_path / "bounds.cfg"
    bounds_cfg.write_text(
        default_config_text(trials=2) + "threshold.r_max = 7\nthreshold.r_min = 7\n"
    )
    table_path = tmp_path / "table.csv"
    assert _calibrate_cli(bounds_cfg, grid, table_path) == 0

    kerv_cfg = tmp_path / "kerv.cfg"
    kerv_cfg.write_text(default_config_text(trials=2) + f"threshold.table = {table_path}\n")
    out = tmp_path / "kerv_out"
    capsys.readouterr()
    rc = cli.main(["run", "--config", str(kerv_cfg), "--out", str(out), "--mode", "kerv"])
    assert rc == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[6] == "avg_r"
    assert len(rows) == 4 and {row.split()[1] for row in rows} == {"kerv"}
    assert {row.split()[6] for row in rows} == {"7.000"}
    kerv_traces = [t for t in load_dir(out / "traces") if t.mode == "kerv"]
    assert len(kerv_traces) == 8
    assert {rec.r for t in kerv_traces for rec in t.slices} == {7.0}
    assert sum(t.comp_events for t in kerv_traces) > 0


def test_cli_calibrate_rejects_unknown_grid_keys(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 1.0\ngrid.phi = 0.7\ngrid.phii = 2\ngrid.tua = 9\n")
    out = tmp_path / "table.csv"
    assert _calibrate_cli(_write_cfg(tmp_path), grid, out) == 2
    assert "unknown grid keys: ['grid.phii', 'grid.tua']" in capsys.readouterr().err
    assert not out.exists()


def test_cli_calibrate_writes_utf8_under_an_ascii_locale(tmp_path):
    """Every reader reads UTF-8, so every writer writes it: under the C
    locale, with UTF-8 mode and locale coercion off, a config whose robot
    name is not ASCII loads, calibrates and writes a table that loads back
    with the name. Written in the locale's encoding, the table failed with
    an 'ascii' codec error after the whole pre-sample was decoded."""
    cfg_path = tmp_path / "pre.cfg"
    cfg_path.write_text(default_config_text(trials=1) + "robot = bras-\u00e9\n", encoding="utf-8")
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 1.0\ngrid.phi = 1.0\n")
    out = tmp_path / "table.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": src,
    }
    argv = ["calibrate", "--config", str(cfg_path), "--grid", str(grid), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "kerv.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert {robot for _, robot in CalibrationTable.load(out).rows} == {"bras-\u00e9"}


def test_a_run_loads_only_numpy_and_the_standard_library(tmp_path):
    """numpy is the one runtime dependency that ``pyproject.toml`` lists;
    scipy, hypothesis and pytest serve the tests alone. A 1-trial ``kerv
    calibrate`` and ``kerv run`` in every mode load, past what the
    interpreter loaded at startup (its ``site`` hooks), only top-level
    modules of numpy, kerv and the standard library, and the Cython
    runtime modules that numpy's compiled extensions register."""
    (tmp_path / "run.cfg").write_text(
        default_config_text(trials=1) + "threshold.table = table.csv\n", encoding="utf-8"
    )
    (tmp_path / "grid.cfg").write_text("grid.tau = 1.0\ngrid.phi = 1.0\n")
    code = (
        "import sys\n"
        "startup = set(sys.modules)\n"
        "from kerv import cli\n"
        "assert cli.main(['calibrate', '--config', 'run.cfg', '--grid', 'grid.cfg',"
        " '--out', 'table.csv']) == 0\n"
        "assert cli.main(['run', '--config', 'run.cfg', '--out', 'out']) == 0\n"
        "print(sorted({name.partition('.')[0] for name in set(sys.modules) - startup}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.txt").exists()
    loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1])) - set(sys.stdlib_module_names)
    cython = {name for name in loaded if re.fullmatch(r"cython_runtime|_cython_[0-9_]+", name)}
    assert loaded - cython == {"numpy", "kerv"}


def test_cli_calibrate_checks_grid_and_config_before_any_episode(tmp_path, capsys, monkeypatch):
    episodes = []
    monkeypatch.setattr(harness, "run_one_episode", lambda *a: episodes.append(a))
    grid = tmp_path / "grid.cfg"
    cfg_path = tmp_path / "bounds.cfg"
    out = tmp_path / "table.csv"
    for grid_text, cfg_extra, message in (
        ("grid.tau = 1.0, abc\ngrid.phi = 0.7\n", "",
         "error: bad value for grid.tau: '1.0, abc' ("),
        ("grid.tau = 1.0\ngrid.phi = 0.7\n", "threshold.r_min = -1\n",
         "error: threshold.r_max = 15.0, threshold.r_min = -1.0: need r_max >= r_min >= 0"),
        ("grid.tau = 1.0,-1\ngrid.phi = 0.7\n", "",
         "error: need tau > 0 and phi > 0, got tau=-1.0, phi=0.7\n"),
    ):
        grid.write_text(grid_text)
        cfg_path.write_text(default_config_text(trials=2) + cfg_extra)
        assert _calibrate_cli(cfg_path, grid, out) == 2
        assert capsys.readouterr().err.startswith(message)
        assert episodes == []
        assert not out.exists()


SWEEP_R_TEXT = (
    "           param            value            suite               sr  modeled_speedup"
    "             afep        avg_steps      comp_events\n"
    "               r                9             goal           1.0000           1.3985"
    "           3.0161            70.50                0\n"
    "               r               15             goal           0.0000           1.5102"
    "           3.3211            70.50                0\n"
)
SWEEP_N_TEXT = (
    "           param            value            suite               sr  modeled_speedup"
    "             afep        avg_steps      comp_events\n"
    "               n                2             goal           0.0000           1.8247"
    "           3.1083            70.50               39\n"
    "               n                4             goal           0.5000           1.6050"
    "           3.0000            70.50               26\n"
)


def test_cli_sweep_writes_table(tmp_path, capsys, calib_table):
    """The text ``kerv sweep`` prints and writes to ``sweep_<param>.txt``, pinned."""
    table_path = tmp_path / "table.csv"
    calib_table.save(table_path)
    cfg_path = _write_cfg(tmp_path)
    cfg_path.write_text(cfg_path.read_text() + f"threshold.table = {table_path}\n")
    out = tmp_path / "sw"
    for param, values, text in (("r", "9,15", SWEEP_R_TEXT), ("n", "2,4", SWEEP_N_TEXT)):
        capsys.readouterr()
        rc = cli.main(
            ["sweep", "--config", str(cfg_path), "--out", str(out), "--param", param,
             "--values", values, "--suite", "goal", "--trials", "2"]
        )
        assert rc == 0
        assert (out / f"sweep_{param}.txt").read_text() == text
        assert capsys.readouterr().out == text


def test_cli_missing_required_args_exit_code():
    with pytest.raises(SystemExit):
        cli.main(["run"])


def test_widest_range_the_config_accepts_runs_to_the_end():
    # a relaxed miss of a few bins on a 1e300-wide grid moves the pose by
    # about 1e298, whose square passes the float range in the goal distance
    cfg = loads(default_config_text(1) + "dof0 = -1e300,1e300\n")
    suite = cfg.suites[0]
    trace = run_one_episode(cfg, suite, "fixed_relaxed", 0, None)
    assert not trace.success
    assert trace.steps == len(trace.slices) > 0


def _compensated(real_sum):
    """A ``sum`` that adds floats exactly rounded (``math.fsum``), as
    Python 3.12's compensated ``sum`` comes closer to; other items are
    summed as before."""

    def compensated(iterable, start=0):
        items = list(iterable)
        if any(type(item) is float for item in items):
            return math.fsum([start, *items])
        return real_sum(items, start)

    return compensated


def test_outputs_do_not_depend_on_a_compensated_sum(monkeypatch):
    """Python 3.12 made ``sum()`` of floats compensated; a calibration
    table, the deviation ``SimEnv.step`` adds up (the per-oracle
    reference's, which the engine's must equal) and the mean r of a report
    add their floats left to right, and so do not move when ``sum`` does.
    The table's bins are 1/100 wide, as on the default key's 1/128 its
    variabilities would add without rounding; the step's gap is 1.0 and
    three gaps of 0.4 ulp(1.0), which a fold leaves at 1.0 and an exact sum
    does not."""
    import builtins

    key = NormKey(vocab_size=200)
    pre_sample = list(harness.pre_sample(replace(default_config(2), fixed_r=15.0, key=key)))
    table = calibrate(pre_sample, DEFAULT_GRID, key=key).dumps()
    traces = [make_trace([make_record(r=0.1), make_record(r=0.2), make_record(r=0.3)])]
    r_mean = harness.mean_r(traces)

    env = SimEnv(make_task("reach", 12))
    pose, target = env.pose, env.pose_rows[1]
    moves = [target[dof] - pose[dof] for dof in range(6)]
    moves[0] += 1.0
    for dof in (3, 4, 5):  # a task's start pose has no rotation
        moves[dof] += 0.4 * math.ulp(1.0)
    gap = 0.0
    for dof in range(6):
        gap += abs((pose[dof] + moves[dof]) - target[dof])

    monkeypatch.setattr(builtins, "sum", _compensated(builtins.sum))
    assert sum([0.1, 0.2, 0.3]) != 0.1 + 0.2 + 0.3  # the swap is in force
    assert calibrate(pre_sample, DEFAULT_GRID, key=key).dumps() == table
    assert harness.mean_r(traces) == r_mean
    env.step((*moves, 0.0))  # the gripper holds
    assert gap == 1.0 and env.deviation == gap
