"""Suite runner, cost model, emission, configuration, CLI."""

import math
from dataclasses import replace

import pytest

from kerv import cli, harness
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
from kerv.threshold import CalibrationRow, CalibrationTable, calibrate, DEFAULT_GRID
from kerv.trace import EpisodeTrace, SliceRecord, load as load_trace, load_dir


def make_record(step, verify=1, draft=1, comp=False, fep=7, r=0.0, kv=0.0, cum=0.0):
    return SliceRecord(
        step=step,
        draft_ids=(None,) * 7,
        true_ids=(None,) * 7,
        statuses=(None,) * 7,
        tokens=(0,) * 7,
        sources=("draft",) * 7,
        first_error_pos=fep,
        r=r,
        kvar_step=kv,
        kvar_cum=cum,
        verify_calls=verify,
        draft_calls=draft,
        comp_fired=comp,
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
    trace = make_trace([make_record(i) for i in range(10)])
    expected = 10 * (cm.verify_cost + cm.draft_cost + cm.adjust_cost)
    assert modeled_latency(trace, cm) == pytest.approx(expected)


def test_modeled_latency_counts_compensation_round_trip():
    cm = CostModel()
    trace = make_trace([make_record(0, comp=True)])
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
        [make_record(i, verify=2, draft=2, comp=(i % 3 == 0)) for i in range(9)]
    )
    assert modeled_latency(trace, doubled) == pytest.approx(2 * modeled_latency(trace, cm))


def test_afep_is_one_based_mean_over_rejection_slices():
    trace = make_trace([make_record(0, fep=0), make_record(1, fep=3), make_record(2)])
    assert afep([trace]) == pytest.approx((1 + 4) / 2)
    assert afep([make_trace([make_record(0)])]) == 0.0


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
        "threshold.mode = bogus\n",
        "threshold.r_max = 5\nthreshold.r_min = 5\n",
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


def test_config_threshold_zero_floor_and_literal_mode_load():
    cfg = loads(default_config_text() + "threshold.mode = literal\nthreshold.r_min = 0\n")
    assert cfg.threshold_mode == "literal" and cfg.r_min == 0.0


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
    goal = small_cfg.suite("goal")
    pre = [
        run_one_episode(replace(small_cfg, fixed_r=15.0), goal, "fixed_relaxed", t, None)
        for t in range(4)
    ]
    return calibrate(pre, DEFAULT_GRID)


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


def test_run_suite_report_shape(small_cfg, small_table):
    table = CalibrationTable()
    for name in ("goal",):
        table.put(name, "sim7dof", small_table.rows[("goal", "sim7dof")])
    report, _ = run_suite(small_cfg, suites=("goal",), trials=3, table=table)
    assert [r.mode for r in report.rows] == ["naive", "fixed_relaxed", "kerv"]
    naive_row = report.rows[0]
    assert naive_row.modeled_speedup == 1.0
    assert naive_row.sr == 1.0
    assert all(r.avg_steps > 0 for r in report.rows)


def test_run_suite_kerv_without_table_is_startup_error(small_cfg):
    with pytest.raises(ConfigError):
        run_suite(small_cfg, modes=("kerv",), suites=("goal",), trials=1)


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


def test_sweep_r_uses_fixed_mode(small_cfg):
    rows = sweep(small_cfg, "r", [9, 15], suites=("goal",), trials=2)
    assert [r.value for r in rows] == [9.0, 15.0]
    assert all(r.param == "r" for r in rows)


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


def test_cli_negative_trials_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(
        ["run", "--config", str(_write_cfg(tmp_path)), "--out", str(out), "--trials", "-2"]
    )
    assert rc != 0
    assert "trials must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_calibrate_then_kerv_run(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, trials=2)
    pre_out = tmp_path / "pre"
    rc = cli.main(
        ["run", "--config", str(cfg_path), "--out", str(pre_out), "--mode",
         "fixed_relaxed", "--suite", "goal", "--trials", "3"]
    )
    assert rc == 0
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 1.0,2.0\ngrid.phi = 0.7,1.0\n")
    table_path = tmp_path / "table.csv"
    rc = cli.main(
        ["calibrate", "--traces", str(pre_out / "traces"), "--grid", str(grid),
         "--out", str(table_path), "--config", str(cfg_path)]
    )
    assert rc == 0
    assert table_path.exists()

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


def test_cli_calibrate_passes_config_threshold_through(tmp_path, capsys, small_cfg):
    goal = small_cfg.suite("goal")
    pre = [
        run_one_episode(replace(small_cfg, fixed_r=15.0), goal, "fixed_relaxed", t, None)
        for t in range(2)
    ]
    for t in pre:
        t.save(tmp_path / f"goal_{t.trial:04d}.jsonl")
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 0.5,2.0\ngrid.phi = 0.7,1.5\n")
    cfg_path = tmp_path / "lit.cfg"
    cfg_path.write_text(
        default_config_text(trials=2)
        + "threshold.mode = literal\nthreshold.r_max = 12\nthreshold.r_min = 0\n"
    )
    out = tmp_path / "table.csv"
    rc = cli.main(
        ["calibrate", "--traces", str(tmp_path), "--grid", str(grid), "--out", str(out),
         "--config", str(cfg_path)]
    )
    assert rc == 0
    expected = calibrate(
        pre, [(0.5, 0.7), (0.5, 1.5), (2.0, 0.7), (2.0, 1.5)],
        r_max=12.0, r_min=0.0, mode="literal",
    )
    assert out.read_text() == expected.dumps()

    cfg_path.write_text(default_config_text(trials=2) + "threshold.mode = bogus\n")
    rc = cli.main(
        ["calibrate", "--traces", str(tmp_path), "--grid", str(grid), "--out",
         str(tmp_path / "bad.csv"), "--config", str(cfg_path)]
    )
    assert rc != 0
    assert "threshold.mode" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


def test_cli_calibrate_rejects_unknown_grid_keys(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.tau = 1.0\ngrid.phi = 0.7\ngrid.phii = 2\ngrid.tua = 9\n")
    out = tmp_path / "table.csv"
    rc = cli.main(["calibrate", "--traces", str(tmp_path), "--grid", str(grid), "--out", str(out)])
    assert rc == 2
    assert "unknown grid keys: ['grid.phii', 'grid.tua']" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_writes_table(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "sw"
    rc = cli.main(
        ["sweep", "--config", str(cfg_path), "--out", str(out), "--param", "r",
         "--values", "9,15", "--suite", "goal", "--trials", "2"]
    )
    assert rc == 0
    text = (out / "sweep_r.txt").read_text()
    assert "fixed" not in text  # columnar data, not prose
    assert len(text.splitlines()) == 3


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
