"""Acceptance suite: one test per shipping criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
The heavier criteria carry their stated runtime budgets as assertions.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kerv.codec import NormKey, action_to_token, token_to_action
from kerv.config import default_config
from kerv.harness import (
    afep,
    emit_results,
    modeled_latency,
    run_one_episode,
    run_suite,
)
from kerv.kinematics import KfBank, KfParams
from kerv.simenv import KINDS, _quantize, _targets, make_task
from kerv.specdec import decode_slice_sd
from kerv.threshold import CalibrationRow, adjust

from oracles import (
    expected_verify_calls,
    matrix_kf_predict,
    mc_first_error_position,
    printed_delta,
    printed_walk,
    relaxed_reject_prob,
)

KEY = NormKey()


def _report(n, msg):
    print(f"\nPASS criterion {n}: {msg}")


# --- 1. codec roundtrip -----------------------------------------------------


def test_c01_codec_roundtrip_exact():
    t0 = time.perf_counter()
    for dof in range(7):
        for tok in range(256):
            assert action_to_token(token_to_action(tok, dof, KEY), dof, KEY) == tok
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, f"token/action roundtrip exact for all 256 tokens x 7 DoF ({dt:.2f}s)")


# --- 2. filter oracle equivalence -------------------------------------------


def test_c02_kf_matches_brute_force_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        params = KfParams(
            process_noise=float(rng.uniform(1e-4, 5e-2)),
            measurement_noise=float(rng.uniform(1e-4, 5e-2)),
            initial_variance=float(rng.uniform(0.2, 3.0)),
        )
        a = float(rng.uniform(-0.5, 0.5))
        b = float(rng.uniform(-0.05, 0.05))
        n = int(rng.integers(3, 11))
        seq = [a + b * t for t in range(n)]
        bank = KfBank(params, ac=10)
        for z in seq:
            bank.push_slice((z,) * 7)
        got = bank.predict(1)[0]
        expect = matrix_kf_predict(seq, params, horizon=1)
        worst = max(worst, abs(got - expect))
    dt = time.perf_counter() - t0
    assert worst <= 1e-9
    assert dt < 5.0
    _report(2, f"one-step predictions match matrix oracle, max |diff| {worst:.2e} ({dt:.2f}s)")


# --- 3. prediction-error trends over PL and AC -------------------------------


def test_c03_prediction_error_trends():
    # a long-memory filter makes the bounded window the binding constraint,
    # which is what the action-context comparison is about
    t0 = time.perf_counter()
    params = KfParams(process_noise=1e-4, measurement_noise=0.1)
    horizons = (1, 2, 3, 5)
    pl_errs = {pl: [] for pl in horizons}
    ac_errs = {10: [], 40: []}
    for seed in range(100):
        spec = make_task(KINDS[seed % 3], seed)
        _, acts, _ = _quantize(_targets(spec.kind, seed, spec.waypoints), KEY)
        b10 = KfBank(params, ac=10)
        b40 = KfBank(params, ac=40)
        for t in range(len(acts) - 5):
            obs = acts[t].tolist()
            b10.push_slice(obs)
            b40.push_slice(obs)
            if t < 3:
                continue
            for pl in horizons:
                p = np.asarray(b10.predict(pl)[:6])
                pl_errs[pl].append(float(np.abs(p - acts[t + pl][:6]).mean()))
            p10 = np.asarray(b10.predict(1)[:6])
            p40 = np.asarray(b40.predict(1)[:6])
            ac_errs[10].append(float(np.abs(p10 - acts[t + 1][:6]).mean()))
            ac_errs[40].append(float(np.abs(p40 - acts[t + 1][:6]).mean()))
    means = {pl: float(np.mean(v)) for pl, v in pl_errs.items()}
    for a, b in zip(horizons, horizons[1:]):
        assert means[a] <= means[b], f"error not monotone: PL{a}={means[a]} > PL{b}={means[b]}"
    a10, a40 = float(np.mean(ac_errs[10])), float(np.mean(ac_errs[40]))
    assert a10 <= a40, f"AC=10 error {a10} exceeds AC=40 error {a40}"
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(
        3,
        f"error non-decreasing over PL {dict((k, round(v, 5)) for k, v in means.items())}; "
        f"AC10 {a10:.5f} <= AC40 {a40:.5f} ({dt:.1f}s)",
    )


# --- 4. first-error-position oracle ------------------------------------------


def test_c04_afep_matches_monte_carlo_oracle():
    t0 = time.perf_counter()
    n_slices = 100_000
    for q in (0.2, 0.4, 0.6):
        rng = np.random.default_rng(400 + int(q * 10))
        true = rng.integers(0, 256, size=(n_slices, 7))
        miss = rng.random((n_slices, 7)) < q
        offs = rng.integers(1, 61, size=(n_slices, 7)) * rng.choice((-1, 1), size=(n_slices, 7))
        draft = np.clip(true + miss * offs, 0, 255)
        collided = miss & (draft == true)
        draft[collided] = np.clip(true - miss * offs, 0, 255)[collided]
        assert not (miss & (draft == true)).any()

        firsts = []
        for drafted, truths in zip(draft.tolist(), true.tolist()):
            res = decode_slice_sd(drafted, truths, r=0, depth=4, key=KEY)
            if res.first_error_pos < 7:
                firsts.append(res.first_error_pos + 1)
        measured = sum(firsts) / len(firsts)
        expected = mc_first_error_position(q, samples=1_000_000, seed=9000 + int(q * 10))
        rel = abs(measured - expected) / expected
        assert rel <= 0.02, f"q={q}: measured {measured} vs oracle {expected} ({rel:.3%})"
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(4, f"strict-acceptance AFEP within 2% of Monte-Carlo oracle at q=0.2/0.4/0.6 ({dt:.1f}s)")


def test_c04_strict_verify_calls_match_closed_form(bench_cfg):
    # a draft miss always lands on another token (the drafter mirrors an
    # offset the vocabulary edge would cancel), so under r = 0 each position
    # is rejected with probability exactly q_err
    assert expected_verify_calls(0.0, 3) == 3.0  # ceil(7 / 3) clean rounds
    assert expected_verify_calls(1.0, 4) == 7.0  # one call per position
    assert expected_verify_calls(0.48, 4) == pytest.approx(4.0233, abs=1e-4)
    t0 = time.perf_counter()
    goal = bench_cfg.suite("goal")
    checked = []
    for q in (0.2, 0.48):
        for depth in (1, 4, 7):
            cfg = replace(bench_cfg, depth=depth, noise=replace(bench_cfg.noise, q_err=q))
            calls = np.array(
                [
                    rec.verify_calls
                    for trial in range(40)
                    for rec in run_one_episode(cfg, goal, "naive", trial, None).slices
                ],
                dtype=float,
            )
            expected = expected_verify_calls(q, depth)
            se = calls.std(ddof=1) / math.sqrt(len(calls))
            # depth 1 always takes 7 calls: se is 0 and only rounding remains
            assert calls.mean() == pytest.approx(expected, rel=1e-12, abs=4 * se), (
                f"q={q} depth={depth}: mean {calls.mean():.4f} over {len(calls)} slices, "
                f"closed form {expected:.4f}, se {se:.4f}"
            )
            checked.append(f"q={q}/d={depth}: {calls.mean():.3f} vs {expected:.3f}")
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(4, f"strict verify calls/slice within 4 SE of closed form ({'; '.join(checked)}) ({dt:.1f}s)")


def test_c04_relaxed_verify_calls_match_closed_form(bench_cfg):
    # relaxed acceptance rejects a position with probability p(r) =
    # q_err * P(|offset| > floor(r)), and a round's calls follow the strict
    # recursion with p(r) in place of q_err
    assert relaxed_reject_prob(bench_cfg.noise, 0) == pytest.approx(bench_cfg.noise.q_err)
    t0 = time.perf_counter()
    checked = []
    for suite_name in ("goal", "long"):
        suite = bench_cfg.suite(suite_name)
        for r in (5.0, 9.0, 15.0):
            cfg = replace(bench_cfg, depth=4, fixed_r=r)
            calls = np.array(
                [
                    rec.verify_calls
                    for trial in range(40)
                    for rec in run_one_episode(cfg, suite, "fixed_relaxed", trial, None).slices
                ],
                dtype=float,
            )
            expected = expected_verify_calls(relaxed_reject_prob(cfg.noise, r), 4)
            se = calls.std(ddof=1) / math.sqrt(len(calls))
            assert abs(calls.mean() - expected) <= 4 * se, (
                f"{suite_name} r={r}: mean {calls.mean():.4f} over {len(calls)} slices, "
                f"closed form {expected:.4f}, se {se:.4f}"
            )
            checked.append(f"{suite_name}/r={r:g}: {calls.mean():.3f} vs {expected:.3f}")
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(4, f"relaxed verify calls/slice within 4 SE of closed form ({'; '.join(checked)}) ({dt:.1f}s)")


# --- 5. compensation cost bound ----------------------------------------------


def test_c05_compensation_verify_cost_bound(bench_cfg, calib_table):
    comp_slices = 0
    for suite_name in ("goal", "object"):
        suite = bench_cfg.suite(suite_name)
        for trial in range(12):
            kerv = run_one_episode(bench_cfg, suite, "kerv", trial, calib_table)
            naive = run_one_episode(bench_cfg, suite, "naive", trial, None)
            for rec in kerv.slices:
                if rec.comp_fired:
                    assert rec.verify_calls == 1
                    comp_slices += 1
            kerv_mean = sum(r.verify_calls for r in kerv.slices) / len(kerv.slices)
            naive_mean = sum(r.verify_calls for r in naive.slices) / len(naive.slices)
            assert kerv_mean <= naive_mean
    assert comp_slices > 0
    _report(5, f"every compensated slice ({comp_slices}) cost exactly 1 verify call; "
               "per-slice verify calls never exceed the strict baseline")


# --- 6. threshold bounds under rising variability -----------------------------


def test_c06_threshold_descends_to_floor_and_holds():
    row = CalibrationRow(
        tau=1.0, phi=1.0, r_max=15.0, r_min=5.0, kvar_ref=0.085, success_rate=0.0, avg_steps=0.0
    )
    r, prev_kvar = row.r_max, 0.0
    seen = []
    for t in range(40):
        k = 0.02 * (t + 1)
        r, prev_kvar = adjust(row, r, prev_kvar, k), k
        seen.append(r)
    assert seen[0] <= 15.0
    assert all(a >= b for a, b in zip(seen, seen[1:])), "r must be non-increasing"
    assert min(seen) == 5.0, "r must reach the floor"
    assert all(r >= 5.0 for r in seen), "r must never breach the floor"
    assert seen[-1] == 5.0
    _report(6, "rising variability drives r from 15 down to the floor at 5, never past it")


# --- 7. published update-rule fidelity ----------------------------------------


def test_c07_literal_update_matches_printed_formula():
    # the update as printed: its delta is positive wherever it is defined
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(20):
        prev = float(rng.uniform(0.2, 1.0))
        step = float(rng.uniform(0.0, prev - 1e-3))  # falling variability: valid base
        phi = float(rng.uniform(0.3, 2.5))
        ref = float(rng.uniform(0.05, 1.0))
        dr = printed_delta(step - prev, 15.0, 5.0, phi, ref)
        assert dr is not None and dr > 0
        checked += 1
    assert checked == 20

    # so its walk from r_max never leaves r_max: it is the one update rule
    # run on an equal-bounds row, a fixed threshold with compensation
    walks = 0
    for _ in range(20):
        steps = [float(k) for k in rng.uniform(0.0, 1.0, size=40)]
        steps[5:8] = [steps[4]] * 3  # unchanged variability
        phi = float(rng.uniform(0.3, 2.5))
        ref = float(rng.uniform(0.05, 1.0))
        printed = printed_walk(steps, 15.0, 5.0, phi, ref)
        row = CalibrationRow(1.0, phi, 15.0, 15.0, ref, 0.0, 0.0)
        r, prev_kvar = row.r_max, 0.0
        for k, want in zip(steps, printed):
            r, prev_kvar = adjust(row, r, prev_kvar, k), k
            assert r.hex() == want.hex() == (15.0).hex()
        walks += 1
    assert walks == 20
    _report(7, "printed delta is > 0 on 20 inputs; its walk from r_max equals adjust on "
               "an [r_max, r_max] row at every step of 20 random sequences")


# --- 8. modeled speedup band ---------------------------------------------------


def test_c08_modeled_speedup_band(bench_cfg, calib_table):
    t0 = time.perf_counter()
    report, _ = run_suite(
        bench_cfg, modes=("naive", "kerv"), trials=50, table=calib_table
    )
    naive_rows = {r.suite: r for r in report.rows if r.mode == "naive"}
    kerv_rows = {r.suite: r for r in report.rows if r.mode == "kerv"}
    assert set(naive_rows) == {"goal", "object", "spatial", "long"}
    for suite, row in naive_rows.items():
        assert 1.6 <= row.afep <= 2.1, f"{suite}: naive AFEP {row.afep} off-band"
    for suite, row in kerv_rows.items():
        assert 1.35 <= row.modeled_speedup <= 1.75, (
            f"{suite}: speedup {row.modeled_speedup} outside [1.35, 1.75]"
        )
    dt = time.perf_counter() - t0
    assert dt < 300.0
    speedups = {s: round(r.modeled_speedup, 3) for s, r in kerv_rows.items()}
    _report(8, f"modeled speedup per suite {speedups} within [1.35, 1.75] "
               f"at naive AFEP in band ({dt:.0f}s)")


# --- 9. success-rate orderings -------------------------------------------------


def _sr_margin(p1, p2, n):
    # one-sided 95% allowance for the difference of two binomial rates
    se = math.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
    return 1.645 * se


def test_c09_success_rate_orderings(bench_cfg, calib_table):
    t0 = time.perf_counter()
    n = 500
    suite = bench_cfg.suite("goal")
    runs = {}
    for label, mode, r in (
        ("naive", "naive", None),
        ("fx9", "fixed_relaxed", 9.0),
        ("fx15", "fixed_relaxed", 15.0),
        ("fx20", "fixed_relaxed", 20.0),
        ("kerv", "kerv", None),
    ):
        cfg = replace(bench_cfg, fixed_r=r) if r is not None else bench_cfg
        table = calib_table if mode == "kerv" else None
        runs[label] = [run_one_episode(cfg, suite, mode, t, table) for t in range(n)]
    sr = {k: sum(t.success for t in v) / n for k, v in runs.items()}
    lat = {k: sum(modeled_latency(t, bench_cfg.cost) for t in v) for k, v in runs.items()}
    speedup = {k: lat["naive"] / lat[k] for k in runs}

    assert sr["fx9"] >= sr["fx15"] - _sr_margin(sr["fx9"], sr["fx15"], n)
    assert sr["fx15"] >= sr["fx20"] - _sr_margin(sr["fx15"], sr["fx20"], n)
    assert sr["kerv"] >= sr["fx15"] - _sr_margin(sr["kerv"], sr["fx15"], n)
    assert speedup["kerv"] > speedup["fx9"]
    dt = time.perf_counter() - t0
    _report(
        9,
        f"SR {dict((k, round(v, 3)) for k, v in sr.items())} keeps the orderings at n={n} "
        f"(95% one-sided); kerv speedup {speedup['kerv']:.2f} > fixed(r=9) {speedup['fx9']:.2f} "
        f"({dt:.0f}s)",
    )


# --- 10. cooldown after compensation -------------------------------------------


def test_c10_cooldown_disables_filter_fills(bench_cfg, calib_table):
    comp_events = 0
    for suite_name in ("goal", "long"):
        suite = bench_cfg.suite(suite_name)
        for trial in range(10):
            trace = run_one_episode(bench_cfg, suite, "kerv", trial, calib_table)
            for i, rec in enumerate(trace.slices):
                if rec.comp_fired:
                    comp_events += 1
                    for follow in trace.slices[i + 1 : i + 5]:
                        assert not follow.comp_fired
                        assert None not in follow.statuses
    assert comp_events > 0
    _report(10, f"all {comp_events} compensation events were followed by 4 slices "
                "with zero filter-sourced positions")


# --- 11. byte-level determinism -------------------------------------------------


def test_c11_reports_and_traces_byte_identical(bench_cfg, calib_table, tmp_path):
    def run(out):
        report, traces = run_suite(
            bench_cfg, suites=("goal", "object"), trials=3, table=calib_table
        )
        emit_results(report, traces, out)

    run(tmp_path / "a")
    run(tmp_path / "b")
    compared = 0
    for rel in sorted(
        p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()
    ):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared += 1
    assert compared > 10
    _report(11, f"{compared} report/trace/plot files byte-identical across reruns")
