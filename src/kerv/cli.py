"""Command-line front end: run benchmark suites, calibrate thresholds, sweep.

Exit code 0 on success; any failure prints a one-line reason to stderr and
returns a nonzero code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from . import harness
from .threshold import calibrate
from .trace import MODES, write_text_atomic


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="flat key=value configuration file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--suite", default=None, help="restrict to one suite")
    p.add_argument("--trials", type=int, default=None, help="override trials per suite")
    p.add_argument("--seed", type=int, default=None, help="offset added to suite seed bases")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerv",
        description="speculative-decoding simulator for 7-DoF action tokens",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run benchmark suites and emit reports")
    _add_common(run_p)
    run_p.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="restrict to one decoding mode (default: run.modes from config)",
    )

    cal_p = sub.add_parser(
        "calibrate", help="decode a pre-sample and build a threshold calibration table from it"
    )
    cal_p.add_argument(
        "--config",
        required=True,
        help="the pre-sample (every suite's trials, fixed_relaxed at threshold.fixed_r), "
        "the codec and the r bounds threshold.r_max/r_min; "
        "equal bounds give a fixed threshold with compensation",
    )
    cal_p.add_argument("--grid", required=True, help="grid file: grid.tau / grid.phi CSV lines")
    cal_p.add_argument("--out", required=True, help="output table path")

    sweep_p = sub.add_parser("sweep", help="sweep one hyperparameter")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, choices=harness.SWEEP_PARAMS)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")

    return parser


def _run_args(args) -> tuple[config_mod.RunConfig, tuple[str, ...] | None]:
    """The config of ``--config`` with ``--seed`` as its seed offset, and the
    ``--suite`` filter, as ``run`` and ``sweep`` read them."""
    cfg = config_mod.load(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed_offset=args.seed)
    return cfg, (args.suite,) if args.suite else None


def _cmd_run(args) -> int:
    cfg, suites = _run_args(args)
    modes = (args.mode,) if args.mode else None
    report, traces = harness.run_suite(cfg, modes=modes, suites=suites, trials=args.trials)
    harness.emit_results(report, traces, args.out)
    sys.stdout.write(report.render())
    return 0


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _grid_values(mapping: dict[str, str], key: str) -> list[float]:
    if key not in mapping:
        raise config_mod.ConfigError(f"grid file is missing {key}")
    return config_mod.parse_value(mapping, key, _floats)


def _parse_grid(path: str) -> list[tuple[float, float]]:
    mapping = config_mod.parse_mapping(config_mod.read_text(path))
    bad = sorted(set(mapping) - {"grid.tau", "grid.phi"})
    if bad:
        raise config_mod.ConfigError(f"unknown grid keys: {bad}")
    taus, phis = (_grid_values(mapping, key) for key in ("grid.tau", "grid.phi"))
    return [(t, p) for t in taus for p in phis]


def _cmd_calibrate(args) -> int:
    grid = _parse_grid(args.grid)
    cfg = config_mod.load(args.config)
    # calibrate checks the grid and the bounds before it draws the first episode
    table = calibrate(
        harness.pre_sample(cfg), grid, r_max=cfg.r_max, r_min=cfg.r_min, key=cfg.key
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    table.save(out)
    sys.stdout.write(f"wrote {len(table.rows)} calibration rows to {out}\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg, suites = _run_args(args)
    values = config_mod.parse_value({"--values": args.values}, "--values", _floats)
    if not values:
        raise config_mod.ConfigError("sweep needs at least one value")
    rows = harness.sweep(cfg, args.param, values, suites=suites, trials=args.trials)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = harness.render_sweep(args.param, rows)
    write_text_atomic(out / f"sweep_{args.param}.txt", text)
    sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        raise AssertionError(f"unhandled command {args.command}")
    except Exception as exc:  # one-line reason, nonzero exit
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
