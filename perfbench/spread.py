"""Run sets of benchmark runs and summarise their spread.

    python3 perfbench/spread.py --seeds 1-10 [--sets 2] [--workloads a,b]
                                [--trace-seed 0] [--label TEXT] [--out FILE]

Each run is a fresh process started with the command in BENCHMARK.json.
Per workload and end-to-end metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, and whether it is within the metric's bound and within a third
of it. With several sets it also compares each set's median with the
first. Output digests and the deterministic quality figures of one
workload and seed must be the same in every set; any that differ are
flagged, and so is any run whose digests differ from those pinned in
``perfbench/digests.json``. The workloads of one seed run back to back, so
each run's host-speed factor over the median factor of its seed's runs
shows whether the factor depends on the workload; its median per workload
is printed. ``--trace-seed`` adds one traced run per workload for the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
NOTES = {
    "tier1_excluded": "Tier-1 wall time is not a metric: one run takes minutes, and its slow "
    "tests drive the same run_one_episode path the episode workloads time.",
    "host_scaling": "Times are scaled to a nominal host by perfbench/hostprobe.py, from "
    "reference-kernel windows of fixed shape before and after each operation and at the probe "
    "points of long operations; the unscaled figures are on each run's 'unscaled' line.",
    "deterministic": "quality and digests repeat exactly for a seed; verify_calls_per_slice and "
    "modeled_cost_per_slice vary only with the seed.",
}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    run = json.loads(lines[-1])
    manifest = bench["per_layer" if trace else "end_to_end"]
    wrong = [m["name"] for m in manifest if run["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
    if wrong or len(run["metrics"]) != len(manifest):
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: result line does not hold "
                           f"exactly the manifest's metrics; missing or in another unit: {wrong}")
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        if head in ("quality", "digests", "ungated", "unscaled"):
            run[head] = json.loads(rest)
        elif line.startswith("absent"):
            run["absent"] = line.partition(": ")[2]
        elif line.startswith("digest mismatch"):
            run["pinned_mismatch"] = line.partition(": ")[2]
        elif line.startswith("no digests pinned"):
            run["pinned_mismatch"] = "not pinned"
    return run


def summarise(values: list[float], bound: float, better: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "within_bound": spread <= bound,
        "within_third": spread < bound / 3,
        "better": better,
    }


def worse_by(first: float, other: float, better: str) -> float:
    """How much ``other`` is worse than ``first``, as a share of ``first``."""
    change = (other - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    metrics = bench["end_to_end"]

    runs: dict[tuple[int, str, int], dict] = {}
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                runs[(s, w, seed)] = run = run_once(bench, w, seed, 0)
                print(f"set {s} {w} seed {seed}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']}", file=sys.stderr)

    report: dict = {
        "label": args.label,
        "notes": NOTES,
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "sets": args.sets,
        "workloads": {},
    }
    adjacent_scale = {
        (s, seed): statistics.median(runs[(s, w, seed)]["unscaled"]["host_scale"] for w in workloads)
        for s in range(args.sets)
        for seed in seeds
    }
    ok = True
    for w in workloads:
        entry = {"why": next((x["why"] for x in bench["workloads"] if x["name"] == w), "")}
        mine = {k: v for k, v in runs.items() if k[1] == w}
        entry["attempted"] = sum(r["attempted"] for r in mine.values())
        entry["failed"] = sum(r["failed"] for r in mine.values())
        entry["all_correct"] = all(r["correct"] for r in mine.values())
        flagged = []
        for seed in seeds:
            per_set = [mine[(s, w, seed)] for s in range(args.sets)]
            for key in ("digests", "quality"):
                if any(r.get(key) != per_set[0].get(key) for r in per_set):
                    flagged.append(f"{key} of seed {seed} differ between sets")
            mismatch = {r.get("pinned_mismatch") for r in per_set} - {"none", "not pinned"}
            if mismatch:
                flagged.append(f"seed {seed} differs from the pinned digests: {sorted(mismatch)}")
        entry["flagged"] = flagged
        entry["quality"] = {seed: mine[(0, w, seed)].get("quality") for seed in seeds}
        for key in ("digests", "ungated", "unscaled"):
            entry[key] = {seed: mine[(0, w, seed)].get(key) for seed in seeds}
        scales = [r["unscaled"]["host_scale"] for r in mine.values()]
        entry["host_scale_median"] = statistics.median(scales)
        entry["host_scale_over_adjacent"] = statistics.median(
            r["unscaled"]["host_scale"] / adjacent_scale[(s, seed)] for (s, _, seed), r in mine.items()
        )
        entry["end_to_end"] = {}
        for m in metrics:
            name = m["name"]
            sets = []
            for s in range(args.sets):
                values = [mine[(s, w, seed)]["metrics"][name]["value"] for seed in seeds]
                summary = summarise(values, m["bound"], m["better"])
                summary["values"] = values
                if s:
                    drift = worse_by(sets[0]["median"], summary["median"], m["better"])
                    summary["worse_than_first_by"] = drift
                    summary["drift_within_bound"] = drift <= m["bound"]
                    ok &= summary["drift_within_bound"]
                ok &= summary["within_bound"]
                sets.append(summary)
            entry["end_to_end"][name] = {"unit": m["unit"], "bound": m["bound"], "sets": sets}
        ok &= entry["failed"] == 0 and entry["all_correct"] and not flagged
        if args.trace_seed is not None:
            traced = run_once(bench, w, args.trace_seed, 1)
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "metrics": traced["metrics"],
                "absent": traced.get("absent", ""),
                "digests": traced.get("digests"),
                "pinned_digest_mismatch": traced.get("pinned_mismatch", ""),
            }
            ok &= traced["correct"]
        report["workloads"][w] = entry

    for w, entry in report["workloads"].items():
        print(f"\n{w}: failed {entry['failed']}/{entry['attempted']}, flagged: {entry['flagged'] or 'none'}")
        print(f"  host_scale median {entry['host_scale_median']:.4f}, over its seed's median "
              f"{entry['host_scale_over_adjacent']:.4f}")
        for name, e in entry["end_to_end"].items():
            for s, summary in enumerate(e["sets"]):
                drift = summary.get("worse_than_first_by")
                print(
                    f"  set {s} {name:24s} median {summary['median']:12.4f} {e['unit']:12s}"
                    f" spread {summary['spread']:7.2%} (bound {e['bound']:.0%},"
                    f" {'<' if summary['within_third'] else '>='} third)"
                    + ("" if drift is None else f" worse than set 0 by {drift:7.2%}")
                )
    print(f"\nall checks passed: {ok}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
