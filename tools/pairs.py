#!/usr/bin/env python3
"""Alternated benchmark pairs: is this tree faster or slower than another revision?

    python tools/pairs.py --against <rev> [--workloads W ...] [--pairs N] [--seed S] [--write FILE]

checks ``<rev>`` out into a temporary directory (the ``git archive`` step of
``tools/witness.py``) and runs ``bench/run.py --workload W --seed S --trace 0``
there and here, one run per side per workload per pair, flipping which side
goes first on every pair.  Each side runs its own ``bench/``.

Per workload and end-to-end metric of ``BENCHMARK.json`` it prints both
medians, the other revision's interquartile range, how many pairs this tree
won, and a verdict against the metric's bound:

``gain``   better in the median by more than the other side's IQR, on at
           least nine pairs in ten, over five pairs or more;
``WORSE``  worse in the median by more than the bound;
``flat``   anything else.

Under them, ungated, the median of each run's raw (uncalibrated) cycle:
``cycle_s`` rescales wall time by calibration samples taken at markers, so
a change that slows the samples themselves reads as a larger gain in
``cycle_s`` than in raw time.

The final digest and ``wire_mb_per_cycle`` are hard equality checks, and
every run must be correct with no failed operation.  Exit 1 when a hard
check fails; timing verdicts are reported, never enforced (a box is only
comparable with itself).  ``--write`` records every run, both revisions and
the box in one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from witness import ROOT, check_out

#: End-to-end metrics whose values must not differ at all between the sides.
EXACT = ("wire_mb_per_cycle",)
SIDES = ("against", "here")


def bench_run(checkout: Path, workload: str, seed: int) -> Dict[str, object]:
    """One ``bench/run.py --trace 0`` run: its result object plus the final digest."""
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}, "output": process.stdout[-2000:]}
    digests = [line.split()[2] for line in lines if line.startswith("final digest")]
    raw = [float(line.split()[-2]) for line in lines if "raw cycle median" in line]
    result["digest"] = digests[0] if digests else None
    result["raw_cycle_median_s"] = raw[0] if raw else float("nan")
    result["exit"] = process.returncode
    return result


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return third - first


def compare(metric: Dict[str, object], runs: Dict[str, List[dict]]) -> Dict[str, object]:
    """Medians, the other side's IQR, this tree's wins and the verdict for one metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
    theirs, ours = (statistics.median(values[side]) for side in SIDES)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(values["against"], values["here"]))
    pairs = len(values["here"])
    gained = (theirs - ours) if lower else (ours - theirs)
    relative = (ours - theirs) / theirs if theirs else 0.0
    if name in EXACT:
        verdict = "identical" if len(set(values["against"] + values["here"])) == 1 else "DIFFERS"
    elif pairs >= 5 and gained > iqr(values["against"]) and wins >= 0.9 * pairs:
        verdict = "gain"
    elif -gained > metric["bound"] * abs(theirs):
        verdict = "WORSE"
    else:
        verdict = "flat"
    return {
        "metric": name, "unit": metric["unit"], "against": values["against"], "here": values["here"],
        "against_median": theirs, "here_median": ours, "against_iqr": iqr(values["against"]),
        "relative": relative, "wins": wins, "pairs": pairs, "bound": metric["bound"], "verdict": verdict,
    }


def box() -> Dict[str, object]:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"cpus": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "platform": platform.platform(), "blas_threads": 1}


def revision(name: str) -> str:
    return subprocess.run(["git", "rev-parse", name], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV", help="the revision to compare this tree with")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--write", metavar="FILE", help="record every run as JSON")
    args = parser.parse_args(argv)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.strip()
    record = {
        "against": {"rev": args.against, "commit": revision(args.against)},
        "here": {"commit": revision("HEAD"), "uncommitted_changes": bool(dirty)},
        "box": box(), "seed": args.seed, "pairs": args.pairs, "runs": [], "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        checkouts = {"against": Path(scratch) / "against", "here": ROOT}
        check_out(args.against, checkouts["against"])
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workloads:
                for side in order:
                    result = bench_run(checkouts[side], workload, args.seed)
                    record["runs"].append({"pair": pair, "workload": workload, "side": side, **result})
                    cycle = result["metrics"].get("cycle_s", {}).get("value", float("nan"))
                    print(f"  pair {pair + 1}/{args.pairs} {workload} {side}: cycle_s {cycle:.4f} "
                          f"digest {str(result['digest'])[:16]}", file=sys.stderr)
    failures = 0
    for workload in args.workloads:
        runs = {side: [run for run in record["runs"] if run["workload"] == workload and run["side"] == side]
                for side in SIDES}
        every = runs["against"] + runs["here"]
        digests = sorted({str(run["digest"]) for run in every})
        broken = [run for run in every if not run["correct"] or run["failed"] != 0 or run["exit"] != 0]
        print(f"== {workload}: {args.pairs} pairs, digest {' | '.join(d[:16] for d in digests)}"
              f"{'' if len(digests) == 1 else '  DIFFERS'}, "
              f"{'every run correct with 0 failed' if not broken else f'{len(broken)} BROKEN run(s)'}")
        summary = {"digests": digests, "broken_runs": len(broken), "metrics": []}
        if not broken:
            print(f"  {'metric':18s} {args.against:>12s} {'here':>12s} {'change':>8s} "
                  f"{'against IQR':>12s} {'wins':>6s} {'bound':>6s}  verdict")
            for metric in benchmark["end_to_end"]:
                row = compare(metric, runs)
                summary["metrics"].append(row)
                failures += row["verdict"] == "DIFFERS"
                print(f"  {row['metric']:18s} {row['against_median']:12.6g} {row['here_median']:12.6g} "
                      f"{row['relative']:+8.1%} {row['against_iqr']:12.4g} {row['wins']:3d}/{row['pairs']:<2d} "
                      f"{row['bound']:6.0%}  {row['verdict']}")
            raw = {side: [run["raw_cycle_median_s"] for run in runs[side]] for side in SIDES}
            theirs, ours = (statistics.median(raw[side]) for side in SIDES)
            wins = sum(b < a for a, b in zip(raw["against"], raw["here"]))
            summary["raw_cycle_median_s"] = {"against": raw["against"], "here": raw["here"]}
            print(f"  {'(raw cycle median)':18s} {theirs:12.6g} {ours:12.6g} {(ours - theirs) / theirs:+8.1%} "
                  f"{iqr(raw['against']):12.4g} {wins:3d}/{args.pairs:<2d}  not gated")
        failures += bool(broken) + (len(digests) != 1)
        record["workloads"][workload] = summary
    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=1) + "\n")
    print(f"hard checks: {'passed' if not failures else f'{failures} FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
