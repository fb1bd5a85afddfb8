#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload fed9_flnet16 --seed 0 --seconds 16 --trace 0
    python3 bench/run.py --all [--trace 1]     every workload, one summary table
    python3 bench/run.py --aa                  A/A: every workload twice, same seed
    python3 bench/run.py --selftest            a 15 % injected delay must show in cycle_s

Each workload run is one fresh subprocess (``python -m bench.workload``)
whose last output line is ``{"correct", "attempted", "failed", "metrics"}``.
See bench/README.md for the metrics and the measurement protocol.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.names import END_TO_END, WORKLOADS  # noqa: E402

#: One workload run must end well inside the driver's 180 s.
RUN_DEADLINE_S = 170
DEFAULT_SECONDS = 16
#: End-to-end metrics two runs of the same code and seed must report identically.
EXACT = ("wire_mb_per_cycle",)


def child_environment():
    """The workload process's environment: one BLAS thread, this checkout's src.

    The thread count is fixed *before* NumPy loads: the runtime setter leaves
    an OpenBLAS worker spinning, and two GEMM threads on two shared vCPUs are
    slower than one.
    """
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def warm_page_cache(env):
    """A throwaway import, so the timed one does not pay for a cold disk.

    Skipped when a run in this checkout finished within the last ten minutes:
    what it loaded is still cached.
    """
    recent = time.time() - 600
    if any(path.stat().st_mtime > recent for path in (ROOT / "bench" / "out").glob("run_*.json")):
        return
    subprocess.run([sys.executable, "-c", "import repro.experiments"], cwd=ROOT, env=env, check=True,
                   timeout=RUN_DEADLINE_S)


def run_workload(workload, seed, seconds, trace, extra=(), capture=False):
    """Run one workload subprocess; returns ``(exit code, captured stdout)``."""
    env = child_environment()
    warm_page_cache(env)
    command = [sys.executable, "-m", "bench.workload", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), *extra]
    process = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True, text=True,
                               stdout=subprocess.PIPE if capture else None)
    try:
        output, _ = process.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        # The session holds the wire joiner too; nothing may outlive the run.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"{workload}: killed after {RUN_DEADLINE_S} s", file=sys.stderr)
        return 1, ""
    return process.returncode, output or ""


def measured(workload, seed, seconds, trace, extra=()):
    """The result object of one captured run (raises if the run failed)."""
    code, output = run_workload(workload, seed, seconds, trace, extra, capture=True)
    if code != 0:
        sys.stdout.write(output)
        raise SystemExit(f"{workload} exited with code {code}")
    lines = output.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[2] for line in lines if line.startswith("final digest"))
    result["log"] = lines[:-1]
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def run_all(seed, seconds, trace):
    """Every workload; a table of every metric by name and unit."""
    results = {name: measured(name, seed, seconds, trace) for name in WORKLOADS}
    if trace:
        for name, result in results.items():
            print(f"== {name}")
            print("\n".join(result["log"]))
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{name:>20s}" for name in results))
    for metric in names:
        unit = results[next(iter(results))]["metrics"][metric]["unit"]
        print(f"{metric:34s} {unit:6s} " + " ".join(f"{value(r, metric):20.6g}" for r in results.values()))
    for name, result in results.items():
        print(f"{name}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} digest {result['digest'][:16]}")
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def run_aa(seed, seconds):
    """Every workload twice on one seed; the pair must agree within the bounds."""
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    print("# A/A: two runs of the same code, same seed\n")
    print("| workload | metric | run A | run B | relative difference | bound | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    ok = True
    for workload in WORKLOADS:
        pair = [measured(workload, seed, seconds, 0) for _ in range(2)]
        traced = [measured(workload, seed, seconds, 1) for _ in range(2)]
        for metric, bound in bounds.items():
            first, second = value(pair[0], metric), value(pair[1], metric)
            difference = abs(second - first) / first
            exact = metric in EXACT
            passed = first == second if exact else difference <= bound
            ok &= passed
            print(f"| {workload} | {metric} | {first:.6g} | {second:.6g} | {difference:.4f} | "
                  f"{'identical' if exact else bound} | {'ok' if passed else 'FAILED'} |")
        identical = {
            "final digest": [result["digest"] for result in pair],
            "final digest (traced)": [result["digest"] for result in traced],
            "nn.pycalls_per_step": [value(result, "nn.pycalls_per_step") for result in traced],
            "failed operations": [result["failed"] for result in pair + traced],
        }
        for label, values in identical.items():
            passed = len(set(values)) == 1 and (label != "failed operations" or values[0] == 0)
            ok &= passed
            shown = str(values[0])[:16]
            print(f"| {workload} | {label} | {shown} | {str(values[1])[:16]} | | identical | "
                  f"{'ok' if passed else 'FAILED'} |")
    print(f"\nA/A {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def run_selftest(seed, seconds):
    """A delay of 15 % of every client task must move ``cycle_s`` by 15 +- 5 %.

    On ``fed9_flnet16`` client tasks are all but the whole round, so the
    expected shift of the round is the injected share of the task.
    """
    injected = 0.15
    plain = [value(measured("fed9_flnet16", seed, seconds, 0), "cycle_s") for _ in range(2)]
    slowed = [
        value(measured("fed9_flnet16", seed, seconds, 0, ("--inject-delay", str(injected))), "cycle_s")
        for _ in range(2)
    ]
    shift = (sum(slowed) / sum(plain)) - 1.0
    ok = abs(shift - injected) <= 0.05
    print(f"cycle_s plain {plain} with {injected:.0%} task delay {slowed}")
    print(f"sensitivity: cycle_s moved {shift:+.1%} for an injected {injected:+.0%}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--all", action="store_true", help="run every workload (the default without --workload)")
    parser.add_argument("--aa", action="store_true", help="A/A mode")
    parser.add_argument("--selftest", action="store_true", help="sensitivity self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no src/repro beside bench/ -- nothing to measure", file=sys.stderr)
        return 2
    if args.aa:
        return run_aa(args.seed, args.seconds)
    if args.selftest:
        return run_selftest(args.seed, args.seconds)
    if args.workload is None or args.all:
        return run_all(args.seed, args.seconds, args.trace)
    code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
