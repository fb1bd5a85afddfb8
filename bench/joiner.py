"""The wire workload's load generator: one joiner process hosting every client.

Spawned by ``bench.workload`` as ``python -m bench.joiner``; serves the
federation until the server says goodbye, then writes its calibration
markers, task intervals, join report and peak memory to ``--report``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)

    from bench.calib import calibration_kernel

    sys.path.insert(0, str(ROOT / "src"))
    from bench.inputs import FED_SPECS, build_roster
    from repro.fl import run_client

    clients, _, _ = build_roster(FED_SPECS[args.workload], args.seed, rounds=1)
    marks, tasks = [], []

    def observed(local_train):
        def with_tick(*call_args, **kwargs):
            end = time.perf_counter()
            bulk, dispatch = calibration_kernel()
            start = time.perf_counter()
            marks.append({"end": end, "bulk": bulk, "dispatch": dispatch, "start": start})
            try:
                return local_train(*call_args, **kwargs)
            finally:
                tasks.append((start, time.perf_counter()))

        return with_tick

    for client in clients:
        client.local_train = observed(client.local_train)
    report = run_client(clients, "127.0.0.1", args.port, max_reconnects=0)
    Path(args.report).write_text(
        json.dumps(
            {
                "marks": marks,
                "tasks": tasks,
                "report": vars(report),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
