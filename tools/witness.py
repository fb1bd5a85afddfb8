#!/usr/bin/env python3
"""The witness matrix: does this tree train the same models as another revision?

    python tools/witness.py --against <rev>

checks ``<rev>`` out into a temporary directory (``git archive``: nothing is
left behind in ``.git``), runs the same ``repro reproduce --preset smoke
--state-digest`` rows there and here — codecs x backends x round policies x
chaos x population x personalised algorithms, one ``serve`` / ``join``
loopback and one kill-and-resume — and compares, row by row, every
``state digest`` line and every measured ``total uplink`` line.  Exit 0 when
all of them are identical, 1 when any differs.

Digests depend on the box (BLAS build, thread count), so there are no golden
values: both sides are always computed here, one after the other, each with
its own corpus cache.
"""

from __future__ import annotations

import argparse
import io
import os
import signal
import socket
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: label -> arguments after ``reproduce --preset smoke --state-digest``.
ROWS: Dict[str, Sequence[str]] = {
    "full table": (),
    "fedprox": ("--algorithms", "fedprox"),
    "extensions": ("--algorithms", "fedavgm", "fedbn", "dp_fedprox"),
    "personalised": ("--algorithms", "fedprox_lg", "ifca", "fedprox_finetune"),
    "assigned_clustering": ("--algorithms", "assigned_clustering"),
    "fedprox_alpha": ("--algorithms", "fedprox_alpha"),
    "personalised routenet topk process2": (
        "--model", "routenet", "--algorithms", "fedbn", "fedprox_lg", "ifca", "assigned_clustering",
        "fedprox_alpha", "--backend", "process", "--workers", "2", "--compression", "topk",
    ),
    "personalised participation": (
        "--algorithms", "fedbn", "fedprox_lg", "ifca", "assigned_clustering", "fedprox_alpha",
        "--participation", "0.67",
    ),
    "personalised chaos": (
        "--algorithms", "fedbn", "fedprox_lg", "ifca", "assigned_clustering", "fedprox_alpha",
        "--fault-crash-rate", "0.3", "--quorum", "0.7", "--max-retries", "2",
    ),
    "quantize": ("--algorithms", "fedavgm", "--compression", "quantize"),
    "quantize 4 bit": ("--algorithms", "fedprox", "--compression", "quantize", "--compression-bits", "4"),
    "topk process2": (
        "--algorithms", "fedprox", "--compression", "topk", "--backend", "process", "--workers", "2",
    ),
    "float16": ("--algorithms", "fedavg", "--compression", "float16"),
    "float32 wire personalised": ("--algorithms", "fedprox_lg", "--compression", "float32"),
    "float32 engine thread2": (
        "--algorithms", "fedprox", "--compute-dtype", "float32", "--backend", "thread", "--workers", "2",
    ),
    "participation": ("--algorithms", "fedprox", "--participation", "0.67"),
    "weighted sampler daynight": (
        "--algorithms", "fedavg", "--participation", "0.67", "--sampler", "weighted",
        "--availability", "daynight",
    ),
    "deadline heavytail": (
        "--algorithms", "dp_fedprox", "--participation", "0.67", "--straggler-model", "heavytail",
        "--round-policy", "deadline", "--deadline", "10", "--over-selection", "2.0",
    ),
    "fedbuff": (
        "--algorithms", "fedavg", "--round-policy", "fedbuff", "--buffer-size", "2",
        "--participation", "0.67", "--straggler-model", "lognormal",
    ),
    "fedbuff process2": (
        "--algorithms", "fedavg", "--round-policy", "fedbuff", "--buffer-size", "2",
        "--participation", "0.67", "--straggler-model", "lognormal",
        "--backend", "process", "--workers", "2",
    ),
    "chaos quorum": (
        "--algorithms", "fedavg", "--fault-crash-rate", "0.3", "--fault-exception-rate", "0.1",
        "--quorum", "0.7", "--max-retries", "2",
    ),
    "chaos corruption": (
        "--algorithms", "fedavg", "--compression", "quantize", "--fault-corruption-rate", "0.3",
        "--quorum", "0.7", "--max-retries", "3",
    ),
    "population 10000": ("--algorithms", "fedavg", "--population", "10000", "--clients-per-round", "9"),
    "population past the spill": (
        "--algorithms", "fedavg", "--population", "10000", "--clients-per-round", "40",
    ),
}
KEPT = ("state digest", "total uplink")


def run_cli(checkout: Path, arguments: Sequence[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *arguments],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def smoke_row(work: Path, extra: Sequence[str]) -> List[str]:
    return ["reproduce", "--preset", "smoke", "--state-digest", "--cache-dir", str(work / "cache"), *extra]


def kept_lines(label: str, output: str) -> List[str]:
    lines = [" ".join(line.split()) for line in output.splitlines() if any(key in line for key in KEPT)]
    return [f"{label:<28} {line}" for line in lines] or [f"{label:<28} NO DIGEST LINE\n{output}"]


def reproduce(checkout: Path, work: Path, extra: Sequence[str]) -> str:
    process = run_cli(checkout, smoke_row(work, extra))
    output, _ = process.communicate(timeout=600)
    return output if process.returncode == 0 else f"exit {process.returncode}\n{output}"


def loopback(checkout: Path, work: Path) -> str:
    """``serve`` + ``join`` over loopback TCP: the served digest must equal the serial one."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = str(probe.getsockname()[1])
    shared = ["--preset", "smoke", "--port", port, "--cache-dir", str(work / "cache")]
    server = run_cli(checkout, ["serve", "--algorithms", "fedprox", "--state-digest", *shared])
    lines: List[str] = []
    try:
        for line in server.stdout:  # the joiner may connect once the port is open
            lines.append(line)
            if "serving federation" in line:
                break
        joiner = run_cli(checkout, ["join", *shared])
        joined, _ = joiner.communicate(timeout=600)
        rest, _ = server.communicate(timeout=600)
    finally:
        server.kill()
    status = f"serve exit {server.returncode}, join exit {joiner.returncode}\n"
    return "".join(lines) + rest if (server.returncode, joiner.returncode) == (0, 0) else status + rest + joined


def kill_and_resume(checkout: Path, work: Path) -> str:
    """SIGKILL a checkpointed run once round 0 is on disk, then run it again."""
    checkpoints = work / "checkpoints"
    extra = ["--algorithms", "fedavgm", "--checkpoint-dir", str(checkpoints)]
    victim = run_cli(checkout, smoke_row(work, extra))
    deadline = time.monotonic() + 600
    while victim.poll() is None and time.monotonic() < deadline:
        if (checkpoints / "fedavgm" / "round_00000.json").exists():
            victim.send_signal(signal.SIGKILL)
            break
        time.sleep(0.002)
    victim.communicate()
    output = reproduce(checkout, work, extra)
    # Which round the kill landed after is a race, so it is shown, not compared.
    resumed = [line for line in output.splitlines() if "resuming from checkpoint" in line]
    print(f"  {checkout.name}: kill and resume: {resumed[0] if resumed else 'NEVER RESUMED'}", file=sys.stderr)
    return output


def witness(checkout: Path, work: Path) -> List[str]:
    work.mkdir()
    lines: List[str] = []
    for label, extra in ROWS.items():
        lines += kept_lines(label, reproduce(checkout, work, extra))
        print(f"  {checkout.name}: {label}", file=sys.stderr)
    lines += kept_lines("serve/join loopback", loopback(checkout, work))
    lines += kept_lines("kill and resume", kill_and_resume(checkout, work))
    return lines


def check_out(revision: str, into: Path) -> None:
    """Extract ``revision``'s committed files into ``into`` (nothing is left in ``.git``)."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV", help="the revision to compare this tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="witness-") as scratch:
        other = Path(scratch) / "against"
        check_out(args.against, other)
        theirs = witness(other, Path(scratch) / "against-work")
        ours = witness(ROOT, Path(scratch) / "here-work")
    differing = 0
    for index in range(max(len(theirs), len(ours))):
        left = theirs[index] if index < len(theirs) else "(no line)"
        right = ours[index] if index < len(ours) else "(no line)"
        if left == right:
            print(f"{right}  identical")
        else:
            differing += 1
            print(f"DIFFERS\n  {args.against}: {left}\n  this tree: {right}")
    print(f"{len(ours)} lines, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
