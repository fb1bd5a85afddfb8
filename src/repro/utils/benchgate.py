"""The perf-regression gate: diff fresh benchmark records against baselines.

PR 5 made every benchmark emit machine-readable records
(``benchmarks/out/<name>.json``, written by
``benchmarks/conftest.write_records``).  This module makes those records
load-bearing: curated known-good copies live under
``benchmarks/baselines/``, and ``repro bench diff`` compares a fresh
results directory against them **per (op, config) key** with a relative
tolerance, prints a table, and exits nonzero on any regression.  CI runs
the cheap benchmarks and then the gate, so the 11.8s → 2.8s per-round
trajectory cannot silently erode.

Comparability rules
-------------------
Timing is only meaningful between runs of the same machine class, so each
record file's environment header (machine, cpu_count, BLAS vendor — see
``write_records``) is compared first; on mismatch the whole file is
**skipped with a warning** instead of failing, which is what lets baselines
committed from a developer box coexist with CI runners of a different
shape.  Keys present only in the baseline ("missing") or only in the fresh
results ("new") are warnings, not failures — benchmarks evolve — and only
a measured slowdown beyond tolerance exits nonzero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default relative tolerance: a record regresses when it is more than this
#: fraction slower than its baseline.  Generous by default because CI
#: machines are noisy; the CI job passes an explicit --tolerance.
DEFAULT_TOLERANCE = 0.25

#: Environment-header keys that must agree for timings to be comparable.
#: Only keys present in *both* headers are compared, so baselines recorded
#: before a key existed stay comparable.
ENV_COMPARE_KEYS = ("machine", "cpu_count", "blas_vendor")

#: Row statuses, in severity order.  Only ``regression`` fails the gate.
OK = "ok"
IMPROVED = "improved"
NEW = "new"
MISSING = "missing"
SKIPPED_ENV = "skipped-env"
REGRESSION = "regression"


@dataclass
class DiffRow:
    """One (op, config) comparison between a baseline and a fresh record."""

    benchmark: str
    op: str
    config: str
    baseline_ms: Optional[float]
    current_ms: Optional[float]
    status: str
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """current / baseline wall-clock ratio (>1 means slower)."""
        if not self.baseline_ms or self.current_ms is None:
            return None
        return self.current_ms / self.baseline_ms


def load_records(path: Path) -> Dict[str, object]:
    """Parse one ``write_records`` JSON file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "records" not in payload:
        raise ValueError(f"{path} is not a benchmark record file (no 'records' key)")
    return payload


def record_key(record: Dict[str, object]) -> Tuple[str, str]:
    """The (op, config) identity of one measurement."""
    return str(record.get("op", "")), str(record.get("config", ""))


def environment_mismatch(
    baseline_env: Dict[str, object], fresh_env: Dict[str, object]
) -> Optional[str]:
    """A human-readable mismatch description, or ``None`` when comparable."""
    differences = []
    for key in ENV_COMPARE_KEYS:
        if key in baseline_env and key in fresh_env and baseline_env[key] != fresh_env[key]:
            differences.append(f"{key}: baseline {baseline_env[key]!r} vs current {fresh_env[key]!r}")
    return "; ".join(differences) if differences else None


def diff_benchmark(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[DiffRow]:
    """Compare two record files per (op, config) key.

    A record regresses when ``current_ms > baseline_ms * (1 + tolerance)``
    and improves when faster than ``baseline_ms * (1 - tolerance)``; keys
    on only one side become ``missing``/``new`` informational rows.  An
    environment mismatch collapses the whole file to one ``skipped-env``
    row (cross-machine timings are noise, not signal).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    name = str(baseline.get("benchmark", "?"))
    mismatch = environment_mismatch(
        dict(baseline.get("environment") or {}), dict(fresh.get("environment") or {})
    )
    if mismatch is not None:
        return [
            DiffRow(
                benchmark=name,
                op="*",
                config="*",
                baseline_ms=None,
                current_ms=None,
                status=SKIPPED_ENV,
                note=f"environments differ ({mismatch}); timings not comparable",
            )
        ]
    baseline_by_key = {record_key(r): r for r in baseline.get("records", [])}
    fresh_by_key = {record_key(r): r for r in fresh.get("records", [])}
    rows: List[DiffRow] = []
    for key, base_record in baseline_by_key.items():
        op, config = key
        base_ms = base_record.get("ms")
        fresh_record = fresh_by_key.get(key)
        if fresh_record is None:
            rows.append(
                DiffRow(name, op, config, base_ms, None, MISSING, "no fresh record for this key")
            )
            continue
        current_ms = fresh_record.get("ms")
        if base_ms is None or current_ms is None:
            # Records without timings (e.g. pure memory measurements) have
            # nothing to gate; keep them visible as ok.
            rows.append(DiffRow(name, op, config, base_ms, current_ms, OK, "no timing to compare"))
            continue
        if current_ms > float(base_ms) * (1.0 + tolerance):
            status, note = REGRESSION, f"slower than baseline beyond {tolerance:.0%} tolerance"
        elif current_ms < float(base_ms) * (1.0 - tolerance):
            status, note = IMPROVED, "faster than baseline beyond tolerance (update the baseline?)"
        else:
            status, note = OK, ""
        rows.append(DiffRow(name, op, config, float(base_ms), float(current_ms), status, note))
    for key in fresh_by_key.keys() - baseline_by_key.keys():
        op, config = key
        rows.append(
            DiffRow(
                name, op, config, None, fresh_by_key[key].get("ms"), NEW, "no baseline for this key"
            )
        )
    return rows


def diff_directories(
    baselines_dir: Path,
    results_dir: Path,
    tolerance: float = DEFAULT_TOLERANCE,
    names: Optional[Sequence[str]] = None,
) -> Tuple[List[DiffRow], List[str]]:
    """Diff every baseline ``<name>.json`` against ``results_dir/<name>.json``.

    Returns the comparison rows plus directory-level warnings (baselines
    with no fresh counterpart — e.g. a gate run that only executed the
    cheap benchmarks — are warned about and skipped, never failed).
    """
    baselines_dir, results_dir = Path(baselines_dir), Path(results_dir)
    if not baselines_dir.is_dir():
        raise FileNotFoundError(f"baselines directory {baselines_dir} does not exist")
    rows: List[DiffRow] = []
    warnings: List[str] = []
    baseline_paths = sorted(baselines_dir.glob("*.json"))
    if names:
        wanted = set(names)
        baseline_paths = [p for p in baseline_paths if p.stem in wanted]
        unknown = wanted - {p.stem for p in baseline_paths}
        if unknown:
            raise FileNotFoundError(
                f"no baseline record file for {sorted(unknown)} under {baselines_dir}"
            )
    if not baseline_paths:
        warnings.append(f"no baseline record files under {baselines_dir}")
    for baseline_path in baseline_paths:
        fresh_path = results_dir / baseline_path.name
        if not fresh_path.exists():
            warnings.append(
                f"{baseline_path.stem}: no fresh results at {fresh_path} (benchmark not run); skipped"
            )
            continue
        rows.extend(
            diff_benchmark(load_records(baseline_path), load_records(fresh_path), tolerance)
        )
    return rows, warnings


def format_table(rows: Iterable[DiffRow]) -> str:
    """Render comparison rows as the fixed-width table ``repro bench diff`` prints."""
    rows = list(rows)
    header = (
        f"{'benchmark':<22} {'op':<26} {'config':<22} "
        f"{'baseline ms':>12} {'current ms':>12} {'ratio':>7}  status"
    )
    lines = [header, "-" * len(header)]
    for row in sorted(rows, key=lambda r: (r.benchmark, r.op, r.config)):
        baseline = f"{row.baseline_ms:.3f}" if row.baseline_ms is not None else "-"
        current = f"{row.current_ms:.3f}" if row.current_ms is not None else "-"
        ratio = f"{row.ratio:.2f}x" if row.ratio is not None else "-"
        status = row.status + (f" ({row.note})" if row.note else "")
        lines.append(
            f"{row.benchmark:<22} {row.op:<26} {row.config:<22} "
            f"{baseline:>12} {current:>12} {ratio:>7}  {status}"
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row.status] = counts.get(row.status, 0) + 1
    summary = ", ".join(f"{count} {status}" for status, count in sorted(counts.items()))
    lines.append("")
    lines.append(f"{len(rows)} compared: {summary}" if rows else "nothing compared")
    return "\n".join(lines)


def has_regression(rows: Iterable[DiffRow]) -> bool:
    """Whether any row fails the gate."""
    return any(row.status == REGRESSION for row in rows)
