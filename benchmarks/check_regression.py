"""Compare a fresh bench_smoke record against the committed BENCH trajectory.

The repo commits one ``BENCH_PR<N>.json`` per PR (written by
``benchmarks/bench_smoke.py``); this script compares a freshly measured
record against the latest committed one and flags cells that regressed
beyond a tolerance.  Shared CI runners are noisy and differ wildly from the
machines the committed records were measured on, so the default mode is
**warn-only** with a generous tolerance: a cell counts as regressed only
when it runs at less than ``tolerance`` times the baseline throughput
(default 0.5, i.e. less than half the committed speed), and even then the
script exits 0 unless ``--strict`` is given.

Compared cells (only keys present in both records are compared):

* per-program RMT throughput at every recorded opt level (PHVs/sec);
* per-program dRMT throughput under every recorded engine (packets/sec);
* the sharded scaling cell's engines (PHVs/sec).

A baseline cell the current record lacks (a deleted driver, for example) is
reported on an informational ``dropped:`` line, and every ``facade_ratio``
present in both records (a fused cell's whole-simulator time over its bare
``run_trace`` time) on an informational ``facade:`` line; neither ever
changes the exit code.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py --output fresh.json ...
    python benchmarks/check_regression.py --current fresh.json
    python benchmarks/check_regression.py --current fresh.json \
        --baseline BENCH_PR3.json --tolerance 0.3 --strict
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One comparable throughput cell: (label, baseline value, current value).
Cell = Tuple[str, float, float]


def find_latest_baseline(root: Path = REPO_ROOT) -> Optional[Path]:
    """The committed ``BENCH_PR<N>.json`` with the highest N, if any."""
    best: Optional[Tuple[int, Path]] = None
    for path in root.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match is None:
            continue
        number = int(match.group(1))
        if best is None or number > best[0]:
            best = (number, path)
    return best[1] if best else None


def _cells(record: dict) -> Iterator[Tuple[str, str, dict]]:
    """Every cell of one record: (label, throughput key, cell)."""
    for name, levels in record.get("programs", {}).items():
        for level, cell in levels.items():
            yield f"rmt/{name}/{level}", "phvs_per_sec", cell
    for name, engines in record.get("drmt", {}).get("programs", {}).items():
        for engine, cell in engines.items():
            yield f"drmt/{name}/{engine}", "packets_per_sec", cell
    for engine, cell in record.get("sharded", {}).get("cells", {}).items():
        yield f"sharded/{engine}", "phvs_per_sec", cell


def _throughputs(record: dict) -> Dict[str, float]:
    """Every throughput cell of one record, keyed by its label."""
    return {label: cell[key] for label, key, cell in _cells(record) if key in cell}


def _facade_ratios(record: dict) -> Dict[str, float]:
    """Every recorded ``facade_ratio`` of one record, keyed by its cell's label."""
    return {
        label: cell["facade_ratio"]
        for label, _key, cell in _cells(record)
        if "facade_ratio" in cell
    }


def _paired(base: Dict[str, float], current: Dict[str, float]) -> Iterator[Cell]:
    """Yield (label, baseline value, current value) for every label in both."""
    for label, value in current.items():
        if label in base:
            yield label, base[label], value


def iter_cells(baseline: dict, current: dict) -> Iterator[Cell]:
    """Yield every throughput cell present in both records."""
    return _paired(_throughputs(baseline), _throughputs(current))


def iter_dropped(baseline: dict, current: dict) -> Iterator[str]:
    """Yield the label of every baseline cell the current record lacks."""
    current_cells = _throughputs(current)
    for label in _throughputs(baseline):
        if label not in current_cells:
            yield label


def iter_facades(baseline: dict, current: dict) -> Iterator[Cell]:
    """Yield every ``facade_ratio`` cell present in both records."""
    return _paired(_facade_ratios(baseline), _facade_ratios(current))


def check(
    baseline: dict, current: dict, tolerance: float
) -> Tuple[List[str], List[str]]:
    """Return (report lines, regression lines) for the two records."""
    lines: List[str] = []
    regressions: List[str] = []
    compared = 0
    for label, base_value, current_value in iter_cells(baseline, current):
        if base_value <= 0:
            continue
        compared += 1
        ratio = current_value / base_value
        marker = ""
        if ratio < tolerance:
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{label}: {current_value:,.0f}/s is {ratio:.2f}x of the "
                f"committed {base_value:,.0f}/s (tolerance {tolerance:.2f}x)"
            )
        lines.append(f"{label:45s} {base_value:>12,.0f}/s -> {current_value:>12,.0f}/s "
                     f"({ratio:5.2f}x){marker}")
    if compared == 0:
        lines.append("no comparable cells between the two records")
    lines.extend(f"dropped: {label}" for label in iter_dropped(baseline, current))
    lines.extend(
        f"facade: {label:37s} {base_value:>11.2f}x  -> {current_value:>11.2f}x"
        for label, base_value, current_value in iter_facades(baseline, current)
    )
    return lines, regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_regression",
        description="Compare a bench_smoke record against the committed trajectory.",
    )
    parser.add_argument(
        "--current", required=True, help="freshly measured bench_smoke JSON"
    )
    parser.add_argument(
        "--baseline",
        help="committed record to compare against (default: the highest-numbered "
        "BENCH_PR*.json in the repo root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="a cell regresses when it runs below this fraction of the baseline "
        "throughput (default 0.5 — generous, for shared CI runners)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on regressions instead of warning (off on shared runners)",
    )
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline) if args.baseline else find_latest_baseline()
    if baseline_path is None or not baseline_path.exists():
        print("check_regression: no committed BENCH_PR*.json baseline found; skipping")
        return 0
    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(baseline_path.read_text())
    print(f"baseline: {baseline_path.name} (pr {baseline.get('pr', '?')}), "
          f"current: {args.current} (pr {current.get('pr', '?')}), "
          f"tolerance {args.tolerance:.2f}x")
    lines, regressions = check(baseline, current, args.tolerance)
    print("\n".join(lines))
    if regressions:
        print(f"\n{len(regressions)} cell(s) regressed beyond tolerance:")
        print("\n".join(f"  {line}" for line in regressions))
        if args.strict:
            return 1
        print("warn-only mode: exiting 0 (pass --strict to fail the build)")
    else:
        print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
