"""Summarise and compare perfbench records.

Usage::

    python3 perfbench/compare.py perfbench/results/drmt_long-seed*-trace0.json
    python3 perfbench/compare.py BASE.json ... --against NEW.json ...

With one group, prints each metric's median and spread (the distance between
the first and third quartile as a share of the median).  With ``--against``,
also prints the change of the medians.  Groups of different workloads or
trace modes are not compared (status 1).  Groups from different hosts
(``nproc``, Python version, worker count) are compared, and every line names
the host fields that differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: Host fields that must agree before two groups of records are comparable.
HOST_KEYS = ("nproc", "python", "workers")


def load(paths: Sequence[str]) -> List[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def identity(records: List[dict]) -> Dict[str, object]:
    """The (workload, trace, host) every record of a group must share."""
    keys = {
        json.dumps(
            {"workload": record["workload"], "trace": record["trace"]}
            | {key: record["host"][key] for key in HOST_KEYS},
            sort_keys=True,
        )
        for record in records
    }
    if len(keys) != 1:
        raise SystemExit(f"records within one group differ in workload or host: {sorted(keys)}")
    return json.loads(keys.pop())


def summary(records: List[dict]) -> Dict[str, tuple]:
    """metric -> (median, spread, unit) over a group of records."""
    result = {}
    for name in records[0]["metrics"]:
        values = [record["metrics"][name]["value"] for record in records]
        median = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and median:
            first, _second, third = statistics.quantiles(values, n=4)
            spread = (third - first) / abs(median)
        result[name] = (median, spread, records[0]["metrics"][name]["unit"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-compare", description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="+", help="record files of the base group")
    parser.add_argument("--against", nargs="+", default=[], help="record files to compare")
    args = parser.parse_args(argv)

    base = load(args.records)
    base_id = identity(base)
    print(f"{base_id} over {len(base)} record(s)")
    base_summary = summary(base)
    if not args.against:
        for name, (median, spread, unit) in base_summary.items():
            print(f"  {name:42s} median {median:14.6g} {unit:6s} spread {spread:7.2%}")
        return 0

    new = load(args.against)
    new_id = identity(new)
    differing = sorted(key for key in base_id if base_id[key] != new_id.get(key))
    if {"workload", "trace"} & set(differing):
        print(f"not comparable: {base_id} vs {new_id}", file=sys.stderr)
        return 1
    note = f"  [hosts differ: {', '.join(differing)}]" if differing else ""
    new_summary = summary(new)
    for name, (median, spread, unit) in base_summary.items():
        other, other_spread, _unit = new_summary[name]
        change = (other - median) / abs(median) if median else 0.0
        print(
            f"  {name:42s} {median:12.6g} -> {other:12.6g} {unit:6s} "
            f"change {change:+7.2%} (spreads {spread:.2%}, {other_spread:.2%}){note}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
