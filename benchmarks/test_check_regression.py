"""Unit tests for check_regression's cell pairing and report."""

from __future__ import annotations

import json

from check_regression import check, iter_cells, iter_facades, main


def _record(drmt_engines, rmt_rate=1000.0, sharded_rate=None):
    record = {
        "programs": {"sampling": {"fused_pipeline": {"phvs_per_sec": rmt_rate}}},
        "drmt": {
            "programs": {
                "simple_router": {
                    engine: {"packets_per_sec": rate} for engine, rate in drmt_engines.items()
                }
            }
        },
    }
    if sharded_rate is not None:
        record["sharded"] = {"cells": {"sharded": {"phvs_per_sec": sharded_rate}}}
    return record


BASELINE = _record({"tick": 100.0, "generic": 200.0, "fused": 400.0}, sharded_rate=50.0)


def test_iter_cells_pairs_only_cells_present_in_both_records():
    current = _record({"tick": 110.0, "fused": 390.0}, rmt_rate=900.0)
    assert sorted(iter_cells(BASELINE, current)) == [
        ("drmt/simple_router/fused", 400.0, 390.0),
        ("drmt/simple_router/tick", 100.0, 110.0),
        ("rmt/sampling/fused_pipeline", 1000.0, 900.0),
    ]


def test_check_reports_compared_regressed_and_dropped_cells():
    current = _record({"tick": 110.0, "fused": 100.0})
    lines, regressions = check(BASELINE, current, tolerance=0.5)
    assert len(regressions) == 1
    assert regressions[0].startswith("drmt/simple_router/fused: ")
    compared = [line for line in lines if not line.startswith("dropped:")]
    assert len(compared) == 3
    assert sum("<-- REGRESSION" in line for line in compared) == 1
    assert [line for line in lines if line.startswith("dropped:")] == [
        "dropped: drmt/simple_router/generic",
        "dropped: sharded/sharded",
    ]


def test_dropped_cells_leave_the_exit_code_alone(tmp_path, capsys):
    baseline_path = tmp_path / "BENCH_PR1.json"
    current_path = tmp_path / "current.json"
    baseline_path.write_text(json.dumps(BASELINE))
    current_path.write_text(json.dumps(_record({"tick": 100.0, "fused": 400.0})))
    argv = ["--current", str(current_path), "--baseline", str(baseline_path), "--strict"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "dropped: drmt/simple_router/generic" in out
    assert "no regressions beyond tolerance" in out


def _with_facades(record, rmt_ratio=None, drmt_ratio=None):
    if rmt_ratio is not None:
        record["programs"]["sampling"]["fused_pipeline"]["facade_ratio"] = rmt_ratio
    if drmt_ratio is not None:
        record["drmt"]["programs"]["simple_router"]["fused"]["facade_ratio"] = drmt_ratio
    return record


def test_facade_lines_pair_ratios_present_in_both_records(tmp_path, capsys):
    baseline = _with_facades(
        _record({"tick": 100.0, "fused": 400.0}), rmt_ratio=2.28, drmt_ratio=1.45
    )
    # The current record lost the dRMT ratio and slowed to a regression.
    current = _with_facades(_record({"tick": 100.0, "fused": 100.0}), rmt_ratio=1.31)
    assert list(iter_facades(baseline, current)) == [
        ("rmt/sampling/fused_pipeline", 2.28, 1.31)
    ]
    lines, regressions = check(baseline, current, tolerance=0.5)
    facades = [line for line in lines if line.startswith("facade:")]
    assert len(facades) == 1
    assert facades[0].split() == ["facade:", "rmt/sampling/fused_pipeline", "2.28x", "->", "1.31x"]
    assert len(regressions) == 1

    baseline_path = tmp_path / "BENCH_PR1.json"
    current_path = tmp_path / "current.json"
    baseline_path.write_text(json.dumps(baseline))
    current_path.write_text(json.dumps(current))
    argv = ["--current", str(current_path), "--baseline", str(baseline_path)]
    assert main(argv) == 0
    assert main(argv + ["--strict"]) == 1
    assert facades[0] in capsys.readouterr().out

    # A facade ratio alone never fails a strict run, however much it grew.
    steady = _with_facades(_record({"tick": 100.0, "fused": 400.0}), rmt_ratio=9.0)
    current_path.write_text(json.dumps(steady))
    assert main(argv + ["--strict"]) == 0
    assert "facade: rmt/sampling/fused_pipeline" in capsys.readouterr().out
