"""Pytest wrapper around the bench_smoke sweep (``pytest -m bench_smoke``).

The default run uses a tiny workload on a program subset so the tier-1 suite
stays fast; it checks the sweep machinery, the shape of the trajectory
record, and — as a coarse perf-regression guard that runs in plain test runs
— that the fused drivers actually beat the tick interpreters with a wide
margin.  The committed ``BENCH_PR2.json`` is produced by the full sweep
(``python benchmarks/bench_smoke.py --rounds 3``).
"""

from __future__ import annotations

import json
import os

import pytest

from bench_smoke import (
    DRMT_ENGINES,
    SHARDED_ENGINES,
    TICK_BASELINE,
    format_table,
    measure_sharded_cells,
    run_sweep,
)
from repro import dgen


@pytest.mark.bench_smoke
def test_bench_smoke_sweep(tmp_path, bench_rounds):
    record = run_sweep(
        phvs=200,
        rounds=bench_rounds,
        program_names=["sampling", "conga"],
        drmt_packets=150,
        drmt_names=["simple_router"],
    )

    expected_levels = [dgen.OPT_LEVEL_NAMES[level] for level in dgen.OPT_LEVELS]
    assert record["levels"] == expected_levels + [TICK_BASELINE]
    assert set(record["programs"]) == {"sampling", "conga"}
    for cells in record["programs"].values():
        for label in record["levels"]:
            assert cells[label]["phvs_per_sec"] > 0
            assert cells[label]["seconds"] > 0
        # Levels 0-2 now run the generic sequential driver; level 3 the
        # fused loop; the extra baseline cell pins the tick interpreter.
        assert cells[dgen.OPT_LEVEL_NAMES[dgen.OPT_SCC_INLINE]]["engine"] == "generic"
        assert cells[dgen.OPT_LEVEL_NAMES[dgen.OPT_FUSED]]["engine"] == "fused"
        # Only the fused cell records the (non-gating) facade overhead.
        assert cells[dgen.OPT_LEVEL_NAMES[dgen.OPT_FUSED]]["facade_ratio"] > 0
        assert "facade_ratio" not in cells[TICK_BASELINE]
        assert cells[TICK_BASELINE]["engine"] == "tick"
    for summary_key in ("speedup_fused_vs_tick", "speedup_fused_vs_inlining"):
        summary = record[summary_key]
        assert set(summary["per_program"]) == {"sampling", "conga"}
        assert summary["geomean"] > 0 and summary["aggregate"] > 0
    drmt = record["drmt"]
    assert set(drmt["programs"]) == {"simple_router"}
    assert DRMT_ENGINES == ("tick", "fused")
    assert "speedup_generic_vs_tick" not in drmt
    for cells in drmt["programs"].values():
        assert set(cells) == set(DRMT_ENGINES)
        for engine in DRMT_ENGINES:
            assert cells[engine]["packets_per_sec"] > 0
        # As for RMT, only the fused cell records the facade overhead.
        assert cells["fused"]["facade_ratio"] > 0
        assert "facade_ratio" not in cells["tick"]

    # The record round-trips through JSON and renders as a table.
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(record))
    assert json.loads(path.read_text()) == record
    rendered = format_table(record)
    assert "fused vs tick(level 2)" in rendered
    assert "dRMT" in rendered


@pytest.mark.bench_smoke
def test_fused_rmt_beats_tick_interpreter(bench_rounds):
    """Perf-regression guard: the fused RMT loop must stay well ahead of tick.

    The measured margin is ~5-10x; asserting a loose 1.5x keeps the guard
    meaningful while staying robust to noisy CI machines.
    """
    record = run_sweep(
        phvs=2000, rounds=bench_rounds, program_names=["sampling"], drmt_names=[]
    )
    ratio = record["speedup_fused_vs_tick"]["per_program"]["sampling"]
    assert ratio > 1.5, f"fused RMT only {ratio:.2f}x over the tick interpreter"


@pytest.mark.bench_smoke
def test_sharded_cell_record_shape(bench_rounds):
    """The sharded scaling cell measures every engine on a tiny trace.

    In-process here (below the pool threshold) so the shape check stays
    fast and deterministic on any machine; the committed BENCH_PR4.json
    carries the full-size pool run.
    """
    record = measure_sharded_cells(phvs=2000, rounds=bench_rounds, workers=1)
    assert set(record["cells"]) == set(SHARDED_ENGINES)
    for cells in record["cells"].values():
        assert cells["phvs_per_sec"] > 0
    assert record["cells"]["sharded"]["engine"] == "sharded[fused]"
    assert record["cells"]["fused"]["engine"] == "fused"
    assert record["speedup_sharded_vs_fused"] > 0
    assert record["speedup_sharded_vs_generic"] > 0
    rendered = format_table({**_minimal_record(), "sharded": record})
    assert "sharded scaling cell" in rendered


def _minimal_record() -> dict:
    return {
        "phvs_per_program": 0,
        "rounds": 1,
        "levels": [],
        "programs": {},
        "speedup_fused_vs_tick": {"per_program": {}, "geomean": 1.0, "aggregate": 1.0},
        "speedup_fused_vs_inlining": {"per_program": {}, "geomean": 1.0, "aggregate": 1.0},
    }


@pytest.mark.bench_smoke
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="sharded perf guard needs at least 4 cores",
)
def test_sharded_beats_generic_on_the_1m_phv_cell(bench_rounds):
    """Perf guard: sharded with 4 workers must stay well ahead of generic.

    On a ≥4-core machine the 4-shard pool should beat the single-threaded
    generic driver by far more than 1.5x on the 1M-PHV flow-counters cell;
    the loose bound keeps the guard robust to noisy CI machines.  Honors
    ``DRUZHBA_BENCH_ROUNDS`` like every other cell.
    """
    record = measure_sharded_cells(phvs=1_000_000, rounds=bench_rounds, workers=4)
    ratio = record["speedup_sharded_vs_generic"]
    assert ratio > 1.5, f"sharded only {ratio:.2f}x over the generic driver"


@pytest.mark.bench_smoke
def test_fused_drmt_beats_tick_interpreter(bench_rounds):
    """Perf-regression guard: the fused dRMT loop must stay ahead of tick.

    The measured margin is ~2-3x; asserting a loose 1.2x keeps the guard
    robust to noise.
    """
    record = run_sweep(
        phvs=200,
        rounds=bench_rounds,
        program_names=[],
        drmt_packets=2000,
        drmt_names=["telemetry_pipeline"],
    )
    assert record["programs"] == {}
    ratio = record["drmt"]["speedup_fused_vs_tick"]["telemetry_pipeline"]
    assert ratio > 1.2, f"fused dRMT only {ratio:.2f}x over the tick interpreter"
