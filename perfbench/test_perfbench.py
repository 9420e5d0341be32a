"""Tiny-size self-test of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs for a fraction of a second on traces a hundredth of the
benchmark's size, once untraced and once traced; the printed metric names
must be exactly the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from run import tail  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, ShardedFlows  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_declares_the_workloads():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    completed = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
        "--scale", "0.01",
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    completed = run_bench(
        "--workload", "fuzz_corpus", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_sharded_workload_reaches_the_sharded_driver():
    sys.path.insert(0, str(ROOT / "src"))
    workload = ShardedFlows(scale=0.01)
    workload.shard_threshold = 1000
    workload.import_modules()
    workload.compile()
    workload.prepare(seed=5)
    item = workload.round_items(0)[0]
    result = workload.call(item)
    assert result.engine == "sharded[fused]"
    assert workload.check(item, result)


def test_compare_marks_other_hosts_and_refuses_other_workloads(tmp_path, capsys):
    def record(name, workload="drmt_long", nproc=2, value=1.0):
        path = tmp_path / f"{name}.json"
        host = {"nproc": nproc, "python": "3.11.7", "workers": 1}
        metrics = {"setup_s": {"value": value, "unit": "s"}}
        path.write_text(json.dumps({"workload": workload, "trace": 0, "host": host, "metrics": metrics}))
        return str(path)

    base = [record("a"), record("b", value=1.2)]
    assert compare.main([*base, "--against", record("c", value=1.1)]) == 0
    assert "hosts differ" not in capsys.readouterr().out
    assert compare.main([*base, "--against", record("d", nproc=1)]) == 0
    assert "[hosts differ: nproc]" in capsys.readouterr().out
    assert compare.main([*base, "--against", record("e", workload="fuzz_corpus")]) == 1


def test_tail_keeps_ten_samples_beyond():
    samples = [float(value) for value in range(1, 101)]
    assert tail(samples) == (90.0, 90.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.call_id = 0
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    tracer.run("outer", lambda: inner())
    (_c, _n, inner_start, inner_end, parent), (_c2, _n2, start, end, _p) = (
        tracer.spans[1], tracer.spans[0]
    )
    assert parent == 0
    totals = tracer.self_seconds(lambda call_id: True)
    assert totals["outer"] == pytest.approx((end - start) - (inner_end - inner_start))
    assert totals["inner"] == pytest.approx(inner_end - inner_start)
