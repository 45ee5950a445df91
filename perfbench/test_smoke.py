"""Smoke test of the benchmark on a tiny shape.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Checks that a round's outputs pass against golden outputs recorded from
an earlier round and fail against altered ones, that two traced runs of
one seed give exactly the same computed counts, and that the benchmark
refuses to run where there are no sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

from pipeline import Bench, golden_entry  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(
    name="tiny", why="smoke test",
    layers=3, hidden_dim=8, heads=2, ffn_dim=16, vocab=20, max_seq_len=8,
    identity=(2,),
    analysis=((4, 2, 5), (2, 6, 8)),
    heldout=3, heldout_min_len=2, heldout_max_len=8,
    thresholds=(0.999, 0.3),
    prune_repeats=2,
    setup_repeats=2,
)

# units whose values are computed from shapes and sizes, not clocks
EXACT_UNITS = {"count", "B", "GFLOP"}


def recorded_golden(tmp_path) -> dict:
    bench = Bench(TINY, 5, str(tmp_path / "record"))
    bench.setup()
    bench.validate_inputs()
    _, outputs = bench.round()
    assert bench.failed == 0, bench.failures
    return golden_entry(outputs)


def test_round_passes_recorded_golden_and_fails_altered_one(tmp_path):
    golden = recorded_golden(tmp_path)
    metrics, summary = run.run_timed(Bench(TINY, 5, str(tmp_path / "a")), golden, 0.0)
    assert {name for name, _ in run.END_TO_END} == set(metrics)
    assert all(m["value"] > 0 for m in metrics.values())
    assert summary["round_s"]["n"] == run.MIN_ROUNDS

    altered = json.loads(json.dumps(golden))
    altered["matrix"][0][1] += 1e-6
    altered["compare_mean_cosine"] -= 1e-6
    altered["sweep"][1]["sha256"] = "0" * 64
    bench = Bench(TINY, 5, str(tmp_path / "b"))
    run.run_timed(bench, altered, 0.0)
    # per round: two matrices against golden, one cosine, one sweep digest
    assert bench.failed == 4 * run.MIN_ROUNDS
    assert len(bench.failures) == bench.failed


def test_traced_counts_repeat_exactly(tmp_path):
    golden = recorded_golden(tmp_path)
    runs = []
    for attempt in range(2):
        bench = Bench(TINY, 5, str(tmp_path / f"t{attempt}"))
        trace_path = tmp_path / f"trace{attempt}.csv"
        metrics, summary = run.run_traced(bench, golden, str(trace_path))
        assert bench.failed == 0, bench.failures
        assert [name for name, _, _ in PER_LAYER] == list(metrics)
        assert summary["tracing_overhead"] > -1.0
        with open(trace_path, encoding="utf-8") as handle:
            header, *rows = handle.read().splitlines()
        assert header == "id,name,start_s,end_s,parent,thread,stage,tag,work"
        assert len(rows) == summary["spans"]
        assert {row.split(",")[6] for row in rows} == {
            "setup", "analyze", "analyze_parallel", "prune", "compare", "sweep"}
        runs.append(metrics)
    exact = [name for name, unit, _ in PER_LAYER if unit in EXACT_UNITS]
    assert {n: runs[0][n]["value"] for n in exact} == {n: runs[1][n]["value"] for n in exact}
    assert runs[0]["forward.encoder_layer.calls"]["value"] > 0
    assert runs[0]["tensor_ops.gelu.elements"]["value"] > 0
    assert runs[0]["model.save_model.bytes"]["value"] > 0
    assert 0 < runs[0]["similarity.analyze.parallel_efficiency"]["value"] <= 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout == ""


@pytest.mark.parametrize("samples, key", [(list(range(11)), "p9"), (list(range(100)), "p90")])
def test_describe_reports_percentile_with_ten_samples_beyond(samples, key):
    row = run.describe(samples)
    assert sum(1 for s in samples if s > row[key]) == 10
