"""asc benchmark: per-stage throughput of one workload, or its per-layer trace.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload wide --seed 3 --seconds 25 --trace 0

`--trace 0` runs set-up several times, then whole rounds of stages
(analyze x1, analyze x nproc, plan+prune, compare, sweep) until
`--seconds` have passed, and reports the end-to-end metrics as medians.
`--trace 1` runs set-up and one round untraced, then again with every
public `asc` function wrapped, and reports per-layer metrics; the spans
are written to `.perfbench/trace-<workload>.csv`.

Every output is checked against the golden outputs in `perfbench/golden`.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit codes: 0 all checks passed, 1 a stage or check failed, 2 no sources
to benchmark, 3 the inputs no longer exercise the workload.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
GOLDEN_DIR = os.path.join(HERE, "golden")
MIN_ROUNDS = 2

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("analyze_tok_s", "tokens/s"),
    ("analyze_parallel_tok_s", "tokens/s"),
    ("prune_s", "s"),
    ("compare_tok_s", "tokens/s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
)


def sources_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "asc", "__init__.py"))


def machine_record(seed: int, workers: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def describe(samples) -> dict:
    """Median, quartiles and count; plus the highest percentile that still
    has at least ten samples above it, when there are enough samples."""
    ordered = sorted(samples)
    n = len(ordered)
    row = {"median": statistics.median(ordered), "n": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        row.update(q1=q1, q3=q3)
    if n >= 11:
        row[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return row


def load_golden(bench) -> dict:
    """Golden outputs of the bench's input set."""
    path = os.path.join(GOLDEN_DIR, f"{bench.w.name}.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["inputs"][str(bench.seeds.index)]


def run_timed(bench, golden, seconds: float) -> tuple:
    """Set-up repeats, then rounds until `seconds` pass; returns (metrics, summary)."""
    setups = [bench.setup() for _ in range(bench.w.setup_repeats)]
    bench.validate_inputs()
    samples = {"analyze": [], "analyze_parallel": [], "prune": [], "compare": [],
               "sweep": [], "sweep_iterations": []}
    started = time.perf_counter()
    rounds = []
    while True:
        began = time.perf_counter()
        times, outputs = bench.round()
        bench.check_validity(outputs)
        bench.check(outputs, golden)
        rounds.append(time.perf_counter() - began)
        for key, value in times.items():
            samples[key].extend(value if isinstance(value, list) else [value])
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(rounds) > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_metric = {
        "setup_s": setups,
        "analyze_tok_s": [bench.tokens / t for t in samples["analyze"]],
        "analyze_parallel_tok_s": [bench.tokens / t for t in samples["analyze_parallel"]],
        "prune_s": samples["prune"],
        "compare_tok_s": [bench.heldout_tokens / t for t in samples["compare"]],
        "sweep_s": [t for t in samples["sweep"] if t is not None],
        "peak_rss_mb": [rss_mb],
        "sweep_iteration_s": samples["sweep_iterations"],
        "round_s": rounds,
    }
    summary = {name: describe(values) for name, values in per_metric.items() if values}
    metrics = {name: {"value": summary[name]["median"], "unit": unit}
               for name, unit in END_TO_END if name in summary}
    return metrics, summary


def run_traced(bench, golden, trace_path) -> tuple:
    """One untraced and one traced pass of set-up plus a round; the spans
    are written to `trace_path`. Returns (metrics, summary)."""
    from tracer import PER_LAYER, Tracer, layer_metrics

    def one_pass():
        began = time.perf_counter()
        bench.setup()
        bench.validate_inputs()
        _, outputs = bench.round()
        wall = time.perf_counter() - began
        bench.check_validity(outputs)
        bench.check(outputs, golden)
        return wall

    untraced = one_pass()
    tracer = Tracer(bench.w.hidden_dim, bench.w.ffn_dim)
    bench.tracer = tracer
    with tracer.installed():
        traced = one_pass()
    bench.tracer = None
    tracer.write_csv(trace_path)
    values = layer_metrics(tracer, bench.workers, traced, untraced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    summary = {
        "tracing_overhead": traced / untraced - 1.0,
        "spans": len(tracer.spans),
        "all_spans": {name: {k: row[k] for k in ("calls", "busy_s", "self_s")}
                      for name, row in sorted(tracer.summary().items())},
    }
    return metrics, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description="asc per-stage benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not sources_present():
        print(f"perfbench: no asc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from pipeline import Bench, InvalidWorkload

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{workload.name}-{os.getpid()}")
    bench = Bench(workload, args.seed, workdir)
    try:
        golden = load_golden(bench)
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.csv")
            metrics, summary = run_traced(bench, golden, trace_path)
        else:
            metrics, summary = run_timed(bench, golden, args.seconds)
    except InvalidWorkload as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bench.failed == 0
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "machine": machine_record(args.seed, bench.workers),
        "failed_share": bench.failed / bench.attempted,
        "failures": bench.failures,
        "summary": summary,
    }
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
        print(f"{'tracing overhead':<40} {summary['tracing_overhead']:+.1%} of untraced wall time")
    else:
        for name, row in summary.items():
            unit = dict(END_TO_END).get(name, "s")
            stats = " ".join(f"{k}={v:.6g}" for k, v in row.items() if k != "median")
            print(f"{name:<24} {row['median']:.6g} {unit}  ({stats})")
    print(f"{'failed_share':<24} {record['failed_share']:.6g} ratio  "
          f"({bench.failed} of {bench.attempted} operations)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
