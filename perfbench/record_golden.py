"""Record the golden outputs that every benchmark run is checked against.

Usage, from the root of a source checkout:

    python3 perfbench/record_golden.py [workload ...]

Runs one untimed round of each workload (all by default) on every input
set and writes perfbench/golden/<workload>.json. Re-record only when a
change is meant to alter outputs, and say so.
"""

import json
import os
import shutil
import sys

from run import GOLDEN_DIR, OUT_DIR, SRC, sources_present


def record(workload) -> dict:
    from pipeline import Bench, golden_entry
    from workloads import GOLDEN_SEEDS

    inputs = {}
    for index in range(GOLDEN_SEEDS):
        workdir = os.path.join(OUT_DIR, f"golden-{workload.name}-{os.getpid()}")
        bench = Bench(workload, index, workdir)
        try:
            bench.setup()
            bench.validate_inputs()
            _, outputs = bench.round()
            bench.check_validity(outputs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if bench.failed:
            raise SystemExit(f"{workload.name} input set {index}: {bench.failures}")
        inputs[str(index)] = golden_entry(outputs)
        print(f"{workload.name} input set {index}: recorded", flush=True)
    return {"workload": workload.name, "inputs": inputs}


def main(argv) -> int:
    if not sources_present():
        print(f"record_golden: no asc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in argv or sorted(WORKLOADS):
        golden = record(WORKLOADS[name])
        # one input set per line, so a re-recording diffs line by line
        lines = [f"{json.dumps(key)}:{json.dumps(entry, separators=(',', ':'))}"
                 for key, entry in golden["inputs"].items()]
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w", encoding="utf-8") as handle:
            handle.write(f'{{"workload":{json.dumps(name)},"inputs":{{\n')
            handle.write(",\n".join(lines))
            handle.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
