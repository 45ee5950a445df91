"""One workload's pipeline, stage by stage, with its output checks.

The CLI stages run in-process through `asc.cli.main`; the threshold sweep
runs through the public library functions. The program only ever sees
the generated `.ascm` and dataset files. Every stage call and every
output check is one operation; a failed one is counted, never raised.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

import asc
from asc import cli

from workloads import BAND_SEED_STRIDE, input_seeds

# Agreement required of matrices and mean cosines, per entry.
TOLERANCE = 1e-9
PRUNE_THRESHOLD = 0.999


class InvalidWorkload(Exception):
    """The generated inputs no longer exercise what the workload is for."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sha256(path) -> str:
    # not asc.fileio.sha256_file: checks must not run program code or show in its trace
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_lengths(path) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return [len(line.split()) for line in handle if line.strip()]


def read_matrix(path) -> np.ndarray:
    """The matrix of an `asc-sim` CSV, or an empty array if it is unreadable."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    except (OSError, ValueError):
        return np.empty((0, 0))


class Bench:
    """Runs the stages of one workload in `workdir` and checks their outputs.

    `tracer`, when set, is told which stage is running.
    """

    def __init__(self, workload, seed: int, workdir):
        self.w = workload
        self.seeds = input_seeds(seed)
        self.dir = workdir
        self.tracer = None
        self.workers = nproc()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tokens = None
        self.heldout_tokens = None
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    # -- operations ---------------------------------------------------------

    def _op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def _stage(self, name: str):
        if self.tracer is not None:
            self.tracer.stage = name

    def _cli(self, argv) -> tuple:
        """Run one CLI command; returns (ok, captured stdout, seconds)."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        seconds = time.perf_counter() - start
        ok = self._op(code == 0, f"asc {argv[0]} exited {code}")
        return ok, out.getvalue(), seconds

    def _check(self, ok: bool, what: str):
        self._op(bool(ok), f"check failed: {what}")

    # -- stages -------------------------------------------------------------

    def setup(self) -> float:
        """`asc synth` and `asc gen-data` for both datasets; returns seconds."""
        w, s = self.w, self.seeds
        self._stage("setup")
        start = time.perf_counter()
        self._cli([
            "synth", "--layers", w.layers, "--hidden-dim", w.hidden_dim, "--heads", w.heads,
            "--ffn-dim", w.ffn_dim, "--vocab", w.vocab, "--max-seq-len", w.max_seq_len,
            "--identity-layers", ",".join(str(i) for i in w.identity),
            "--seed", s.index, "--out", self.path("model.ascm"),
        ])
        bands = []
        for k, (sequences, min_len, max_len) in enumerate(w.analysis):
            bands.append(self.path(f"data-{k}.txt"))
            self._cli([
                "gen-data", "--sequences", sequences, "--min-len", min_len, "--max-len", max_len,
                "--vocab", w.vocab, "--seed", s.data + BAND_SEED_STRIDE * k, "--out", bands[-1],
            ])
        with open(self.path("data.txt"), "wb") as out:
            for band in bands:
                with open(band, "rb") as handle:
                    shutil.copyfileobj(handle, out)
        self._cli([
            "gen-data", "--sequences", w.heldout, "--min-len", w.heldout_min_len,
            "--max-len", w.heldout_max_len, "--vocab", w.vocab, "--seed", s.heldout,
            "--out", self.path("heldout.txt"),
        ])
        return time.perf_counter() - start

    def validate_inputs(self):
        """Refuse inputs that no longer exercise the workload's purpose."""
        lengths = read_lengths(self.path("data.txt"))
        heldout = read_lengths(self.path("heldout.txt"))
        self.tokens, self.heldout_tokens = sum(lengths), sum(heldout)
        if self.w.name == "wide" and set(lengths + heldout) != {128}:
            raise InvalidWorkload("wide: every sequence must be 128 tokens")
        if self.w.name == "narrow" and len(set(lengths)) < 20:
            raise InvalidWorkload(
                f"narrow: {len(set(lengths))} distinct sequence lengths, need at least 20"
            )

    def analyze(self, workers: int, out: str) -> float:
        _, _, seconds = self._cli([
            "analyze", "--model", self.path("model.ascm"), "--data", self.path("data.txt"),
            "--out", self.path(out), "--workers", workers,
        ])
        return seconds

    def prune(self) -> float:
        """`asc plan` at PRUNE_THRESHOLD then `asc prune`; returns their seconds."""
        _, _, plan_s = self._cli([
            "plan", "--sim", self.path("sim1.csv"), "--threshold", PRUNE_THRESHOLD,
            "--out", self.path("plan.json"),
        ])
        _, _, prune_s = self._cli([
            "prune", "--model", self.path("model.ascm"), "--plan", self.path("plan.json"),
            "--out", self.path("pruned.ascm"),
        ])
        return plan_s + prune_s

    def compare(self) -> tuple:
        """`asc compare` original vs pruned; returns (seconds, mean cosine or None)."""
        ok, out, seconds = self._cli([
            "compare", "--model-a", self.path("model.ascm"), "--model-b", self.path("pruned.ascm"),
            "--data", self.path("heldout.txt"),
        ])
        mean = None
        for line in out.splitlines():
            if ok and line.startswith("mean_cosine: "):
                mean = float(line.split(": ", 1)[1])
        return seconds, mean

    def sweep(self) -> tuple:
        """Drop-n loop over the thresholds through the library API.

        Returns (loop seconds, per-threshold seconds, per-threshold outputs).
        """
        config, weights = asc.load_model(self.path("model.ascm"))
        heldout = asc.load_dataset(self.path("heldout.txt"))
        matrix = asc.load_matrix_csv(self.path("sim1.csv"))
        iterations, results = [], []
        start = time.perf_counter()
        for index, threshold in enumerate(self.w.thresholds):
            began = time.perf_counter()
            chosen = asc.plan(matrix, threshold)
            pruned = asc.apply_plan(config, weights, chosen)
            path = self.path(f"sweep-{index}.ascm")
            asc.save_model(*pruned, path)
            reloaded = asc.load_model(path)
            report = asc.compare_models(config, weights, *reloaded, heldout)
            baseline = asc.plan_random(
                config.num_layers, len(chosen.redundant_layers), self.seeds.index
            )
            random_model = asc.apply_plan(config, weights, baseline)
            random_report = asc.compare_models(config, weights, *random_model, heldout)
            iterations.append(time.perf_counter() - began)
            results.append({
                "threshold": threshold,
                "layers": list(chosen.redundant_layers),
                "mean_cosine": report.mean_cosine,
                "random_layers": list(baseline.redundant_layers),
                "random_mean_cosine": random_report.mean_cosine,
            })
        seconds = time.perf_counter() - start
        self._op(True, "sweep")
        for index, result in enumerate(results):
            result["sha256"] = sha256(self.path(f"sweep-{index}.ascm"))
        return seconds, iterations, results

    def round(self) -> tuple:
        """All stages once after set-up; returns (timings, outputs)."""
        times = {}
        self._stage("analyze")
        times["analyze"] = self.analyze(1, "sim1.csv")
        self._stage("analyze_parallel")
        times["analyze_parallel"] = self.analyze(self.workers, "simN.csv")
        self._stage("check")
        outputs = {
            "matrix": read_matrix(self.path("sim1.csv")),
            "matrix_parallel": read_matrix(self.path("simN.csv")),
            "prunes": [],
        }
        times["prune"] = []
        for _ in range(self.w.prune_repeats):
            self._stage("prune")
            times["prune"].append(self.prune())
            self._stage("check")
            outputs["prunes"].append(self._prune_outputs())
        self._stage("compare")
        times["compare"], outputs["compare_mean_cosine"] = self.compare()
        self._stage("sweep")
        try:
            times["sweep"], times["sweep_iterations"], outputs["sweep"] = self.sweep()
        except (asc.AscError, OSError) as exc:
            self._op(False, f"sweep raised {exc!r}")
            times["sweep"], times["sweep_iterations"], outputs["sweep"] = None, [], []
        self._stage("check")
        return times, outputs

    def _prune_outputs(self) -> dict:
        try:
            with open(self.path("plan.json"), "r", encoding="utf-8") as handle:
                layers = json.load(handle)["redundant_layers"]
            digest = sha256(self.path("pruned.ascm"))
        except (OSError, ValueError, KeyError):
            return {"layers": None, "sha256": None}
        return {"layers": layers, "sha256": digest}

    # -- checks -------------------------------------------------------------

    def check_validity(self, outputs):
        """The sweep must still produce at least three distinct plans."""
        if self.w.name == "sweep":
            plans = {tuple(r["layers"]) for r in outputs["sweep"]}
            if len(plans) < 3:
                raise InvalidWorkload(f"sweep: {len(plans)} distinct plans, need at least 3")

    def check(self, outputs, golden):
        """Compare one round's outputs with the golden outputs of its input set."""
        expected = np.array(golden["matrix"], dtype=np.float64)
        for key in ("matrix", "matrix_parallel"):
            self._check(_close(outputs[key], expected), f"{key} differs from golden")
        self._check(_close(outputs["matrix_parallel"], outputs["matrix"]),
                    f"{self.workers}-worker matrix differs from 1-worker matrix")
        for prune in outputs["prunes"]:
            self._check(prune["layers"] == list(self.w.identity),
                        f"{PRUNE_THRESHOLD} plan {prune['layers']} is not the planted "
                        f"identity layers {list(self.w.identity)}")
            self._check(prune["sha256"] == golden["prune_sha256"], "pruned model SHA-256")
        self._check(_close_scalar(outputs["compare_mean_cosine"], golden["compare_mean_cosine"]),
                    "compare mean cosine")
        sweep, expected_sweep = outputs["sweep"], golden["sweep"]
        self._check(len(sweep) == len(expected_sweep), "sweep threshold count")
        for got, want in zip(sweep, expected_sweep):
            t = want["threshold"]
            self._check(got["threshold"] == t, f"sweep threshold {t}")
            self._check(got["layers"] == want["layers"], f"sweep plan at {t}")
            self._check(got["sha256"] == want["sha256"], f"sweep pruned model SHA-256 at {t}")
            self._check(_close_scalar(got["mean_cosine"], want["mean_cosine"]),
                        f"sweep mean cosine at {t}")
            self._check(got["random_layers"] == want["random_layers"], f"random plan at {t}")
            self._check(_close_scalar(got["random_mean_cosine"], want["random_mean_cosine"]),
                        f"random-plan mean cosine at {t}")


def golden_entry(outputs) -> dict:
    """The golden record of one round's outputs (single-worker matrix)."""
    return {
        "matrix": [[round(float(v), 12) for v in row] for row in outputs["matrix"]],
        "prune_sha256": outputs["prunes"][0]["sha256"],
        "compare_mean_cosine": outputs["compare_mean_cosine"],
        "sweep": outputs["sweep"],
    }


def _close(got, want) -> bool:
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= TOLERANCE))


def _close_scalar(got, want) -> bool:
    return got is not None and abs(got - want) <= TOLERANCE
