"""Acceptance gate: nine end-to-end criteria over the whole pipeline.

Each test prints one [PASS]/[FAIL] line directly to the terminal (outside
pytest capture) and enforces its wall-clock budget.
"""

import contextlib
import io
import json
import subprocess
import sys
import time

import numpy as np
import numpy.testing as npt

from asc import synth
from asc.cli import main
from asc.model import load_model, save_model
from asc.planner import plan
from asc.similarity import SimilarityMatrix, analyze, load_matrix_csv
from asc.surgery import apply_plan
from conftest import make_model
from oracles import cosine, final_hidden_state, forward_with_taps, replay_oracle


def reported(capfd, number, description, budget_seconds, body):
    with capfd.disabled():
        started = time.perf_counter()
        try:
            body()
            elapsed = time.perf_counter() - started
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
        except BaseException:
            print(f"[FAIL] criterion {number}: {description}")
            raise
        print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def random_similarity(rng, size):
    values = rng.uniform(0.0, 1.0, size=(size, size))
    values = np.triu(values, k=1)
    values = values + values.T
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(values=values, token_count=1)


def test_criterion_1_scan_oracle_equivalence(capfd):
    def body():
        rng = np.random.default_rng(11)
        for trial in range(1000):
            matrix = random_similarity(rng, 4 + trial % 11)
            for threshold in (0.8, 0.85, 0.9):
                got = set(plan(matrix, threshold).redundant_layers)
                want = replay_oracle(matrix, threshold)
                assert got == want, f"mismatch at trial {trial}, threshold {threshold}"

    reported(capfd, 1, "scan matches pseudocode oracle on 1000 random matrices", 5.0, body)


def test_criterion_2_streaming_batch_equivalence(capfd):
    def body():
        config, weights = synth.gen_model(num_layers=6, hidden_dim=32, num_heads=4,
                                          ffn_dim=64, vocab_size=120,
                                          identity_layers=[3], seed=70, max_seq_len=20)
        dataset = synth.gen_dataset(100, 20, 20, 120, seed=71)
        assert dataset.total_tokens == 2000
        matrix = analyze(config, weights, dataset)

        size = config.num_layers + 1
        sums = np.zeros((size, size), dtype=np.float64)
        count = 0
        for seq in dataset.sequences:
            for frame in forward_with_taps(config, weights, seq):
                for i in range(size):
                    for j in range(i + 1, size):
                        sums[i, j] += cosine(frame.layer_outputs[i], frame.layer_outputs[j])
                count += 1
        oracle = sums / count
        oracle = oracle + oracle.T
        np.fill_diagonal(oracle, 1.0)

        assert matrix.token_count == count == 2000
        npt.assert_allclose(matrix.values, oracle, atol=1e-9)

    reported(capfd, 2, "analyze equals materialize-everything oracle within 1e-9", 10.0, body)


def test_criterion_3_planted_identity_recovery(capfd):
    def body():
        config, weights = synth.gen_model(num_layers=6, hidden_dim=32, num_heads=4,
                                          ffn_dim=64, vocab_size=100,
                                          identity_layers=[2, 3], seed=72, max_seq_len=24)
        train = synth.gen_dataset(40, 10, 24, 100, seed=73)
        matrix = analyze(config, weights, train)
        result = plan(matrix, 0.999)
        assert set(result.redundant_layers) == {2, 3}

        pruned_config, pruned_weights = apply_plan(config, weights, result)
        heldout = synth.gen_dataset(30, 10, 24, 100, seed=74)
        assert heldout.total_tokens >= 500
        for seq in heldout.sequences:
            original = final_hidden_state(config, weights, seq)
            pruned = final_hidden_state(pruned_config, pruned_weights, seq)
            npt.assert_allclose(pruned, original, atol=1e-5)

    reported(capfd, 3, "planted identity block {2,3} recovered and pruned losslessly", 10.0, body)


def test_criterion_4_matrix_structure(capfd):
    def body():
        for seed in range(20):
            rng = np.random.default_rng(seed)
            num_layers = int(rng.integers(1, 5))
            identity = [k for k in range(1, num_layers + 1) if rng.random() < 0.3]
            config, weights = synth.gen_model(num_layers=num_layers, hidden_dim=16,
                                              num_heads=2, ffn_dim=24, vocab_size=40,
                                              identity_layers=identity, seed=seed,
                                              max_seq_len=12)
            dataset = synth.gen_dataset(5, 3, 12, 40, seed=seed + 1000)
            matrix = analyze(config, weights, dataset)
            assert np.array_equal(matrix.values, matrix.values.T)
            assert np.all(np.diag(matrix.values) == 1.0)
            assert np.all(matrix.values >= -1.0) and np.all(matrix.values <= 1.0)

    reported(capfd, 4, "matrix exactly symmetric, unit diagonal, entries in [-1,1] over 20 models", 30.0, body)


def test_criterion_5_parallel_determinism(capfd, tmp_path):
    def body():
        model = tmp_path / "model.ascm"
        data = tmp_path / "data.txt"
        config, weights = synth.gen_model(num_layers=6, hidden_dim=32, num_heads=4,
                                          ffn_dim=64, vocab_size=100,
                                          identity_layers=[2, 3], seed=72, max_seq_len=24)
        save_model(config, weights, model)
        from asc.data import save_dataset
        save_dataset(synth.gen_dataset(40, 10, 24, 100, seed=73), data)
        single, multi = tmp_path / "w1.csv", tmp_path / "w4.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", "--model", str(model), "--data", str(data),
                         "--out", str(single), "--workers", "1"]) == 0
            assert main(["analyze", "--model", str(model), "--data", str(data),
                         "--out", str(multi), "--workers", "4"]) == 0
        npt.assert_allclose(load_matrix_csv(single).values,
                            load_matrix_csv(multi).values, atol=1e-9)

    reported(capfd, 5, "analyze with workers=1 and workers=4 agrees within 1e-9", 30.0, body)


def test_criterion_6_non_contiguous_pruning(capfd):
    def body():
        values = np.array([
            [1.00, 0.95, 0.80, 0.30],
            [0.95, 1.00, 0.95, 0.50],
            [0.80, 0.95, 1.00, 0.92],
            [0.30, 0.50, 0.92, 1.00],
        ])
        matrix = SimilarityMatrix(values=values, token_count=10)
        result = plan(matrix, 0.9)
        assert result.redundant_layers == (1, 3)
        assert result.anchors == ((0, 1), (2, 3))

    reported(capfd, 6, "hand matrix yields non-contiguous redundant set {1,3}", 30.0, body)


def test_criterion_7_surgery_fidelity(capfd, tmp_path):
    def body():
        from asc.planner import plan_random
        config, weights = make_model(num_layers=12, hidden_dim=8, num_heads=2,
                                     ffn_dim=16, seed=75)
        rng = np.random.default_rng(76)
        for trial in range(20):
            count = int(rng.integers(0, 13))
            the_plan = plan_random(12, count, seed=trial)
            new_config, new_weights = apply_plan(config, weights, the_plan)
            survivors = [e for e in range(1, 13) if e not in set(the_plan.redundant_layers)]
            assert new_config.num_layers == len(survivors)
            assert new_config.layer_ids == tuple(survivors)
            for new_slot, encoder_index in enumerate(survivors):
                old_slot = encoder_index - 1
                for suffix in ("attn.q.w", "attn.o.b", "ffn.w2", "ln1.g"):
                    assert np.array_equal(new_weights[f"layer.{new_slot}.{suffix}"],
                                          weights[f"layer.{old_slot}.{suffix}"])
            path = tmp_path / f"t{trial}.ascm"
            save_model(new_config, new_weights, path)
            loaded_config, loaded_weights = load_model(path)
            assert loaded_config == new_config
            for name in new_weights.tensors:
                assert np.array_equal(loaded_weights[name], new_weights[name])

    reported(capfd, 7, "20 random surgeries preserve survivors bit-exactly and round-trip", 30.0, body)


def test_criterion_8_trivial_thresholds(capfd):
    def body():
        rng = np.random.default_rng(77)
        # threshold above every off-diagonal entry prunes nothing
        for size in (4, 8, 13):
            values = rng.uniform(0.0, 0.9, size=(size, size))
            values = np.triu(values, k=1)
            values = values + values.T
            np.fill_diagonal(values, 1.0)
            matrix = SimilarityMatrix(values=values, token_count=5)
            assert plan(matrix, 0.95).redundant_layers == ()
        # all-ones matrix collapses everything onto the embedding layer
        for size in (3, 7, 13):
            ones = SimilarityMatrix(values=np.ones((size, size)), token_count=5)
            result = plan(ones, 0.9)
            assert result.redundant_layers == tuple(range(1, size))
            assert result.anchors == ((0, size - 1),)

    reported(capfd, 8, "super-threshold prunes nothing; all-ones prunes all encoder layers", 30.0, body)


def test_criterion_9_end_to_end_pipeline(capfd, tmp_path):
    def run(*args):
        result = subprocess.run([sys.executable, "-m", "asc", *args],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return result.stdout

    def body():
        model = tmp_path / "model.ascm"
        data = tmp_path / "data.txt"
        sim = tmp_path / "sim.csv"
        plan_path = tmp_path / "plan.json"
        pruned = tmp_path / "pruned.ascm"
        run("synth", "--layers", "6", "--hidden-dim", "32", "--heads", "4",
            "--ffn-dim", "64", "--vocab", "100", "--identity-layers", "2,3",
            "--seed", "80", "--out", str(model))
        run("gen-data", "--sequences", "30", "--min-len", "8", "--max-len", "20",
            "--vocab", "100", "--seed", "81", "--out", str(data))
        run("analyze", "--model", str(model), "--data", str(data), "--out", str(sim))
        run("plan", "--sim", str(sim), "--threshold", "0.999", "--out", str(plan_path))
        payload = json.loads(plan_path.read_text())
        assert payload["redundant_layers"] == [2, 3]
        run("prune", "--model", str(model), "--plan", str(plan_path), "--out", str(pruned))
        stdout = run("compare", "--model-a", str(model), "--model-b", str(pruned),
                     "--data", str(data))
        mean = float(stdout.split("mean_cosine: ")[1].splitlines()[0])
        assert mean >= 0.999

    reported(capfd, 9, "synth/analyze/plan/prune/compare pipeline exits 0 with mean cosine >= 0.999", 30.0, body)
