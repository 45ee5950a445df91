import ast
import ctypes
import multiprocessing
import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from asc import cli, data, similarity, synth
from asc.data import TokenDataset, row_blocks, save_dataset
from asc.errors import FormatError, ValidationError
from asc.forward import hidden_states
from asc.model import save_model
from asc.planner import plan
from asc.similarity import (
    SimilarityAccumulator,
    SimilarityMatrix,
    analyze,
    load_matrix_csv,
    write_matrix_csv,
)
from conftest import make_model
from oracles import (
    LayerTapFrame,
    cosine,
    forward_with_taps,
    frame_sums,
    one_block,
)


def analyze_oracle(config, weights, dataset):
    """Materialize every frame, then average pairwise cosines in one pass."""
    size = config.num_layers + 1
    per_pair = np.zeros((size, size), dtype=np.float64)
    count = 0
    for seq in dataset.sequences:
        for frame in forward_with_taps(config, weights, seq):
            for i in range(size):
                for j in range(i, size):
                    per_pair[i, j] += cosine(frame.layer_outputs[i],
                                             frame.layer_outputs[j])
            count += 1
    mean = per_pair / count
    full = np.triu(mean, k=1)
    full = full + full.T
    np.fill_diagonal(full, 1.0)
    return full, count


def log_blocks(monkeypatch, log, barrier=None):
    """Make `analyze` append `(pid, block segments)` to the file `log` for
    each block, from whichever process runs it, then wait at `barrier`."""
    def logged(config, weights, block):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{(os.getpid(), block.segments)!r}\n")
        if barrier is not None:
            barrier.wait()
        return hidden_states(config, weights, block)

    monkeypatch.setattr(similarity, "hidden_states", logged)


def take_logged_blocks(log) -> list:
    """The `(pid, segments)` entries `log_blocks` wrote, emptying the log."""
    entries = [ast.literal_eval(line) for line in log.read_text(encoding="utf-8").splitlines()]
    log.unlink()
    return entries


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestAccumulator:
    def test_equal_outputs_contribute_one_per_pair(self):
        acc = SimilarityAccumulator()
        v = np.array([1.0, 2.0, -1.0], dtype=np.float32)
        sums = frame_sums(acc, LayerTapFrame(0, [v, v, v]))
        npt.assert_allclose(sums, np.ones((3, 3)), atol=1e-12)
        matrix = acc.finalize([sums], 1)
        npt.assert_array_equal(matrix.values, np.ones((3, 3)))
        assert matrix.token_count == 1

    def test_hand_computed_contributions(self):
        # e0=[1,0], e1=[0,1], e2=[1,0]: orthogonal pairs contribute 0,
        # the parallel pair contributes 1.
        acc = SimilarityAccumulator()
        e0 = np.array([1.0, 0.0], dtype=np.float32)
        e1 = np.array([0.0, 1.0], dtype=np.float32)
        e2 = np.array([1.0, 0.0], dtype=np.float32)
        sums = frame_sums(acc, LayerTapFrame(0, [e0, e1, e2]))
        assert abs(sums[0, 1]) < 1e-12
        assert abs(sums[0, 2] - 1.0) < 1e-12
        assert abs(sums[1, 2]) < 1e-12
        for k in range(3):
            assert abs(sums[k, k] - 1.0) < 1e-12

    def test_dead_vector_contributes_zero(self):
        acc = SimilarityAccumulator()
        zero = np.zeros(3, dtype=np.float32)
        live = np.ones(3, dtype=np.float32)
        sums = frame_sums(acc, LayerTapFrame(0, [zero, live]))
        assert sums[0, 1] == 0.0
        assert sums[0, 0] == 0.0
        assert sums[1, 1] == 1.0

    def test_order_independent_exactly(self, tiny_model):
        """A sequence's sums are the same bits in a block with others and in
        a block of its own, whatever ran before; added in dataset order, they
        give one matrix."""
        config, weights = tiny_model
        dataset = TokenDataset([[1, 2, 3], [4, 5, 6], [7, 8], [9], [10, 11, 12, 13], [3, 2, 1]])
        acc = SimilarityAccumulator()
        together = {}
        for block in row_blocks(dataset, config):
            together.update(acc.add_states(hidden_states(config, weights, block), block))
        alone = {}
        for i in reversed(range(len(dataset))):
            block = one_block(config, dataset.sequences[i])
            ((_, alone[i]),) = acc.add_states(hidden_states(config, weights, block), block)
        for i in range(len(dataset)):
            npt.assert_array_equal(together[i].view(np.uint64), alone[i].view(np.uint64))
        tokens = dataset.total_tokens
        in_order = acc.finalize([together[i] for i in range(len(dataset))], tokens)
        npt.assert_array_equal(in_order.values.view(np.uint64),
                               acc.finalize([alone[i] for i in range(len(dataset))], tokens)
                               .values.view(np.uint64))


class TestAnalyze:
    def test_all_identity_model_gives_all_ones(self):
        config, weights = synth.gen_model(num_layers=3, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=20,
                                          identity_layers=[1, 2, 3], seed=1, max_seq_len=12)
        dataset = synth.gen_dataset(5, 3, 10, 20, seed=2)
        matrix = analyze(config, weights, dataset)
        npt.assert_array_equal(matrix.values, np.ones((4, 4)))
        assert matrix.token_count == dataset.total_tokens

    def test_passthrough_scores_exactly_one_on_one_token(self):
        """A planted passthrough's output has its input's bits, so their
        cosine is exactly 1 on a dataset of any size: with one token there is
        no average to round it back up to 1."""
        misses = []
        for seed in range(12):
            config, weights = synth.gen_model(num_layers=4, hidden_dim=32, num_heads=4,
                                              ffn_dim=64, vocab_size=100, identity_layers=[2],
                                              seed=seed, max_seq_len=16)
            for token in range(0, 100, 10):
                value = analyze(config, weights, TokenDataset([[token]])).values[1, 2]
                if value != 1.0:
                    misses.append((seed, token, value))
        assert misses == []

    def test_matches_materialized_oracle(self):
        config, weights = synth.gen_model(num_layers=3, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=30,
                                          identity_layers=[2], seed=3, max_seq_len=16)
        dataset = synth.gen_dataset(12, 2, 16, 30, seed=4)
        matrix = analyze(config, weights, dataset)
        oracle_values, oracle_count = analyze_oracle(config, weights, dataset)
        assert matrix.token_count == oracle_count
        npt.assert_allclose(matrix.values, oracle_values, atol=1e-9)

    def test_planted_identity_block_structure(self):
        config, weights = synth.gen_model(num_layers=6, hidden_dim=16, num_heads=2,
                                          ffn_dim=32, vocab_size=40,
                                          identity_layers=[2, 3], seed=5, max_seq_len=16)
        dataset = synth.gen_dataset(10, 4, 16, 40, seed=6)
        matrix = analyze(config, weights, dataset)
        # layers 1,2,3 share one representation
        assert matrix.values[1, 2] >= 1.0 - 1e-5
        assert matrix.values[1, 3] >= 1.0 - 1e-5
        assert matrix.values[2, 3] >= 1.0 - 1e-5
        # consecutive entries across non-identity layers stay separated
        for k in (1, 4, 5, 6):
            assert matrix.values[k - 1, k] < 0.95

    def test_workers_deterministic(self, monkeypatch):
        monkeypatch.setattr(similarity, "usable_cores", lambda: 4)
        config, weights = synth.gen_model(num_layers=4, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=25,
                                          identity_layers=[3], seed=7, max_seq_len=12)
        dataset = synth.gen_dataset(17, 2, 12, 25, seed=8)
        single = analyze(config, weights, dataset, workers=1)
        multi = analyze(config, weights, dataset, workers=4)
        assert single.token_count == multi.token_count
        npt.assert_array_equal(single.values, multi.values)

    def test_more_workers_than_sequences(self, monkeypatch):
        """The pool has min(workers, batches, cores) workers, all but the
        first forked; its shards are those of workers == pool size. Every
        sequence here has its own length, so each is one batch."""
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        config, weights = make_model(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=12)
        dataset = synth.gen_dataset(5, 2, 8, config.vocab_size, seed=9)
        single = analyze(config, weights, dataset, workers=1)
        for workers, cores, pool in [(10**6, 64, 5), (10**6, 3, 3), (4, 64, 4)]:
            monkeypatch.setattr(similarity, "usable_cores", lambda cores=cores: cores)
            forks.clear()
            capped = analyze(config, weights, dataset, workers=workers)
            exact = analyze(config, weights, dataset, workers=pool)
            assert forks == [os.getpid()] * (2 * (pool - 1))
            npt.assert_array_equal(capped.values, exact.values)
            assert capped.token_count == exact.token_count
            npt.assert_array_equal(capped.values, single.values)

    def test_pool_runs_the_one_worker_batches(self, monkeypatch, tmp_path):
        """Workers share out whole row blocks: a pool runs the blocks that
        one worker runs, and never splits a length bucket."""
        monkeypatch.setattr(similarity, "usable_cores", lambda: 2)
        config, weights = make_model(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=12)
        rng = np.random.default_rng(3)
        # three sequences of each length, one length after another
        dataset = TokenDataset([rng.integers(0, config.vocab_size, n).tolist()
                                for n in range(3, 9) for _ in range(3)])
        log = tmp_path / "blocks.txt"
        log_blocks(monkeypatch, log)
        single = analyze(config, weights, dataset, workers=1)
        single_blocks = sorted(segments for _, segments in take_logged_blocks(log))
        multi = analyze(config, weights, dataset, workers=2)
        blocks = [segments for _, segments in take_logged_blocks(log)]
        # (B, n) per segment: only lengths 3 and 4 (9 + 12 rows) fit in the
        # largest batch's 24 rows together
        assert single_blocks == [((3, 3), (3, 4)), ((3, 5),), ((3, 6),), ((3, 7),), ((3, 8),)]
        assert sorted(blocks) == single_blocks
        assert multi.token_count == single.token_count
        npt.assert_array_equal(multi.values, single.values)

    def test_equal_lengths_fill_every_worker(self, monkeypatch, tmp_path):
        """One length bucket is split so that each worker gets a batch."""
        monkeypatch.setattr(similarity, "usable_cores", lambda: 2)
        config, weights = make_model(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=12)
        dataset = synth.gen_dataset(4, 6, 6, config.vocab_size, seed=5)
        single = analyze(config, weights, dataset, workers=1)
        # each batch waits for the other: passes only if both shards run at once
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=10)
        log = tmp_path / "blocks.txt"
        log_blocks(monkeypatch, log, barrier)
        multi = analyze(config, weights, dataset, workers=2)
        calls = take_logged_blocks(log)
        assert [segments for _, segments in calls] == [((2, 6),), ((2, 6),)]
        # shard 0 in this process, shard 1 in a child
        assert len({pid for pid, _ in calls}) == 2 and os.getpid() in {pid for pid, _ in calls}
        assert multi.token_count == single.token_count
        npt.assert_array_equal(multi.values, single.values)

    def test_empty_dataset_rejected(self, tiny_model):
        config, weights = tiny_model
        with pytest.raises(ValidationError, match="empty"):
            analyze(config, weights, TokenDataset([]))

    def test_bad_workers_rejected(self, tiny_model):
        """workers is a Python int >= 1; a bool, float or numpy int is refused, never cast."""
        config, weights = tiny_model
        for workers in (0, -1, True, 1.5, 2.5, "2", np.int64(2)):
            with pytest.raises(ValidationError, match="workers"):
                analyze(config, weights, TokenDataset([[1], [2, 3]]), workers=workers)

    def test_matrix_structure_on_random_models(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            config, weights = make_model(num_layers=int(rng.integers(1, 4)),
                                         hidden_dim=8, num_heads=2, ffn_dim=12,
                                         norm_mode="standard", seed=seed)
            dataset = synth.gen_dataset(4, 2, 8, config.vocab_size, seed=seed + 100)
            matrix = analyze(config, weights, dataset)
            matrix.validate()
            assert np.array_equal(matrix.values, matrix.values.T)
            assert np.all(np.diag(matrix.values) == 1.0)
            assert np.all(matrix.values >= -1.0) and np.all(matrix.values <= 1.0)

    def test_scaled_frames_leave_matrix_unchanged(self, tiny_model):
        # cosine scale invariance, applied directly to recorded states
        config, weights = tiny_model
        acc = SimilarityAccumulator()
        scaled_layer = 1
        plain, scaled = [], []
        for seq in [[1, 2, 3], [4, 5]]:
            block = one_block(config, seq)
            states = hidden_states(config, weights, block)
            plain.extend(sums for _, sums in acc.add_states(states, block))
            states_scaled = list(states)
            states_scaled[scaled_layer] = states_scaled[scaled_layer] * np.float32(2.5)
            scaled.extend(sums for _, sums in acc.add_states(states_scaled, block))
        npt.assert_allclose(acc.finalize(plain, 5).values, acc.finalize(scaled, 5).values,
                            atol=1e-6)

    @pytest.mark.parametrize("norm_mode", ["standard", "none"])
    def test_bit_identical_at_every_worker_count_and_batch_cap(self, monkeypatch, norm_mode):
        """Sequence sums are added in dataset order, so neither the pool size
        nor the batch cap moves a bit of the matrix."""
        monkeypatch.setattr(similarity, "usable_cores", lambda: 4)
        config, weights = make_model(num_layers=4, hidden_dim=16, num_heads=2, ffn_dim=24,
                                     vocab_size=40, norm_mode=norm_mode, seed=3)
        rng = np.random.default_rng(11)
        # lengths 1-16, length-1 sequences included
        dataset = TokenDataset([rng.integers(0, 40, n).tolist() for n in rng.integers(1, 17, 60)]
                               + [[5], [7]])
        reference = analyze(config, weights, dataset).values.view(np.uint64)
        for max_rows in (1, 7, 64):
            monkeypatch.setattr(data, "MAX_BATCH_ROWS", max_rows)
            for workers in (1, 2, 3, 4):
                matrix = analyze(config, weights, dataset, workers=workers)
                npt.assert_array_equal(matrix.values.view(np.uint64), reference)


class FakeBlas:
    """Stands in for OpenBLAS's thread-count functions; records every call."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        self.calls.append("get")
        return self.threads

    def set(self, threads):
        self.calls.append(("set", threads))
        self.threads = threads


@pytest.fixture
def fake_blas(monkeypatch):
    fake = FakeBlas(threads=3)
    monkeypatch.setattr(similarity, "_openblas_threads", lambda: (fake.get, fake.set))
    monkeypatch.setattr(similarity, "usable_cores", lambda: 4)
    return fake


class TestBlasPin:
    """A pool of 2 or more workers runs with BLAS on one thread; the count
    read before it starts is restored once every child is reaped."""

    def test_pool_pins_one_thread_then_restores(self, fake_blas, tiny_model):
        config, weights = tiny_model
        dataset = synth.gen_dataset(6, 2, 8, config.vocab_size, seed=1)
        seen = similarity._map_shards(lambda shard: fake_blas.threads, dataset.sequences, 2)
        assert seen == [1, 1]
        assert fake_blas.calls == ["get", ("set", 1), ("set", 3)]
        analyze(config, weights, dataset, workers=3)
        assert fake_blas.calls[3:] == ["get", ("set", 1), ("set", 3)]
        assert fake_blas.threads == 3

    def test_restored_when_a_shard_raises(self, fake_blas):
        def fail(shard):
            raise RuntimeError("shard failed")

        with pytest.raises(RuntimeError, match="shard failed"):
            similarity._map_shards(fail, [[1], [2]], 2)
        assert fake_blas.calls == ["get", ("set", 1), ("set", 3)]

    def test_one_worker_leaves_blas_alone(self, fake_blas, tiny_model):
        config, weights = tiny_model
        analyze(config, weights, synth.gen_dataset(6, 2, 8, config.vocab_size, seed=1),
                workers=1)
        similarity._map_shards(len, [[1]], 8)  # one item, one shard
        assert fake_blas.calls == []

    def test_pools_from_two_threads_take_turns(self, fake_blas):
        """Two pools entered at once (from two threads) take turns: each reads
        the count, pins it and restores it before the other starts. Each
        shard lingers, so pools that did not wait would overlap."""
        start = threading.Barrier(2, timeout=10)
        seen = []

        def shard(_):
            time.sleep(0.05)
            return fake_blas.threads

        def caller():
            start.wait()
            seen.append(similarity._map_shards(shard, [[1], [2]], 2))

        callers = [threading.Thread(target=caller) for _ in range(2)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen == [[1, 1], [1, 1]]
        assert fake_blas.calls == ["get", ("set", 1), ("set", 3)] * 2
        assert fake_blas.threads == 3

    @pytest.mark.parametrize("missing", ["library", "symbol"])
    def test_without_openblas_blas_is_left_alone(self, monkeypatch, missing):
        if missing == "library":
            monkeypatch.setattr(similarity, "glob", SimpleNamespace(glob=lambda pattern: []))
        else:
            monkeypatch.setattr(similarity, "glob", SimpleNamespace(
                glob=lambda pattern: ["libscipy_openblas64_.so"]))
            monkeypatch.setattr(similarity, "ctypes", SimpleNamespace(
                CDLL=lambda path: SimpleNamespace(), c_int=ctypes.c_int))
        find = similarity._openblas_threads.__wrapped__  # uncached lookup
        assert find() is None
        monkeypatch.setattr(similarity, "_openblas_threads", find)
        monkeypatch.setattr(similarity, "usable_cores", lambda: 2)
        config, weights = make_model(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=12)
        dataset = synth.gen_dataset(9, 2, 12, config.vocab_size, seed=4)
        npt.assert_array_equal(analyze(config, weights, dataset, workers=2).values,
                               analyze(config, weights, dataset, workers=1).values)

    def test_real_openblas_pinned_in_pool_and_restored(self, monkeypatch, tiny_model):
        handle = similarity._openblas_threads()
        if handle is None:
            pytest.skip("numpy does not use its bundled OpenBLAS")
        get, set_ = handle
        monkeypatch.setattr(similarity, "usable_cores", lambda: 2)
        config, weights = tiny_model
        dataset = synth.gen_dataset(6, 2, 8, config.vocab_size, seed=1)
        original = get()
        set_(2)
        try:
            seen = similarity._map_shards(lambda shard: get(), dataset.sequences, 2)
            assert seen == [1, 1]
            analyze(config, weights, dataset, workers=2)
            assert get() == 2
        finally:
            set_(original)


class TestForkedShards:
    """Shard 0 runs in this process, every other shard in a forked child;
    however a shard ends, the BLAS count is restored and no child is left."""

    def test_shard_error_reaches_caller(self, fake_blas):
        parent = os.getpid()

        def shard(items):
            if os.getpid() != parent:
                raise ValidationError(f"bad shard {items}")
            return items

        with pytest.raises(ValidationError, match=r"^bad shard \[\[2\]\]$"):
            similarity._map_shards(shard, [[1], [2]], 2)
        assert fake_blas.calls == ["get", ("set", 1), ("set", 3)]
        assert_no_children()

    def test_first_failed_shard_in_shard_order(self, fake_blas):
        """Shard 1's error is raised even when shard 2 fails first."""
        parent = os.getpid()

        def shard(items):
            if os.getpid() == parent:
                return items
            if items == [[2]]:
                time.sleep(0.5)
            raise ValidationError(f"bad shard {items}")

        with pytest.raises(ValidationError, match=r"^bad shard \[\[2\]\]$"):
            similarity._map_shards(shard, [[1], [2], [3]], 3)
        assert fake_blas.calls == ["get", ("set", 1), ("set", 3)]
        assert_no_children()

    def test_killed_child_is_an_os_error(self, fake_blas, monkeypatch, tmp_path, capsys):
        parent = os.getpid()

        def die_in_child():
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        def shard(items):
            die_in_child()
            return items

        with pytest.raises(ChildProcessError,
                           match=r"^shard 1 worker \(pid \d+\) ended without a result "
                                 r"\(killed by signal 9\)$"):
            similarity._map_shards(shard, [[1], [2]], 2)
        assert fake_blas.calls == ["get", ("set", 1), ("set", 3)]
        assert_no_children()

        config, weights = make_model(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=12)
        save_model(config, weights, tmp_path / "model.ascm")
        save_dataset(synth.gen_dataset(6, 2, 8, config.vocab_size, seed=1),
                     tmp_path / "data.txt")

        def forward_or_die(config, weights, block):
            die_in_child()
            return hidden_states(config, weights, block)

        monkeypatch.setattr(similarity, "hidden_states", forward_or_die)
        capsys.readouterr()
        code = cli.main(["analyze", "--model", str(tmp_path / "model.ascm"),
                         "--data", str(tmp_path / "data.txt"),
                         "--out", str(tmp_path / "sim.csv"), "--workers", "2"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: shard 1 worker (pid ")
        assert sorted(os.listdir(tmp_path)) == ["data.txt", "model.ascm"]
        assert fake_blas.calls[3:] == ["get", ("set", 1), ("set", 3)]
        assert fake_blas.threads == 3
        assert_no_children()

    def test_interrupt_in_shard_0_kills_the_children(self, fake_blas, tmp_path):
        parent = os.getpid()
        started = tmp_path / "child.pid"

        def shard(items):
            if os.getpid() != parent:
                (tmp_path / "child.tmp").write_text(str(os.getpid()))
                os.replace(tmp_path / "child.tmp", started)
                time.sleep(60)
                return items
            deadline = time.monotonic() + 10
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        begun = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            similarity._map_shards(shard, [[1], [2]], 2)
        assert time.monotonic() - begun < 30  # killed, not waited for
        with pytest.raises(ProcessLookupError):  # and reaped: no zombie left
            os.kill(int(started.read_text()), 0)
        assert fake_blas.calls == ["get", ("set", 1), ("set", 3)]
        assert_no_children()

    def test_without_fork_shards_run_inline(self, fake_blas, monkeypatch):
        """Where os.fork does not exist, the shards run one after another in
        this process, with BLAS untouched, and give the same matrix."""
        config, weights = make_model(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=12)
        dataset = synth.gen_dataset(9, 2, 12, config.vocab_size, seed=4)
        forked = analyze(config, weights, dataset, workers=3)
        fake_blas.calls.clear()
        monkeypatch.delattr(os, "fork")
        assert similarity._map_shards(lambda shard: (os.getpid(), shard), [1, 2, 3, 4], 3) == [
            (os.getpid(), [1, 4]), (os.getpid(), [2]), (os.getpid(), [3])]
        inline = analyze(config, weights, dataset, workers=3)
        assert fake_blas.calls == []
        npt.assert_array_equal(inline.values, forked.values)
        assert inline.token_count == forked.token_count


class TestMatrixValidation:
    def test_asymmetric_rejected(self):
        values = np.eye(3)
        values[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            SimilarityMatrix(values=values, token_count=1).validate()

    def test_bad_diagonal_rejected(self):
        values = np.eye(3)
        values[1, 1] = 0.9
        with pytest.raises(ValidationError, match="diagonal"):
            SimilarityMatrix(values=values, token_count=1).validate()

    def test_out_of_range_rejected(self):
        values = np.eye(2)
        values[0, 1] = values[1, 0] = 1.5
        with pytest.raises(ValidationError, match="-1, 1"):
            SimilarityMatrix(values=values, token_count=1).validate()

    @pytest.mark.parametrize("token_count", [0, 2.5, True, np.int64(3)], ids=repr)
    def test_token_count_must_be_an_int(self, token_count):
        with pytest.raises(ValidationError, match="token_count"):
            SimilarityMatrix(values=np.eye(2), token_count=token_count).validate()

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            SimilarityMatrix(values=np.zeros((2, 3)), token_count=1).validate()

    @pytest.mark.parametrize("values, got", [
        (np.array([["1", "0"], ["0", "1"]]), "<U1"),
        (np.eye(2).astype(object), "object"),
        (np.eye(2, dtype=np.complex128), "complex128"),
        (np.eye(2, dtype=bool), "bool"),
        (np.eye(2, dtype=np.int64), "int64"),
        (np.eye(2, dtype=np.float32), "float32"),
        (np.zeros((2, 3), dtype=np.int64), "int64"),
        ([[1.0, 0.0], [0.0, 1.0]], "list"),
    ], ids=["str", "object", "complex", "bool", "int", "float32", "int, not square", "list"])
    def test_only_float64_accepted(self, values, got, tmp_path):
        """The dtype is checked first: a str or object matrix reached a raw
        TypeError in np.isfinite, and a complex one was written without its
        imaginary part."""
        matrix = SimilarityMatrix(values=values, token_count=1)
        message = rf"^similarity matrix must be a float64 array, got {got}$"
        with pytest.raises(ValidationError, match=message):
            matrix.validate()
        with pytest.raises(ValidationError, match=message):
            plan(matrix, 0.5)
        with pytest.raises(ValidationError, match=message):
            write_matrix_csv(matrix, tmp_path / "sim.csv")
        assert list(tmp_path.iterdir()) == []


class TestMatrixCsv:
    def make_matrix(self, size=4, seed=0, tokens=11):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1, 1, size=(size, size))
        values = np.triu(values, k=1)
        values = values + values.T
        np.fill_diagonal(values, 1.0)
        return SimilarityMatrix(values=values, token_count=tokens)

    def test_round_trip_exact(self, tmp_path):
        matrix = self.make_matrix()
        path = tmp_path / "sim.csv"
        write_matrix_csv(matrix, path)
        loaded = load_matrix_csv(path)
        npt.assert_array_equal(loaded.values, matrix.values)
        assert loaded.token_count == matrix.token_count

    @settings(derandomize=True, deadline=None, max_examples=50, database=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    def test_every_written_value_round_trips(self, tmp_path_factory, upper):
        """Each form `repr(float)` takes (exponents, subnormals, -0.0) reads back."""
        values = np.eye(4)
        rows, cols = np.triu_indices(4, k=1)
        values[rows, cols] = values[cols, rows] = upper
        path = tmp_path_factory.mktemp("csv") / "sim.csv"
        write_matrix_csv(SimilarityMatrix(values=values, token_count=3), path)
        assert load_matrix_csv(path).values.tobytes() == values.tobytes()

    def test_header_line(self, tmp_path):
        matrix = self.make_matrix(size=13, tokens=42)
        path = tmp_path / "sim.csv"
        write_matrix_csv(matrix, path)
        first = path.read_text().splitlines()[0]
        assert first == "# asc-sim v1 layers=13 tokens=42"

    def test_bad_header_reports_line_1(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("not a header\n1.0,0.0\n0.0,1.0\n")
        with pytest.raises(FormatError, match=":1"):
            load_matrix_csv(path)

    def test_wrong_value_count_reports_line(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("# asc-sim v1 layers=2 tokens=5\n1.0,0.0\n0.0\n")
        with pytest.raises(FormatError, match=":3"):
            load_matrix_csv(path)

    def test_unparseable_value_reports_line(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("# asc-sim v1 layers=2 tokens=5\n1.0,zap\n0.0,1.0\n")
        with pytest.raises(FormatError, match=":2"):
            load_matrix_csv(path)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("# asc-sim v1 layers=3 tokens=5\n1.0,0.0,0.0\n")
        with pytest.raises(FormatError, match="rows"):
            load_matrix_csv(path)

    def test_invalid_matrix_content_rejected(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("# asc-sim v1 layers=2 tokens=5\n1.0,0.5\n0.4,1.0\n")
        with pytest.raises(FormatError, match="symmetric"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("text", [
        "1.0,0.5\u20280.5,1.0\n",  # U+2028 does not end a row
        "1.0,0.5\n\u00a0\n0.5,1.0\n",  # a U+00A0 line is not blank
    ])
    def test_rows_split_on_ascii_newline_only(self, tmp_path, text):
        path = tmp_path / "sim.csv"
        path.write_text("# asc-sim v1 layers=2 tokens=5\n" + text, encoding="utf-8")
        with pytest.raises(FormatError, match=":[23]: expected 2 values"):
            load_matrix_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("")
        with pytest.raises(FormatError, match=":1"):
            load_matrix_csv(path)


# Text that is not a count, or not an ASCII decimal in [-1, 1], in every field
OTHER_FIELDS = ["", "x", "true", "null", "[1]", "2.5", "-1", "1e3", "nan", "inf", "0x10",
                "1_0", " 1", "\u0661", "9" * 30]


class TestMatrixCsvTotality:
    """Truncations, byte flips and field swaps of a valid matrix CSV end in
    FormatError or ValidationError, never in another exception."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("totality")
        write_matrix_csv(TestMatrixCsv().make_matrix(size=3, tokens=7), directory / "valid.csv")
        return (directory / "valid.csv").read_bytes(), directory / "case.csv"

    def test_every_truncation_refused_or_unchanged(self, valid):
        blob, path = valid
        path.write_bytes(blob)
        full = load_matrix_csv(path)
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            try:
                loaded = load_matrix_csv(path)
            except (FormatError, ValidationError):
                continue
            # only a cut inside the final "1.0" or of the last newline still loads
            assert loaded.values.tobytes() == full.values.tobytes()
            assert loaded.token_count == full.token_count

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(data=st.data())
    def test_single_byte_flip(self, valid, data):
        blob, path = valid
        pos = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        path.write_bytes(blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:])
        try:
            load_matrix_csv(path)
        except (FormatError, ValidationError):
            pass  # a flip inside a value's digits may leave a valid matrix

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(data=st.data())
    def test_field_swap(self, valid, data):
        blob, path = valid
        header, *lines = blob.decode("ascii").splitlines()
        counts = header.rsplit(" ", 2)[1:]  # ["layers=3", "tokens=7"]
        fields = [count.split("=")[1] for count in counts] + [
            value for line in lines for value in line.split(",")]
        k = data.draw(st.integers(0, len(fields) - 1))
        fields[k] = data.draw(st.sampled_from(OTHER_FIELDS))
        rows = [fields[2 + 3 * r: 5 + 3 * r] for r in range(3)]
        path.write_text(f"# asc-sim v1 layers={fields[0]} tokens={fields[1]}\n"
                        + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        try:
            load_matrix_csv(path)
        except (FormatError, ValidationError):
            return
        assert k == 1 and fields[1].isascii() and fields[1].isdigit()
