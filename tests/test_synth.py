import numpy as np
import numpy.testing as npt
import pytest

from asc import synth
from asc.data import save_dataset
from asc.errors import ValidationError
from asc.forward import embed, encoder_layer
from asc.model import save_model
from asc.similarity import analyze
from oracles import one_block


class TestGenModel:
    def test_deterministic_under_seed(self, tmp_path):
        kwargs = dict(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=16,
                      vocab_size=25, identity_layers=[2], seed=17, max_seq_len=10)
        config_a, weights_a = synth.gen_model(**kwargs)
        config_b, weights_b = synth.gen_model(**kwargs)
        assert config_a == config_b
        for name in weights_a.tensors:
            npt.assert_array_equal(weights_a[name], weights_b[name])
        path_a, path_b = tmp_path / "a.ascm", tmp_path / "b.ascm"
        save_model(config_a, weights_a, path_a)
        save_model(config_b, weights_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_norm_mode_is_none(self):
        config, _ = synth.gen_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                                    vocab_size=10, identity_layers=[], seed=0, max_seq_len=8)
        assert config.norm_mode == "none"

    def test_identity_layers_are_exact_passthroughs(self):
        config, weights = synth.gen_model(num_layers=3, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=25,
                                          identity_layers=[1, 3], seed=18, max_seq_len=12)
        block = one_block(config, [5, 11, 2, 24])
        x = embed(config, weights, block)
        npt.assert_array_equal(encoder_layer(config, weights, 0, x, block.segments), x)
        y = encoder_layer(config, weights, 1, x, block.segments)
        npt.assert_array_equal(encoder_layer(config, weights, 2, y, block.segments), y)

    @pytest.mark.parametrize("max_seq_len, length", [(1, 1), (10, 10), (128, 16)])
    def test_probe_runs_as_one_batch(self, monkeypatch, max_seq_len, length):
        """The probe is one block of 4 equal-length sequences, a length-1 probe
        included, which `row_blocks` would run one sequence at a time."""
        real_layer = synth.encoder_layer
        seen = set()

        def layer(config, weights, k, rows, segments):
            seen.add((rows.shape, segments))
            return real_layer(config, weights, k, rows, segments)

        monkeypatch.setattr(synth, "encoder_layer", layer)
        synth.gen_model(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=16, vocab_size=25,
                        identity_layers=[2], seed=3, max_seq_len=max_seq_len)
        assert seen == {((4 * length, 8), ((4, length),))}

    def test_broken_passthrough_raises(self, monkeypatch):
        # an explicit error, so the check also holds under `python -O`
        real_layer = synth.encoder_layer
        monkeypatch.setattr(synth, "encoder_layer",
                            lambda *args: real_layer(*args) + np.float32(1.0))
        with pytest.raises(RuntimeError, match="not a passthrough"):
            synth.gen_model(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                            vocab_size=20, identity_layers=[1], seed=0, max_seq_len=8)

    def test_all_identity_model_analyzes_to_ones(self):
        config, weights = synth.gen_model(num_layers=2, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=15,
                                          identity_layers=[1, 2], seed=19, max_seq_len=10)
        dataset = synth.gen_dataset(4, 2, 10, 15, seed=20)
        matrix = analyze(config, weights, dataset)
        npt.assert_array_equal(matrix.values, np.ones((3, 3)))

    def test_mixing_layers_separate_on_fresh_data(self):
        config, weights = synth.gen_model(num_layers=4, hidden_dim=16, num_heads=2,
                                          ffn_dim=32, vocab_size=50,
                                          identity_layers=[], seed=21, max_seq_len=16)
        dataset = synth.gen_dataset(8, 8, 16, 50, seed=22)
        matrix = analyze(config, weights, dataset)
        # generator guarantees < 0.8 on its own probe batch; allow margin
        # for a different token distribution
        for k in range(1, 5):
            assert matrix.values[k - 1, k] < 0.9

    def test_no_identity_layers_plan_is_empty(self):
        from asc.planner import plan
        config, weights = synth.gen_model(num_layers=5, hidden_dim=16, num_heads=2,
                                          ffn_dim=32, vocab_size=50,
                                          identity_layers=[], seed=23, max_seq_len=16)
        dataset = synth.gen_dataset(10, 8, 16, 50, seed=24)
        matrix = analyze(config, weights, dataset)
        assert plan(matrix, 0.99).redundant_layers == ()

    def test_invalid_identity_index_rejected(self):
        with pytest.raises(ValidationError, match="identity layers"):
            synth.gen_model(num_layers=2, hidden_dim=4, num_heads=2, ffn_dim=8,
                            vocab_size=10, identity_layers=[3], seed=0)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValidationError, match="d mod h"):
            synth.gen_model(num_layers=1, hidden_dim=5, num_heads=2, ffn_dim=8,
                            vocab_size=10, identity_layers=[], seed=0)

    @pytest.mark.parametrize("dims", [dict(ffn_dim=2 ** 63), dict(vocab_size=2 ** 62),
                                      dict(max_seq_len=2 ** 61)], ids=lambda d: next(iter(d)))
    def test_tensor_numpy_cannot_draw_rejected(self, dims):
        """Refused before any draw: numpy would raise a raw ValueError."""
        args = dict(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=8, vocab_size=10,
                    identity_layers=[], seed=0)
        with pytest.raises(ValidationError, match=r"tensor is \d+, beyond the \d+ values"):
            synth.gen_model(**{**args, **dims})


class TestGenDataset:
    def test_lengths_and_vocab_bounds(self):
        dataset = synth.gen_dataset(100, 8, 16, vocab_size=30, seed=3)
        assert len(dataset) == 100
        assert dataset.total_tokens == sum(len(s) for s in dataset.sequences)
        for seq in dataset.sequences:
            assert 8 <= len(seq) <= 16
            assert all(0 <= t < 30 for t in seq)

    def test_deterministic_files(self, tmp_path):
        path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(synth.gen_dataset(10, 2, 6, 12, seed=9), path_a)
        save_dataset(synth.gen_dataset(10, 2, 6, 12, seed=9), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_zero_sequences_fails_at_analyze(self, tiny_model):
        config, weights = tiny_model
        dataset = synth.gen_dataset(0, 1, 4, config.vocab_size, seed=0)
        with pytest.raises(ValidationError, match="empty"):
            analyze(config, weights, dataset)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError, match="min_len"):
            synth.gen_dataset(5, 6, 3, 10, seed=0)
        with pytest.raises(ValidationError, match="min_len"):
            synth.gen_dataset(5, 0, 3, 10, seed=0)
        with pytest.raises(ValidationError, match="num_sequences"):
            synth.gen_dataset(-1, 1, 3, 10, seed=0)
        with pytest.raises(ValidationError, match="vocab_size"):
            synth.gen_dataset(5, 1, 3, 0, seed=0)
        with pytest.raises(ValidationError, match="^max_len is 9223372036854775808, beyond"):
            synth.gen_dataset(5, 1, 2 ** 63, 10, seed=0)
        with pytest.raises(ValidationError, match="^vocab_size is 9223372036854775809, beyond"):
            synth.gen_dataset(5, 1, 3, 2 ** 63 + 1, seed=0)
        largest = synth.gen_dataset(3, 1, 1, synth.MAX_DRAW, seed=0)
        assert all(0 <= seq[0] < synth.MAX_DRAW for seq in largest.sequences)


class TestArgumentsNotCoerced:
    """Generator arguments that are not ints (or are bools, or are negative
    seeds) raise ValidationError instead of being cast or reaching numpy."""

    MODEL = dict(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16, vocab_size=20,
                 identity_layers=[1], seed=0, max_seq_len=8)

    @pytest.mark.parametrize("change", [
        {"seed": -1}, {"seed": 1.0}, {"seed": np.int64(1)},
        {"identity_layers": [1.9]}, {"identity_layers": [True]}, {"identity_layers": [1, 1]},
        {"num_heads": True}, {"num_layers": 2.0},
    ], ids=repr)
    def test_gen_model(self, change):
        with pytest.raises(ValidationError):
            synth.gen_model(**{**self.MODEL, **change})

    @pytest.mark.parametrize("identity_layers", [None, 5, object()], ids=lambda v: type(v).__name__)
    def test_non_iterable_identity_layers(self, identity_layers):
        with pytest.raises(ValidationError, match=rf"^identity_layers must be of type Iterable, "
                                                  rf"got {type(identity_layers).__name__}$"):
            synth.gen_model(**{**self.MODEL, "identity_layers": identity_layers})

    @pytest.mark.parametrize("identity_layers", [[1], (1,), {1}, range(1, 2)], ids=repr)
    def test_identity_layers_of_any_iterable(self, identity_layers):
        config, weights = synth.gen_model(**{**self.MODEL, "identity_layers": identity_layers})
        expected = synth.gen_model(**self.MODEL)
        assert config == expected[0]
        assert all(np.array_equal(weights[name], expected[1][name]) for name in weights.tensors)

    @pytest.mark.parametrize("args, seed", [
        ((5, 1, 3, 10), -5), ((True, 1, 3, 10), 0), ((2.5, 1, 3, 10), 0),
        ((5, 1, 3, True), 0), ((5, 1, 3, 10), 2.0),
    ], ids=repr)
    def test_gen_dataset(self, args, seed):
        with pytest.raises(ValidationError):
            synth.gen_dataset(*args, seed=seed)
