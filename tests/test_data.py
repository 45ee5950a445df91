import numpy as np
import pytest

from asc.data import (
    MAX_BATCH_ROWS,
    TokenDataset,
    length_batches,
    load_dataset,
    save_dataset,
    validate_sequence,
)
from asc.errors import FormatError, ValidationError
from conftest import make_model


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        dataset = TokenDataset([[1, 2, 3], [7], [0, 0, 4, 9]])
        path = tmp_path / "d.txt"
        save_dataset(dataset, path)
        assert load_dataset(path).sequences == dataset.sequences

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header comment\n1 2 3\n\n  \n4 5\n# trailing\n")
        assert load_dataset(path).sequences == [[1, 2, 3], [4, 5]]

    def test_non_integer_reports_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2\n3 x\n")
        with pytest.raises(FormatError, match=":2"):
            load_dataset(path)

    def test_negative_id_reports_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2\n-3 4\n")
        with pytest.raises(FormatError, match=":2"):
            load_dataset(path)

    def test_total_tokens(self):
        assert TokenDataset([[1, 2], [3]]).total_tokens == 3
        assert TokenDataset([]).total_tokens == 0


class TestValidateSequence:
    def test_in_range_passes(self, tiny_model):
        config, _ = tiny_model
        validate_sequence(config, [0, config.vocab_size - 1])

    def test_empty_rejected(self, tiny_model):
        config, _ = tiny_model
        with pytest.raises(ValidationError, match="empty"):
            validate_sequence(config, [])

    def test_too_long_rejected(self):
        config, _ = make_model(max_seq_len=3)
        with pytest.raises(ValidationError, match="max_seq_len"):
            validate_sequence(config, [0, 0, 0, 0])

    def test_out_of_vocab_rejected(self, tiny_model):
        config, _ = tiny_model
        with pytest.raises(ValidationError, match="out of range"):
            validate_sequence(config, [config.vocab_size])


class TestLengthBatches:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_sequence_once_in_a_one_length_batch(self, seed):
        config, _ = make_model(vocab_size=20, max_seq_len=16)
        rng = np.random.default_rng(seed)
        sequences = [rng.integers(0, 20, size=int(rng.integers(1, 17))).tolist()
                     for _ in range(60)]
        batches = length_batches(sequences, config)
        seen = [i for indices, _ in batches for i in indices]
        assert sorted(seen) == list(range(len(sequences)))
        for indices, ids in batches:
            assert ids.dtype == np.int64
            assert ids.shape == (len(indices), len(sequences[indices[0]]))
            assert indices == sorted(indices)
            for i, row in zip(indices, ids):
                assert row.tolist() == sequences[i]

    def test_row_cap(self):
        config, _ = make_model(vocab_size=20, max_seq_len=2 * MAX_BATCH_ROWS)
        rng = np.random.default_rng(9)
        lengths = np.concatenate([
            rng.integers(2, 40, 300), [100] * 25, [300] * 5,
            [MAX_BATCH_ROWS - 1, MAX_BATCH_ROWS, MAX_BATCH_ROWS + 1, 2 * MAX_BATCH_ROWS] * 2,
        ])
        sequences = [[0] * int(n) for n in lengths]
        chunks = {}
        for indices, ids in length_batches(sequences, config):
            assert ids.size <= MAX_BATCH_ROWS or len(indices) == 1
            chunks.setdefault(ids.shape[1], []).append(len(indices))
        assert chunks[100] == [10, 10, 5] and chunks[300] == [3, 2]
        for n, sizes in chunks.items():
            # every batch but a length's last one is as full as the cap allows
            assert all(size == max(1, MAX_BATCH_ROWS // n) for size in sizes[:-1])

    def test_length_one_sequences_run_alone(self):
        config, _ = make_model(vocab_size=20)
        batches = length_batches([[3], [4], [5, 6], [7, 8]], config)
        assert [indices for indices, _ in batches] == [[0], [1], [2, 3]]

    def test_empty_input(self, tiny_model):
        config, _ = tiny_model
        assert length_batches([], config) == []

    @pytest.mark.parametrize("bad, message", [
        ([], "empty"),
        ([0] * 17, "max_seq_len"),
        ([1, 20], "out of range"),
    ])
    def test_invalid_sequence_rejected(self, bad, message):
        config, _ = make_model(vocab_size=20, max_seq_len=16)
        with pytest.raises(ValidationError, match=message):
            length_batches([[1, 2], bad, [3]], config)

    def test_checked_against_every_config(self):
        wide, _ = make_model(vocab_size=20)
        narrow, _ = make_model(vocab_size=10)
        length_batches([[9, 9]], wide, narrow)
        with pytest.raises(ValidationError, match=r"token id 15 out of range \[0, 10\)"):
            length_batches([[9, 15]], wide, narrow)
