import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asc.data import (
    MAX_BATCH_ROWS,
    TokenDataset,
    length_batches,
    row_blocks,
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

    def test_ascii_whitespace_separates(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("\t1 \x0b2\x0c  3\r\n 4\n", newline="")
        assert load_dataset(path).sequences == [[1, 2, 3], [4]]

    @pytest.mark.parametrize("line", ["1\u00a02\u30003", "1 2\u2003", "\u00a0"])
    def test_non_ascii_whitespace_is_not_a_separator(self, tmp_path, line):
        path = tmp_path / "d.txt"
        path.write_text(f"1 2\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2: non-integer token id"):
            load_dataset(path)

    @pytest.mark.parametrize("sequences", [[[1, 2], [], [3]], [[1, -2]], [[1, 2.0]], [[True, 2]]],
                             ids=repr)
    def test_save_refuses_what_load_reads_differently(self, tmp_path, sequences):
        path = tmp_path / "d.txt"
        with pytest.raises(ValidationError, match="sequence"):
            save_dataset(TokenDataset(sequences), path)
        assert not path.exists()

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

    def test_returns_int64_ids(self, tiny_model):
        config, _ = tiny_model
        ids = validate_sequence(config, [[1, 2], [3, 4]])
        assert ids.dtype == np.int64 and ids.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("tokens, bad", [
        ([1, 2**63], 2**63),
        ([2**64], 2**64),
        ([-1, 2**63], -1),
        ([3, 10**20], 10**20),
        ([[1, 2], [3, 10**20]], 10**20),
    ])
    def test_ids_beyond_64_bits_read_out_of_range(self, tokens, bad):
        config, _ = make_model(vocab_size=20)
        with pytest.raises(ValidationError, match=rf"token id {bad} out of range \[0, 20\)"):
            validate_sequence(config, tokens)

    LOOP_CONFIG = make_model(vocab_size=20, max_seq_len=16)[0]

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(st.lists(st.one_of(st.integers(0, 19), st.integers(-2**70, 2**70)), max_size=18))
    def test_matches_per_token_loop(self, tokens):
        """The vectorized check refuses what a per-token loop refuses, with the
        same message, and passes the rest through unchanged."""
        config = self.LOOP_CONFIG
        if not tokens:
            expected = "sequence is empty"
        elif len(tokens) > 16:
            expected = f"sequence length {len(tokens)} exceeds max_seq_len 16"
        else:
            bad = [t for t in tokens if not 0 <= t < 20]
            expected = f"token id {bad[0]} out of range [0, 20)" if bad else None
        if expected is None:
            assert validate_sequence(config, tokens).tolist() == tokens
        else:
            with pytest.raises(ValidationError) as exc:
                validate_sequence(config, tokens)
            assert str(exc.value) == expected

    @pytest.mark.parametrize("tokens", [[1.0, 2.0], [True], ["1"], [None, 1], [True, 1],
                                        [[1, 2], [3, False]], [np.array([1, 2]), [True, 0]]])
    def test_non_integer_ids_rejected(self, tiny_model, tokens):
        config, _ = tiny_model
        with pytest.raises(ValidationError, match="must be integers"):
            validate_sequence(config, tokens)

    @pytest.mark.parametrize("tokens", [[[1, 2], [3]], 5])
    def test_not_an_id_array_rejected(self, tiny_model, tokens):
        config, _ = tiny_model
        with pytest.raises(ValidationError, match=r"shape \(\.\.\., n\)"):
            validate_sequence(config, tokens)


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
        for cap, kwargs, of_100, of_300 in [
            (MAX_BATCH_ROWS, {}, [10, 10, 5], [3, 2]),
            (256, {"max_rows": 256}, [2] * 12 + [1], [1] * 5),
        ]:
            chunks = {}
            for indices, ids in length_batches(sequences, config, **kwargs):
                assert ids.size <= cap or len(indices) == 1
                chunks.setdefault(ids.shape[1], []).append(len(indices))
            assert chunks[100] == of_100 and chunks[300] == of_300
            for n, sizes in chunks.items():
                # every batch but a length's last one is as full as the cap allows
                assert all(size == max(1, cap // n) for size in sizes[:-1])

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

    def test_id_beyond_64_bits_out_of_range(self):
        config, _ = make_model(vocab_size=20)
        with pytest.raises(ValidationError, match=r"token id 100000000000000000000 out of range"):
            length_batches([[1, 2], [3, 10**20]], config)


class TestRowBlocks:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_rows", [MAX_BATCH_ROWS, 64, 8])
    def test_packing_invariants(self, seed, max_rows):
        config, _ = make_model(vocab_size=20, max_seq_len=40)
        rng = np.random.default_rng(seed)
        sequences = [rng.integers(0, 20, size=int(rng.integers(1, 41))).tolist()
                     for _ in range(150)]
        batches = length_batches(sequences, config, max_rows=max_rows)
        largest = max(ids.size for _, ids in batches)
        blocks = row_blocks(sequences, config, max_rows=max_rows)
        assert any(len(block.batches) > 1 for block in blocks)
        # each sequence once, in whole length batches
        seen = [i for block in blocks for indices, _ in block.batches for i in indices]
        assert sorted(seen) == list(range(len(sequences)))
        packed = sorted((indices, ids.tolist()) for block in blocks
                        for indices, ids in block.batches)
        assert packed == sorted((indices, ids.tolist()) for indices, ids in batches)
        # shortest length first, across and within blocks
        lengths = [n for block in blocks for _, n in block.segments]
        assert lengths == sorted(lengths)
        sizes = [sum(b * n for b, n in block.segments) for block in blocks]
        for block, size, after in zip(blocks, sizes, blocks[1:] + [None]):
            assert size <= largest
            if (1, 1) in block.segments:
                assert block.segments == ((1, 1),)
            # a block is closed only when the next batch would not fit
            if after is not None and block.segments[-1][1] > 1:
                assert size + after.batches[0][1].size > largest

    def test_split_gives_each_sequence_its_rows(self, tiny_model):
        config, _ = tiny_model
        sequences = [[1, 2, 3], [4], [5, 6], [7, 8, 9, 10], [11, 12], [13, 14, 15, 16],
                     [17, 18, 19, 0]]
        blocks = row_blocks(sequences, config)
        # 4 + 3 rows fit in the largest batch's 12; 7 + 12 do not
        assert [block.segments for block in blocks] == [((1, 1),), ((2, 2), (1, 3)), ((3, 4),)]
        ids = np.concatenate([ids.ravel() for _, ids in blocks[1].batches])
        assert [(i, part.tolist()) for i, part in blocks[1].split(ids)] == [
            (2, [5, 6]), (4, [11, 12]), (0, [1, 2, 3])]

    def test_empty_input(self, tiny_model):
        config, _ = tiny_model
        assert row_blocks([], config) == []
