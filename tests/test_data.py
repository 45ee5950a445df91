import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asc import data
from asc.data import (
    MAX_BATCH_ROWS,
    TokenDataset,
    row_blocks,
    load_dataset,
    save_dataset,
)
from asc.errors import FormatError, ValidationError
from conftest import make_model


def batches(blocks) -> list:
    """Every block's `(indices, ids)` batches, flattened in row order."""
    return [batch for block in blocks for batch in block.batches]


def dataset_rule(k: int) -> str:
    """The start of `TokenDataset.validate`'s message for sequence `k`."""
    return rf"^dataset: sequence {k} is not a non-empty list of ints >= 0: "


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


class TestIdChecks:
    """`row_blocks` checks a dataset before any array is built:
    `TokenDataset.validate`, then each length group's length and largest id
    against every config."""

    @pytest.mark.parametrize("sequences, message", [
        ([[-1, 2]], dataset_rule(0)),
        ([[3, 4], [5, -2]], dataset_rule(1)),
        ([[1.7, 2.2]], dataset_rule(0)),
        ([[1.0, 2.0]], dataset_rule(0)),
        ([[True, False]], dataset_rule(0)),
        ([[3, 20]], r"^token id 20 out of range \[0, 20\)$"),
        ([[3, 4], [25, 0]], r"^token id 25 out of range \[0, 20\)$"),
        ([[21, 25], [3, 4]], r"^token id 21 out of range \[0, 20\)$"),
        ([[2**63]], r"^token id 9223372036854775808 out of range \[0, 20\)$"),
        ([[1, 10**20]], r"^token id 100000000000000000000 out of range \[0, 20\)$"),
        ([[1, 10**4300]], dataset_rule(0) + "<a value holding an int beyond 4300 digits>$"),
        ([[], [], []], dataset_rule(0)),
        ([[]], dataset_rule(0)),
        ([[0] * 17, [0] * 17], "^sequence length 17 exceeds max_seq_len 16$"),
    ], ids=["negative", "negative-batch", "float", "float-batch", "bool", "vocab",
            "vocab-batch", "first-of-two", "2**63", "10**20", "4301-digits", "batch-of-empty", "empty",
            "too-long"])
    def test_refused(self, sequences, message):
        config, _ = make_model(vocab_size=20, max_seq_len=16)
        with pytest.raises(ValidationError, match=message):
            row_blocks(TokenDataset(sequences), config)

    def test_in_range_passes(self, tiny_model):
        config, _ = tiny_model
        assert len(row_blocks(TokenDataset([[0, config.vocab_size - 1]]), config)) == 1

    def test_returns_int64_ids(self, tiny_model):
        config, _ = tiny_model
        ((indices, ids),) = batches(row_blocks(TokenDataset([[1, 2], [3, 4]]), config))
        assert indices == [0, 1] and ids.dtype == np.int64 and ids.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("sequences, message", [
        ([[1, 2**63]], r"token id 9223372036854775808 out of range \[0, 20\)"),
        ([[2**64]], r"token id 18446744073709551616 out of range \[0, 20\)"),
        ([[-1, 2**63]], dataset_rule(0)),
        ([[3, 10**20]], r"token id 100000000000000000000 out of range \[0, 20\)"),
        ([[1, 2], [3, 10**20]], r"token id 100000000000000000000 out of range \[0, 20\)"),
    ])
    def test_ids_beyond_64_bits_read_out_of_range(self, sequences, message):
        config, _ = make_model(vocab_size=20)
        with pytest.raises(ValidationError, match=message):
            row_blocks(TokenDataset(sequences), config)

    LOOP_CONFIG = make_model(vocab_size=20, max_seq_len=16)[0]

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(st.lists(st.one_of(st.integers(0, 19), st.integers(-2**70, 2**70)), max_size=18))
    def test_matches_per_token_loop(self, tokens):
        """The checks refuse what a per-token loop refuses, with the same
        message, and pass the rest through unchanged."""
        config = self.LOOP_CONFIG
        if not tokens or min(tokens) < 0:
            expected = f"dataset: sequence 0 is not a non-empty list of ints >= 0: {tokens!r}"
        elif len(tokens) > 16:
            expected = f"sequence length {len(tokens)} exceeds max_seq_len 16"
        else:
            bad = [t for t in tokens if t >= 20]
            expected = f"token id {bad[0]} out of range [0, 20)" if bad else None
        if expected is None:
            ((_, ids),) = batches(row_blocks(TokenDataset([tokens]), config))
            assert ids.tolist() == [tokens]
        else:
            with pytest.raises(ValidationError) as exc:
                row_blocks(TokenDataset([tokens]), config)
            assert str(exc.value) == expected

    @pytest.mark.parametrize("sequences, k", [([[1.0, 2.0]], 0), ([[True]], 0), ([["1"]], 0),
                                              ([[None, 1]], 0), ([[True, 1]], 0),
                                              ([[1, 2], [3, False]], 1),
                                              ([np.array([1, 2]), [True, 0]], 0)])
    def test_non_integer_ids_rejected(self, tiny_model, sequences, k):
        config, _ = tiny_model
        with pytest.raises(ValidationError, match=dataset_rule(k)):
            row_blocks(TokenDataset(sequences), config)

    @pytest.mark.parametrize("sequences", [[[[1, 2], [3]]], [5], [(1, 2)], [[np.int64(1)]]])
    def test_not_a_list_of_ints_rejected(self, tiny_model, sequences):
        config, _ = tiny_model
        with pytest.raises(ValidationError, match=dataset_rule(0)):
            row_blocks(TokenDataset(sequences), config)

    @pytest.mark.parametrize("sequences", [None, ([1, 2],), np.array([[1, 2]])], ids=repr)
    def test_sequences_not_a_list_rejected(self, tiny_model, sequences):
        config, _ = tiny_model
        with pytest.raises(ValidationError, match="^dataset: sequences must be a list, got "):
            row_blocks(TokenDataset(sequences), config)


class TestLengthBatches:
    """The `(indices, ids)` batches that `row_blocks` packs into blocks."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_sequence_once_in_a_one_length_batch(self, seed):
        config, _ = make_model(vocab_size=20, max_seq_len=16)
        rng = np.random.default_rng(seed)
        sequences = [rng.integers(0, 20, size=int(rng.integers(1, 17))).tolist()
                     for _ in range(60)]
        flat = batches(row_blocks(TokenDataset(sequences), config))
        seen = [i for indices, _ in flat for i in indices]
        assert sorted(seen) == list(range(len(sequences)))
        for indices, ids in flat:
            assert ids.dtype == np.int64
            assert ids.shape == (len(indices), len(sequences[indices[0]]))
            assert indices == sorted(indices)
            for i, row in zip(indices, ids):
                assert row.tolist() == sequences[i]

    def test_row_cap(self, monkeypatch):
        config, _ = make_model(vocab_size=20, max_seq_len=2 * MAX_BATCH_ROWS)
        rng = np.random.default_rng(9)
        lengths = np.concatenate([
            rng.integers(2, 40, 300), [100] * 25, [300] * 5,
            [MAX_BATCH_ROWS - 1, MAX_BATCH_ROWS, MAX_BATCH_ROWS + 1, 2 * MAX_BATCH_ROWS] * 2,
        ])
        sequences = [[0] * int(n) for n in lengths]
        for cap, of_100, of_300 in [
            (MAX_BATCH_ROWS, [10, 10, 5], [3, 2]),
            (256, [2] * 12 + [1], [1] * 5),
        ]:
            monkeypatch.setattr(data, "MAX_BATCH_ROWS", cap)
            chunks = {}
            for indices, ids in batches(row_blocks(TokenDataset(sequences), config)):
                assert ids.size <= cap or len(indices) == 1
                chunks.setdefault(ids.shape[1], []).append(len(indices))
            assert chunks[100] == of_100 and chunks[300] == of_300
            for n, sizes in chunks.items():
                # every batch but a length's last one is as full as the cap allows
                assert all(size == max(1, cap // n) for size in sizes[:-1])

    def test_worker_share_caps_batches(self, monkeypatch):
        """With `workers` W, a batch holds at most ceil(tokens / W) tokens, and
        at most MAX_BATCH_ROWS."""
        config, _ = make_model(vocab_size=20)
        dataset = TokenDataset([[1, 2]] * 5 + [[3, 4, 5]] * 2)  # 16 tokens
        for cap, workers, shapes in [(MAX_BATCH_ROWS, 1, [(5, 2), (2, 3)]),
                                     (MAX_BATCH_ROWS, 2, [(4, 2), (1, 2), (2, 3)]),
                                     (4, 2, [(2, 2), (2, 2), (1, 2), (1, 3), (1, 3)])]:
            monkeypatch.setattr(data, "MAX_BATCH_ROWS", cap)
            flat = batches(row_blocks(dataset, config, workers=workers))
            assert [ids.shape for _, ids in flat] == shapes

    def test_length_one_sequences_run_alone(self):
        config, _ = make_model(vocab_size=20)
        flat = batches(row_blocks(TokenDataset([[3], [4], [5, 6], [7, 8]]), config))
        assert [indices for indices, _ in flat] == [[0], [1], [2, 3]]

    @pytest.mark.parametrize("bad, message", [
        ([], dataset_rule(1)),
        ([0] * 17, "max_seq_len"),
        ([1, 20], "out of range"),
    ])
    def test_invalid_sequence_rejected(self, bad, message):
        config, _ = make_model(vocab_size=20, max_seq_len=16)
        with pytest.raises(ValidationError, match=message):
            row_blocks(TokenDataset([[1, 2], bad, [3]]), config)

    @pytest.mark.parametrize("sequences, message", [
        ([[9, 9]], None),
        ([[9, 15]], r"^token id 15 out of range \[0, 10\)$"),
        ([[1] * 10, [2] * 12], "^sequence length 12 exceeds max_seq_len 11$"),
        # each group against the first config, then the next: 25 is the first
        # config's refusal although 15 comes first
        ([[9, 15, 25]], r"^token id 25 out of range \[0, 20\)$"),
    ])
    def test_checked_against_every_config(self, sequences, message):
        wide, _ = make_model(vocab_size=20, max_seq_len=16)
        narrow, _ = make_model(vocab_size=10, max_seq_len=11)
        if message is None:
            assert len(batches(row_blocks(TokenDataset(sequences), wide, narrow))) == 1
        else:
            with pytest.raises(ValidationError, match=message):
                row_blocks(TokenDataset(sequences), wide, narrow)

    def test_refused_before_any_array_is_built(self, monkeypatch):
        """A bad id in the last length group stops the build before the first
        group's array exists."""
        config, _ = make_model(vocab_size=20)
        built = []
        monkeypatch.setattr(np, "array", lambda *args, **kwargs: built.append(args))
        with pytest.raises(ValidationError, match=r"token id 20 out of range"):
            row_blocks(TokenDataset([[1, 2], [3, 4, 5], [6, 20]]), config)
        assert built == []


class TestRowBlocks:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_rows", [MAX_BATCH_ROWS, 64, 8])
    def test_packing_invariants(self, monkeypatch, seed, max_rows):
        monkeypatch.setattr(data, "MAX_BATCH_ROWS", max_rows)
        config, _ = make_model(vocab_size=20, max_seq_len=40)
        rng = np.random.default_rng(seed)
        sequences = [rng.integers(0, 20, size=int(rng.integers(1, 41))).tolist()
                     for _ in range(150)]
        # the batch rule, spelled out: each length's indices in order, in
        # runs of max_rows // n sequences (length 1: one sequence a batch)
        expected = []
        for n in sorted({len(seq) for seq in sequences}):
            indices = [i for i, seq in enumerate(sequences) if len(seq) == n]
            step = 1 if n == 1 else max(1, max_rows // n)
            expected += [(indices[lo: lo + step], [sequences[i] for i in indices[lo: lo + step]])
                         for lo in range(0, len(indices), step)]
        largest = max(len(rows) * len(rows[0]) for _, rows in expected)
        blocks = row_blocks(TokenDataset(sequences), config)
        assert any(len(block.batches) > 1 for block in blocks)
        # each sequence once, in whole length batches
        assert [(indices, ids.tolist()) for indices, ids in batches(blocks)] == expected
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
        blocks = row_blocks(TokenDataset(sequences), config)
        # 4 + 3 rows fit in the largest batch's 12; 7 + 12 do not
        assert [block.segments for block in blocks] == [((1, 1),), ((2, 2), (1, 3)), ((3, 4),)]
        ids = np.concatenate([ids.ravel() for _, ids in blocks[1].batches])
        assert [(i, part.tolist()) for i, part in blocks[1].split(ids)] == [
            (2, [5, 6]), (4, [11, 12]), (0, [1, 2, 3])]

    def test_empty_input(self, tiny_model):
        config, _ = tiny_model
        assert row_blocks(TokenDataset([]), config) == []
