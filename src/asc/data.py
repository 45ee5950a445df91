"""Token datasets: in-memory form and the plain-text file format.

Dataset files hold one sequence per line as token ids in ASCII decimal
digits, separated by ASCII whitespace; lines starting with ``#`` and blank
lines are ignored.
"""

import re
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError, is_int, require_type, shown
from .fileio import atomic_write, read_text
from .model import ModelConfig

# Token rows per forward batch: bounds the memory that one batch's
# activations take, however large the dataset.
MAX_BATCH_ROWS = 1024

# Ids are separated by ASCII whitespace only (`string.whitespace`); str.split()
# would also split on U+00A0, U+3000 and other non-ASCII spaces.
_ASCII_SPACE_RUN = re.compile(f"[{re.escape(string.whitespace)}]+")


@dataclass
class TokenDataset:
    """An ordered collection of token-id sequences."""

    sequences: list = field(default_factory=list)

    @property
    def total_tokens(self) -> int:
        return sum(len(seq) for seq in self.sequences)

    def __len__(self):
        return len(self.sequences)

    def validate(self):
        """What the file format holds: non-empty lists of Python ints >= 0."""
        if not isinstance(self.sequences, list):
            raise ValidationError(f"dataset: sequences must be a list, got {shown(self.sequences)}")
        for n, seq in enumerate(self.sequences):
            # every id an int, and only the largest needs the is_int bound
            if not (isinstance(seq, list) and seq and all(type(t) is int for t in seq)
                    and min(seq) >= 0 and is_int(max(seq))):
                raise ValidationError(
                    f"dataset: sequence {n} is not a non-empty list of ints >= 0: {shown(seq)}")


@dataclass(frozen=True)
class RowBlock:
    """Whole checked length batches: the forward pass's one input, run as one block of rows.

    `batches` are `(indices, ids)` pairs in ascending sequence length, one
    length segment each: `ids` is the (B, n) int64 array of
    `dataset.sequences[i]` for each `i` in `indices` (ascending). A block's
    states are (rows, d): each sequence's rows are consecutive, in segment
    order and then in each batch's index order.
    """

    batches: tuple

    @property
    def segments(self) -> tuple:
        """(B, n) of each length segment, in row order."""
        return tuple(ids.shape for _, ids in self.batches)

    def split(self, rows):
        """(dataset index, that sequence's part of `rows`) for each sequence, in row order."""
        lo = 0
        for indices, ids in self.batches:
            n = ids.shape[1]
            for i in indices:
                yield i, rows[lo: lo + n]
                lo += n


def row_blocks(dataset, config, *more_configs, workers=1) -> list:
    """The one batching rule: check a dataset, group its sequences by exact
    length into `(indices, ids)` batches, and pack them shortest length first
    into `RowBlock`s.

    The ids are checked before any array is built: the `TokenDataset`'s
    `validate()`, each config's type (`ModelConfig`) and `validate()`, then
    each length group's length and largest id against every config. A batch
    holds at most MAX_BATCH_ROWS tokens and at most ceil(tokens /
    `workers`), unless it is one sequence. Batches join a block while it
    holds no more token rows than the largest batch, so no block needs more
    memory than that batch; only attention needs equal lengths, so a block
    runs its token-wise work once over all rows. A length-1 sequence is a
    block alone: a one-row product is a BLAS matrix-vector call, whose
    rounding differs from the matrix-matrix call of a taller block, and each
    sequence must get exactly its own states.
    """
    require_type("dataset", dataset, TokenDataset).validate()
    configs = (config, *more_configs)
    for cfg in configs:
        require_type("config", cfg, ModelConfig).validate()
    sequences = dataset.sequences
    by_length = {}
    for i, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(i)
    for n, indices in by_length.items():
        top = max(max(sequences[i]) for i in indices)
        for cfg in configs:
            if n > cfg.max_seq_len:
                raise ValidationError(f"sequence length {n} exceeds max_seq_len {cfg.max_seq_len}")
            if top >= cfg.vocab_size:
                bad = next(t for i in indices for t in sequences[i] if t >= cfg.vocab_size)
                raise ValidationError(f"token id {bad} out of range [0, {cfg.vocab_size})")
    alone = [RowBlock((([i], np.array([sequences[i]], dtype=np.int64)),))
             for i in by_length.pop(1, [])]
    max_rows = min(MAX_BATCH_ROWS, -(-dataset.total_tokens // workers))
    batches = []
    for n in sorted(by_length):
        indices = by_length[n]
        ids = np.array([sequences[i] for i in indices], dtype=np.int64)
        step = max(1, max_rows // n)
        batches.extend((indices[lo: lo + step], ids[lo: lo + step])
                       for lo in range(0, len(indices), step))
    cap = max((ids.size for _, ids in batches), default=0)
    blocks, rows = [], 0
    for batch in batches:
        if blocks and rows + batch[1].size <= cap:
            blocks[-1].append(batch)
            rows += batch[1].size
        else:
            blocks.append([batch])
            rows = batch[1].size
    return alone + [RowBlock(tuple(block)) for block in blocks]


def load_dataset(path) -> TokenDataset:
    sequences = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        stripped = line.strip(string.whitespace)
        if not stripped or stripped.startswith("#"):
            continue
        fields = _ASCII_SPACE_RUN.split(stripped)
        for tok in fields:
            # ASCII digits only: int() would also read "1_0" and non-ASCII digits
            if not (tok.isascii() and tok.isdigit()):
                if tok[:1] == "-" and tok[1:].isascii() and tok[1:].isdigit():
                    raise FormatError(f"{path}:{lineno}: negative token id")
                raise FormatError(f"{path}:{lineno}: non-integer token id {tok!r}")
        try:
            sequences.append([int(tok) for tok in fields])
        except ValueError as exc:  # beyond the interpreter's digit limit
            raise FormatError(f"{path}:{lineno}: non-integer token id ({exc})") from exc
    return TokenDataset(sequences)


def save_dataset(dataset: TokenDataset, path):
    """Write one line per sequence, after refusing what `load_dataset` would read differently."""
    require_type("dataset", dataset, TokenDataset).validate()
    with atomic_write(path) as handle:
        for seq in dataset.sequences:
            handle.write(" ".join(str(t) for t in seq))
            handle.write("\n")
