"""Token datasets: in-memory form and the plain-text file format.

Dataset files hold one sequence per line as whitespace-separated token ids
in ASCII decimal digits; lines starting with ``#`` and blank lines are
ignored.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .fileio import atomic_write, read_text

# Token rows per forward batch: bounds the memory that one batch's
# activations take, however large the dataset.
MAX_BATCH_ROWS = 1024


@dataclass
class TokenDataset:
    """An ordered collection of token-id sequences."""

    sequences: list = field(default_factory=list)

    @property
    def total_tokens(self) -> int:
        return sum(len(seq) for seq in self.sequences)

    def __len__(self):
        return len(self.sequences)

    def map_shards(self, fn, workers: int) -> list:
        """`fn(shard)` for each round-robin shard, in shard order.

        There are `workers` shards, or one per sequence if there are fewer
        sequences. Shards run on a thread pool, or inline when there is one.
        """
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        workers = min(workers, max(1, len(self.sequences)))
        shards = [self.sequences[w::workers] for w in range(workers)]
        if workers == 1:
            return [fn(shards[0])]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, shards))


def validate_sequence(config, tokens):
    """Check one sequence against a model: non-empty, in-vocab, within max length."""
    if len(tokens) == 0:
        raise ValidationError("sequence is empty")
    if len(tokens) > config.max_seq_len:
        raise ValidationError(
            f"sequence length {len(tokens)} exceeds max_seq_len {config.max_seq_len}"
        )
    for t in tokens:
        if not 0 <= t < config.vocab_size:
            raise ValidationError(
                f"token id {t} out of range [0, {config.vocab_size})"
            )


def length_batches(sequences, *configs) -> list:
    """Group `sequences` by exact length into `(indices, ids)` batches.

    Each sequence is checked once against every config. `ids` is the (B, n)
    int64 array of `sequences[i]` for each `i` in `indices` (ascending); a
    batch holds at most MAX_BATCH_ROWS tokens unless it is one sequence.
    Length-1 sequences run alone: a one-row product is a BLAS matrix-vector
    call, whose rounding differs from the matrix-matrix call of a taller
    batch, and a batch must give each sequence exactly its own states.
    """
    by_length = {}
    for i, seq in enumerate(sequences):
        for config in configs:
            validate_sequence(config, seq)
        by_length.setdefault(len(seq), []).append(i)
    batches = []
    for n, indices in by_length.items():
        step = 1 if n == 1 else max(1, MAX_BATCH_ROWS // n)
        for lo in range(0, len(indices), step):
            chunk = indices[lo: lo + step]
            batches.append((chunk, np.array([sequences[i] for i in chunk], dtype=np.int64)))
    return batches


def load_dataset(path) -> TokenDataset:
    sequences = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
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
    with atomic_write(path) as handle:
        for seq in dataset.sequences:
            handle.write(" ".join(str(t) for t in seq))
            handle.write("\n")
