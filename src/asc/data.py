"""Token datasets: in-memory form and the plain-text file format.

Dataset files hold one sequence per line as token ids in ASCII decimal
digits, separated by ASCII whitespace; lines starting with ``#`` and blank
lines are ignored.
"""

import itertools
import os
import re
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError, is_int, shown
from .fileio import atomic_write, read_text

# Token rows per forward batch: bounds the memory that one batch's
# activations take, however large the dataset.
MAX_BATCH_ROWS = 1024

# Ids are separated by ASCII whitespace only (`string.whitespace`); str.split()
# would also split on U+00A0, U+3000 and other non-ASCII spaces.
_ASCII_SPACE_RUN = re.compile(f"[{re.escape(string.whitespace)}]+")

_BOOL_TYPES = {bool, np.bool_}


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


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def validate_sequence(config, tokens) -> np.ndarray:
    """Check token ids of shape (..., n) against a model; return them as int64.

    `tokens` is one sequence (a list or array) or a batch of equal-length
    ones. Each sequence must be non-empty and at most max_seq_len long, and
    every id an integer in [0, vocab_size): float, bool and other non-integer
    ids are refused, never cast.
    """
    try:
        ids = np.asarray(tokens)
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"token ids must form an array of shape (..., n) ({exc})") from exc
    if ids.ndim == 0:
        raise ValidationError("token ids must form an array of shape (..., n)")
    n = ids.shape[-1]
    if n == 0:
        raise ValidationError("sequence is empty")
    if n > config.max_seq_len:
        raise ValidationError(f"sequence length {n} exceeds max_seq_len {config.max_seq_len}")
    if ids.dtype.kind not in "iu":
        # numpy stores a list holding an int beyond 64 bits as float64 or
        # object, so look at the ids themselves
        ids = np.asarray(tokens, dtype=object)
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                   for t in ids.flat):
            raise ValidationError("token ids must be integers")
    elif not isinstance(tokens, np.ndarray) and _holds_bool(tokens, ids.ndim):
        # numpy stores bools mixed with ints as ints
        raise ValidationError("token ids must be integers")
    bad = (ids < 0) | (ids >= config.vocab_size)
    if bad.any():
        raise ValidationError(f"token id {ids[bad][0]} out of range [0, {config.vocab_size})")
    return ids.astype(np.int64, copy=False)


def _holds_bool(tokens, ndim: int) -> bool:
    """Whether nested sequences `ndim` deep hold a bool anywhere."""
    items = tokens
    for _ in range(ndim - 1):
        items = itertools.chain.from_iterable(items)
    return not _BOOL_TYPES.isdisjoint(map(type, items))


def length_batches(sequences, config, *more_configs, max_rows=MAX_BATCH_ROWS) -> list:
    """Group `sequences` by exact length into `(indices, ids)` batches.

    Each length group is checked against every config before anything is
    returned. `ids` is the (B, n) int64 array of `sequences[i]` for each `i`
    in `indices` (ascending); a batch holds at most `max_rows` tokens
    unless it is one sequence.
    Length-1 sequences run alone: a one-row product is a BLAS matrix-vector
    call, whose rounding differs from the matrix-matrix call of a taller
    batch, and a batch must give each sequence exactly its own states.
    """
    by_length = {}
    for i, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(i)
    batches = []
    for n, indices in by_length.items():
        ids = validate_sequence(config, [sequences[i] for i in indices])
        for other in more_configs:
            validate_sequence(other, ids)
        step = 1 if n == 1 else max(1, max_rows // n)
        batches.extend((indices[lo: lo + step], ids[lo: lo + step])
                       for lo in range(0, len(indices), step))
    return batches


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
    dataset.validate()
    with atomic_write(path) as handle:
        for seq in dataset.sequences:
            handle.write(" ".join(str(t) for t in seq))
            handle.write("\n")
