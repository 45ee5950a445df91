"""Grayscale heatmap rendering of a similarity matrix.

Cell value v in [-1, 1] maps to the pixel round((v + 1) / 2 * 255) using
round-half-up, one pixel per cell, matrix row 0 at the top.
"""

import numpy as np

from .errors import require_type
from .fileio import atomic_write
from .similarity import SimilarityMatrix


def write_pgm(matrix: SimilarityMatrix, path):
    """ASCII ("P2") PGM, one line of pixels per matrix row, of a matrix that
    passes `SimilarityMatrix.validate`, which keeps every value in [-1, 1]."""
    require_type("matrix", matrix, SimilarityMatrix).validate()
    # round-half-up, not banker's rounding: 0.0 maps to 128, not 127
    pixels = np.floor((matrix.values + 1.0) / 2.0 * 255.0 + 0.5).astype(np.int64)
    with atomic_write(path) as handle:
        handle.write("P2\n")
        handle.write(f"{matrix.size} {matrix.size}\n")
        handle.write("255\n")
        for row in pixels:
            handle.write(" ".join(str(int(p)) for p in row))
            handle.write("\n")
