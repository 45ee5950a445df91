"""Grayscale heatmap rendering of a similarity matrix.

Cell value v in [-1, 1] maps to the pixel round((v + 1) / 2 * 255) using
round-half-up, one pixel per cell, matrix row 0 at the top.
"""

import numpy as np

from .errors import ValidationError
from .fileio import atomic_write


def to_pixels(values: np.ndarray) -> np.ndarray:
    if np.any(values < -1.0) or np.any(values > 1.0) or not np.all(np.isfinite(values)):
        raise ValidationError("heatmap input must lie in [-1, 1]")
    # round-half-up, not banker's rounding: 0.0 maps to 128, not 127
    pixels = np.floor((values + 1.0) / 2.0 * 255.0 + 0.5).astype(np.int64)
    return pixels


def write_pgm(values: np.ndarray, path):
    """ASCII ("P2") PGM, one line of pixels per matrix row."""
    pixels = to_pixels(values)
    rows, cols = pixels.shape
    with atomic_write(path) as handle:
        handle.write("P2\n")
        handle.write(f"{cols} {rows}\n")
        handle.write("255\n")
        for row in pixels:
            handle.write(" ".join(str(int(p)) for p in row))
            handle.write("\n")
