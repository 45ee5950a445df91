import numpy as np
import numpy.testing as npt
import pytest

from asc.errors import ValidationError
from asc.heatmap import write_pgm
from asc.similarity import SimilarityMatrix


def symmetric(first_row) -> np.ndarray:
    """A matrix with unit diagonal whose row 0 (and column 0) is `first_row`,
    which starts with the diagonal 1.0, and zeros elsewhere."""
    values = np.eye(len(first_row))
    values[0, :] = values[:, 0] = first_row
    return values


def pixels(tmp_path, values) -> np.ndarray:
    """The pixels `write_pgm` writes for a matrix of `values`, after
    checking the header against its size."""
    path = tmp_path / "m.pgm"
    write_pgm(SimilarityMatrix(values, token_count=1), path)
    lines = path.read_text().splitlines()
    size = len(values)
    assert lines[:3] == ["P2", f"{size} {size}", "255"]
    return np.array([[int(p) for p in line.split(" ")] for line in lines[3:]])


class TestPixelValues:
    def test_endpoints_and_midpoint(self, tmp_path):
        npt.assert_array_equal(pixels(tmp_path, symmetric([1.0, -1.0, 0.0]))[0], [255, 0, 128])

    def test_midpoint_rounds_half_up(self, tmp_path):
        # (0 + 1) / 2 * 255 = 127.5 must become 128, not banker's 127
        assert pixels(tmp_path, symmetric([1.0, 0.0]))[0, 1] == 128

    def test_monotone(self, tmp_path):
        row = pixels(tmp_path, symmetric([1.0, *np.linspace(-1.0, 1.0, 101)]))[0, 1:]
        assert np.all(np.diff(row) >= 0)
        assert row.min() == 0 and row.max() == 255

    @pytest.mark.parametrize("value", [1.5, -1.0001, np.nan])
    def test_out_of_range_or_non_finite_rejected(self, tmp_path, value):
        path = tmp_path / "m.pgm"
        with pytest.raises(ValidationError):
            write_pgm(SimilarityMatrix(symmetric([1.0, value]), token_count=1), path)
        assert not path.exists()


class TestWritePgm:
    def test_all_ones_matrix(self, tmp_path):
        npt.assert_array_equal(pixels(tmp_path, np.ones((3, 3))), np.full((3, 3), 255))

    def test_pixel_layout_row_zero_on_top(self, tmp_path):
        values = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
        npt.assert_array_equal(pixels(tmp_path, values),
                               [[255, 0, 128], [0, 255, 191], [128, 191, 255]])
