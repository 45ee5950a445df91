import numpy as np
import numpy.testing as npt
import pytest

from asc.errors import ValidationError
from asc.heatmap import to_pixels, write_pgm


class TestToPixels:
    def test_endpoints_and_midpoint(self):
        values = np.array([[-1.0, 0.0, 1.0]])
        npt.assert_array_equal(to_pixels(values), [[0, 128, 255]])

    def test_midpoint_rounds_half_up(self):
        # (0 + 1) / 2 * 255 = 127.5 must become 128, not banker's 127
        assert to_pixels(np.array([[0.0]]))[0, 0] == 128

    def test_monotone(self):
        values = np.linspace(-1.0, 1.0, 101)[None, :]
        pixels = to_pixels(values)[0]
        assert np.all(np.diff(pixels) >= 0)
        assert pixels.min() == 0 and pixels.max() == 255

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            to_pixels(np.array([[1.5]]))
        with pytest.raises(ValidationError):
            to_pixels(np.array([[-1.0001]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            to_pixels(np.array([[np.nan]]))


class TestWritePgm:
    def test_all_ones_matrix(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(np.ones((3, 3)), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 3"
        assert lines[2] == "255"
        for row in lines[3:]:
            assert row == "255 255 255"

    def test_pixel_layout_row_zero_on_top(self, tmp_path):
        values = np.array([[1.0, -1.0], [0.0, 1.0]])
        path = tmp_path / "m.pgm"
        write_pgm(values, path)
        lines = path.read_text().splitlines()
        assert lines[3] == "255 0"
        assert lines[4] == "128 255"
