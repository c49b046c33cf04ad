import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdbridge.grid import as_image, dft2, idft2, radius_map

from conftest import rand_image


class TestUnitaryDft:
    def test_constant_image_is_scaled_delta(self):
        spec = dft2(np.ones((2, 2), dtype=complex))
        assert spec[1, 1] == pytest.approx(2.0)
        off_dc = np.abs(spec).sum() - np.abs(spec[1, 1])
        assert off_dc == pytest.approx(0.0, abs=1e-14)

    def test_round_trip_identity(self):
        x = rand_image(8, 8, seed=0)
        back = idft2(dft2(x))
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    def test_parseval(self):
        x = rand_image(16, 16, seed=1)
        e_img = np.sum(np.abs(x) ** 2)
        e_spec = np.sum(np.abs(dft2(x)) ** 2)
        assert abs(e_img - e_spec) <= 1e-10 * e_img

    def test_zero_sized_image_rejected(self):
        with pytest.raises(ValueError):
            dft2(np.zeros((0, 4), dtype=complex))

    def test_non_finite_rejected(self):
        bad = np.ones((4, 4), dtype=complex)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            as_image(bad)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        h=st.integers(2, 24),
        w=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parseval_and_round_trip_property(self, h, w, seed):
        x = rand_image(h, w, seed)
        spec = dft2(x)
        e_img = np.sum(np.abs(x) ** 2)
        assert abs(np.sum(np.abs(spec) ** 2) - e_img) <= 1e-10 * e_img
        assert np.linalg.norm(idft2(spec) - x) <= 1e-12 * np.linalg.norm(x)


class TestRadiusMap:
    def test_dc_at_center(self):
        grid = radius_map(4, 4)
        assert grid.radius[2, 2] == 0.0

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError):
            radius_map(1, 4)
