import numpy as np
import pytest

from fdbridge.errors import ConfigError
from fdbridge.metrics import psnr, ssim
from fdbridge.fileio import read_cimg
from fdbridge.phantoms import PhantomSpec, dataset_ids, generate_dataset, make_phantom, save_dataset

from conftest import rand_image


class TestMakePhantom:
    def test_seed_reproducibility(self):
        a = make_phantom(PhantomSpec(48, 48, seed=7))
        b = make_phantom(PhantomSpec(48, 48, seed=7))
        assert np.array_equal(a, b)

    def test_magnitudes_in_unit_interval(self):
        for seed in range(8):
            mag = np.abs(make_phantom(PhantomSpec(32, 32, seed=seed)))
            assert mag.min() >= 0.0 and mag.max() <= 1.0 + 1e-12

    def test_genuinely_complex(self):
        img = make_phantom(PhantomSpec(32, 32, seed=3))
        assert np.max(np.abs(img.imag)) > 1e-3

    def test_presets_share_geometry_differ_in_intensity(self):
        a = make_phantom(PhantomSpec(48, 48, contrast="t1_like", seed=11))
        b = make_phantom(PhantomSpec(48, 48, contrast="t2_like", seed=11))
        both = (np.abs(a) > 1e-9) & (np.abs(b) > 1e-9)
        assert both.sum() > 100
        # identical low-order phase on the common support, different magnitudes
        assert np.allclose(np.angle(a)[both], np.angle(b)[both], atol=1e-12)
        assert not np.allclose(np.abs(a)[both], np.abs(b)[both])

    def test_small_dims_rejected(self):
        with pytest.raises(ConfigError):
            PhantomSpec(16, 16, seed=0)

    def test_dataset_round_trip(self, tmp_path):
        images = generate_dataset(3, 32, 32, "pd_like", seed=5)
        save_dataset(tmp_path, images, "pd_like", seed=5)
        loaded = [read_cimg(tmp_path / "images" / name) for name in dataset_ids(tmp_path)]
        assert len(loaded) == 3
        assert all(np.array_equal(x, y) for x, y in zip(images, loaded))


class TestPsnr:
    def test_quoted_constant_images(self):
        # constant 0.5 but for one pixel at the peak, 1: 20 log10(1 / 0.1) = 20 dB
        ref = np.full((32, 32), 0.5, dtype=complex)
        ref[0, 0] = 1.0
        test = ref + 0.1
        assert psnr(ref, test) == pytest.approx(20.0, abs=1e-9)

    def test_identical_images_inf(self):
        x = rand_image(16, 16, seed=0)
        assert psnr(x, x) == float("inf")

    def test_scale_invariance_with_tied_peak(self):
        ref = np.abs(rand_image(16, 16, seed=1))
        test = np.abs(rand_image(16, 16, seed=2))
        a = psnr(ref, test)
        b = psnr(2 * ref, 2 * test)
        assert a == pytest.approx(b, abs=1e-9)

    def test_monotone_in_noise_level(self):
        ref = make_phantom(PhantomSpec(32, 32, seed=4))
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        values = [psnr(ref, ref + s * noise) for s in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_identical_images_one(self):
        x = make_phantom(PhantomSpec(32, 32, seed=5))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_noisy_score_pinned_below_half(self):
        # frozen fixture: heavy uniform noise on the standard phantom
        ref = make_phantom(PhantomSpec(64, 64, seed=6))
        rng = np.random.default_rng(99)
        noisy = ref + rng.uniform(-0.8, 0.8, (64, 64)) + 1j * rng.uniform(-0.8, 0.8, (64, 64))
        value = ssim(ref, noisy)
        assert value < 0.5
        assert value == pytest.approx(0.10836944523307597, abs=1e-9)

    def test_symmetry_with_fixed_dynamic_range(self):
        # the dynamic range is the reference's maximum, so a shared one fixes it at 1.5 both ways
        a = np.abs(rand_image(24, 24, seed=7))
        b = np.abs(rand_image(24, 24, seed=8))
        a, b = a / a.max() * 1.5, b / b.max() * 1.5
        assert a.max() == b.max() == 1.5
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_never_exceeds_one(self):
        for seed in range(6):
            a = np.abs(rand_image(20, 20, seed=seed))
            b = np.abs(rand_image(20, 20, seed=seed + 100))
            assert ssim(a, b) <= 1.0

    def test_window_shrinks_on_small_images(self):
        a = np.abs(rand_image(8, 8, seed=9))
        assert ssim(a, a) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))
