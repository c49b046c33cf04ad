import multiprocessing
import tracemalloc

import numpy as np
import pytest

from fdbridge import parallel
from fdbridge.degradation import AveragingProcess, ProcessConfig, corrupt, sample_trajectory
from fdbridge.errors import ConfigError, TrainingError
from fdbridge.fileio import read_csv
from fdbridge.grid import as_image, radius_map
from fdbridge.phantoms import PhantomSpec, make_phantom
from fdbridge.recovery import (
    LOSS_MODES,
    OracleRecovery,
    TinyRegressor,
    TrainConfig,
    ZeroFillRecovery,
    _conv_layer,
    _flipped,
    _interior,
    _leaky_slope,
    _loss_residual,
    _rows,
    _stacked,
    _weight_grad,
    load_checkpoint,
    save_checkpoint,
    save_loss_trace,
    time_features,
    train,
)
from fdbridge.rng import substream
from fdbridge.sampler import ddpm_schedule

from conftest import _Unpicklable, die, edit_checkpoint_architecture, needs_workers, raising, rand_image, with_header
from draw_oracle import draw_corrupted, step_draw
from gradcheck import grad_check


def bridge_loss(operator, images, trajectories, steps, mode: str = "upper_bound") -> float:
    """Monte-Carlo recovery loss over (image, trajectory, step) draws, through training's residual.

    weighted: mean of ||C_t (G(x_t, t) - x_0)||^2; upper_bound drops the
    corruption operator and upper-bounds the weighted form pathwise.
    """
    if mode not in LOSS_MODES:
        raise ConfigError(f"loss mode must be one of {LOSS_MODES}, got {mode!r}")
    images = list(images)
    if not images:
        raise ValueError("empty batch")
    total = 0.0
    for x0, traj, t in zip(images, trajectories, steps):
        x0 = as_image(x0)
        x_t = corrupt(x0, traj, t)
        _, energy = _loss_residual(operator.recover(x_t, t), x0, traj, t, mode)
        total += energy
    return total / len(images)


class ZeroMapRecovery:
    def recover(self, x_t, t):
        return np.zeros_like(x_t)


def _toy_setup(count=4, dims=32, t_f=8, seed=0):
    images = [make_phantom(PhantomSpec(dims, dims, seed=seed + i)) for i in range(count)]
    grid = radius_map(dims, dims)
    cfg = ProcessConfig(r_prime=2.0, t_f=t_f, seed=seed)
    trajs = [sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=t_f, seed=seed + 50 + i))
             for i in range(count)]
    steps = [1 + (i * 3) % t_f for i in range(count)]
    return images, cfg, trajs, steps


class TestOracleAndZeroFill:
    def test_oracle_returns_truth(self):
        truth = rand_image(16, 16, seed=0)
        op = OracleRecovery(truth)
        for t in (1, 5, 9):
            out = op.recover(rand_image(16, 16, seed=t), t)
            assert np.array_equal(out, truth)

    def test_oracle_shape_mismatch(self):
        op = OracleRecovery(rand_image(16, 16, seed=1))
        with pytest.raises(ValueError):
            op.recover(rand_image(16, 8, seed=2), 1)

    def test_zero_fill_passthrough(self):
        x = rand_image(16, 16, seed=3)
        assert np.array_equal(ZeroFillRecovery().recover(x, 4), x)


class TestBridgeLoss:
    def test_oracle_gives_zero_loss_both_modes(self):
        images, _, trajs, steps = _toy_setup()
        for x0 in images:
            op = OracleRecovery(x0)
            assert bridge_loss(op, [x0], trajs[:1], steps[:1], "weighted") == 0.0
            assert bridge_loss(op, [x0], trajs[:1], steps[:1], "upper_bound") == 0.0

    def test_weighted_below_upper_bound_pathwise(self):
        images, _, trajs, steps = _toy_setup()
        op = ZeroFillRecovery()
        w = bridge_loss(op, images, trajs, steps, "weighted")
        u = bridge_loss(op, images, trajs, steps, "upper_bound")
        assert w <= u * (1 + 1e-12)

    def test_weighted_residual_is_the_corrupted_plain_residual(self):
        # C_t applied to G - x_0 = -x_0: a mid-trajectory keep set drops part of its energy
        images, _, trajs, _ = _toy_setup()
        x0, traj, t = images[0], trajs[0], 4
        estimate = ZeroMapRecovery().recover(corrupt(x0, traj, t), t)
        plain, plain_energy = _loss_residual(estimate, x0, traj, t, "upper_bound")
        weighted, weighted_energy = _loss_residual(estimate, x0, traj, t, "weighted")
        assert np.array_equal(plain, estimate - x0)
        assert np.array_equal(weighted, corrupt(plain, traj, t))
        assert 0.0 < weighted_energy < plain_energy

    def test_zero_map_upper_bound_is_mean_energy(self):
        images, _, trajs, steps = _toy_setup()
        expected = float(np.mean([np.sum(np.abs(x) ** 2) for x in images]))
        got = bridge_loss(ZeroMapRecovery(), images, trajs, steps, "upper_bound")
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            bridge_loss(ZeroFillRecovery(), [], [], [], "upper_bound")


class TestTimeFeatures:
    def test_dimension_and_range(self):
        feat = time_features(7, 64)
        assert feat.shape == (8,)
        assert np.all(np.abs(feat) <= 1.0)

    def test_distinct_steps_distinct_features(self):
        assert not np.allclose(time_features(3, 64), time_features(50, 64))


class TestTinyRegressor:
    def test_parameter_count_fixed_by_architecture(self):
        model = TinyRegressor(t_f=64, seed=0)
        # conv stacks 2->16->16->2 with 3x3 kernels, biases, and the 16x8 time projection
        expected = (16 * 2 * 9 + 16) + 16 * 8 + (16 * 16 * 9 + 16) + (2 * 16 * 9 + 2)
        assert model.flat_params().size == expected

    def test_shape_preserving_and_deterministic(self):
        model = TinyRegressor(t_f=32, seed=1)
        x = rand_image(24, 40, seed=2)
        a = model.recover(x, 5)
        b = model.recover(x, 5)
        assert a.shape == x.shape
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_init_determinism(self):
        a = TinyRegressor(t_f=16, seed=3).flat_params()
        b = TinyRegressor(t_f=16, seed=3).flat_params()
        assert np.array_equal(a, b)

    def test_workspace_bounds_training_memory(self):
        # three stacked layer inputs (2, 16, 16 channels) and the 2-channel output buffer:
        # 108 rows of 66 * 66 + 2 float64 values, 3,765,312 bytes at 64^2
        model = TinyRegressor(t_f=64, seed=4)
        x = rand_image(64, 64, seed=5)
        dout = x.imag + 1j * x.real
        _, cache = model.forward(x, 3)
        ws = cache.fresh_workspace()
        assert ws is model._workspace and ws.dtype == np.float64
        assert sum(b.nbytes for b in (*ws.x, ws.out)) <= 3_800_000
        assert cache.feat.nbytes == 64  # the cache's only array of its own: 8 time features
        model.backward(cache, dout)
        # a later sample reuses the workspace: its forward and backward together hold under 1 MB
        # of new arrays at once, where a copy of the layer inputs alone is about 1.2 MB
        tracemalloc.start()
        try:
            _, cache = model.forward(x, 3)
            model.backward(cache, dout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model._workspace is ws
        assert peak <= 1_000_000


def _conv_reference(x, w):
    """Direct 9-tap loop over the 2-D zero-padded input, no flat offsets."""
    cin, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((w.shape[0], h, wd))
    for dy in range(3):
        for dx in range(3):
            out += np.einsum("oc,chw->ohw", w[:, :, dy, dx], xp[:, dy : dy + h, dx : dx + wd])
    return out


def _conv_grads_reference(x, w, dout):
    """(dL/dx, dL/dw) of the reference conv: scatter each tap back, no flipped kernel."""
    cin, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for dy in range(3):
        for dx in range(3):
            dw[:, :, dy, dx] = np.einsum("ohw,chw->oc", dout, xp[:, dy : dy + h, dx : dx + wd])
            dxp[:, dy : dy + h, dx : dx + wd] += np.einsum("oc,ohw->chw", w[:, :, dy, dx], dout)
    return dxp[:, 1:-1, 1:-1], dw


def _border_impulses(c, h, wd):
    """One unit impulse per (channel-cycled) border pixel: the four corners and every edge pixel."""
    border = [(i, j) for i in range(h) for j in range(wd) if i in (0, h - 1) or j in (0, wd - 1)]
    for k, (i, j) in enumerate(border):
        x = np.zeros((c, h, wd))
        x[k % c, i, j] = 1.0
        yield x


def _conv3x3(x, w, b, dtype=np.float64):
    """3x3 zero-padded cross-correlation of (C, H, W) ``x`` through ``_conv_layer`` in ``dtype``, every operand cast to it.

    Returns (out, stacked input).
    """
    cin, h, wd = x.shape
    xs = _stacked(cin, h, wd, dtype)
    _interior(xs, h, wd)[...] = x
    out = np.empty((w.shape[0], h * (wd + 2)), dtype=dtype)
    biases = () if b is None else (b.astype(dtype),)
    _conv_layer(xs, _rows(w.astype(dtype)), biases, out, np.empty_like(out), wd, rectify=False)
    return np.ascontiguousarray(out.reshape(w.shape[0], h, wd + 2)[:, :, :wd]), xs


def _conv3x3_weight_grad(dout, xs):
    """dL/dw given dL/d(out) as (C_out, H, W) and the stacked input ``_conv3x3`` returned."""
    cout, h, wd = dout.shape
    d = np.zeros((cout, h, wd + 2))  # the uncropped layout; the wrapped columns get no gradient
    d[:, :, :wd] = dout
    return _weight_grad(d.reshape(cout, -1), xs, wd)


def _conv3x3_input_grad(dout, w):
    return _conv3x3(dout, _flipped(w), None)[0]


class TestConv3x3:
    """The stacked three-row conv against a direct loop.

    Impulses on the border catch a tap that wraps from the end of one row
    into the start of the next in the flattened layout.  The 1x1, 1x6, 6x1
    and 2x2 grids are so small that the shifted blocks' tails and the
    last kernel row's view reach the end of the buffer.
    """

    SHAPES = [(5, 7), (1, 1), (1, 6), (6, 1), (2, 2)]
    TOL = 1e-12

    @staticmethod
    def _cases(cin, cout, h, wd):
        rng = np.random.default_rng(cin * 100 + cout)
        w = rng.standard_normal((cout, cin, 3, 3))
        inputs = list(_border_impulses(cin, h, wd)) + [rng.standard_normal((cin, h, wd))]
        grads = list(_border_impulses(cout, h, wd)) + [rng.standard_normal((cout, h, wd))]
        return w, inputs, grads

    def _close(self, got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= self.TOL * max(np.max(np.abs(ref)), 1.0)

    @pytest.mark.parametrize("cin,cout", [(2, 16), (16, 16), (16, 2)])
    def test_forward_matches_direct_loop(self, cin, cout):
        b = np.arange(cout, dtype=float)
        for shape in self.SHAPES:
            w, inputs, _ = self._cases(cin, cout, *shape)
            for x in inputs:
                out, _ = _conv3x3(x, w, b)
                self._close(out, _conv_reference(x, w) + b[:, None, None])

    @pytest.mark.parametrize("cin,cout", [(2, 16), (16, 16), (16, 2)])
    def test_gradients_match_direct_loop(self, cin, cout):
        for shape in self.SHAPES:
            w, inputs, grads = self._cases(cin, cout, *shape)
            for x in inputs[:: len(inputs) - 1]:  # a corner impulse and the dense input
                _, xp = _conv3x3(x, w, None)
                for dout in grads:
                    dx_ref, dw_ref = _conv_grads_reference(x, w, dout)
                    self._close(_conv3x3_input_grad(dout, w), dx_ref)
                    self._close(_conv3x3_weight_grad(dout, xp), dw_ref)


def _planes(img):
    """The (2, H, W) stack of a complex image's real and imaginary planes, the layout the oracles take."""
    return np.stack([img.real, img.imag])


def _image(planes):
    """The complex128 image whose real and imaginary parts are the two planes, each copied exactly."""
    img = np.empty(planes.shape[1:], dtype=np.complex128)
    img.real, img.imag = planes
    return img


def _forward_oracle(model, chan, t, dtype=np.float64):
    """Forward pass as separate layers in ``dtype``: fresh-buffer convs, np.where rectifiers, crop and re-pad between.

    The time bias is the float64 product cast to ``dtype``.  Returns
    (out, cache) with the cache (feat, xp1, h1, xp2, h2, xp3) holding the
    pre-activations h1 and h2.
    """
    p = model.params
    feat = time_features(t, model.t_f)
    h1, xp1 = _conv3x3(chan, p["conv1_w"], p["conv1_b"], dtype)
    h1 += (p["time_w"] @ feat).astype(dtype)[:, None, None]
    h2, xp2 = _conv3x3(np.where(h1 > 0, h1, 0.1 * h1), p["conv2_w"], p["conv2_b"], dtype)
    out, xp3 = _conv3x3(np.where(h2 > 0, h2, 0.1 * h2), p["conv3_w"], p["conv3_b"], dtype)
    return out, (feat, xp1, h1, xp2, h2, xp3)


def _backward_oracle(model, cache, dout):
    """Parameter gradients with the rectifier derivative taken from the pre-activations."""
    p = model.params
    feat, xp1, h1, xp2, h2, xp3 = cache
    dh2 = _conv3x3_input_grad(dout, p["conv3_w"]) * np.where(h2 > 0, 1.0, 0.1)
    dh1 = _conv3x3_input_grad(dh2, p["conv2_w"]) * np.where(h1 > 0, 1.0, 0.1)
    return {
        "conv3_w": _conv3x3_weight_grad(dout, xp3),
        "conv3_b": dout.sum(axis=(1, 2)),
        "conv2_w": _conv3x3_weight_grad(dh2, xp2),
        "conv2_b": dh2.sum(axis=(1, 2)),
        "time_w": np.outer(dh1.sum(axis=(1, 2)), feat),
        "conv1_w": _conv3x3_weight_grad(dh1, xp1),
        "conv1_b": dh1.sum(axis=(1, 2)),
    }


class TestLayerWorkspace:
    """forward and backward equal the float64 layer-by-layer oracle bit for bit, and recover the float32 one.

    The shapes include non-square and odd ones, where a wrapped column
    left unzeroed in a padded buffer would leak into the next row, grids
    of one or two rows or columns, where the last kernel row's view ends
    at the end of the buffer, and 100x90, where a bias gradient summed
    over a strided view of more than 8192 pixels would add in another
    order.
    """

    SHAPES = [(64, 64), (24, 40), (33, 31), (5, 7), (1, 1), (1, 6), (6, 1), (2, 2), (100, 90)]

    @staticmethod
    def _model():
        model = TinyRegressor(t_f=32, seed=3)
        rng = np.random.default_rng(4)
        for name in ("conv1_b", "conv2_b", "conv3_b"):  # nonzero biases, so their adds are checked too
            model.params[name] = 0.1 * rng.standard_normal(model.params[name].shape)
        return model

    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_and_backward_match_oracle(self, shape):
        model = self._model()
        x = rand_image(*shape, seed=6)
        estimate, cache = model.forward(x, 7)
        ref_out, ref_cache = _forward_oracle(model, _planes(x), 7)
        assert estimate.dtype == np.complex128 and estimate.flags.c_contiguous
        assert estimate.tobytes() == _image(ref_out).tobytes()
        dout = rand_image(*shape, seed=8).real + 1j * rand_image(*shape, seed=9).imag
        grads = model.backward(cache, dout)
        for name, ref in _backward_oracle(model, ref_cache, _planes(dout)).items():
            assert grads[name].tobytes() == ref.tobytes(), name

    def test_leaky_grad_from_activations_matches_pre_activations(self):
        h = np.array([-2.0, -1e-320, -0.0, 0.0, 1e-320, 3.0, np.inf, -np.inf, np.nan])
        a = np.maximum(h, 0.1 * h)
        d = np.random.default_rng(5).standard_normal(h.shape)
        slope = np.empty_like(d)
        _leaky_slope(a, slope)
        assert (d * slope).tobytes() == (d * np.where(h > 0, 1.0, 0.1)).tobytes()
        assert a.tobytes() == np.where(h > 0, h, 0.1 * h).tobytes()

    # largest |recover - forward| / max |forward| measured over SHAPES: 3.3e-7, under 3 float32 epsilons
    RECOVER_VS_FORWARD_RTOL = 1e-6

    def test_recover_matches_forward_across_alternating_shapes(self):
        """recover is the float32 oracle bit for bit, and float32 rounding away from forward's float64 output."""
        model = self._model()
        results = {}
        for rep in range(2):
            for i, shape in enumerate(self.SHAPES):
                x = rand_image(*shape, seed=10 + i)
                got = model.recover(x, 2 + i)
                assert got.dtype == np.complex128
                ref, _ = _forward_oracle(model, _planes(x), 2 + i, np.float32)
                assert got.tobytes() == _image(ref.astype(np.float64)).tobytes()
                wide, _ = model.forward(x, 2 + i)
                assert np.max(np.abs(got - wide)) <= self.RECOVER_VS_FORWARD_RTOL * np.max(np.abs(wide))
                results.setdefault(shape, []).append(got)
        # each call returns a fresh array: later calls on the same workspace leave earlier results alone
        for first, second in results.values():
            assert not np.shares_memory(first, second)
            assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("later", ["forward", "forward_other_shape", "recover", "backward"])
    def test_stale_cache_is_rejected(self, later):
        """A cache refers to the workspace: after any later pass backward on it raises; a fresh one matches the oracle."""
        model = self._model()
        x = rand_image(24, 40, seed=14)
        dout = rand_image(24, 40, seed=15).real + 1j * rand_image(24, 40, seed=16).imag
        _, cache = model.forward(x, 5)
        y = rand_image(*((33, 31) if later == "forward_other_shape" else (24, 40)), seed=17)
        if later == "recover":
            model.recover(y, 11)
        elif later == "backward":  # backward overwrites the buffers it read, so a cache serves once
            model.backward(cache, dout)
        else:
            model.forward(y.imag + 1j * y.real, 9)
        with pytest.raises(ValueError, match="stale forward cache"):
            model.backward(cache, dout)
        with pytest.raises(ValueError, match="stale forward cache"):
            cache.fresh_workspace()
        _, fresh = model.forward(x, 5)
        grads = model.backward(fresh, dout)
        _, ref_cache = _forward_oracle(model, _planes(x), 5)
        for name, ref in _backward_oracle(model, ref_cache, _planes(dout)).items():
            assert grads[name].tobytes() == ref.tobytes(), name

    def test_backward_rejects_dout_of_another_shape(self):
        model = self._model()
        _, cache = model.forward(np.zeros((6, 7)), 3)
        with pytest.raises(ValueError, match="dout of shape"):
            model.backward(cache, np.ones((1, 1), dtype=complex))  # would broadcast into the (6, 7) planes

    def test_recover_validates_its_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            self._model().recover(np.full((8, 8), np.nan, dtype=complex), 1)


class TestGradCheck:
    def test_fresh_model_matches_finite_differences(self):
        model = TinyRegressor(t_f=64, seed=0)
        sample = make_phantom(PhantomSpec(32, 32, seed=10))
        target = make_phantom(PhantomSpec(32, 32, seed=11))
        err = grad_check(model, sample, t=9, target=target, n_params=50, seed=0)
        assert err < 1e-4

    def test_non_square_input_matches_finite_differences(self):
        model = TinyRegressor(t_f=64, seed=5)
        sample = rand_image(24, 40, seed=12)
        target = rand_image(24, 40, seed=13)
        err = grad_check(model, sample, t=17, target=target, n_params=50, seed=1)
        assert err < 1e-4

    def test_zero_input_conv1_weight_grads_vanish(self):
        model = TinyRegressor(t_f=16, seed=1)
        out, cache = model.forward(np.zeros((16, 16), dtype=complex), 3)
        grads = model.backward(cache, 2.0 * out)
        assert np.max(np.abs(grads["conv1_w"])) == 0.0
        assert np.max(np.abs(grads["conv1_b"])) > 0.0

    def test_gradients_scale_linearly_with_loss(self):
        model = TinyRegressor(t_f=16, seed=2)
        x = rand_image(16, 16, seed=3)
        out, cache = model.forward(x, 2)
        g1 = model.backward(cache, out)
        out2, cache2 = model.forward(x, 2)
        g2 = model.backward(cache2, 2.0 * out2)
        for name in g1:
            assert np.allclose(2.0 * g1[name], g2[name], rtol=1e-12, atol=0)


class _OracleRegressor(TinyRegressor):
    """The model with its passes run by the layer-by-layer oracles, each pass in fresh buffers.

    The complex images the passes take and return are converted to and
    from the oracles' plane stacks here.
    """

    def forward(self, x_t, t):
        out, cache = _forward_oracle(self, _planes(x_t), t)
        return _image(out), cache

    def backward(self, cache, dout):
        return _backward_oracle(self, cache, _planes(dout))


class TestTrain:
    @pytest.mark.parametrize("source,loss_mode", [
        ("bridge", "upper_bound"),
        ("bridge", "weighted"),
        ("averaging", "upper_bound"),
        ("ddpm", "upper_bound"),
    ], ids=["upper_bound", "weighted", "averaging", "ddpm"])
    def test_matches_oracle_passes(self, source, loss_mode):
        """train through the workspace's in-place passes gives the oracle passes' parameters and trace bit for bit.

        One case per corruption source that reaches the passes: the
        frequency-removal bridge under both losses, its averaging ablation
        and the noise baseline.
        """
        images, cfg, _, _ = _toy_setup()
        process = {"bridge": cfg, "averaging": AveragingProcess(cfg), "ddpm": ddpm_schedule(30)}[source]
        tc = TrainConfig(learning_rate=0.01, epochs=2, batch=2, loss_mode=loss_mode, seed=3)
        model, trace = train(TinyRegressor(t_f=process.t_f, seed=9), images, process, tc)
        oracle, oracle_trace = train(_OracleRegressor(t_f=process.t_f, seed=9), images, process, tc)
        assert model.flat_params().tobytes() == oracle.flat_params().tobytes()
        assert trace == oracle_trace and len(trace) == 2
        assert model._workspace is None  # training's float64 buffers are released with its last sample

    def test_zero_learning_rate_leaves_parameters(self):
        images, cfg, _, _ = _toy_setup()
        model = TinyRegressor(t_f=8, seed=4)
        before = model.flat_params()
        train(model, images, cfg, TrainConfig(learning_rate=0.0, epochs=2, batch=2, seed=0))
        assert np.array_equal(model.flat_params(), before)

    def test_fixed_seed_bit_identical_trace(self):
        images, cfg, _, _ = _toy_setup()
        tc = TrainConfig(learning_rate=0.01, epochs=3, batch=2, seed=9)
        _, trace_a = train(TinyRegressor(t_f=8, seed=5), images, cfg, tc)
        _, trace_b = train(TinyRegressor(t_f=8, seed=5), images, cfg, tc)
        assert trace_a == trace_b

    def test_loss_decreases_on_smoke_dataset(self):
        images, cfg, _, _ = _toy_setup(count=6)
        tc = TrainConfig(learning_rate=0.02, epochs=6, batch=3, seed=1)
        _, trace = train(TinyRegressor(t_f=8, seed=6), images, cfg, tc)
        assert trace[-1] < trace[0]

    def test_weighted_mode_trains(self):
        images, cfg, _, _ = _toy_setup(count=4)
        tc = TrainConfig(learning_rate=0.02, epochs=2, batch=2, loss_mode="weighted", seed=2)
        _, trace = train(TinyRegressor(t_f=8, seed=7), images, cfg, tc)
        assert len(trace) == 2 and all(np.isfinite(v) for v in trace)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostic(self):
        images, cfg, _, _ = _toy_setup()
        model = TinyRegressor(t_f=8, seed=8)
        model.set_flat_params(np.full(model.flat_params().size, 1e200))
        with pytest.raises(TrainingError, match="learning rate"):
            train(model, images, cfg, TrainConfig(learning_rate=0.01, epochs=1, batch=2, seed=0))

    def test_tiny_dataset_rejected(self):
        images, cfg, _, _ = _toy_setup(count=1)
        with pytest.raises(ConfigError):
            train(TinyRegressor(t_f=8, seed=0), images, cfg,
                  TrainConfig(learning_rate=0.01, epochs=1, batch=1, seed=0))

    def test_ddpm_source_requires_upper_bound(self):
        images, _, _, _ = _toy_setup()
        sched = ddpm_schedule(50)
        with pytest.raises(ConfigError):
            train(TinyRegressor(t_f=50, seed=0), images, sched,
                  TrainConfig(learning_rate=0.01, epochs=1, batch=2, loss_mode="weighted", seed=0))
        _, trace = train(TinyRegressor(t_f=50, seed=0), images, sched,
                         TrainConfig(learning_rate=0.01, epochs=1, batch=2, seed=0))
        assert len(trace) == 1


class _FailingSource:
    """The bridge, except that sample ``at``'s draw runs ``fail`` (a worker's when k = 2 and ``at`` is odd)."""

    loss_masks = True

    def __init__(self, process, at, fail):
        self.process, self.at, self.fail = process, at, fail
        self.t_f = process.t_f

    def draw(self, x0, grid, t, seed, *tags):
        if tags[-1] == self.at:
            self.fail()
        return self.process.draw(x0, grid, t, seed, *tags)


@needs_workers
class TestTrainShares:
    """Training with its batches dealt to k processes gives the serial run's bytes, and leaves no process behind."""

    @staticmethod
    def _train(monkeypatch, k, process, images, tc):
        monkeypatch.setattr(parallel, "share_count", lambda n: k)
        model, trace = train(TinyRegressor(t_f=process.t_f, seed=9), images, process, tc)
        assert multiprocessing.active_children() == []
        assert model._workspace is None
        return model.flat_params().tobytes(), trace

    @pytest.mark.parametrize("source,loss_mode", [
        ("bridge", "upper_bound"),
        ("bridge", "weighted"),
        ("averaging", "upper_bound"),
        ("ddpm", "upper_bound"),
    ], ids=["upper_bound", "weighted", "averaging", "ddpm"])
    def test_sources_and_losses_match_serial(self, monkeypatch, source, loss_mode):
        images, cfg, _, _ = _toy_setup(count=5)
        process = {"bridge": cfg, "averaging": AveragingProcess(cfg), "ddpm": ddpm_schedule(30)}[source]
        tc = TrainConfig(learning_rate=0.01, epochs=2, batch=4, loss_mode=loss_mode, seed=3)
        serial = self._train(monkeypatch, 1, process, images, tc)
        for k in (2, 3):
            assert self._train(monkeypatch, k, process, images, tc) == serial, k

    @pytest.mark.parametrize("batch,count,dims", [(1, 3, 32), (2, 5, 32), (8, 5, 32), (3, 4, 33)],
                             ids=["batch1", "uneven", "batch-above-dataset", "33x31"])
    def test_batches_and_shapes_match_serial(self, monkeypatch, batch, count, dims):
        images, cfg, _, _ = _toy_setup(count=count, dims=dims)
        if dims == 33:
            images = [x[:, :31] for x in images]  # the odd, non-square shape
        tc = TrainConfig(learning_rate=0.01, epochs=2, batch=batch, loss_mode="weighted", seed=4)
        serial = self._train(monkeypatch, 1, cfg, images, tc)
        assert len(serial[1]) == 2 and all(np.isfinite(serial[1]))
        for k in (2, 3):
            assert self._train(monkeypatch, k, cfg, images, tc) == serial, k

    @pytest.mark.parametrize("at,fail,error,match", [
        (1, raising(ValueError("sample one")), ValueError, "^sample one$"),
        (1, raising(_Unpicklable("a", "b")), TrainingError, "(?s)a training worker failed:.*_Unpicklable: a-b"),
        (1, die, TrainingError, "training worker 1 exited without answering"),
        (0, raising(ValueError("sample zero")), ValueError, "^sample zero$"),
    ], ids=["worker", "unpicklable", "worker-died", "parent"])
    def test_failure_reaches_the_caller_and_joins_the_workers(self, monkeypatch, at, fail, error, match):
        images, cfg, _, _ = _toy_setup()
        monkeypatch.setattr(parallel, "share_count", lambda n: 2)
        source = _FailingSource(cfg, at, fail)
        with pytest.raises(error, match=match):
            train(TinyRegressor(t_f=8, seed=0), images, source, TrainConfig(learning_rate=0.01, epochs=1, batch=4))
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_joins_the_workers(self, monkeypatch):
        images, cfg, _, _ = _toy_setup()
        monkeypatch.setattr(parallel, "share_count", lambda n: 2)
        model = TinyRegressor(t_f=8, seed=8)
        model.set_flat_params(np.full(model.flat_params().size, 1e200))
        with pytest.raises(TrainingError, match="learning rate"):
            train(model, images, cfg, TrainConfig(learning_rate=0.01, epochs=1, batch=2, seed=0))
        assert multiprocessing.active_children() == []

    def test_blas_runs_one_thread_while_workers_live_and_is_restored(self, monkeypatch):
        get, put = parallel.blas_thread_calls()
        before = get()
        seen = []
        images, cfg, _, _ = _toy_setup()
        source = _FailingSource(cfg, 0, lambda: seen.append(get()))  # sample 0 of each batch runs here
        monkeypatch.setattr(parallel, "share_count", lambda n: 2)
        try:
            put(2)
            train(TinyRegressor(t_f=8, seed=0), images, source, TrainConfig(learning_rate=0.01, epochs=2, batch=2))
            assert get() == 2
        finally:
            put(before)
        assert seen == [1] * 4


class TestDraw:
    """Each source's ``draw`` gives tests/draw_oracle.py's x_t, and the bridge its trajectory, bit for bit."""

    TAGS = [(0, 0, 0, 0), (3, 1, 2, 1), (2026, 7, 0, 3), (2**62 + 5, 39, 4, 9)]

    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)])
    @pytest.mark.parametrize("source", ["bridge", "averaging", "ddpm"])
    def test_matches_reference(self, shape, source):
        bridge = ProcessConfig(r_prime=2.0, t_f=16, seed=4)
        process = {"bridge": bridge, "averaging": AveragingProcess(bridge), "ddpm": ddpm_schedule(30)}[source]
        grid = radius_map(*shape)
        x0 = rand_image(*shape, seed=5)
        for seed, *tags in self.TAGS:
            for t in (1, process.t_f // 2, process.t_f):
                x_t, traj = process.draw(x0, grid, t, seed, *tags)
                want, want_traj = draw_corrupted(x0, grid, process, t, (seed, *tags))
                assert x_t.tobytes() == want.tobytes(), (seed, tags, t)
                assert (traj is None) == (want_traj is None) == (source != "bridge")
                if traj is not None:
                    assert traj.removed_at.tobytes() == want_traj.removed_at.tobytes()
                    assert traj.counts.tobytes() == want_traj.counts.tobytes()

    def test_train_draws_the_reference_step(self):
        # a zero learning rate leaves the model, so the loss trace is each sample's reference draw, in order
        images, cfg, _, _ = _toy_setup(count=4)
        tc = TrainConfig(learning_rate=0.0, epochs=2, batch=2, seed=11)
        model = TinyRegressor(t_f=8, seed=12)
        _, trace = train(model, images, cfg, tc)
        grid = radius_map(32, 32)
        for epoch, mean in enumerate(trace):
            order = substream(tc.seed, "shuffle", epoch).permutation(len(images))
            losses = []
            for step_idx in range(2):
                loss = 0.0
                for i, k in enumerate(order[2 * step_idx : 2 * step_idx + 2]):
                    tags = (tc.seed, epoch, step_idx, i)
                    t = step_draw(tags, cfg.t_f)
                    x_t, _ = draw_corrupted(images[k], grid, cfg, t, tags)
                    loss += float(np.sum(np.abs(model.forward(x_t, t)[0] - images[k]) ** 2))
                losses.append(loss / 2)
            assert mean == pytest.approx(float(np.mean(losses)), rel=1e-12)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = TinyRegressor(t_f=24, seed=12)
        model.params["conv1_b"][:] = np.arange(16) * 0.25
        save_checkpoint(tmp_path / "m.ckpt", model, ddpm_schedule(24), epochs=7)
        loaded, header = load_checkpoint(tmp_path / "m.ckpt")
        assert header["source"] == "ddpm"
        assert np.array_equal(loaded.flat_params(), model.flat_params())
        assert loaded.t_f == 24
        assert header["epochs"] == 7
        assert header["architecture"]["hidden"] == 16

    @pytest.mark.parametrize("key", ["param_order", "hidden"])
    def test_other_architecture_is_rejected(self, tmp_path, key):
        edit = {
            # conv2_b listed before conv1_b: the block would load conv2_b's values into conv1_b
            "param_order": lambda arch: arch["param_order"].insert(1, arch["param_order"].pop(4)),
            "hidden": lambda arch: arch.update(hidden=8),
        }[key]
        save_checkpoint(tmp_path / "m.ckpt", TinyRegressor(t_f=24, seed=12), ProcessConfig(r_prime=2.0, t_f=24))
        edit_checkpoint_architecture(tmp_path / "m.ckpt", edit)
        with pytest.raises(ConfigError, match=f"architecture {key}="):
            load_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("edit,match", [
        (lambda raw: b"not a checkpoint\n", "not a checkpoint file"),
        (lambda raw: raw[:8], "unreadable checkpoint header"),  # cut inside the header length
        (lambda raw: raw[:20], "unreadable checkpoint header"),  # cut inside the JSON header
        (lambda raw: raw[:-8], "parameter block of"),  # one parameter short
        (lambda raw: raw[:-3], "parameter block of"),  # not a whole number of float64 values
        (lambda raw: raw + bytes(8), "parameter block of"),
        (lambda raw: with_header(raw, lambda h: [h]), "not a JSON object"),
        (lambda raw: with_header(raw, lambda h: {**h, "architecture": 5}), "architecture in_channels=None"),
        (lambda raw: with_header(raw, lambda h: {k: v for k, v in h.items() if k != "T_f"}), "T_f=None"),
        (lambda raw: with_header(raw, lambda h: {k: v for k, v in h.items() if k != "seed"}), "seed=None"),
        (lambda raw: with_header(raw, lambda h: {**h, "T_f": "24"}), "T_f='24', expected an integer"),
        (lambda raw: with_header(raw, lambda h: {**h, "seed": 12.5}), "seed=12.5, expected an integer"),
    ], ids=["text", "cut_length", "cut_header", "short", "ragged", "long",
            "header_list", "architecture_number", "no_T_f", "no_seed", "T_f_string", "seed_float"])
    def test_bad_file_is_a_config_error(self, tmp_path, edit, match):
        save_checkpoint(tmp_path / "m.ckpt", TinyRegressor(t_f=24, seed=12), ProcessConfig(r_prime=2.0, t_f=24))
        (tmp_path / "m.ckpt").write_bytes(edit((tmp_path / "m.ckpt").read_bytes()))
        with pytest.raises(ConfigError, match=match):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_loss_trace_csv(self, tmp_path):
        save_loss_trace(tmp_path / "trace.csv", [2.0, 1.0, 0.5])
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header == ["epoch", "loss"]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert float(rows[-1][1]) == 0.5
