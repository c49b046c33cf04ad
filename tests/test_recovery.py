import numpy as np
import pytest

from fdbridge.degradation import ProcessConfig, corrupt, sample_trajectory
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
    _leaky_backward,
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

from conftest import edit_checkpoint_architecture, rand_image
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

    def test_forward_cache_is_small(self):
        # the cache holds the padded input of each layer (the rectified activations included): about 1.2 MB at 64^2
        model = TinyRegressor(t_f=64, seed=4)
        _, cache = model.forward(np.stack([rand_image(64, 64, seed=5).real] * 2), 3)
        held = sum(a.nbytes for a in cache if isinstance(a, np.ndarray))
        assert held <= 3_000_000


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


def _conv3x3(x, w, b):
    """3x3 zero-padded cross-correlation of (C, H, W) ``x`` through ``_conv_layer``; returns (out, stacked input)."""
    cin, h, wd = x.shape
    xs = _stacked(cin, h, wd)
    _interior(xs, h, wd)[...] = x
    out = np.empty((w.shape[0], h * (wd + 2)))
    _conv_layer(xs, _rows(w), () if b is None else (b,), out, np.empty_like(out), wd, rectify=False)
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


def _forward_oracle(model, chan, t):
    """Forward pass as separate layers: fresh-buffer convs, np.where rectifiers, crop and re-pad between.

    Returns (out, cache) with the cache (feat, xp1, h1, xp2, h2, xp3)
    holding the pre-activations h1 and h2.
    """
    p = model.params
    feat = time_features(t, model.t_f)
    h1, xp1 = _conv3x3(chan, p["conv1_w"], p["conv1_b"])
    h1 += (p["time_w"] @ feat)[:, None, None]
    h2, xp2 = _conv3x3(np.where(h1 > 0, h1, 0.1 * h1), p["conv2_w"], p["conv2_b"])
    out, xp3 = _conv3x3(np.where(h2 > 0, h2, 0.1 * h2), p["conv3_w"], p["conv3_b"])
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
    """forward, backward and recover equal the layer-by-layer oracle bit for bit.

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
        chan = np.stack([x.real, x.imag])
        out, cache = model.forward(chan, 7)
        ref_out, ref_cache = _forward_oracle(model, chan, 7)
        assert out.tobytes() == ref_out.tobytes()
        dout = np.stack([rand_image(*shape, seed=8).real, rand_image(*shape, seed=9).imag])
        grads = model.backward(cache, dout)
        for name, ref in _backward_oracle(model, ref_cache, dout).items():
            assert grads[name].tobytes() == ref.tobytes(), name

    def test_leaky_grad_from_activations_matches_pre_activations(self):
        h = np.array([-2.0, -1e-320, -0.0, 0.0, 1e-320, 3.0, np.inf, -np.inf, np.nan])
        a = np.maximum(h, 0.1 * h)
        d = np.random.default_rng(5).standard_normal(h.shape)
        got = d.copy()
        _leaky_backward(got, a, np.empty_like(d))
        assert got.tobytes() == (d * np.where(h > 0, 1.0, 0.1)).tobytes()
        assert a.tobytes() == np.where(h > 0, h, 0.1 * h).tobytes()

    def test_recover_matches_forward_across_alternating_shapes(self):
        model = self._model()
        results = {}
        for rep in range(2):
            for i, shape in enumerate(self.SHAPES):
                x = rand_image(*shape, seed=10 + i)
                got = model.recover(x, 2 + i)
                out, _ = model.forward(np.stack([x.real, x.imag]), 2 + i)
                assert got.tobytes() == (out[0] + 1j * out[1]).tobytes()
                results.setdefault(shape, []).append(got)
        # each call returns a fresh array: later calls on the same workspace leave earlier results alone
        for first, second in results.values():
            assert not np.shares_memory(first, second)
            assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("later", [(24, 40), (33, 31)])
    def test_forward_cache_survives_later_calls(self, later):
        """forward and backward share the model's workspace with recover: a cache holds copies, not views."""
        model = self._model()
        x = rand_image(24, 40, seed=14)
        chan = np.stack([x.real, x.imag])
        dout = np.stack([rand_image(24, 40, seed=15).real, rand_image(24, 40, seed=16).imag])
        _, cache = model.forward(chan, 5)
        for a in cache:
            for buf in model._workspace.x:
                assert not np.shares_memory(a, buf)
        _, fresh = model.forward(chan, 5)
        expected = model.backward(fresh, dout)  # right after its forward, which reran the first one
        y = rand_image(*later, seed=17)
        model.forward(np.stack([y.imag, y.real]), 9)
        model.recover(y, 11)
        model.forward(np.stack([y.real, y.imag]), 12)
        grads = model.backward(cache, dout)
        for name, ref in expected.items():
            assert grads[name].tobytes() == ref.tobytes(), name

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
        zero = np.zeros((16, 16), dtype=complex)
        out, cache = model.forward(np.zeros((2, 16, 16)), 3)
        grads = model.backward(cache, 2.0 * out)
        assert np.max(np.abs(grads["conv1_w"])) == 0.0
        assert np.max(np.abs(grads["conv1_b"])) > 0.0

    def test_gradients_scale_linearly_with_loss(self):
        model = TinyRegressor(t_f=16, seed=2)
        chan = np.stack([rand_image(16, 16, seed=3).real, rand_image(16, 16, seed=3).imag])
        out, cache = model.forward(chan, 2)
        g1 = model.backward(cache, out)
        out2, cache2 = model.forward(chan, 2)
        g2 = model.backward(cache2, 2.0 * out2)
        for name in g1:
            assert np.allclose(2.0 * g1[name], g2[name], rtol=1e-12, atol=0)


class TestTrain:
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
        from fdbridge.sampler import ddpm_schedule

        images, _, _, _ = _toy_setup()
        sched = ddpm_schedule(50)
        with pytest.raises(ConfigError):
            train(TinyRegressor(t_f=50, seed=0), images, sched,
                  TrainConfig(learning_rate=0.01, epochs=1, batch=2, loss_mode="weighted", seed=0))
        _, trace = train(TinyRegressor(t_f=50, seed=0), images, sched,
                         TrainConfig(learning_rate=0.01, epochs=1, batch=2, seed=0))
        assert len(trace) == 1


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = TinyRegressor(t_f=24, seed=12)
        model.params["conv1_b"][:] = np.arange(16) * 0.25
        save_checkpoint(tmp_path / "m.ckpt", model, epochs=7)
        loaded, header = load_checkpoint(tmp_path / "m.ckpt")
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
        save_checkpoint(tmp_path / "m.ckpt", TinyRegressor(t_f=24, seed=12))
        edit_checkpoint_architecture(tmp_path / "m.ckpt", edit)
        with pytest.raises(ConfigError, match=f"architecture {key}="):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_loss_trace_csv(self, tmp_path):
        save_loss_trace(tmp_path / "trace.csv", [2.0, 1.0, 0.5])
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header == ["epoch", "loss"]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert float(rows[-1][1]) == 0.5
