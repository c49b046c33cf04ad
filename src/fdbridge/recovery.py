"""Recovery operators: oracle/passthrough references and a small trainable
convolutional regressor with hand-rolled backpropagation.

The regressor maps a complex degraded image to a complex estimate of the
clean image, running on its (real, imag) planes through three 3x3
convolutions (2 -> 16 -> 16 -> 2) with leaky rectifiers (slope 0.1)
between layers.  The step index conditions the network through an
8-dimensional sinusoidal embedding, linearly projected to a per-channel
bias added after the first convolution.  ``forward``, ``backward`` and
``recover`` take and return complex (H, W) images (``backward`` takes
dL/d(estimate)), and one pass body, ``TinyRegressor._pass``, converts
between images and planes.  The network has one precision: ``forward``
and ``recover`` run that body, and ``backward`` its gradients, in
``INFERENCE_DTYPE`` (float32), and what they return is widened exactly:
estimates to complex128, gradients to float64.  The parameters, the
optimizer's moments, the per-batch gradient sums and checkpoints are
double precision.  Everything is deterministic.

Each convolution is a sum of three matrix products, one per kernel row,
over a zero-padded, flattened copy of its input held three times, each
shifted by one more column (see ``_conv_layer``), and writes its output
straight into the next layer's padded copy.  Each kernel row's weight
gradient is one product, that row's view times the transposed output
gradient, and the input gradients run the same layer on the stacked
output gradient.  ``recover``, ``forward`` and ``backward`` share one
set of these buffers, kept while the image shape and dtype stay the
same.  ``forward``'s cache is a reference to them, not a copy: ``backward``
reads each layer's stacked input as ``forward`` left it and overwrites
them with the gradients, so a cache serves one ``backward``, and only
until the model's next pass (``ForwardCache``).

``train`` runs each batch's samples as ``parallel.Workers`` items, in
this process and in workers forked once per call, one per further usable
CPU; the workers, their OpenBLAS pinning and the cases that run in one
process are ``parallel``'s, which ``fdb ablate``'s reconstructions
share.  The parent adds the samples' losses and gradients in sample
order, as one process would, so the trained bytes do not depend on the
process count.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .degradation import corrupt
from .errors import ConfigError, TrainingError
from .fileio import atomic_write_bytes, write_csv
from .grid import KSpaceGrid, as_image
from .rng import substream

LEAKY_SLOPE = 0.1
EMB_DIM = 8
HIDDEN = 16
INFERENCE_DTYPE = np.float32  # the dtype forward, backward and recover run the layers in
# each parameter's shape, in the order ``params`` and a checkpoint's parameter block hold them
PARAM_SHAPES = {
    "conv1_w": (HIDDEN, 2, 3, 3),
    "conv1_b": (HIDDEN,),
    "time_w": (HIDDEN, EMB_DIM),
    "conv2_w": (HIDDEN, HIDDEN, 3, 3),
    "conv2_b": (HIDDEN,),
    "conv3_w": (2, HIDDEN, 3, 3),
    "conv3_b": (2,),
}
PARAM_ORDER = tuple(PARAM_SHAPES)
# the layout a checkpoint's parameter block is written in, stated in its header
ARCHITECTURE = {
    "in_channels": 2,
    "hidden": HIDDEN,
    "out_channels": 2,
    "kernel": 3,
    "emb_dim": EMB_DIM,
    "param_order": list(PARAM_ORDER),
}


class OracleRecovery:
    """Returns the stored ground truth regardless of the degraded input."""

    def __init__(self, truth: np.ndarray):
        self.truth = as_image(truth)

    def recover(self, x_t: np.ndarray, t: int) -> np.ndarray:
        x_t = as_image(x_t)
        if x_t.shape != self.truth.shape:
            raise ValueError(f"input shape {x_t.shape} does not match truth {self.truth.shape}")
        return self.truth.copy()


class ZeroFillRecovery:
    """Passthrough operator: the estimate is the degraded input itself."""

    def recover(self, x_t: np.ndarray, t: int) -> np.ndarray:
        return as_image(x_t).copy()


def _stacked(c: int, h: int, wd: int, dtype) -> np.ndarray:
    """Zero buffer of C flattened, zero-padded (H+2, W+2) channels, held three times.

    Shape (3C, (H+2)(W+2) + 2).  Block 0 (rows :C) holds the padded rows
    back to back, then two zeros that only the wrapped columns of the last
    row read; block dx (rows dx*C : (dx+1)*C) holds block 0 shifted left
    by dx, filled from block 0 (``_fill_shifts``) by the layer that reads
    the buffer, and read again, unfilled, by that layer's weight gradient.
    Writers write block 0 only, so blocks 1 and 2 are free scratch until
    the next fill.
    """
    return np.zeros((3 * c, (h + 2) * (wd + 2) + 2), dtype=dtype)


def _interior(x: np.ndarray, h: int, wd: int) -> np.ndarray:
    """(C, H, W) view of the unpadded pixels of a ``_stacked`` buffer's block 0."""
    c = x.shape[0] // 3
    return x[:c, : (h + 2) * (wd + 2)].reshape(c, h + 2, wd + 2)[:, 1:-1, 1:-1]


def _fill_shifts(x: np.ndarray) -> None:
    """Copy block 0 of a ``_stacked`` buffer into block dx shifted left by dx, for dx = 1, 2."""
    c = x.shape[0] // 3
    x[c : 2 * c, :-1] = x[:c, 1:]
    x[2 * c :, :-2] = x[:c, 2:]


def _zero_wrapped(d: np.ndarray, wd: int) -> None:
    """Zero the last two columns of each row of W+2 values in an uncropped (C, H(W+2)) layer output."""
    d.reshape(d.shape[0], -1, wd + 2)[:, :, wd:] = 0.0


def _rows(w: np.ndarray) -> np.ndarray:
    """(3, C_out, 3 C_in) kernel rows, [dy][o, dx C_in + c] = w[o, c, dy, dx], in a ``_stacked`` buffer's row order."""
    return np.ascontiguousarray(w.transpose(2, 0, 3, 1)).reshape(3, w.shape[0], 3 * w.shape[1])


def _flipped(w: np.ndarray) -> np.ndarray:
    """The kernel whose layer maps dL/d(out) to dL/d(input): flipped in space, input and output channels swapped."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _conv_layer(x: np.ndarray, rows: np.ndarray, biases, dst: np.ndarray, scratch: np.ndarray, wd: int, rectify: bool):
    """One layer: 3x3 zero-padded cross-correlation, biases, optional leaky rectifier.

    ``x`` is a ``_stacked`` buffer whose block 0 holds the input and
    ``rows`` the kernel as ``_rows`` lays it out.  With rows of W+2
    values, output pixel (i, j) sits at flat index i(W+2) + j, and tap
    (dy, dx) reads block 0 at that index plus dy(W+2) + dx, which is block
    dx at that index plus dy(W+2).  So the output is the sum over dy of
    rows[dy] @ x[:, dy(W+2) : dy(W+2) + H(W+2)], written into dst, a
    (C_out, H(W+2)) array, with ``scratch`` (same shape) holding each
    product.  Each row's last two columns, where a tap wraps into the
    next padded row, hold no output pixel.  When dst is the next layer's
    block 0 from offset W+3, output pixel (i, j) lands on that buffer's
    pixel (i+1, j+1) and the wrapped columns on its padding, so a
    rectified layer re-zeroes them; otherwise the caller crops or zeroes
    them.
    """
    _fill_shifts(x)
    n = dst.shape[1]
    for dy in range(3):
        o = dy * (wd + 2)
        np.matmul(rows[dy], x[:, o : o + n], out=scratch if dy else dst)
        if dy:
            dst += scratch
    for b in biases:  # one add per bias vector, in order
        dst += b[:, None]
    if rectify:
        np.multiply(dst, LEAKY_SLOPE, out=scratch)
        np.maximum(dst, scratch, out=dst)  # same bits as np.where(dst > 0, dst, LEAKY_SLOPE * dst)
        _zero_wrapped(dst, wd)


def _weight_grad(d: np.ndarray, x: np.ndarray, wd: int) -> np.ndarray:
    """dL/dw of a layer from dL/d(out) and the ``_stacked`` input ``x`` the layer read.

    ``x``'s shift blocks must still be the ones the layer filled.  ``d``
    is in the uncropped (C_out, H(W+2)) layout with the wrapped columns
    zero.  Kernel row dy's gradient is the one (3 C_in, C_out) product
    x[:, dy(W+2) : dy(W+2) + H(W+2)] @ d.T, whose row dx C_in + c is tap
    (dy, dx) of input channel c.
    """
    cout, n = d.shape
    g = np.empty((3, x.shape[0], cout), dtype=x.dtype)
    for dy in range(3):
        o = dy * (wd + 2)
        np.matmul(x[:, o : o + n], d.T, out=g[dy])
    return np.ascontiguousarray(g.reshape(3, 3, -1, cout).transpose(3, 2, 0, 1))


def _leaky_slope(a: np.ndarray, out: np.ndarray) -> None:
    """Write the rectifier's derivative, read from the activations ``a``, into ``out`` (a's shape).

    a > 0 exactly where the rectifier's input is > 0, -0.0, denormals and
    infinities included; a NaN input (whose activation is NaN) gets the
    slope, as np.where(h > 0, 1.0, LEAKY_SLOPE) gives it.  The derivative
    is built without branches, each entry exactly 1.0 or LEAKY_SLOPE: a
    masked multiply or np.where runs several times slower on mixed signs.
    Reading it before dL/d(activations) exists lets that gradient
    overwrite the activations.
    """
    np.multiply(a > 0, 1.0 - LEAKY_SLOPE, out=out)
    out += LEAKY_SLOPE


class _Workspace:
    """The buffers of one pass through the layers at one image shape and dtype.

    The dtype is the pass's arithmetic: ``INFERENCE_DTYPE`` for the
    model's passes.  ``_pass`` takes it as an argument, so a float64
    workspace holds the same body at double precision, which a
    central-difference gradient check needs.

    ``x`` holds each layer's ``_stacked`` input: the image's (real, imag)
    planes, then the two hidden activations, each written into block 0
    by the layer before, from flat offset ``region.start``.  Blocks 1
    and 2 of a buffer are free until its reader fills them, so a layer
    keeps its products in those of the buffer it writes.  ``out`` is a
    2-channel ``_stacked`` buffer: the last layer keeps its products and
    output in its blocks 1 and 2, and ``backward`` stacks dL/d(estimate)'s
    planes in it.
    So after a pass every buffer of ``x`` holds its layer's input with
    the shifts that layer read, until the next pass.

    ``generation`` counts the passes run in the buffers, and a model
    bumps it once more when it replaces the workspace; a
    ``ForwardCache`` is valid while it reads the same count.
    """

    def __init__(self, h: int, wd: int, dtype):
        self.shape = (h, wd)
        self.dtype = np.dtype(dtype)
        self.region = slice(wd + 3, wd + 3 + h * (wd + 2))  # padded pixel (1, 1) onwards, H rows of W+2
        self.x = [_stacked(c, h, wd, dtype) for c in (2, HIDDEN, HIDDEN)]
        self.out = _stacked(2, h, wd, dtype)
        self.generation = 0


@dataclass(frozen=True)
class ForwardCache:
    """What ``backward`` needs of one ``forward`` pass: its time features and the workspace it ran in.

    The workspace's buffers hold the pass's layer inputs only until the
    model's next ``forward``, ``recover`` or ``backward``, or until the
    model replaces its workspace; each of these moves the workspace's
    generation past the cache's.
    """

    feat: np.ndarray
    workspace: _Workspace
    generation: int

    def fresh_workspace(self) -> _Workspace:
        """The workspace, while it still holds this pass; ValueError once a later pass overwrote it."""
        if self.workspace.generation != self.generation:
            raise ValueError("stale forward cache: the model ran another pass since; run forward again")
        return self.workspace


@functools.lru_cache(maxsize=None)
def _periods(t_f: int) -> np.ndarray:
    periods = np.geomspace(1.0, 2.0 * t_f, EMB_DIM // 2)
    periods.setflags(write=False)
    return periods


def time_features(t: float, t_f: int) -> np.ndarray:
    """Sinusoidal embedding of the step index: 4 geometric periods in [1, 2*T_f]."""
    ang = 2.0 * np.pi * t / _periods(t_f)
    return np.concatenate([np.sin(ang), np.cos(ang)])


class TinyRegressor:
    """Three-layer convolutional recovery operator with time conditioning."""

    def __init__(self, t_f: int, seed: int = 0):
        if t_f < 1:
            raise ConfigError(f"T_f must be >= 1, got {t_f}")
        self.t_f = int(t_f)
        self.seed = int(seed)
        self.params: dict[str, np.ndarray] = {}
        self._workspace: _Workspace | None = None
        self._init_params()

    def _init_params(self) -> None:
        for name, shape in PARAM_SHAPES.items():
            if name.endswith("_b"):
                self.params[name] = np.zeros(shape)
            else:
                # Glorot fans of a (out, in, *kernel) weight
                fan_in, fan_out = math.prod(shape[1:]), shape[0] * math.prod(shape[2:])
                limit = math.sqrt(6.0 / (fan_in + fan_out))
                rng = substream(self.seed, "init", name)
                self.params[name] = rng.uniform(-limit, limit, size=shape)

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.params[n].ravel() for n in PARAM_ORDER])

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for name in PARAM_ORDER:
            p = self.params[name]
            self.params[name] = flat[offset : offset + p.size].reshape(p.shape).copy()
            offset += p.size
        if offset != flat.size:
            raise ValueError(f"parameter block has {flat.size} values, expected {offset}")

    def _workspace_for(self, shape: tuple[int, int], dtype) -> _Workspace:
        """The model's one workspace, replaced when the shape or the dtype changes."""
        ws = self._workspace
        if ws is None or ws.shape != shape or ws.dtype != dtype:
            if ws is not None:
                ws.generation += 1  # its caches go stale with it
            ws = self._workspace = _Workspace(*shape, dtype)
        return ws

    def _pass(self, x_t: np.ndarray, t: int, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Run the layers on the complex image ``x_t`` in the ``dtype`` workspace; returns (estimate, time features).

        ``x_t`` is validated and its (real, imag) planes written into
        ``ws.x[0]``, rounded to ``dtype``; the output planes are widened,
        exactly, into a fresh complex128 estimate.  Every operand is cast
        to the workspace's dtype, the time bias after its float64 product,
        so each add and product runs that dtype's loop under value-based
        and NEP 50 casting alike; at float64 the casts are no-ops.
        """
        x_t = as_image(x_t)
        feat = time_features(t, self.t_f)
        ws = self._workspace_for(x_t.shape, dtype)
        ws.generation += 1
        p = {n: a.astype(ws.dtype, copy=False) for n, a in self.params.items() if n != "time_w"}
        (h, wd), r = ws.shape, ws.region
        x1, x2, x3 = ws.x
        planes = _interior(x1, h, wd)
        planes[0] = x_t.real
        planes[1] = x_t.imag
        biases = (p["conv1_b"], (self.params["time_w"] @ feat).astype(ws.dtype, copy=False))
        _conv_layer(x1, _rows(p["conv1_w"]), biases, x2[:HIDDEN, r], x2[HIDDEN : 2 * HIDDEN, r], wd, True)
        _conv_layer(x2, _rows(p["conv2_w"]), (p["conv2_b"],), x3[:HIDDEN, r], x3[HIDDEN : 2 * HIDDEN, r], wd, True)
        out = ws.out[4:, r]
        _conv_layer(x3, _rows(p["conv3_w"]), (p["conv3_b"],), out, ws.out[2:4, r], wd, False)
        planes = out.reshape(2, h, wd + 2)[:, :, :wd]
        estimate = np.empty(x_t.shape, dtype=np.complex128)
        estimate.real = planes[0]
        estimate.imag = planes[1]
        return estimate, feat

    def forward(self, x_t: np.ndarray, t: int) -> tuple[np.ndarray, ForwardCache]:
        """The pass body on the complex (H, W) image ``x_t`` in ``INFERENCE_DTYPE``; returns (estimate, cache).

        The estimate is a fresh complex128 array, each plane widened
        exactly, and the same bytes as ``recover``'s.  The cache refers to
        the workspace, whose buffers keep each layer's stacked input (the
        rectified activations for layers 2 and 3), so it holds no copies
        and is valid only until the model's next ``forward``, ``recover``
        or ``backward``.
        """
        estimate, feat = self._pass(x_t, t, INFERENCE_DTYPE)
        return estimate, ForwardCache(feat, self._workspace, self._workspace.generation)

    def backward(self, cache: ForwardCache, dout: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for the cached forward pass given ``dout``, dL/d(estimate) as a complex (H, W) image.

        The gradients run in the dtype of the cache's workspace, on
        ``dout`` rounded to it and the parameters cast to it (no-ops at
        float64), and come back as float64 arrays, each widened exactly.
        The cache must be fresh (else ValueError), and this pass spends it:
        with h1 and h2 the outputs of layers 1 and 2 before their
        rectifiers, it reads each layer's stacked input in place for that
        layer's weight gradient and the rectifier slopes, then overwrites
        the buffers.  ``dout``'s planes are stacked in ``out``.  dL/dh2
        replaces layer 3's input in ``x[2]`` once its weight gradient and
        the slope are read, and is stacked there; dL/dh1 goes to block 1 of
        ``x[1]`` once layer 2's weight gradient and slope are read.  A
        layer's input gradient is the layer run on its stacked dL/d(out)
        with the ``_flipped`` kernel.
        """
        ws = cache.fresh_workspace()
        if dout.shape != ws.shape:
            raise ValueError(f"dout of shape {dout.shape} for a forward pass at {ws.shape}")
        ws.generation += 1
        p = {n: self.params[n].astype(ws.dtype, copy=False) for n in ("conv2_w", "conv3_w")}
        (h, wd), r = ws.shape, ws.region
        x1, x2, x3 = ws.x
        d = ws.out
        grads: dict[str, np.ndarray] = {}

        planes = _interior(d, h, wd)
        planes[0] = dout.real
        planes[1] = dout.imag
        grads["conv3_w"] = _weight_grad(d[:2, r], x3, wd)
        # bias gradients sum a contiguous copy: a strided (C, H, W) sum adds in another order once H*W > 8192
        grads["conv3_b"] = np.ascontiguousarray(planes).sum(axis=(1, 2))
        slope = x3[2 * HIDDEN :, r]
        _leaky_slope(x3[:HIDDEN, r], slope)
        dh2 = x3[:HIDDEN, r]
        _conv_layer(d, _rows(_flipped(p["conv3_w"])), (), dh2, x3[HIDDEN : 2 * HIDDEN, r], wd, False)
        dh2 *= slope
        _zero_wrapped(dh2, wd)

        grads["conv2_w"] = _weight_grad(dh2, x2, wd)
        grads["conv2_b"] = np.ascontiguousarray(_interior(x3, h, wd)).sum(axis=(1, 2))
        slope = x2[2 * HIDDEN :, r]
        _leaky_slope(x2[:HIDDEN, r], slope)
        dh1 = x2[HIDDEN : 2 * HIDDEN, r]
        _conv_layer(x3, _rows(_flipped(p["conv2_w"])), (), dh1, x2[:HIDDEN, r], wd, False)
        dh1 *= slope
        _zero_wrapped(dh1, wd)

        db1 = np.ascontiguousarray(dh1.reshape(HIDDEN, h, wd + 2)[:, :, :wd]).sum(axis=(1, 2))
        grads["time_w"] = np.outer(db1, cache.feat)  # a float64 product, as the features are float64
        grads["conv1_w"] = _weight_grad(dh1, x1, wd)
        grads["conv1_b"] = db1
        return {n: g.astype(np.float64, copy=False) for n, g in grads.items()}

    def recover(self, x_t: np.ndarray, t: int) -> np.ndarray:
        """Clean-image estimate from x_t: ``forward``'s estimate, with no cache.

        The layers run in ``INFERENCE_DTYPE`` on x_t rounded to it; the
        estimate comes back as a fresh complex128 array, each plane
        widened exactly.  A pass that overflows float32 returns non-finite
        components, which the sampler's finiteness check reports.  The
        workspace makes this method, ``forward`` and ``backward``
        non-reentrant: one model must not run them on two threads at once.
        """
        return self._pass(x_t, t, INFERENCE_DTYPE)[0]


def _energy(r: np.ndarray) -> float:
    return float(np.sum(r.real**2 + r.imag**2))


LOSS_MODES = ("weighted", "upper_bound")


def _loss_residual(estimate: np.ndarray, x0: np.ndarray, traj, t: int, mode: str):
    """One sample's loss residual and its energy: C_t (G - x_0) for weighted, G - x_0 for upper_bound.

    C_t is ``traj``'s corruption at step t; the upper bound never reads either.
    """
    residual = estimate - x0
    if mode == "weighted":
        residual = corrupt(residual, traj, t)
    return residual, _energy(residual)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch: int
    loss_mode: str = "upper_bound"
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError("epochs and batch must be >= 1")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")


class _Adam:
    b1, b2 = 0.5, 0.9  # moment decay rates
    eps = 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.k = 0
        self.m = {n: np.zeros_like(p) for n, p in params.items()}
        self.v = {n: np.zeros_like(p) for n, p in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.k += 1
        for n, g in grads.items():
            self.m[n] = self.b1 * self.m[n] + (1 - self.b1) * g
            self.v[n] = self.b2 * self.v[n] + (1 - self.b2) * g * g
            mhat = self.m[n] / (1 - self.b1**self.k)
            vhat = self.v[n] / (1 - self.b2**self.k)
            params[n] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def train(model: TinyRegressor, images, process, cfg: TrainConfig):
    """Minibatch adaptive-moment training of the recovery loss.

    ``process`` is the corruption source (ProcessConfig, AveragingProcess
    or DdpmSchedule): each sample draws t in 1..T_f and takes x_t from
    ``process.draw``.  Returns the trained model and the per-epoch mean
    loss trace.  Deterministic given (cfg.seed, data order).  Each
    sample's ``forward`` and ``backward`` run in the model's
    ``INFERENCE_DTYPE`` workspace, ``backward`` reading ``forward``'s
    buffers in place, and the model keeps that workspace for ``recover``.
    A pass that overflows float32, or a non-finite loss or gradient, is a
    TrainingError, with no floating-point warning on the way.

    Each batch's samples are ``parallel.Workers`` items, computed in this
    process and in workers forked once per call, which inherit the model,
    the images, the grids and the source.  Sample i of a batch draws t in
    1..T_f from ``(cfg.seed, "step-draw", epoch, step_idx, i)``, sets the
    parameters it is sent and returns its energy and the gradients of that
    energy over the batch size.  The losses and gradients are summed here
    in sample order, as one process would sum them, so parameters, loss
    trace and checkpoint are the same bytes for every process count.  A
    sample's exception is raised here; a worker that dies, or an
    exception that cannot be pickled, is a WorkerError.  Every exit joins
    the workers.
    """
    images = [as_image(x) for x in images]
    if len(images) < 2:
        raise ConfigError(f"dataset must hold >= 2 images, got {len(images)}")
    if cfg.loss_mode == "weighted" and not process.loss_masks:
        raise ConfigError(
            "weighted loss requires removal masks; use upper_bound with a DDPM source or the averaging ablation"
        )

    grids = {x.shape: KSpaceGrid(*x.shape) for x in images}  # one per shape, so the radius order is sorted once
    opt = _Adam(model.params, cfg.learning_rate)
    trace: list[float] = []

    def sample(i, flat, epoch, step_idx, indices):
        """(energy, gradients) of sample i of a batch on the parameters ``flat``."""
        model.set_flat_params(flat)
        x0 = images[indices[i]]
        t = int(substream(cfg.seed, "step-draw", epoch, step_idx, i).integers(1, process.t_f + 1))
        x_t, traj = process.draw(x0, grids[x0.shape], t, cfg.seed, epoch, step_idx, i)
        with np.errstate(over="ignore", invalid="ignore"):  # what overflows is reported as a TrainingError
            estimate, cache = model.forward(x_t, t)
            if not np.isfinite(estimate).all():  # before the weighted loss's corruption refuses it
                raise TrainingError(f"non-finite estimate at epoch {epoch}, step {step_idx}; lower the learning rate")
            residual, energy = _loss_residual(estimate, x0, traj, t, cfg.loss_mode)
            residual.real *= 2.0 / len(indices)  # dL/d(estimate), each part scaled as a real plane
            residual.imag *= 2.0 / len(indices)
            return energy, model.backward(cache, residual)

    with parallel.Workers(cfg.batch, sample, "training") as workers:
        for epoch in range(cfg.epochs):
            order = substream(cfg.seed, "shuffle", epoch).permutation(len(images))
            epoch_losses: list[float] = []
            for step_idx, start in enumerate(range(0, len(images), cfg.batch)):
                indices = order[start : start + cfg.batch]
                grads = {n: np.zeros_like(p) for n, p in model.params.items()}
                loss = 0.0
                for energy, sample_grads in workers.map(len(indices), model.flat_params(), epoch, step_idx, indices):
                    loss += energy
                    for n, g in sample_grads.items():
                        grads[n] += g
                loss /= len(indices)
                if not (math.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
                    raise TrainingError(
                        f"non-finite loss or gradients at epoch {epoch}, step {step_idx}; lower the learning rate"
                    )
                epoch_losses.append(loss)
                opt.step(model.params, grads)
            trace.append(float(np.mean(epoch_losses)))
    return model, trace


CKPT_MAGIC = b"FDBN1\x00"


def save_checkpoint(path, model: TinyRegressor, source, epochs: int = 0) -> None:
    """JSON header + raw little-endian float64 parameter block.

    The header records the kind of the corruption ``source`` the model
    was trained on ("bridge", "averaging" or "ddpm"), so a reverse loop of
    another kind can refuse it.
    """
    header = {
        "architecture": ARCHITECTURE, "T_f": model.t_f, "seed": model.seed, "epochs": epochs, "source": source.kind,
    }
    head = json.dumps(header, sort_keys=True).encode()
    block = model.flat_params().astype("<f8").tobytes()
    atomic_write_bytes(path, CKPT_MAGIC + struct.pack("<I", len(head)) + head + block)


def load_checkpoint(path) -> tuple[TinyRegressor, dict]:
    """A checkpoint's model and header.

    A file that is not a checkpoint, a header that does not parse or is
    not a JSON object, an architecture other than ours (the error names
    the first key that differs), a ``T_f`` or ``seed`` that is missing or
    not an integer, and a parameter block of another size raise
    ConfigError.
    """
    raw = Path(path).read_bytes()
    if raw[:6] != CKPT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file")
    try:
        (head_len,) = struct.unpack("<I", raw[6:10])
        header = json.loads(raw[10 : 10 + head_len].decode())
    except (struct.error, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError(f"{path}: checkpoint header is not a JSON object")
    stated = header.get("architecture")
    stated = stated if isinstance(stated, dict) else {}
    for key, value in ARCHITECTURE.items():
        if stated.get(key) != value:
            raise ConfigError(f"{path}: architecture {key}={stated.get(key)!r}, but the model has {key}={value!r}")
    for key in ("T_f", "seed"):
        if type(header.get(key)) is not int:  # bool is an int subclass, and no count or seed
            raise ConfigError(f"{path}: checkpoint header {key}={header.get(key)!r}, expected an integer")
    model = TinyRegressor(t_f=header["T_f"], seed=header["seed"])
    block = raw[10 + head_len :]
    expected = model.flat_params().nbytes
    if len(block) != expected:
        raise ConfigError(f"{path}: parameter block of {len(block)} bytes, expected {expected}")
    model.set_flat_params(np.frombuffer(block, dtype="<f8").astype(np.float64))
    return model, header


def save_loss_trace(path, trace) -> None:
    write_csv(path, ["epoch", "loss"], [(i, float(v)) for i, v in enumerate(trace)])
