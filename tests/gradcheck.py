"""The model's pass body at double precision, and the central-difference check of ``TinyRegressor.backward`` on it.

Shared by the recovery, sampler and acceptance tests.
"""

import numpy as np

from fdbridge.grid import as_image
from fdbridge.recovery import PARAM_ORDER, ForwardCache, TinyRegressor, _energy
from fdbridge.rng import substream


def float64_forward(model: TinyRegressor, x_t: np.ndarray, t: int) -> tuple[np.ndarray, ForwardCache]:
    """``model.forward`` with the pass body in a float64 workspace: (estimate, cache).

    ``model.backward`` on the cache runs in that workspace's dtype, so it
    gives the float64 gradients of the same network the model runs in
    float32.
    """
    estimate, feat = model._pass(x_t, t, np.float64)
    return estimate, ForwardCache(feat, model._workspace, model._workspace.generation)


def _rectifier_pattern(cache) -> list[np.ndarray]:
    """Signs of the rectified activations, read in place while ``cache`` is fresh.

    Block 0 of the workspace's second and third stacked buffers holds the
    padded inputs of layers 2 and 3: the rectified activations, whose signs
    are those of the rectifiers' inputs (the padding stays 0).  np.sign
    copies them out before the next pass overwrites the buffers.
    """
    return [np.sign(x[: x.shape[0] // 3]) for x in cache.fresh_workspace().x[1:]]


def grad_check(
    model: TinyRegressor,
    sample: np.ndarray,
    t: int,
    target: np.ndarray | None = None,
    n_params: int = 50,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences, both of the float64 pass.

    Float32 rounding of the loss would swamp a 1e-5 step's difference.
    Checks ``n_params`` randomly chosen parameters of the upper-bound loss
    ||G(sample, t) - target||^2.  A parameter whose +/-step perturbation
    flips a rectifier region is redrawn: with a fixed activation pattern
    the loss is exactly quadratic along the path, so central differences
    are exact there and meaningless across the kink.
    """
    sample = as_image(sample)
    target = np.zeros_like(sample) if target is None else as_image(target)

    def loss_and_state(params_flat=None):
        if params_flat is not None:
            model.set_flat_params(params_flat)
        estimate, cache = float64_forward(model, sample, t)
        return _energy(estimate - target), cache, estimate

    base_flat = model.flat_params()
    loss0, cache, estimate = loss_and_state()
    grads = model.backward(cache, 2.0 * (estimate - target))
    grad_flat = np.concatenate([grads[n].ravel() for n in PARAM_ORDER])

    rng = substream(seed, "grad-check")
    total = base_flat.size
    max_err = 0.0
    checked = 0
    attempts = 0
    try:
        while checked < n_params and attempts < 20 * n_params:
            attempts += 1
            idx = int(rng.integers(0, total))
            for sign in (+1.0, -1.0):
                flat = base_flat.copy()
                flat[idx] += sign * step
                loss_s, cache_s, _ = loss_and_state(flat)
                pattern = _rectifier_pattern(cache_s)
                if sign > 0:
                    loss_plus, pattern_plus = loss_s, pattern
                else:
                    loss_minus, pattern_minus = loss_s, pattern
            # each pattern is its own copy, so the kink check never compares a buffer with itself
            patterns = pattern_plus + pattern_minus
            assert not any(np.shares_memory(a, b) for i, a in enumerate(patterns) for b in patterns[i + 1 :])
            workspace = (*model._workspace.x, model._workspace.out)
            assert not any(np.shares_memory(a, buf) for a in patterns for buf in workspace)
            if not all(np.array_equal(a, b) for a, b in zip(pattern_plus, pattern_minus)):
                continue  # rectifier region flipped; redraw
            fd = (loss_plus - loss_minus) / (2.0 * step)
            analytic = grad_flat[idx]
            err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-10)
            max_err = max(max_err, err)
            checked += 1
    finally:
        model.set_flat_params(base_flat)
    if checked < n_params:
        raise RuntimeError("gradient check could not find enough kink-free parameters")
    return max_err
