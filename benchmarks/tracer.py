"""Span tracing of fdbridge layers from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS``
with a call-through wrapper, in every loaded ``fdbridge.*`` module
namespace whose attribute *is* that function (methods are replaced on
their class).  Each wrapper appends a span ``[name, start, end,
parent_id, op_id]`` to an in-memory list and updates a few computed-work
counters; ``uninstall`` puts every original object back.  Nothing in
``src/`` knows about the tracer.

A target that no longer exists is reported in ``Tracer.absent`` and its
metrics read 0, so a later rename shows up in the report instead of
crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, qualified name) of every traced public function.
TARGETS = (
    ("recovery", "TinyRegressor.forward"),
    ("recovery", "TinyRegressor.backward"),
    ("recovery", "TinyRegressor.recover"),
    ("recovery", "train"),
    ("degradation", "sample_trajectory"),
    ("degradation", "corrupt"),
    ("grid", "dft2"),
    ("grid", "idft2"),
    ("grid", "as_image"),
    ("imaging", "dc_projection"),
    ("imaging", "apply_forward"),
    ("imaging", "adjoint"),
    ("imaging", "residual_norm"),
    ("sampler", "reverse_step"),
    ("sampler", "reconstruct"),
    ("metrics", "psnr"),
    ("correction", "estimate_weights"),
    ("rng", "substream"),
    ("phantoms", "make_phantom"),
)

# Which statistics each span name reports, as (suffix, unit, better).
CALLS = ("calls", "count", "lower")
SELF = ("self_s", "s", "lower")
GFLOPS = ("gflops", "GFLOP/s", "higher")
MB = ("mb", "MB", "lower")
STATS = {
    "recovery.TinyRegressor.forward": (CALLS, SELF, GFLOPS),
    "recovery.TinyRegressor.backward": (CALLS, SELF, GFLOPS),
    "recovery.TinyRegressor.recover": (SELF,),
    "recovery.train": (SELF,),
    "degradation.sample_trajectory": (CALLS, SELF, MB),
    "degradation.corrupt": (CALLS, SELF),
    "grid.dft2": (CALLS, SELF),
    "grid.idft2": (CALLS, SELF),
    "grid.as_image": (CALLS, SELF),
    "imaging.dc_projection": (CALLS, SELF),
    "imaging.apply_forward": (CALLS, SELF),
    "imaging.adjoint": (CALLS, SELF),
    "imaging.residual_norm": (CALLS, SELF),
    "sampler.reverse_step": (CALLS, SELF),
    "sampler.reconstruct": (SELF,),
    "metrics.psnr": (CALLS, SELF),
    "correction.estimate_weights": (SELF,),
    "rng.substream": (CALLS, SELF),
    "phantoms.make_phantom": (CALLS, SELF),
}
# Metrics not tied to one span's calls or self time; run.py fills in
# trace.overhead_s, which needs an untraced pass to compare against.
DERIVED = (
    ("degradation.relaxed_frac", "ratio", "lower"),
    ("grid.fft_per_reverse_step", "FFT/step", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = [(f"{span}.{suffix}", unit, better) for span, stats in STATS.items() for suffix, unit, better in stats]
    return specs + list(DERIVED)


def conv_flops(weights, height: int, width: int) -> tuple[int, int]:
    """Computed multiply-add FLOPs of one forward and one backward pass.

    ``weights`` are the (C_out, C_in, k, k) kernels in layer order.  The
    forward pass runs one GEMM per layer; the backward pass runs one
    weight-gradient GEMM per layer plus an input-gradient GEMM for every
    layer but the first.
    """
    per_layer = [2 * height * width * int(np.prod(w.shape)) for w in weights]
    forward = sum(per_layer)
    return forward, forward + sum(per_layer[1:])


def held_bytes(obj) -> int:
    """Bytes of the ndarrays an object holds directly or in lists/tuples."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.op_id = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for module_name, qualname in self.targets:
            name = f"{module_name}.{qualname}"
            try:
                module = importlib.import_module(f"fdbridge.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else vars(owner).get(attr)
                if not callable(original):
                    self.absent.append(name)
                    continue
                self._patch(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "fdbridge" or loaded_name.startswith("fdbridge.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(span_id)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span, except trace.overhead_s."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, *_), s in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += s

        ffts = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] in ("grid.dft2", "grid.idft2") and self._under(i, "sampler.reconstruct")
        )
        c = self.counters
        derived = {
            "recovery.TinyRegressor.forward.gflops": _ratio(c["forward_flops"], self_s["recovery.TinyRegressor.forward"]) / 1e9,
            "recovery.TinyRegressor.backward.gflops": _ratio(c["backward_flops"], self_s["recovery.TinyRegressor.backward"]) / 1e9,
            "degradation.sample_trajectory.mb": _ratio(c["trajectory_bytes"], calls["degradation.sample_trajectory"]) / 1e6,
            "degradation.relaxed_frac": _ratio(c["relaxed_steps"], c["trajectory_steps"]),
            "grid.fft_per_reverse_step": _ratio(ffts, calls["sampler.reverse_step"]),
        }
        out = {}
        for name, _, _ in metric_specs():
            span, _, suffix = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif suffix == "calls":
                out[name] = calls[span]
            elif suffix == "self_s":
                out[name] = self_s[span]
        return out

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, op."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _observe_forward(counters, args, kwargs, result) -> None:
    out = result[0]
    forward, _ = conv_flops(_kernels(args[0]), *out.shape[-2:])
    counters["forward_flops"] += forward


def _observe_backward(counters, args, kwargs, result) -> None:
    dout = args[2] if len(args) > 2 else kwargs["dout"]
    _, backward = conv_flops(_kernels(args[0]), *dout.shape[-2:])
    counters["backward_flops"] += backward


def _kernels(model) -> list[np.ndarray]:
    return [p for p in model.params.values() if p.ndim == 4]


def _observe_trajectory(counters, args, kwargs, result) -> None:
    counters["trajectory_bytes"] += held_bytes(result)
    relaxed = getattr(result, "relaxed", None)
    if relaxed is not None:
        counters["relaxed_steps"] += int(np.sum(relaxed))
        counters["trajectory_steps"] += int(np.size(relaxed))


_OBSERVERS = {
    "recovery.TinyRegressor.forward": _observe_forward,
    "recovery.TinyRegressor.backward": _observe_backward,
    "degradation.sample_trajectory": _observe_trajectory,
}
