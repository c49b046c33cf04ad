"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Forward256, Recon64, Train64  # noqa: E402

TINY = {
    "train64": lambda seed: Train64(seed, size=32, count=8, t_f=16, epochs=6),
    "recon64": lambda seed: Recon64(seed, size=32, t_f=8, train_count=8, train_epochs=6, mc_draws=8, cases=2, coils=2),
    "forward256": lambda seed: Forward256(seed, size=32, count=2, t_f=16),
}
# Per-layer metrics computed from counts, which must repeat exactly.
EXACT_UNITS = ("count", "MB", "ratio", "FFT/step")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(name, seed=5, tmp_path=None):
    spans = tmp_path / "spans.jsonl" if tmp_path else None
    return bench.run(TINY[name](seed), 0.0, True, spans)


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_specs()


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    record, result = bench.run(TINY[name](3), 0.0, False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for metric, unit in bench.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
    assert record["fingerprint_sha256"] is not None
    assert record["provenance"]["seed"] == 3


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_every_layer_metric_and_consistent_spans(name, tmp_path):
    record, result = _traced(name, tmp_path=tmp_path)
    assert result["correct"]
    assert record["absent"] == []
    assert list(result["metrics"]) == [m for m, _, _ in tracer.metric_specs()]
    for metric, unit, _ in tracer.metric_specs():
        assert result["metrics"][metric]["unit"] == unit

    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == record["spans"] > 0
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    total_self = dict.fromkeys(tracer.STATS, 0.0)
    for s in spans:
        self_s = s["end"] - s["start"] - child[s["id"]]
        assert self_s >= -1e-9, s
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert self_s <= parent["end"] - parent["start"], s
        total_self[s["name"]] += self_s
    for span, value in total_self.items():
        if f"{span}.self_s" in result["metrics"]:
            assert result["metrics"][f"{span}.self_s"]["value"] == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_traced_counts_repeat_exactly():
    first = _traced("recon64")[1]["metrics"]
    second = _traced("recon64")[1]["metrics"]
    exact = [m for m, unit, _ in tracer.metric_specs() if unit in EXACT_UNITS]
    assert {m: first[m]["value"] for m in exact} == {m: second[m]["value"] for m in exact}
    assert first["grid.fft_per_reverse_step"]["value"] > 0


def test_tracer_leaves_program_and_outputs_unchanged():
    import fdbridge.recovery

    def namespace():
        mods = [m for n, m in sys.modules.items() if n == "fdbridge" or n.startswith("fdbridge.")]
        return {(id(m), k): v for m in mods for k, v in vars(m).items()} | dict(vars(fdbridge.recovery.TinyRegressor))

    before = namespace()
    plain = bench.run(TINY["recon64"](9), 0.0, False)[0]
    traced = bench.run(TINY["recon64"](9), 0.0, True)[0]
    after = bench.run(TINY["recon64"](9), 0.0, False)[0]
    now = namespace()
    assert now.keys() == before.keys() and all(now[k] is before[k] for k in before)
    assert plain["fingerprint_sha256"] == traced["fingerprint_sha256"] == after["fingerprint_sha256"]
    assert plain["outputs"] == after["outputs"]


def test_missing_target_is_reported_absent():
    t = tracer.Tracer(targets=(("grid", "no_such_fn"), ("no_such_module", "f"), ("recovery", "TinyRegressor.nope")))
    t.install()
    t.uninstall()
    assert t.absent == ["grid.no_such_fn", "no_such_module.f", "recovery.TinyRegressor.nope"]
    assert t.metrics()["grid.dft2.calls"] == 0


def test_conv_flops_for_the_regressor_widths():
    import numpy as np

    widths = [np.zeros((16, 2, 3, 3)), np.zeros((16, 16, 3, 3)), np.zeros((2, 16, 3, 3))]
    forward, backward = tracer.conv_flops(widths, 64, 64)
    assert forward == 2 * 64 * 64 * 9 * (2 * 16 + 16 * 16 + 16 * 2)
    assert backward == forward + 2 * 64 * 64 * 9 * (16 * 16 + 16 * 2)


class _Failing:
    name, item, items_per_op, fingerprint_ops, seed = "failing", "ops", 1, 3, 0

    def setup(self):
        pass

    def op(self, k):
        if k == 2:
            raise RuntimeError("boom")
        return k

    def check(self, out):
        if out == 1:
            raise CheckFailed("bad output")

    def digest(self, out):
        return bytes([out])

    def outputs(self):
        return {}

    @staticmethod
    def reference():
        pass


def test_failed_operations_are_counted():
    record, result = bench.run(_Failing(), 0.0, False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)
    assert record["error_rate"] == pytest.approx(2 / 3)
    assert record["fingerprint_sha256"] is None


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "train64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
