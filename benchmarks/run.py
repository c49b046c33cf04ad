"""fdbridge benchmark driver.

    python3 benchmarks/run.py --workload train64 --seed 1 --seconds 35 --trace 0

Runs one workload (``train64``, ``recon64`` or ``forward256``; see
``workloads.py``) in a closed loop: one caller in this process runs
operations back to back against the ``fdbridge`` sources under ``src/``
of the checkout this file sits in.  Every operation's output is checked.

``--trace 0`` sets the workload up, runs one warm-up operation, then
runs operations until ``--seconds`` seconds have passed since the
start, timing the workload's reference kernel after each operation and
setting up again at the start of each of ``SETUPS`` equal spans, and
reports the end-to-end metrics (see ``measure``).
``--trace 1`` ignores ``--seconds``: after set-up and the warm-up it
runs set-up plus a fixed number of operations, each once untraced and
once with the tracer installed, and reports per-layer metrics and the
tracing overhead (the difference of the two wall times).  Fixed operation counts make the
traced count metrics repeat exactly.

The last line of standard output is the result object; the line before
it, also written to ``.bench_out/``, is the full record (provenance,
fingerprints, per-operation times).  Exit status: 0 when every check
passed, 1 when one failed, 2 when the sources cannot be found.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 5
SETTLE_S = 0.15
SETUP_BATCH_S = 0.25

# (name, unit) of every end-to-end metric, as listed in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_vs_ref", "ratio"),
)


class OpLog:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}

    def run(self, k: int) -> float | None:
        """Run operation k; return its wall time, or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            out = self.workload.op(k)
            elapsed = time.perf_counter() - start
            self.workload.check(out)
        except Exception:  # a failed operation is counted and reported, not fatal
            self.failed += 1
            self.errors.append(f"op {k}: {traceback.format_exc(limit=3)}")
            return None
        digest = hashlib.sha256(self.workload.digest(out)).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            self.failed += 1
            self.errors.append(f"op {k}: output differs from an earlier run of the same operation")
            return None
        return elapsed

    def fingerprint(self) -> str | None:
        """sha256 over the first ``fingerprint_ops`` outputs, or None if one is missing."""
        keys = range(self.workload.fingerprint_ops)
        if any(k not in self.digests for k in keys):
            return None
        return hashlib.sha256("".join(self.digests[k] for k in keys).encode()).hexdigest()


def _setup_s(workload) -> float:
    """Seconds per set-up, averaged over back-to-back set-ups lasting SETUP_BATCH_S.

    A set-up of a few milliseconds varies by half its time from call to
    call; the mean of a batch does not.  The batch starts after SETTLE_S
    idle: OpenBLAS's worker thread busy-waits for about 0.1 s after each
    threaded BLAS call, and on a 2-vCPU VM whose vCPUs share a core that
    halves the speed of single-threaded work beside it, so without the
    pause a set-up would time differently depending on whether the
    operation before it ended in a BLAS call.
    """
    time.sleep(SETTLE_S)
    count, start = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - start) < SETUP_BATCH_S:
        workload.setup()
        count += 1
    return elapsed / count


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(workload, seconds: float):
    """Untraced run: end-to-end metrics and the per-operation times.

    ``workload.reference``, a fixed kernel that never calls the program
    (see ``refkernels.py``), is timed after the warm-up and after every
    operation.  ``op_vs_ref`` is the median operation time over the
    median kernel time of the same run: a slow phase of the shared host
    slows operations and kernels alike and leaves the ratio, while a
    change to the program moves the operations only.  Over ten runs of
    the same code, the median operation time in seconds spread 1.5 to
    2.6 times as wide as the ratio.

    ``setup_s`` is the median of SETUPS set-up timings taken at equal
    spans of the run (the first before the warm-up operation).
    """
    start = time.perf_counter()
    setup_times = [_setup_s(workload)]
    log = OpLog(workload)
    log.run(0)  # warm-up; its time is not reported
    workload.reference()
    op_times, ref_times = [], [_timed(workload.reference)]
    k = 1
    while True:
        now = time.perf_counter() - start
        if len(setup_times) < SETUPS and now >= len(setup_times) * seconds / SETUPS:
            setup_times.append(_setup_s(workload))
        elif now < seconds or k < workload.fingerprint_ops:
            elapsed = log.run(k)
            if elapsed is not None:
                op_times.append(elapsed)
            ref_times.append(_timed(workload.reference))
            k += 1
        else:
            break
    op_s = statistics.median(op_times) if op_times else None
    ref_s = statistics.median(ref_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_vs_ref": op_s / ref_s if op_s else 0.0,
    }
    detail = {
        "op_s_p50": op_s,
        "ref_s_p50": ref_s,
        "items_per_s": workload.items_per_op / op_s if op_s else None,
        "setup_seconds": setup_times,
        "op_seconds": op_times,
        "ref_seconds": ref_times,
    }
    return log, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, detail


def trace(workload, spans_path: Path | None):
    """Traced run: per-layer metrics over one set-up and ``fingerprint_ops`` operations.

    Each step (the set-up, then each operation) runs once untraced and
    once traced, back to back, so that the overhead compares runs made in
    the same host state.  The order alternates from step to step because
    the second run of a step is faster (its memory is already mapped).
    """
    from tracer import Tracer, metric_specs

    log = OpLog(workload)
    workload.setup()
    log.run(0)
    steps = [("setup", workload.setup)]
    steps += [(k, functools.partial(log.run, k)) for k in range(1, workload.fingerprint_ops + 1)]
    tracer = Tracer()
    untraced = traced = 0.0
    for i, (op_id, step) in enumerate(steps):
        for with_tracer in (False, True) if i % 2 == 0 else (True, False):
            if not with_tracer:
                untraced += _timed(step)
                continue
            tracer.op_id = op_id
            tracer.install()
            try:
                traced += _timed(step)
            finally:
                tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_s"] = traced - untraced
    if spans_path is not None:
        tracer.write_spans(spans_path)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()}
    detail = {
        "untraced_s": untraced,
        "traced_s": traced,
        "spans": len(tracer.spans),
        "absent": tracer.absent,
        "spans_file": str(spans_path) if spans_path else None,
    }
    return log, metrics, detail


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read through its C API when the library is found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, attempted: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
        "ops_attempted": attempted,
    }


def run(workload, seconds: float, traced: bool, spans_path: Path | None = None):
    """Run one workload; return (record, result)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if traced:
            log, metrics, detail = trace(workload, spans_path)
        else:
            log, metrics, detail = measure(workload, seconds)
    record = {
        "workload": workload.name,
        "trace": int(traced),
        "seconds": seconds,
        "item": workload.item,
        "items_per_op": workload.items_per_op,
        "attempted": log.attempted,
        "failed": log.failed,
        "error_rate": log.failed / log.attempted,
        "errors": log.errors[:5],
        "fingerprint_sha256": log.fingerprint(),
        "outputs": workload.outputs(),
        "warnings": sorted({str(w.message) for w in caught})[:5],
        "warning_count": len(caught),
        "provenance": provenance(workload.seed, log.attempted),
        **detail,
    }
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fdbridge" / "__init__.py").is_file():
        print(f"error: fdbridge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fdbridge

    if Path(fdbridge.__file__).resolve().parent != (SRC / "fdbridge").resolve():
        print(f"error: imported fdbridge from {fdbridge.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED

    workload = WORKLOADS[args.workload](args.seed)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record, result = run(workload, args.seconds, bool(args.trace), OUT / f"{stem}.spans.jsonl")
    record["import_s"] = import_s
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
