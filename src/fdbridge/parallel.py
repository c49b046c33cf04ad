"""Independent items of one job run on every usable CPU, in forked workers, and come back in order.

``Workers(n_max, item, job)`` runs a job's items ``item(i, *args)`` for
i = 0..n-1 on k processes, k = ``share_count(n_max)``.  Item i runs in
share i mod k: the calling process runs share 0, and shares 1..k-1 run
in workers forked once per ``Workers`` context, which inherit the
caller's state (a model, images, grids, a corruption source) without
pickling.  ``Workers.map`` hands every worker the job's arguments and
yields the n items in order 0..n-1, each as it arrives, so a caller that
folds them in that order gets the same bytes for every k and holds only
the items run ahead of the fold: one of its own, and those a worker has
sent early.  ``recovery.train`` runs each batch this way, one item per
sample, and ``fdb ablate`` its variant x image cells, one per reconstruction.

``share_count`` picks k: the usable CPUs, at most the item count, and 1
(no worker) where workers cannot start safely and fast.  OpenBLAS is
pinned to one thread before the fork, since each process then runs its
own products on its own core, and restored once the workers are gone.
Pinning it in the child instead gains nothing: the child rebuilds
OpenBLAS's pool and the new thread spins.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import multiprocessing
import os
import pickle
import sys
import threading
import traceback

import numpy as np

from .errors import WorkerError

# OpenBLAS's thread-count getters, by the names numpy's wheels have exported them under;
# each setter's name has "set" for "get"
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.lru_cache(maxsize=None)
def blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel bundles, or None where none is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in _BLAS_GETTERS:
            get, put = getattr(lib, name, None), getattr(lib, name.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def share_count(n: int) -> int:
    """How many processes run a job of ``n`` items: the usable CPUs, at most ``n``.

    1, so no worker, where workers cannot start safely and fast: without
    the fork start method (which hands them the caller's state without
    pickling) or ``os.sched_getaffinity``, while another Python thread
    runs (fork copies only the calling thread, and a lock another holds
    stays held in the child), or where OpenBLAS's thread count cannot be
    set (each process must run one BLAS thread).
    """
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
        or blas_thread_calls() is None
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), n)


def _portable(exc: Exception, text: str, job: str) -> Exception:
    """``exc`` if it survives a pickle round trip, else a WorkerError carrying the worker's traceback ``text``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # pickling and unpickling raise whatever the exception's own methods raise
        return WorkerError(f"a {job} worker failed:\n{text}")
    return exc


def _serve(conn, inherited, share: int, k: int, item, job: str) -> None:
    """A worker's loop: items share, share + k, ... of each job it is sent, until the parent closes its end.

    A job arrives as (n, args).  Each item goes back as ("ok", item(i,
    *args)); the first that raises, or whose pickling raises, goes back
    as ("error", the exception made ``_portable``) and ends the share.
    ``inherited`` holds the parent's ends of this and earlier workers'
    pipes, which the fork copied; closing them lets each pipe's EOF reach
    its worker.
    """
    for c in inherited:
        c.close()
    while True:
        try:
            n, args = conn.recv()
        except EOFError:  # the context is over
            return
        for i in range(share, n, k):
            try:
                conn.send(("ok", item(i, *args)))
            except Exception as exc:  # the parent raises it as its own
                conn.send(("error", _portable(exc, traceback.format_exc(), job)))
                break


class Workers:
    """Forked processes that run shares 1..k-1 of each job while the caller runs share 0.

    ``item(i, *args)`` computes item i of a job, in this process for
    share 0 and in a worker for the others; k is ``share_count(n_max)``,
    with ``n_max`` the most items a job holds.  ``job`` names the work in
    errors: a worker that dies, or fails with an exception that cannot be
    pickled, is a WorkerError.  OpenBLAS is pinned to one thread before
    the first fork, so each worker starts with one thread and no pool to
    rebuild, and its count is restored once the workers are gone.
    Leaving the context joins the workers: after an exception each is
    terminated first, otherwise closing the pipes stops it.  With k = 1
    there is no worker and BLAS is left alone.
    """

    def __init__(self, n_max: int, item, job: str):
        self.k, self.item, self.job = share_count(n_max), item, job
        self.conns: list = []
        self.procs: list = []

    def __enter__(self):
        if self.k == 1:
            return self
        get, put = blas_thread_calls()
        self.threads = get()
        put(1)
        try:
            ctx = multiprocessing.get_context("fork")
            for share in range(1, self.k):
                ours, theirs = ctx.Pipe()
                args = (theirs, [ours, *self.conns], share, self.k, self.item, self.job)
                proc = ctx.Process(target=_serve, args=args, daemon=True)
                self.conns.append(ours)
                proc.start()
                self.procs.append(proc)
                theirs.close()
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for proc in self.procs:
                proc.terminate()
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join()
        if self.k > 1:
            blas_thread_calls()[1](self.threads)

    def map(self, n: int, *args):
        """``item(i, *args)`` for i = 0..n-1, in order, each as it arrives.

        Every worker is sent (n, args).  This process computes items 0, k,
        2k, ... one round ahead: item i + k before it reads the workers'
        items i + 1..i + k - 1, so it holds one item of its own and sleeps
        only on a worker slower than itself.  The first exception met, in
        a worker or here, is raised here; it ends the job, so leave the
        context.  Read every item before the next job.
        """
        for share, conn in enumerate(self.conns, 1):
            try:
                conn.send((n, args))
            except BrokenPipeError:
                raise WorkerError(f"{self.job} worker {share} exited") from None
        own = self.item(0, *args) if n else None
        for start in range(0, n, self.k):
            yield own
            if start + self.k < n:
                own = self.item(start + self.k, *args)
            for i in range(start + 1, min(start + self.k, n)):
                yield self._receive(i - start)

    def _receive(self, share: int):
        """Worker ``share``'s next item; its exception is raised here."""
        try:
            kind, value = self.conns[share - 1].recv()
        except EOFError:
            raise WorkerError(f"{self.job} worker {share} exited without answering") from None
        if kind == "error":
            raise value
        return value
