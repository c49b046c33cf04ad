"""Independent items of one job run on every usable CPU, in forked workers, and come back in order.

A job's n items are dealt round-robin into k shares: item i goes to
share i mod k.  Every share runs one function, ``run(share, k, *args)``:
the calling process runs share 0, and shares 1..k-1 run in workers
forked once per ``Workers`` context, which inherit the caller's state (a
model, images, grids, a corruption source) without pickling.
``Workers.ordered`` hands every worker the job and yields the n items in
order 0..n-1, each as it arrives, so a caller that folds them in that
order gets the same bytes for every k and holds only the items a worker
has run ahead by.  ``correction.estimate_weights`` runs its Monte-Carlo
draws this way, one item per draw, and ``recovery.train`` each batch,
one item per share.

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


def _portable(exc: Exception, text: str, job: str, error: type) -> Exception:
    """``exc`` if it survives a pickle round trip, else an ``error`` carrying the worker's traceback ``text``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # pickling and unpickling raise whatever the exception's own methods raise
        return error(f"a {job} worker failed:\n{text}")
    return exc


def _serve(conn, inherited, share: int, k: int, run, job: str, error: type) -> None:
    """A worker's loop: run share ``share`` of each job it is sent, until the parent closes its end.

    Each item of ``run(share, k, *args)`` goes back as ("ok", item), then
    ("done", None) ends the share; the first exception, raised by the
    share or by pickling an item, ends it instead as ("error", the
    exception made ``_portable``).  ``inherited`` holds the parent's ends
    of this and earlier workers' pipes, which the fork copied; closing
    them lets each pipe's EOF reach its worker.
    """
    for c in inherited:
        c.close()
    while True:
        try:
            args = conn.recv()
        except EOFError:  # the job is over
            return
        try:
            for item in run(share, k, *args):
                conn.send(("ok", item))
            reply = ("done", None)
        except Exception as exc:  # the parent raises it as its own
            reply = ("error", _portable(exc, traceback.format_exc(), job, error))
        conn.send(reply)


class Workers:
    """Forked processes that run shares 1..k-1 of each job while the caller runs share 0.

    ``run(share, k, *args)`` yields a share's items, in item order, in
    this process for share 0 and in a worker for the others.  ``job``
    names the work in errors, and ``error`` is the type raised for a
    worker that dies or fails with an exception that cannot be pickled.
    OpenBLAS is pinned to one thread before the first fork, so each
    worker starts with one thread and no pool to rebuild, and its count
    is restored once the workers are gone.  Leaving the context joins the
    workers: after an exception each is terminated first, otherwise
    closing the pipes stops it.  With k = 1 there is no worker and BLAS
    is left alone.
    """

    def __init__(self, k: int, run, job: str, error: type = WorkerError):
        self.k, self.run, self.job, self.error = k, run, job, error
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
                args = (theirs, [ours, *self.conns], share, self.k, self.run, self.job, self.error)
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

    def ordered(self, n: int, *args):
        """The job's items 0..n-1, in order: item i is share i mod k's next.

        Each worker is sent ``args`` and runs ``run(share, k, *args)``,
        and this process runs share 0 as its items are needed.  Each item
        is yielded as it arrives; after the last, each worker's end of
        share is read, so an exception a share raised is raised here.
        Read every item before the next job.
        """
        for share, conn in enumerate(self.conns, 1):
            try:
                conn.send(args)
            except BrokenPipeError:
                raise self.error(f"{self.job} worker {share} exited") from None
        own = iter(self.run(0, self.k, *args))
        for i in range(n):
            share = i % self.k
            yield next(own) if share == 0 else self._receive(share)
        for share in range(1, self.k):
            self._receive(share)

    def _receive(self, share: int):
        """Worker ``share``'s next reply: an item, or None at the end of its share; its exception is raised here."""
        try:
            kind, value = self.conns[share - 1].recv()
        except EOFError:
            raise self.error(f"{self.job} worker {share} exited without answering") from None
        if kind == "error":
            raise value
        return value
