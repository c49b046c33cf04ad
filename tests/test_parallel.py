import multiprocessing
import os
import threading
import time

import pytest

from fdbridge import parallel
from fdbridge.errors import WorkerError

from conftest import needs_workers


def test_share_count(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert parallel.share_count(1) == 1
    assert parallel.share_count(64) == min(cpus, 64)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert parallel.share_count(64) == 1
    monkeypatch.undo()
    monkeypatch.setattr(parallel, "blas_thread_calls", lambda: None)
    assert parallel.share_count(64) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel.share_count(64) == 1
    monkeypatch.undo()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert parallel.share_count(64) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert parallel.share_count(64) == min(cpus, 64)


def _tagged(i, pause):
    """Item i as (the pid that computed it, i); a worker's items are slower, so the caller waits for them."""
    if multiprocessing.parent_process() is not None:
        time.sleep(pause)
    return os.getpid(), i


def _raising_at(at):
    """An item function that returns i, except that item ``at`` raises."""

    def item(i):
        if i == at:
            raise ValueError(f"item {i}")
        return i

    return item


class _Unsendable:
    """An item's result that raises when pickled, as the pipe to the caller pickles it."""

    def __reduce__(self):
        raise TypeError("this result cannot be sent")


def _unsendable_at(at):
    """An item function that returns i, except that item ``at``'s result cannot be pickled."""

    def item(i):
        return _Unsendable() if i == at else i

    return item


@needs_workers
class TestWorkers:
    @pytest.mark.parametrize("k,n", [(k, n) for k in (2, 3) for n in (0, 1, 2, 7)])
    def test_items_come_back_in_order_from_their_shares(self, monkeypatch, k, n):
        monkeypatch.setattr(parallel, "share_count", lambda n_max: k)
        pids = {}
        with parallel.Workers(7, _tagged, "test") as workers:
            for job in range(2):  # the workers serve one job after another
                items = list(workers.map(n, 0.001))
                assert [i for _, i in items] == list(range(n)), job
                for pid, i in items:
                    assert pids.setdefault(i % k, pid) == pid, (job, i)
        assert pids.get(0, os.getpid()) == os.getpid()
        assert len(set(pids.values())) == len(pids)  # one process per share
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("at", [0, 1, 5], ids=["here", "worker", "later"])  # item 5 is the last worker's
    def test_an_item_that_raises_reaches_the_caller(self, monkeypatch, k, at):
        monkeypatch.setattr(parallel, "share_count", lambda n_max: k)
        with pytest.raises(ValueError, match=f"^item {at}$"):
            with parallel.Workers(7, _raising_at(at), "test") as workers:
                assert list(workers.map(7)) == list(range(7))
        assert multiprocessing.active_children() == []

    def test_a_result_that_cannot_be_sent_reaches_the_caller(self, monkeypatch):
        # item 1 runs in the worker, whose pipe raises while pickling it
        monkeypatch.setattr(parallel, "share_count", lambda n_max: 2)
        with pytest.raises(TypeError, match="^this result cannot be sent$"):
            with parallel.Workers(3, _unsendable_at(1), "test") as workers:
                list(workers.map(3))
        assert multiprocessing.active_children() == []

    def test_this_process_computes_its_next_item_before_reading_the_workers(self, monkeypatch):
        monkeypatch.setattr(parallel, "share_count", lambda n_max: 2)
        events = []

        def item(i):
            events.append(("computed", i))  # a worker's appends stay in its own copy of the list
            return i

        with parallel.Workers(5, item, "test") as workers:
            for i in workers.map(5):
                events.append(("read", i))
        assert events == [
            ("computed", 0), ("read", 0), ("computed", 2), ("read", 1),
            ("read", 2), ("computed", 4), ("read", 3), ("read", 4),
        ]
        assert multiprocessing.active_children() == []

    def test_a_worker_gone_between_jobs_is_the_error(self, monkeypatch):
        monkeypatch.setattr(parallel, "share_count", lambda n_max: 2)
        with pytest.raises(WorkerError, match="^test worker 1 exited$"):
            with parallel.Workers(2, _tagged, "test") as workers:
                assert len(list(workers.map(2, 0.0))) == 2
                workers.procs[0].terminate()
                workers.procs[0].join(timeout=10)
                list(workers.map(2, 0.0))
        assert multiprocessing.active_children() == []

