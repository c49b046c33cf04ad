import multiprocessing
import os
import threading
import time

import pytest

from fdbridge import correction, parallel
from fdbridge.correction import estimate_weights
from fdbridge.degradation import ProcessConfig, sample_trajectory
from fdbridge.errors import WorkerError
from fdbridge.phantoms import PhantomSpec, make_phantom

from conftest import _Unpicklable, die, needs_workers, raising, rand_image


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


def _phantoms(shape, count=3):
    return [make_phantom(PhantomSpec(*shape, seed=i)) for i in range(count)]


def _worker_draws(fail):
    """``correction.sample_trajectory`` in this process; a worker's draws first run ``fail``, which may replace them."""

    def draw(grid, process, t_total):
        traj = sample_trajectory(grid, process, t_total=t_total)
        if multiprocessing.parent_process() is not None:  # draws 1, 3, ... when k = 2
            return fail() or traj
        return traj

    return draw


class _Unsendable:
    """A draw's removed sums that raise when pickled, as the pipe to the caller pickles them."""

    def __reduce__(self):
        raise TypeError("this draw cannot be sent")


class _UnsendableTrajectory:
    def removed_sums(self, energy):
        return _Unsendable()


@needs_workers
class TestEstimateShares:
    """The Monte-Carlo schedule with its draws dealt to k processes gives the serial bytes, and leaves no process."""

    @staticmethod
    def _estimate(monkeypatch, k, images, process, mc_samples):
        monkeypatch.setattr(parallel, "share_count", lambda n: k)
        schedule = estimate_weights(images, process, mc_samples, seed=21)
        assert multiprocessing.active_children() == []
        return schedule.weights.tobytes(), schedule.energy_fraction.tobytes()

    @pytest.mark.parametrize("shape,changes,mc_samples", [
        ((64, 64), {}, 7),
        ((33, 31), {}, 7),
        ((64, 64), {"step_count_schedule": "log"}, 5),
        ((64, 64), {"density": "uniform"}, 5),
        ((32, 32), {}, 1),
        ((32, 32), {}, 2),
    ], ids=["64", "33x31", "log", "uniform", "one-draw", "two-draws"])
    def test_shares_match_serial(self, monkeypatch, shape, changes, mc_samples):
        images = _phantoms(shape) if shape[0] == shape[1] else [rand_image(*shape, seed=i) for i in range(3)]
        process = ProcessConfig(r_prime=2.0, t_f=16, seed=5, **changes)
        serial = self._estimate(monkeypatch, 1, images, process, mc_samples)
        for k in (2, 3):
            assert self._estimate(monkeypatch, k, images, process, mc_samples) == serial, k

    @pytest.mark.parametrize("fail,error,match", [
        (raising(ValueError("draw one")), ValueError, "^draw one$"),
        (raising(_Unpicklable("a", "b")), WorkerError, "(?s)a Monte-Carlo worker failed:.*_Unpicklable: a-b"),
        (lambda: _UnsendableTrajectory(), TypeError, "^this draw cannot be sent$"),
        (die, WorkerError, "^Monte-Carlo worker 1 exited without answering$"),
    ], ids=["worker", "unpicklable", "unsendable-draw", "worker-died"])
    def test_failure_reaches_the_caller_and_joins_the_workers(self, monkeypatch, fail, error, match):
        monkeypatch.setattr(parallel, "share_count", lambda n: 2)
        monkeypatch.setattr(correction, "sample_trajectory", _worker_draws(fail))
        with pytest.raises(error, match=match):
            estimate_weights(_phantoms((32, 32)), ProcessConfig(r_prime=2.0, t_f=8), 6)
        assert multiprocessing.active_children() == []

    def test_blas_runs_one_thread_while_workers_live_and_is_restored(self, monkeypatch):
        get, put = parallel.blas_thread_calls()
        before = get()
        seen = []

        def draw(grid, process, t_total):
            seen.append(get())  # only this process's draws land in this list
            return sample_trajectory(grid, process, t_total=t_total)

        monkeypatch.setattr(parallel, "share_count", lambda n: 2)
        monkeypatch.setattr(correction, "sample_trajectory", draw)
        try:
            put(2)
            estimate_weights(_phantoms((32, 32)), ProcessConfig(r_prime=2.0, t_f=8), 6)
            assert get() == 2
        finally:
            put(before)
        assert seen == [1] * 3
