import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import semhash._threads as threads_mod
from semhash._threads import halves, pool


class NoSubmit:
    """An executor that fails if work is handed to it."""

    def submit(self, *args, **kwargs):
        raise AssertionError("work was submitted")


def recorder():
    calls = []

    def fn(part):
        calls.append((part, threading.current_thread() is threading.main_thread()))
        return list(range(10))[part]

    return calls, fn


@pytest.fixture
def worker():
    with ThreadPoolExecutor(1) as executor:
        yield executor


def test_affinity_rule():
    assert threads_mod.WORKERS == min(len(os.sched_getaffinity(0)), 2)


@pytest.mark.parametrize("n, first, second", [(2, [0], [1]), (7, [0, 1, 2, 3], [4, 5, 6]),
                                              (10, [0, 1, 2, 3, 4], [5, 6, 7, 8, 9])])
def test_the_caller_takes_the_first_ceil_half_and_the_worker_the_rest(worker, n, first, second):
    calls, fn = recorder()
    assert halves(fn, n, worker) == [first, second]
    half = len(first)
    assert sorted(calls, key=lambda c: c[0].start) == [(slice(0, half), True),
                                                       (slice(half, n), False)]


@pytest.mark.parametrize("n, executor", [(1, NoSubmit()), (0, NoSubmit()), (5, None)])
def test_one_row_or_no_worker_is_one_inline_call(n, executor):
    calls, fn = recorder()
    assert halves(fn, n, executor) == [list(range(n))]
    assert calls == [(slice(0, n), True)]


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_an_error_of_either_half_is_raised_after_the_worker_is_done(worker, failing):
    finished = []

    def fn(part):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing == "worker"):
            raise ValueError(failing)
        time.sleep(0.05)  # the failing half is long done
        finished.append(on_worker)

    with pytest.raises(ValueError, match=f"^{failing}$"):
        halves(fn, 4, worker)
    assert finished == [failing == "caller"]


def test_the_worker_keeps_the_callers_numpy_error_state(worker):
    def fn(part):  # 0 / 0 on the worker's half only
        return np.zeros(part.start) / np.zeros(part.start)

    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        halves(fn, 2, worker)


@pytest.mark.parametrize("workers, wanted", [(1, True), (2, False), (1, False)])
def test_no_pool_gives_none_and_starts_no_thread(monkeypatch, workers, wanted):
    monkeypatch.setattr(threads_mod, "WORKERS", workers)
    before = threading.active_count()
    with pool(wanted) as executor:
        assert executor is None
        assert threading.active_count() == before


def test_no_thread_is_alive_after_the_with_block(monkeypatch):
    monkeypatch.setattr(threads_mod, "WORKERS", 2)
    before = set(threading.enumerate())
    with pool() as executor:
        assert halves(lambda part: list(range(6))[part], 6, executor) == [[0, 1, 2], [3, 4, 5]]
        assert len(set(threading.enumerate()) - before) == 1
    assert set(threading.enumerate()) == before


def test_no_thread_is_alive_after_the_with_block_raises(monkeypatch):
    monkeypatch.setattr(threads_mod, "WORKERS", 2)
    before = set(threading.enumerate())

    def fn(part):
        if part.start:
            raise ValueError("second half")

    with pytest.raises(ValueError, match="^second half$"), pool() as executor:
        halves(fn, 2, executor)
    assert set(threading.enumerate()) == before
