import os
import threading
import time

import numpy as np
import pytest

import semhash._threads as threads_mod
from semhash._threads import halves


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(threads_mod, "WORKERS", 2)


def recorder():
    calls = []

    def fn(part):
        calls.append((part, threading.current_thread() is threading.main_thread()))
        return list(range(10))[part]

    return calls, fn


def test_affinity_rule():
    assert threads_mod.WORKERS == min(len(os.sched_getaffinity(0)), 2)


@pytest.mark.parametrize("n, first, second", [(2, [0], [1]), (7, [0, 1, 2, 3], [4, 5, 6]),
                                              (10, [0, 1, 2, 3, 4], [5, 6, 7, 8, 9])])
def test_the_caller_takes_the_first_ceil_half_and_the_worker_the_rest(two_workers, n, first, second):
    calls, fn = recorder()
    assert halves(fn, n) == [first, second]
    half = len(first)
    assert sorted(calls, key=lambda c: c[0].start) == [(slice(0, half), True),
                                                       (slice(half, n), False)]


@pytest.mark.parametrize("workers, n", [(2, 0), (2, 1), (1, 5)])
def test_one_row_or_one_worker_is_one_inline_call_with_no_thread(monkeypatch, workers, n):
    monkeypatch.setattr(threads_mod, "WORKERS", workers)
    before = set(threading.enumerate())
    calls, fn = recorder()

    def inline(part):
        assert set(threading.enumerate()) == before
        return fn(part)

    assert halves(inline, n) == [list(range(n))]
    assert calls == [(slice(0, n), True)]


def test_one_worker_is_alive_during_the_call_and_none_after_it(two_workers):
    before = set(threading.enumerate())
    alive = []

    def fn(part):
        alive.append(len(set(threading.enumerate()) - before))
        return list(range(6))[part]

    assert halves(fn, 6) == [[0, 1, 2], [3, 4, 5]]
    assert alive == [1, 1]
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_an_error_of_either_half_is_raised_after_the_worker_is_done(two_workers, failing):
    before = set(threading.enumerate())
    finished = []

    def fn(part):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing == "worker"):
            raise ValueError(failing)
        time.sleep(0.05)  # the failing half is long done
        finished.append(on_worker)

    with pytest.raises(ValueError, match=f"^{failing}$"):
        halves(fn, 4)
    assert finished == [failing == "caller"]
    assert set(threading.enumerate()) == before


def test_the_worker_keeps_the_callers_numpy_error_state(two_workers):
    def fn(part):  # 0 / 0 on the worker's half only
        return np.zeros(part.start) / np.zeros(part.start)

    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        halves(fn, 2)
