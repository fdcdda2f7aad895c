"""The one rule for a second thread, and the one way work is split onto it."""
from __future__ import annotations

import contextvars
import os
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from contextlib import nullcontext

# threads for eval's query blocks: the caller's and at most one worker
WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, 2
)


def pool(wanted: bool = True):
    """A one-thread executor if ``wanted`` and WORKERS > 1, else None; leaving ``with`` joins it."""
    return ThreadPoolExecutor(1) if wanted and WORKERS > 1 else nullcontext()


def halves(fn, n: int, worker: Executor | None) -> list:
    """``[fn(slice(0, h)), fn(slice(h, n))]`` for h = ceil(n / 2), the second on ``worker``.

    The worker is done before this returns or raises.  With no worker or n < 2, it is one call.
    """
    if worker is None or n < 2:
        return [fn(slice(0, n))]
    half = (n + 1) // 2
    # numpy's error state is a contextvar, which a new thread does not inherit
    rest = worker.submit(contextvars.copy_context().run, fn, slice(half, n))
    try:
        first = fn(slice(0, half))
    finally:
        wait((rest,))  # the worker is off shared buffers before an error leaves
    return [first, rest.result()]
