"""The one rule for a second thread, and the one way work is split onto it."""
from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

# threads for eval's query blocks: the caller's and at most one worker, which halves starts
WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, 2
)


def halves(fn, n: int) -> list:
    """``[fn(slice(0, h)), fn(slice(h, n))]`` for h = ceil(n / 2), the second on a worker thread.

    The worker is joined before this returns or raises.  With WORKERS < 2 or n < 2, it is one call.
    """
    if WORKERS < 2 or n < 2:
        return [fn(slice(0, n))]
    half = (n + 1) // 2
    with ThreadPoolExecutor(1) as worker:  # leaving the block joins the worker, also on an error
        # numpy's error state is a contextvar, which a new thread does not inherit
        rest = worker.submit(contextvars.copy_context().run, fn, slice(half, n))
        first = fn(slice(0, half))
    return [first, rest.result()]
