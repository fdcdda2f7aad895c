"""Host-speed normalisation for the benchmark's end-to-end timings.

On a shared host the cores this process runs on speed up and slow down by
up to 1.6x for seconds at a time, as other tenants come and go.  Wall time
then measures the host as much as the program.  ``SpeedMeter`` samples the
host's speed while the benchmark runs: every ``PERIOD_S`` seconds a timer
signal interrupts the program and times a fixed probe: small matrix
products, as in a training step at a small batch, then distance sums and a
stable argsort over a few hundred rows, as in a ranking.  The probe runs
cold, with whatever the program left in the caches, as the program's own
code does; a probe timed warm misses the slow phases that come from sharing
caches.

A stretch of wall time between two probes is converted to reference
seconds by the factor ``(REF_PROBE_S / probe time there) ** ALPHA``.  The
program slows more than the probe does: over 13-34 repetitions of each
workload on a 2-core Intel Xeon VM, regressing log repetition time on log
probe time gave slopes of 1.40 (train_b4), 1.47 (eval_1k) and 1.34
(cli_pipeline); ``ALPHA`` is their middle.  With it, the correction removed
77-93 % of the variance of a repetition's log time.  In the VM's slowest
phase, in which eval_1k ran 40 % slower than usual, it removed 54 % (slope
1.23).  The time spent in the probes themselves is left out.

The probe shares no code with semhash, so a change to the library cannot
change the yardstick.  ``REF_PROBE_S`` is about the probe's median time on
that VM, so reference seconds read close to its typical wall seconds.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
REF_PROBE_S = 500e-6
ALPHA = 1.4
SMOOTH = 5  # probes in the running median that damps single interrupted probes


class SpeedMeter:
    """Times a probe on every timer tick; converts intervals to reference seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.random((4, 64))
        self._w1 = rng.random((64, 128))
        self._w2 = rng.random((128, 16))
        self._rows = rng.random((256, 64))
        self._ticks: list[tuple[float, float, float]] = []  # (handler start, end, probe s)
        self._smoothed: list[float] | None = None

    def _probe(self) -> float:
        x, w1, w2, rows = self._x, self._w1, self._w2, self._rows
        start = time.perf_counter()
        for _ in range(8):
            (np.tanh(x @ w1) @ w2).sum()
        for i in range(4):
            np.argsort(np.abs(rows - rows[i]).sum(axis=1), kind="stable")
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        begin = time.perf_counter()
        probe_s = self._probe()
        self._ticks.append((begin, time.perf_counter(), probe_s))

    def start(self) -> None:
        self._on_alarm(None, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._on_alarm(None, None)
        probes = [p for _, _, p in self._ticks]
        half = SMOOTH // 2
        self._smoothed = [
            statistics.median(probes[max(0, i - half): i + half + 1]) for i in range(len(probes))
        ]

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """(wall s, reference s) of ``[start, end]``, both without the probes' own time.

        Each stretch between two probes runs at the speed the later probe
        measured, smoothed over its neighbours.  Call after ``stop``; the
        interval must lie between the first and the last probe.
        """
        assert self._smoothed is not None, "seconds() needs stop() first"
        ticks = self._ticks
        wall = ref = 0.0
        i = max(1, bisect.bisect_right(ticks, (start,)))
        while i < len(ticks):
            lo = max(start, ticks[i - 1][1])
            hi = min(end, ticks[i][0])
            if hi > lo:
                wall += hi - lo
                ref += (hi - lo) * (REF_PROBE_S / self._smoothed[i]) ** ALPHA
            if ticks[i][0] >= end:
                break
            i += 1
        return wall, ref

    @property
    def probe_s(self) -> list[float]:
        return [p for _, _, p in self._ticks]
