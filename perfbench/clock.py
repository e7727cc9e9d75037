"""Host timings corrected for the speed of a shared machine.

On a shared host the same code runs slower for seconds to minutes at a
time, when neighbours load the machine.  A fixed pure-Python loop slows
down with it.  So every timed part of an execution is bracketed by runs
of :func:`reference_loop`, and a part's time is reported at the loop's
reference speed: ``seconds * REFERENCE_LOOP_S / loop_seconds``.  A
change to the program moves the part's time but not the loop's.
"""

from __future__ import annotations

import contextlib
import time

#: Seconds :func:`reference_loop` takes on a quiet 2-vCPU x86-64 VM with
#: Python 3.11; it only sets the scale of the corrected times.
REFERENCE_LOOP_S = 0.0063
#: A part waits for the next reference run at most this long.
CALIBRATE_EVERY_S = 0.1


def reference_loop() -> float:
    """Seconds of a fixed interpreter-bound loop (about 6 ms)."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(50_000):
        total += i * i % 7
        table[i % 1000] = total
    return time.perf_counter() - start


class Stopwatch:
    """Times the named parts of one execution.

    With *calibrate*, the reference loop runs before the first part, after
    the last, and between parts whenever ``CALIBRATE_EVERY_S`` has gone by;
    each part is paired with the mean of the two runs around it.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        #: part name -> (host seconds, reference loop seconds or None)
        self.parts: dict[str, tuple[float, float | None]] = {}
        self._pending: list[tuple[str, float]] = []
        self._loop = reference_loop() if calibrate else None
        self._loop_at = time.perf_counter()

    @contextlib.contextmanager
    def part(self, name: str):
        start = time.perf_counter()
        yield
        self._pending.append((name, time.perf_counter() - start))
        if not self.calibrate:
            self._flush(None)
        elif time.perf_counter() - self._loop_at >= CALIBRATE_EVERY_S:
            self._flush(reference_loop())

    def close(self) -> dict[str, tuple[float, float | None]]:
        if self._pending:
            self._flush(reference_loop() if self.calibrate else None)
        return self.parts

    def _flush(self, loop: float | None) -> None:
        around = (self._loop + loop) / 2 if loop is not None else None
        for name, seconds in self._pending:
            self.parts[name] = (seconds, around)
        self._pending.clear()
        self._loop, self._loop_at = loop, time.perf_counter()


def corrected(seconds: float, loop: float | None) -> float:
    """*seconds* at the reference loop's speed (unchanged without a loop)."""
    return seconds if loop is None else seconds * REFERENCE_LOOP_S / loop


def fastest(samples: list[dict], correct: bool = True) -> float:
    """Sum over the timed parts of each part's fastest repetition.

    Slow phases only ever add time, so the minimum is the steadiest
    estimate within a run; the runs' median is taken outside.
    """
    if not samples:
        return 0.0
    return sum(
        min(corrected(*sample[part]) if correct else sample[part][0] for sample in samples)
        for part in samples[0]
    )
