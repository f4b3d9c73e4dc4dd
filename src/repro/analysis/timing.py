"""Small timing utilities used by the runtime benchmarks (Figures 5/6).

:func:`round_times` attributes search wall time per ask/tell evaluation
round from the ``wall_time_s`` / ``batch_id`` fields the executor
stamps onto every :class:`~repro.core.history.HistoryPoint`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["stopwatch", "time_call", "round_times"]


@contextmanager
def stopwatch():
    """Context manager yielding a dict whose ``seconds`` is filled on exit.

    >>> with stopwatch() as t:
    ...     work()
    >>> t["seconds"]
    """
    record = {"seconds": None}
    start = time.perf_counter()
    try:
        yield record
    finally:
        record["seconds"] = time.perf_counter() - start


def time_call(fn, *args, **kwargs):
    """Return ``(result, seconds)`` for a single call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def round_times(history):
    """Aggregate a search history's wall time per evaluation round.

    Groups the :class:`~repro.core.history.HistoryPoint` records by the
    ``batch_id`` the execution backend stamped onto them and sums each
    round's ``wall_time_s`` shares.  Points predating the planner (or
    loaded from old pickles) have neither field and are skipped, so old
    histories remain loadable and simply produce an empty breakdown.

    Returns a list of ``(batch_id, seconds, n_points)`` tuples in round
    order.
    """
    rounds = {}
    for point in history:
        batch_id = getattr(point, "batch_id", None)
        wall = getattr(point, "wall_time_s", None)
        if batch_id is None or wall is None:
            continue
        seconds, count = rounds.get(batch_id, (0.0, 0))
        rounds[batch_id] = (seconds + float(wall), count + 1)
    return [
        (batch_id, seconds, count)
        for batch_id, (seconds, count) in sorted(rounds.items())
    ]
