"""A fixed pure-Python loop that gauges how fast the machine runs right now.

The benchmark shares its host with other work: the speed of a small
shared machine drifts by up to 2x over minutes, moving every timing with
it.  Each time-based end-to-end metric is therefore reported in
*reference seconds*: each set-up and each item is scaled by NOMINAL_S
over the median of the readings of this loop taken just before and just
after it.  The loop runs only in run.py's own process, which never
imports scpkit, and only while no worker runs: around each set-up
process, and at the timed worker's pauses, about once per second of
item time.  So a change to
scpkit does not touch the loop, and a real speed-up or slow-down passes
through the scaling unchanged; only the host's drift cancels.  Unscaled
times are kept in the run metadata.
"""

from __future__ import annotations

from time import perf_counter_ns

# About the loop's median reading on the reference machine (x86_64, 2 cores,
# CPython 3.11.7, the machine of the seed baseline in trajectory.json)
# when the host is quiet.  It must stay fixed, or every recorded figure
# changes meaning.
NOMINAL_S = 0.04


def gauge_s() -> float:
    """Seconds for one run of the reference loop.

    It mixes what scpkit spends its time on: counting into a table of
    small lists, building small tuples and objects, dict lookups, and
    allocating and freeing a few megabytes.
    """
    start = perf_counter_ns()
    table = [[0] * 4 for _ in range(2048)]
    cache: dict[int, int] = {}
    for j in range(1000):
        for i in range(0, 2048, 8):
            table[(j * 21 + i) & 2047][(j ^ i) & 3] += 1
        cache[j] = cache.get(j & 15, 0) + j
    values = [_Value(tuple(row)) for row in table * 4]
    sum(v.counts[0] == v.counts[2] for v in values)
    del values
    junk = [(i, str(i)) for i in range(30_000)]
    del junk
    return (perf_counter_ns() - start) / 1e9


class _Value:
    __slots__ = ("counts",)

    def __init__(self, counts: tuple) -> None:
        self.counts = counts
