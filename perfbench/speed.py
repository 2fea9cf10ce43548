"""Machine-speed probe: short fixed loops interleaved with the work they calibrate.

The shared host this benchmark runs on changes speed by up to half within
seconds, and CPU time moves with wall time, so a raw timing says as much about
the host as about the program. A `Probe` runs a fixed pure-Python slice from a
SIGALRM handler every `period` seconds in the process it measures, between the
program's bytecodes. A slice's CPU time says how fast the host ran at that
moment. `factor` turns a raw interval into reference-speed seconds: the time
the same work would take on a host where one slice takes `NOMINAL_SLICE_S`.

A slice is shaped like the program's inner loops, not like a tight arithmetic
loop: bits of a mask walked by a generator, an XOR basis in a small class, a
union-find in a dict, a sorted tuple, a bounded memo, and many small dicts,
lists and tuples made and dropped. The host's slow phases slow such code more
than they slow a tight loop. On a 2-core VM, the same `decide-mix` input was
run 56 times in a slow phase (raw work 4.9-7.6 s). Scaled by a tight loop it
kept a log-spread (standard deviation) of 0.046; scaled by this slice's two
parts, 0.023. The raw work grew as the slice time to the power 1.08, where 1
is perfect tracking. The slice warms up before it is timed and keeps a small
working set, so the program's own cache footprint hardly moves it. It is
frozen: changing it changes every reported time.

The slice's own time is kept out of the work: `clock()` is `perf_counter()`
minus the probe's wall time so far. Pool workers forked from a probed process
inherit the handler but not the timer, so they run unprobed.
"""

from __future__ import annotations

import signal
import time

NOMINAL_SLICE_S = 5e-4  # CPU time of one timed slice on the reference host
WARM_UNITS, WARM_CHURN = 2, 20
TIMED_UNITS, TIMED_CHURN = 10, 150
MEMO_CAP = 4096
_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_U64 = (1 << 64) - 1


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Basis:
    """An XOR basis of ints keyed by leading bit."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def insert(self, v: int) -> bool:
        rows = self.rows
        while v:
            top = v.bit_length() - 1
            row = rows.get(top)
            if row is None:
                rows[top] = v
                return True
            v ^= row
        return False


def _unit(mask: int, memo: dict) -> tuple:
    """Components of a made-up dependency structure on the bits of mask."""
    got = memo.get(mask)
    if got is not None:
        return got
    idxs = list(_bits(mask))
    parent = {i: i for i in idxs}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    basis = _Basis()
    for i in idxs:
        if not basis.insert((i * 0x9E3779B1) & 0x7FFF):
            ra, rb = find(i), find(idxs[0])
            if ra != rb:
                parent[ra] = rb
    comps = tuple(sorted({find(i) for i in idxs}))
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[mask] = comps
    return comps


def _churn(n: int) -> int:
    """Small short-lived dicts, lists and tuples, as the program makes per call."""
    total = 0
    for i in range(n):
        d = {j: (j, i) for j in range(8)}
        odd = [v for v in d.values() if v[0] & 1]
        total += len(tuple(odd))
    return total


def _units(n: int, state: int, memo: dict) -> int:
    """n units on pseudo-random 30-bit masks; returns the generator state."""
    for _ in range(n):
        state = (state * _LCG_MUL + _LCG_ADD) & _U64
        _unit(state >> 34, memo)
    return state


class Probe:
    """Timed slices of a fixed loop, taken every `period` seconds of wall time."""

    def __init__(self):
        self.slices: list[float] = []  # CPU seconds of each timed part
        self.wall = 0.0  # wall seconds spent in the handler
        self.cpu = 0.0  # CPU seconds spent in the handler
        self._state = 12345
        self._memo: dict = {}

    def _slice(self, signum, frame) -> None:
        w0 = time.perf_counter()
        c0 = time.thread_time()
        state = _units(WARM_UNITS, self._state, self._memo)
        _churn(WARM_CHURN)
        c1 = time.thread_time()
        self._state = _units(TIMED_UNITS, state, self._memo)
        _churn(TIMED_CHURN)
        c2 = time.thread_time()
        self.slices.append(c2 - c1)
        self.cpu += c2 - c0
        self.wall += time.perf_counter() - w0

    def burst(self, n: int) -> None:
        """Stop the timer and take n slices back to back, outside any timed work."""
        self.stop()  # a timed slice must not nest inside another
        for _ in range(n):
            self._slice(None, None)

    def start(self, period: float) -> None:
        """Install the handler and (re)arm the timer."""
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        """Disarm the timer. The handler stays, for a signal already on its way."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def clock(self) -> float:
        """Wall seconds without the probe's own slices."""
        while True:
            before = self.wall
            now = time.perf_counter()
            if self.wall == before:  # no slice ran between the two reads
                return now - before

    def mark(self) -> int:
        """A position in the slice record, to take a factor over what follows."""
        return len(self.slices)

    def factor(self, start: int = 0, end: int | None = None) -> float:
        """Reference seconds per raw second over slices [start, end).

        A trimmed mean: the mean is what a sum of work over the interval
        feels, and trimming drops the few slices a page fault or an interrupt
        hit. Without any slice the factor is 1.
        """
        part = sorted(self.slices[start:end])
        cut = len(part) // 10
        part = part[cut:len(part) - cut]
        if not part:
            return 1.0
        return NOMINAL_SLICE_S / (sum(part) / len(part))

