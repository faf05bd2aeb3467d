"""Machine speed, measured with a fixed computation that does not use `morita`.

On the shared 2-core VM the benchmark was written on, the host switched
between a fast mode and one about 1.5x slower, in stretches of seconds to
minutes.  Each measured run is therefore scaled to a reference speed:
multiplied by REFERENCE_MS / (the fastest run of reference_work() near it).
A change to `morita` does not change reference_work(), so it moves scaled
times as much as unscaled ones.
"""

import time

import numpy as np

# reference_work()'s fastest run on the 2-core VM the benchmark was written on
REFERENCE_MS = 4.0
REFERENCE_EVERY_S = 0.1  # time it again after an item once this has passed
REFERENCE_WINDOW_S = 0.5  # a run is scaled by the reference runs this close to it


def reference_work() -> int:
    """Fixed work that does not touch `morita`, in the package's own mix:
    tuple keys in dicts and sets, sorting, small numpy fancy indexing."""
    d = {}
    for i in range(4000):
        d[(i * 7919) % 4093, i & 15] = i
    s = set()
    for a, b in sorted(d):
        s.add((b, a))
    t = np.arange(36).reshape(6, 6)
    p = np.arange(6)[::-1]
    for _ in range(300):
        t = t[np.ix_(p, p)]
    return len(s) + int(t[0, 0])


class Speed:
    """Runs of reference_work() as (end time, seconds), spread over a measurement."""

    def __init__(self):
        self.runs = []

    def sample(self):
        """The faster of two back-to-back runs: the first one after an item
        also pays for the caches the item left behind."""
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            best = min(best or t1 - t0, t1 - t0)
        self.runs.append((t1, best))

    def maybe_sample(self):
        if not self.runs or time.perf_counter() - self.runs[-1][0] >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self, start=None, end=None) -> float:
        """Factor from this machine's time to time at the reference speed,
        from the fastest reference run within REFERENCE_WINDOW_S of
        [start, end] (of all runs when no interval is given).  Sampling
        after every item that ends REFERENCE_EVERY_S or more after the last
        reference run keeps one within the window of every item."""
        if start is None:
            return REFERENCE_MS / 1e3 / min(dt for (_t, dt) in self.runs)
        return REFERENCE_MS / 1e3 / min(
            dt for (t, dt) in self.runs
            if start - REFERENCE_WINDOW_S <= t <= end + REFERENCE_WINDOW_S)
