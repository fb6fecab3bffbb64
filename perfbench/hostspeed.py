"""Host speed probe: request times reported at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a factor of two over tens of seconds to minutes, for all Python
code if not all to the same degree.  On a 2-vCPU VM, replaying the
corpus for ten minutes gave 6.2 to 16.5 requests per second in 15 s bins
of identical work, and CPU time moved with wall time, so no statistic
over a 30 s run removes it.

So the client times a fixed slice of pure-Python exact rational
arithmetic, which does not touch the package, just before every request
and once after the last one.  A request's time is multiplied by
REFERENCE_S over the median slice time around it (the WINDOW probes
before and after it), which reports it as it would read on a host where
the slice takes REFERENCE_S.  A change to the package moves the request
times and leaves the slice alone, so it shows in full.  The slice does
the kind of work logvf does, row reduction over the rationals and sparse
polynomial products, because that follows logvf's slow-down more closely
than a plain integer loop: over 200 s of cli-questions the requests of
100 ms or more, repeated across rounds, spread 7.4 % (IQR over median)
adjusted by the slice, 10.8 % adjusted by the loop and 20 % raw.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Tuple

# Close to the median time of one slice on the 2-vCPU VM where the
# figures in README.md were taken.
REFERENCE_S = 0.003
WINDOW = 5
WARMUP = 20


def _row_reduce(n: int = 7) -> List[List[Fraction]]:
    """Gauss-Jordan elimination of a fixed n x (n + 2) rational matrix."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1)
          for j in range(n + 2)] for i in range(n)]
    r = 0
    for c in range(n + 2):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n:
            break
    return m


def _poly_product() -> Dict[Tuple[int, int], Fraction]:
    """Product of two fixed bivariate polynomials stored as dicts."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6 - i)}
    b = {(i, j): Fraction(j + 3, i + 1) for i in range(4) for j in range(4 - i)}
    out: Dict[Tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _slice() -> None:
    """About 3 ms of exact rational arithmetic."""
    _row_reduce()
    _poly_product()


def time_slice() -> float:
    """Seconds one slice takes; no garbage collection runs inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _slice()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes taken between timed items, and the factor of each item.

    Call ``probe()`` before each item and once after the last, so item i
    lies between probes i and i + 1.
    """

    def __init__(self, clock=time_slice, warmup: int = WARMUP):
        self._clock = clock
        self.probes: List[float] = []
        for _ in range(warmup):
            clock()

    def probe(self) -> None:
        self.probes.append(self._clock())

    def factor(self, i: int) -> float:
        """REFERENCE_S over the median of the probes around item i."""
        around = self.probes[max(0, i - WINDOW):i + WINDOW + 2]
        return REFERENCE_S / statistics.median(around)

    def adjusted(self, i: int, seconds: float) -> float:
        return seconds * self.factor(i)

    def _recent(self) -> float:
        return statistics.median(self.probes[-(WINDOW + 1):])

    def wall(self, reference_s: float) -> float:
        """Wall-clock seconds that read as `reference_s` at the speed of
        the last probes; a deadline set this way means the same amount
        of work whatever the host's speed."""
        return reference_s * self._recent() / REFERENCE_S

    def reference(self, wall_s: float) -> float:
        """`wall_s` wall-clock seconds at the speed of the last probes."""
        return wall_s * REFERENCE_S / self._recent()
