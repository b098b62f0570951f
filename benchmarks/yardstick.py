"""A fixed reference workload that measures how fast the host runs right now.

The benchmark host is a small guest on a shared machine.  Its speed drifts
by up to 1.9x in spells of a few seconds to a minute, and the same
instructions simply take longer: no time is stolen, so neither CPU time nor
longer runs remove the drift.  `Yardstick` runs a fixed piece of reference
work in short probes, interleaved with the timed work on the same CPU, and
the benchmark divides each piece of timed work by the host's slowness that
the probes on either side of it saw.  The result is in nominal-speed
seconds: the time the work would have taken had the host run as fast as
it did when `UNIT_NOMINAL_S` was measured.

The reference work mixes the kinds of work the program does: a
least-squares solve of the size of an ieee69 Gauss-Newton step, JSON
encoding and decoding of a float list, Python dictionary loops and small
dense products.  It uses only numpy and the standard library, never the
program, so no change to the program can change it.  Probe time is never
part of a timed region.
"""

from __future__ import annotations

import bisect
import json
import math
import time

import numpy as np

# Seconds one reference unit takes at the nominal speed: its median over the
# benchmark runs on a 2-vCPU Intel Xeon guest at 2.1 GHz (Python 3.11,
# numpy 2.4, OpenBLAS on 1 thread).
UNIT_NOMINAL_S = 0.0275
SHARE = 0.25            # probe time as a share of the work since the last probe
PROBE_EVERY_S = 1.0     # timed work that may pass between two probes
MIN_GAP_S = 0.5         # a probe inside a timed region needs this much work before it


class Yardstick:
    """Probes of the reference work and the nominal time of timed intervals."""

    def __init__(self):
        rng = np.random.default_rng(20250908)
        self._a = rng.standard_normal((345, 137))
        self._b = rng.standard_normal(345)
        self._floats = rng.standard_normal(10_000).tolist()
        self._w = rng.standard_normal((64, 64))
        self._x = rng.standard_normal((64, 40))
        self.units = 0
        self.seconds = 0.0
        self.inside_s = 0.0     # probe time spent inside timed regions
        self.pending = 0.0      # timed work since the last probe
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._slowness: list[float] = []
        self.unit()             # load the code paths once

    def unit(self) -> None:
        """One unit of reference work, 27.5 ms at the nominal speed."""
        for _ in range(3):
            np.linalg.lstsq(self._a, self._b, rcond=None)
        json.loads(json.dumps({"w": self._floats}))
        for _ in range(4):
            d: dict[int, float] = {}
            for i in range(6000):
                d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
        for _ in range(200):
            np.tanh(self._w @ self._x)

    def probe(self, work_s: float) -> float:
        """Reference work in proportion to `work_s` seconds of work; returns
        the seconds it took."""
        units = max(1, math.ceil(work_s * SHARE / UNIT_NOMINAL_S))
        start = time.perf_counter()
        for _ in range(units):
            self.unit()
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self._slowness.append((end - start) / (units * UNIT_NOMINAL_S))
        self.seconds += end - start
        self.units += units
        self.pending = 0.0
        return end - start

    def after(self, work_s: float) -> None:
        """Count `work_s` seconds of timed work that just ended; probe once
        enough has passed."""
        self.pending += work_s
        if self.pending >= PROBE_EVERY_S:
            self.probe(self.pending)

    def inside(self) -> None:
        """Probe in the middle of a timed region, at a layer boundary.  The
        region subtracts `inside_s` from its time."""
        since = time.perf_counter() - self.last_end()
        if since >= MIN_GAP_S:
            self.inside_s += self.probe(since)

    def probes(self) -> list[tuple[float, float, float]]:
        """(start, end, slowness) of every probe so far."""
        return list(zip(self._starts, self._ends, self._slowness))

    def last_end(self) -> float:
        return self._ends[-1] if self._ends else 0.0

    def flush(self) -> None:
        if self.pending > 0.0:
            self.probe(self.pending)

    def slowness(self) -> float:
        """Reference time over its nominal time over the whole run: 1.0 at the
        nominal speed, 1.5 when the host ran 1.5 times slower."""
        return self.seconds / (self.units * UNIT_NOMINAL_S)

    def nominal(self, start: float, end: float) -> float:
        """Nominal-speed seconds of the timed interval [start, end].

        The probes inside it split it into pieces.  Each piece is divided by
        the mean slowness of the probe just before it and the probe just
        after it (one of them at the ends of the run).  Call after the last
        probe.
        """
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        cuts = [start]
        for k in range(first, last):
            cuts += [self._starts[k], self._ends[k]]
        cuts.append(end)
        total = 0.0
        for i in range(0, len(cuts), 2):
            a, b = cuts[i], cuts[i + 1]
            k = first + i // 2          # the first probe after this piece
            around = self._slowness[max(k - 1, 0):k + 1]
            total += (b - a) / (sum(around) / len(around))
        return total
