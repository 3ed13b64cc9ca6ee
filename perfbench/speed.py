"""Machine-speed correction for a shared, noisy 2-core machine.

Other load on the host slows this machine by 35-100% in bursts lasting from
seconds to minutes, and CPU time slows with wall time (no steal is
accounted), so neither repeats nor CPU time remove it.  The benchmark
therefore times a fixed pure-Python probe every PERIOD_S during each pass,
from a SIGALRM handler in the measured process, and reports each item's
time scaled to reference speed:

    reference seconds = (wall seconds - probe seconds inside) * REFERENCE_PROBE_S / probe

with `probe` the mean probe time from WINDOW_S before the item to WINDOW_S
after it.  REFERENCE_PROBE_S is the probe's time on the reference machine
(2-core Intel Xeon KVM guest at 2.1 GHz) when unloaded, so reference seconds
are that machine's unloaded seconds.  Over 150 s of alternating calls under
varying load, the spread (interquartile range over median) of single calls
fell from 31% to 9% for 25 grid reports, 35% to 6% for a 12x12 Alexander
polynomial, 26% to 5% for the K(20,20) report and 19% to 3% for 12
plumbing lattices.  Raw wall times are kept in the run records.

Set-up time (a fresh interpreter importing the program) is file-system,
loader and process-start work, which the pure-Python probe does not track:
scaled by it, the spread of set-up samples grew.  Each set-up sample is
instead scaled by IMPORT_PROBE, a fresh interpreter importing numpy (a fixed
dependency, not the program), timed just before it:

    reference seconds = wall seconds * REFERENCE_IMPORT_PROBE_S / import probe

Over 4 minutes of samples, the spread of medians of 8 fell from 17% raw to
3% scaled (to 16% with the pure-Python probe).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_PROBE_S = 0.00185
IMPORT_PROBE = "import numpy"
REFERENCE_IMPORT_PROBE_S = 0.12
PERIOD_S = 0.1
WINDOW_S = 0.25

# The probe mixes small-integer arithmetic, dict updates and big-integer
# products.  Of the variants tried (each part alone, and with a strided read
# over a few MB of heap), this mix tracked the slowdown of grid reports,
# plumbing searches, high-rank reports and Alexander polynomials best.
_MODULUS = 3**200 + 2


def probe():
    """Seconds for a fixed pure-Python computation."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    table = {}
    x = 3**200
    for i in range(2_000):
        table[i * 7919 % 10007] = i
        acc += table.get(i, 0)
        x = x * 1234567891 % _MODULUS
    return time.perf_counter() - t0


def factor(probes):
    """Scale from wall seconds to reference seconds."""
    return statistics.fmean(REFERENCE_PROBE_S / p for p in probes)


class Sampler:
    """Times the probe every PERIOD_S while started; samples are
    (end time, probe seconds)."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum=None, frame=None):
        p = probe()
        self.samples.append((time.perf_counter(), p))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._tick()

    def inside(self, start, end):
        """Probe seconds spent inside the interval [start, end].  A probe
        runs whole between two bytecodes, so it is inside or outside."""
        lo = bisect.bisect_left(self.samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, end, key=lambda s: s[0])
        return sum(p for t, p in self.samples[lo:hi] if start <= t - p)

    def reference_seconds(self, start, end):
        """Reference seconds of the interval [start, end]."""
        inside = self.inside(start, end)
        near = [p for t, p in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return (end - start - inside) * factor(near)
