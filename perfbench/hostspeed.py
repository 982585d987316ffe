"""Host-speed probes: correct timed figures for the load of a shared host.

The benchmark host is a small VM on a shared machine.  Its speed swings by up
to a factor of two between quiet and busy spells that last from milliseconds
to minutes, so wall times of the same work taken a minute apart differ by
more than any change worth measuring.  A worker therefore times a fixed
piece of work, the probe, every ``interval`` seconds between ops (or on a
timer during one long call), and scales its timed figures by
``ref_s / median probe time``: the time the work would have taken on the
host when the probe runs in ``ref_s``.  The probes do not touch the
library, so no change to it can move the correction.  Two probes, as the
host's busy spells slow in-process Python and process start-up by different
amounts:

* ``SpeedProbe()`` builds a small dict in this process, for in-process ops;
* ``startup_probe()`` starts an interpreter that imports numpy, for
  command-line calls and library set-up, which are mostly that.

Run as a script to print the probes' times on this host.
"""

import signal
import subprocess
import sys
import time
from contextlib import contextmanager

# The probe builds a small dict keyed by tuples, as the library's characters
# do: of the loops tried, its time followed the library's best through the
# host's busy spells (a plain arithmetic loop slows less than the library).
_KEYS = [(i % 97, i // 97, i % 13) for i in range(3000)]
# Median probe times over 40 benchmark runs on a 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4), so that corrected figures read as wall times at that
# host's usual load.  Its quiet moments run the probes in 0.65 ms and 0.115 s.
REF_S = 1.4e-3
REF_START_S = 0.17


def _work() -> int:
    d = {}
    for k in _KEYS:
        w = k[:2]
        d[w] = d.get(w, 0) + k[0] * k[2]
    return len(d)


def _start_python() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)


class SpeedProbe:
    def __init__(self, interval: float = 0.02, work=_work, ref_s: float = REF_S):
        self.interval = interval
        self.work = work
        self.ref_s = ref_s
        self.times = []
        self.spent = 0.0  # seconds spent probing, to take out of wall times
        self._last = float("-inf")

    def probe(self) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def tick(self) -> None:
        """Probe if ``interval`` has passed since the last probe."""
        if time.perf_counter() - self._last >= self.interval:
            self.probe()

    @contextmanager
    def periodic(self):
        """Probe every ``interval`` seconds on SIGALRM while the block runs."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def factor(self) -> float:
        """ref_s over the median probe time; times are multiplied by it."""
        ordered = sorted(self.times)
        n = len(ordered)
        median = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
        return self.ref_s / median


def startup_probe() -> SpeedProbe:
    return SpeedProbe(interval=1.0, work=_start_python, ref_s=REF_START_S)


if __name__ == "__main__":
    for name, p, n in (("dict", SpeedProbe(), 500), ("startup", startup_probe(), 20)):
        for _ in range(n):
            p.probe()
        print(f"{name} probe: least {min(p.times) * 1e3:.3f} ms, median "
              f"{sorted(p.times)[n // 2] * 1e3:.3f} ms, factor {p.factor():.3f}")
