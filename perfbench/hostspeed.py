"""Host-speed probe, and the rescaling of timings to a reference host speed.

On a shared host the whole machine drifts between full speed and about two
thirds of it, for seconds to minutes at a time (another tenant on a sibling
hardware thread), which moves every timing of a run alike.  The benchmark
brackets each measured segment with a probe and rescales the segment's
times to what they would read on a host whose probe takes
``REF_PROBE_MS``.

The probe is a fixed piece of code that runs in a process of its own
(:class:`HostSpeed` starts it), so the program's GIL cannot slow it.  It
still shares the host's CPUs with the program: work the program leaves
running between segments (a supervisor or clock thread, a worker still
busy) slows the probe, which lowers the segment's scale and makes the
program's timings look better by the same factor.  Two guards keep that in
view:

* each reading starts ``SETTLE_S`` after it is asked for, so work that ends
  with the segment is not seen;
* the run takes idle probes before the program under test exists and after
  it is shut down.  :meth:`HostSpeed.summary` reports by how much the
  probes taken between segments are slower than the slower idle probe, and
  flags the run (``probe_flag``) when that exceeds ``SLOWDOWN_FLAG``.  A
  drift of the host moves idle and in-run probes alike; a program that
  keeps the host busy between segments shows up in the flag.

Run as a script, this module is the probe process: it answers each line on
standard input with one probe time (ms) on standard output.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

#: Probe time (ms) of the reference host speed that every reported timing is
#: rescaled to: about the probe's time on a 2-vCPU 2.1 GHz cloud VM when no
#: other tenant competes for its cores.
REF_PROBE_MS = 1.5
#: Pause before each reading, so threads the measured work left spinning go idle.
SETTLE_S = 0.05
#: In-run probes slower than the idle ones by more than this share flag the run.
SLOWDOWN_FLAG = 0.25


def probe_ms() -> float:
    """The median of five runs of a fixed mix of small numpy calls and Python loops (ms)."""
    time.sleep(SETTLE_S)
    small = np.arange(64 * 8, dtype=float).reshape(64, 8)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0.0
        for step in range(300):
            total += float((small * step).sum(axis=0)[0])
            for value in range(40):
                total += value
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


class HostSpeed:
    """Rescales the timings of measured segments to the reference host speed.

    Each call to :meth:`segment` takes a probe and closes the segment that
    ran since the previous one; its scale is ``REF_PROBE_MS / mean(probe
    before, probe after)``.  Times of the segment are multiplied, rates
    divided, by it.  Use as a context manager: it starts the probe process
    and takes the first idle probe on entry, stops the process on exit.
    ``probe`` replaces the probe process (for tests).
    """

    def __init__(self, probe: Optional[Callable[[], float]] = None) -> None:
        self._process: Optional[subprocess.Popen] = None
        if probe is None:
            self._process = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True)
            probe = self._ask
        self.probe = probe
        try:
            self.idle: List[float] = [probe()]
        except BaseException:
            self.__exit__()
            raise
        self.probes: List[float] = [self.idle[0]]

    def _ask(self) -> float:
        assert self._process is not None and self._process.stdin and self._process.stdout
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        return float(self._process.stdout.readline())

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._process is not None:
            assert self._process.stdin is not None
            self._process.stdin.close()
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
            self._process = None

    def segment(self) -> float:
        """Close the segment that ran since the previous probe; returns its scale."""
        self.probes.append(self.probe())
        return 2.0 * REF_PROBE_MS / (self.probes[-2] + self.probes[-1])

    def idle_probe(self) -> None:
        """Take the closing idle probe, once the program under test is shut down."""
        self.idle.append(self.probe())

    def summary(self) -> Dict[str, object]:
        """The probes, and how much slower the in-run ones read than the idle ones."""
        in_run = self.probes[1:] or self.probes
        slowdown = statistics.median(in_run) / max(self.idle) - 1.0
        return {"probe_ms": self.probes, "idle_probe_ms": self.idle,
                "probe_slowdown": slowdown, "probe_flag": slowdown > SLOWDOWN_FLAG}


if __name__ == "__main__":
    for _ in sys.stdin:
        print(probe_ms(), flush=True)
