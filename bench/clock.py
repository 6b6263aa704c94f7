"""Times scaled to a reference interpreter speed.

On a shared machine the speed of one core drifts: the same ensemble
operation measured 35 ms and then 67 ms within two minutes on a 2-core VM,
while the ratio of its time to a fixed pure-Python loop timed next to it
stayed within 3%. Every time the benchmark reports is therefore scaled:

    scaled = measured * REFERENCE_S / (time of calibration_loop around it)

so a reported time reads as the time on a machine where the loop takes
REFERENCE_S. The loop draws indices from a Mersenne Twister through
``randrange``, indexes a list and does float arithmetic, as the simulation
does. Its time tracked the staged CLI operation within 1% over 90 s in
which the operation itself drifted by 25%; a loop on a plain integer
generator tracked it only within 4%.

The speed also changes within a second, so ``Speedometer`` times the loop
before, during (every SAMPLE_INTERVAL_S, from a timer signal) and after a
measured call. On the 2 s analyze_bulk operation this cut the quartile
spread of single timings from 21% to 8%.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.002
_STEPS = 4000
SAMPLE_STEPS = 1000
SAMPLE_INTERVAL_S = 0.05


def calibration_loop(steps: int = _STEPS) -> float:
    """Seconds that _STEPS steps of fixed pure-Python work take, timed over ``steps``."""
    t0 = perf_counter()
    randrange = random.Random(20150519).randrange
    values = [1.0] * 512
    carry = 0.0
    for _ in range(steps):
        i = randrange(512)
        carry = values[i] * 0.5 + carry * 1e-3
        values[i] = carry + 0.25
    return (perf_counter() - t0) * _STEPS / steps


def scale(measured: float, calibration: float) -> float:
    return measured * REFERENCE_S / calibration


class Speedometer:
    """Samples the calibration loop around and during a ``with`` block.

    Uses SIGALRM, so only one may be active, in the main thread. The samples
    taken during the block add about 1% to its time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibration_loop(SAMPLE_STEPS))

    def __enter__(self) -> "Speedometer":
        self.samples = [calibration_loop(), calibration_loop()]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.samples += [calibration_loop(), calibration_loop()]

    @property
    def calibration(self) -> float:
        return statistics.mean(self.samples)
