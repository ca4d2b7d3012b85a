"""Machine-speed calibration of the benchmark's timings.

On a shared 2-CPU virtual machine the CPU speed drifts: within a
minute the same exact-arithmetic operation took anywhere between 1x and
2x its fastest time, in spells of ten to thirty seconds, and CPU time
drifts with wall time, so no statistic within a 20 s run removes it.  A
fixed piece of exact rational arithmetic, independent of the program,
drifts the same way: timed between operations over 90 s, the ratio of
operation time to calibration time varied by 3% (IQR/median over 4 s
chunks) where the operation time alone varied by 26%.

The benchmark calibrates about twice a second between operations and
scales each time by ``REFERENCE_S / c``: times then read as seconds on a
machine on which one calibration takes ``REFERENCE_S``.  For an
operation, ``c`` is the median of the calibrations from about two
seconds before it to two seconds after it, because single calibrations
are noisy and the ones right after a large operation are slowed by its
memory state; for the set-up probes it is the median of the calibrations
made between them.  Over two sets of ten runs of each workload, the
spread (IQR/median) of operations per second was 10-25% on raw times
and 3.5-14% on scaled ones, and that of the median operation time
8-38% raw and 7-13% scaled.  Raw wall times are kept in the result
files.
"""

from __future__ import annotations

import time
from fractions import Fraction

from stats import median

# One calibration on the machine the reference figures come from, in its
# fast spells, so that scaled times read as seconds there.
REFERENCE_S = 0.008
SIZE = 16
REPEATS = 3


def _eliminate():
    """Forward elimination on a fixed nonsingular rational matrix."""
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(SIZE)] for i in range(SIZE)]
    for k in range(SIZE - 1):
        pivot = rows[k]
        for i in range(k + 1, SIZE):
            f = rows[i][k] / pivot[k]
            rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
    return rows


def calibrate() -> float:
    """Median time of a few calibration runs, in seconds."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _eliminate()
        samples.append(time.perf_counter() - start)
    return median(samples)


def speed_factor(calibrations) -> float:
    """Scale from raw seconds to seconds at reference speed."""
    return REFERENCE_S / median(calibrations)


def window_factor(calibrations, before, reach=4) -> float:
    """``speed_factor`` of the calibrations around an operation that came
    right after calibration number ``before``: ``reach`` on each side."""
    return speed_factor(calibrations[max(0, before - reach + 1):before + reach + 1])
