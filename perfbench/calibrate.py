"""A fixed reference computation that measures how fast the host runs now.

On a shared virtual machine the speed of a CPU drifts.  Between two sets
of runs made twenty minutes apart with the same code, workloads' wall
and set-up times moved together by 30% to 70%, and no statistic over a
workload's own units removes that.  So ``run.py`` times this
computation in its own process, on the CPU the workload runs on, before
each child process it starts and after the last one.  It reports the
end-to-end times at the *reference speed*: measured seconds times
:data:`REFERENCE_S` over the run's median calibration.

The computation sorts 8 MB of float64, more than the CPU's caches hold.
In a twelve-minute trace in which the host went from its slow to its
fast state, that sort's time fell to 0.75 of what it was, and the unit
times of ``build_medium``, ``export_small`` and ``live_replay`` to 0.72
to 0.78.  Interpreted dict, object and string loops, timed alongside,
fell to 0.52 to 0.65, which would have over-corrected.  The correction
is partial all the same (see the README's *Steadiness*).  The sort runs
in the benchmark's parent process, which in an untraced run never
imports the program, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

import numpy as np

#: Seconds of one sort on the host the bounds were set on (2-vCPU KVM
#: guest, Python 3.11, numpy 2.4), between its slow (~0.011 s) and fast
#: (~0.0075 s) states.  It only sets the scale of the reported times.
REFERENCE_S = 0.010
#: Timed sorts per calibration; their median is the sample.
REPEATS = 9

_values: Optional[np.ndarray] = None


def calibration_s(repeats: int = REPEATS) -> float:
    """Median wall seconds of ``repeats`` sorts of the fixed array."""
    global _values
    if _values is None:
        _values = np.random.default_rng(20241017).random(1_000_000)
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.sort(_values)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, calibrations: List[float]) -> float:
    """``seconds`` measured while the calibrations took ``calibrations``,
    scaled to the reference speed."""
    return seconds * REFERENCE_S / statistics.median(calibrations)
