"""The reference operation that scales subprocess timings to a fixed host speed.

The shared host this benchmark runs on changes speed by up to 1.5x for
seconds to minutes at a time. Every timed subprocess operation lies between
two reference runs, one just before and one just after it: a fresh
interpreter that imports numpy, the same start-up machinery every pointnull
call goes through, with no pointnull code in it, so no change to pointnull
can move it. A timing is reported as measured x REFERENCE_MS / reference,
where reference is the mean of the two, that is, at the speed where the
reference takes REFERENCE_MS. Over ten runs this cut the spread of the
timing metrics from 11-31% to under 8%. Reports print the raw figures beside
the scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

# about what the reference took on the machine this benchmark was written
# on (Python 3.11.7, numpy 2.4.6); a fixed constant, never re-measured
REFERENCE_MS = 150.0
COMMAND = [sys.executable, "-c", "import numpy"]


def reference_ms() -> float:
    """Wall time of one reference run, in ms."""
    start = time.perf_counter()
    subprocess.run(COMMAND, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


def scale(measured: float, reference: float) -> float:
    """measured at the host speed where the reference takes REFERENCE_MS."""
    return measured * REFERENCE_MS / reference
