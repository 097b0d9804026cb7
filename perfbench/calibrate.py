"""How fast the machine runs right now, from a fixed piece of work.

The benchmark's machines are shared: the same code can take twice as long
for a few seconds when a neighbour is busy.  ``calibrate()`` times a fixed
mix of the work the library does -- multi-thousand-bit integer products
summed in an interpreted loop, and float arithmetic -- so a timing taken
next to it can be scaled to a machine of fixed speed:

    reference seconds = seconds * CAL_REF_S / calibrate()

A fresh process is slowed less than that loop in a slow stretch, since
part of its time goes to starting up, so whole-process timings are
scaled by ``calibrate_process()`` instead: a fresh interpreter that runs
``calibrate()`` once and exits, against PROCESS_REF_S.

The reference constants are what each calibration takes on that fixed
machine.  Neither calibration runs partition_forge code, so a change to
the library moves the scaled times by the same share as the raw ones.

    python3 perfbench/calibrate.py    # one calibration, as calibrate_process runs it
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

CAL_REF_S = 0.0165
PROCESS_REF_S = 0.075

_BIG = 3 ** 4000           # about 6300 bits, the size of the egf-bigint values
_SMALL = [7 ** k for k in range(1, 41)]


def calibrate() -> float:
    """Seconds one pass of the fixed work took."""
    start = time.perf_counter()
    acc = 0
    big = _BIG
    for rep in range(24):
        ff = 1
        for k, w in enumerate(_SMALL, 1):
            acc += w * ff * big
            ff *= 900 - k
        big = acc >> 2000
    x = 0.0
    for k in range(1, 40000):
        x += math.log(k) * math.sqrt(k) - math.exp(-k * 1e-3)
    elapsed = time.perf_counter() - start
    if not (acc and math.isfinite(x)):
        raise RuntimeError("calibration work went wrong")
    return elapsed


def calibrate_process(env: dict | None = None) -> float:
    """Seconds a fresh interpreter took to start, calibrate once and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float, ref: float = CAL_REF_S) -> float:
    """``seconds`` in reference seconds, given the calibrations around it."""
    return seconds * ref * 2.0 / (before + after)


if __name__ == "__main__":
    calibrate()
