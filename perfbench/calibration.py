"""Reference host speed for the benchmark's times.

On a shared host the same op can run 1.0x to 1.8x slower in phases that
last from under a second to tens of seconds (measured on a 2-vCPU 2.1 GHz
Xeon VM).  A fixed calibration pass, owned
by the benchmark and run next to the ops, is slowed with them.  A time
measured next to calibrations c is reported as time * CALIBRATION_REF_S /
median(c), which cancels most of the swing.  No change to the program can
alter the calibration pass, so the program's own speed shows in full.
"""

import gc
import random
import statistics
import time
from fractions import Fraction

CALIBRATION_REF_S = 0.0005  # one calibration pass on a quiet 2.1 GHz Xeon, Python 3.11


def calibrate():
    """Seconds for one fixed pass of interpreter work owned by the benchmark:
    the kinds the ops do (integer and dict loops, list rows, string-seeded
    Random as the substreams use, Fraction sums).  The garbage collector is
    off during the pass, so objects the program keeps alive cannot slow it."""
    gc.disable()
    try:
        return _calibration_pass()
    finally:
        gc.enable()


def _calibration_pass():
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    ",".join(str(v) for v in table.values())
    for i in range(8):
        random.Random(f"calibration/{i}").random()
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(3**i, 2**i + 1)
    rows = [[(i * j) % 7 for j in range(24)] for i in range(24)]
    for row in rows:
        for j in range(24):
            if row[j]:
                row[j] = (row[j] * 3 + 1) % 7
    return time.perf_counter() - t0


def to_reference(seconds, calibrations):
    """A measured time at reference speed, given calibrations taken next to it."""
    return seconds * CALIBRATION_REF_S / statistics.median(calibrations)
