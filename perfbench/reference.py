"""A fixed reference load that tracks the host's speed.

The host's speed drifts by up to 1.8x, in phases that can outlast a whole
run, and every herdlearn command slows by about the same factor (see
README.md).  Each repetition times ``load`` right before every command and
once after the last.  The benchmark multiplies a command's time by
``REFERENCE_S`` over the mean of the two loads around it, so that the host's
speed at that moment cancels out.

``load`` mixes the three kinds of work the program does: scalar Python
arithmetic with ``math`` calls (the observer and consensus paths), float
formatting into CSV lines (the writers) and numpy vector work on a
Philox stream (the Monte Carlo kernel).  It does not use herdlearn, so a
change to the program leaves it as it is.
"""

from __future__ import annotations

import math

import numpy as np

# About the fastest ``load`` on the 2-vCPU host of the first baseline, in
# seconds.  Scaled times read as seconds on a host as fast as that one.
REFERENCE_S = 0.007


def load() -> float:
    """About 7 ms of mixed work; returns a checksum so nothing is skipped."""
    x, acc = 0.25, 0.0
    for i in range(14_000):
        x = 0.5 * x + math.log1p(math.exp(-abs(x))) - 0.3
        acc += x if i % 3 else -x
    lines = "\n".join(f"{i},{acc * i:.17g},{x / (i + 1):.6f}" for i in range(2200))
    rng = np.random.Generator(np.random.Philox(7))
    a = rng.standard_normal(60_000)
    b = np.cumsum(np.logaddexp(0.0, -np.abs(a)))
    return acc + len(lines) + float(b[-1] + np.count_nonzero(a > 0.0))
