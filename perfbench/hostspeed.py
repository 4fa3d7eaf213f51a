"""How fast the host runs right now, from a fixed reference kernel.

On a shared machine the speed of one core drifts by half or more over
tens of seconds, as other tenants come and go.  The benchmark times this
kernel between CLI calls and scales its times by ``REF_SECONDS`` over the
kernel's time, which turns them into seconds on a host where the kernel
takes ``REF_SECONDS``.  The kernel mixes the kinds of work isokit does:
exact rational arithmetic, numpy calls on small arrays in a Python loop,
JSON text, and passes over 8 MB of memory for the memory-bound grid.
Timed in alternation with certify, width and normalize calls on that
host, the ratio of call to kernel time varied about 10% (interquartile
range over median) where the raw call times varied 35%.  The kernel does
not call isokit, so a change to the program cannot change it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

#: the kernel's time in a quiet phase of a two-vCPU Xeon host; scaled
#: times read as seconds on a host where the kernel takes this long
REF_SECONDS = 0.012

_SMALL = np.linspace(-1.0, 1.0, 64 * 7).reshape(64, 7)
_LARGE = np.linspace(0.0, 1.0, 1 << 20)
_TEXT = json.dumps({"vertices": _SMALL[:, :3].tolist()})


def kernel() -> float:
    acc = Fraction(0)
    for k in range(1, 600):
        acc += Fraction(k, k * k + 1)
    s = _SMALL.copy()
    for _ in range(700):
        s = np.sqrt(np.abs(0.5 * s + 0.25)) - 0.1
        s[:, 0] = np.maximum(s[:, 1], s[:, 2])
    for _ in range(24):
        json.dumps(json.loads(_TEXT))
    big = sum(float((_LARGE * w).sum()) for w in (0.5, 2.0))
    return float(acc) + float(s.sum()) + big


def probe() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
