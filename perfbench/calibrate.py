"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared host the same job can take up to twice as long from one second
to the next, and the share of slow time drifts over minutes.  The benchmark
runs this kernel before every job and scales its times by
``REFERENCE_S / median(kernel time)``, so that a drift in host speed, which
slows the kernel and the jobs alike, does not read as a change of the
program.  The kernel is frozen benchmark code: no change to the package
can make it faster or slower.

It mixes the kinds of work the package does, each timed on its own and
combined by geometric mean: exact big-integer convolution, small numpy
array operations, table lookups over a block of words (as in weight
enumeration), vector numpy arithmetic, and plain interpreter work on lists
and dicts.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median kernel time on the host the benchmark was tuned on (2 shared
# cores, Python 3.11, numpy 2.4).  Scaled times read as seconds on a host
# where the kernel takes this long.
REFERENCE_S = 0.0015

_TERMS = ((0, 1), (2, 15), (4, 15), (6, 1))
_TABLE = (np.arange(16)[:, None] ^ np.arange(16)[None, :]).astype(np.uint8)
_MUL = (np.arange(16)[:, None] * np.arange(16)[None, :] % 16).astype(np.uint8)
_ROWS = (np.arange(4 * 32).reshape(4, 32) * 7 % 16).astype(np.uint8)
_DIGITS = (np.arange(1024)[:, None] // 16 ** np.arange(4)[None, :] % 16).astype(np.intp)
_VEC = np.linspace(-0.5, 1.0, 1024)


def _bigint() -> None:
    row = [1] + [0] * 120
    for _ in range(12):
        row = [sum(b * row[m - i] for i, b in _TERMS if i <= m) for m in range(121)]


def _small_numpy() -> None:
    a = np.arange(48, dtype=np.uint8) % 16
    for k in range(120):
        a = _TABLE[a, (a + k) % 16]
        np.count_nonzero(a)


def _table_numpy() -> None:
    words = np.zeros((1024, 32), np.uint8)
    for j in range(4):
        words = _TABLE[words, _MUL[_DIGITS[:, j : j + 1], _ROWS[j][None, :]]]
    np.bincount(np.count_nonzero(words, axis=1), minlength=33)


def _vector_numpy() -> None:
    t = _VEC
    for _ in range(5):
        t = (t + t**5 + 2.0 * t**6) / (1.0 + 3.0 * t**6)
        np.where(t < 0.25, t, 0.5 * t)


def _interpreter() -> None:
    doc = {}
    for i in range(1500):
        doc[str(i)] = [i, float(i) / 7.0, {"k": i & 7}]
    sum(len(v) for v in doc.values())


_PARTS = (_bigint, _small_numpy, _table_numpy, _vector_numpy, _interpreter)


def calibrate() -> float:
    """Seconds of one kernel run: the geometric mean of its four parts."""
    logs = 0.0
    for part in _PARTS:
        t0 = time.perf_counter()
        part()
        logs += math.log(time.perf_counter() - t0)
    return math.exp(logs / len(_PARTS))
