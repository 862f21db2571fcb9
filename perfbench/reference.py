"""The reference computation that every benchmark time is divided by.

On a small shared machine the speed of the processor drifts: identical
code can run a third slower for a few seconds and then recover. The
benchmark therefore alternates each workload slice of a few tens of
milliseconds with a slice of this fixed computation and states every time
in reference units: a wall-clock time divided by the wall-clock time the
reference took nearby, scaled so that one reference second (``ref_s``) is
close to one wall-clock second on an unloaded 2-core sandbox.

The reference is the benchmark's own code and never calls mirrorwords. It
mixes the kinds of work the program does per mirror: interpreter float
arithmetic, small object and list churn, numpy calls on 3-vectors and
3x3 matrices, and element-wise loops over small numpy arrays like the
interpreted oracle kernels, so that it slows down in the same phases as
the program.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Reference blocks per reference second: about the block rate of a 2-core
# sandbox (Python 3.11, numpy 2.4) in its fast phases, then fixed. Only
# ratios between runs matter; README.md gives the wall-clock equivalent.
BLOCKS_PER_REF_S = 30000.0

# Blocks per reference slice (about 6 ms) and wall-clock length of the
# workload slices in between. The machine's speed moves by 20-40% between
# slices 50 ms apart; finer slices track it better than 30 ms ones did.
SLICE_BLOCKS = 150
WORKLOAD_SLICE_S = 0.01
# A word longer than a slice is followed by a reference slice of this
# share of its length, so that the reference averages the machine's speed
# over a comparable window.
REF_SHARE = 0.5


def reference_block(x: float) -> float:
    """One unit of reference work; returns a value that feeds the next block."""
    acc = 0.0
    pts = []
    for i in range(24):
        x = (x * 1.6180339887 + 0.0625) % 1.0
        acc += math.sqrt(x + 1.0) * math.cos(x) - math.atan2(x, 1.0 + i)
        pts.append((x, acc))
    pts = list(pts)
    del pts[3:5]
    v = np.array([x, 0.5, 0.25])
    for _ in range(3):
        n = math.sqrt(float(v @ v))
        v = np.array([v[1] / n, v[2] / n, v[0] / n + 0.125])
    m = np.eye(3) - 2.0 * np.outer(v, v)
    for r in range(3):
        w = v[0] * m[0, r] + v[1] * m[1, r] + v[2] * m[2, r]
        for c in range(3):
            m[r, c] -= 2.0 * v[r] * w
    return (acc + float(m[0, 1]) + len(pts)) % 1.0


class Calibrator:
    """Runs reference slices and converts wall-clock seconds to ``ref_s``.

    ``slice()`` runs one reference slice and returns its wall-clock seconds
    per block. A workload slice is calibrated by the mean of the reference
    slices just before and just after it.
    """

    slice_blocks = SLICE_BLOCKS
    workload_slice_s = WORKLOAD_SLICE_S

    def __init__(self):
        self.block_s: list[float] = []
        self._x = 0.3

    def slice_after(self, span_s: float) -> float:
        """A reference slice sized for a workload slice of ``span_s`` seconds."""
        last = self.block_s[-1] if self.block_s else 0.0
        blocks = int(REF_SHARE * span_s / last) if last > 0.0 else 0
        return self.slice(max(self.slice_blocks, blocks))

    def slice(self, blocks: int | None = None) -> float:
        n = blocks or self.slice_blocks
        x = self._x
        t0 = time.perf_counter()
        for _ in range(n):
            x = reference_block(x)
        dt = (time.perf_counter() - t0) / n
        self._x = x
        self.block_s.append(dt)
        return dt

    @staticmethod
    def ref_s_per_wall_s(before: float, after: float) -> float:
        """Reference seconds per wall-clock second between two slices."""
        return 1.0 / (0.5 * (before + after) * BLOCKS_PER_REF_S)
