"""How fast the machine runs right now, from a fixed kernel timed between steps.

On a shared virtual machine the speed a process gets drifts by ±20% from one
second to the next and between runs, and it moves the benchmark's step times
and a fixed numpy/scipy kernel alike.  The benchmark therefore runs this
kernel in short bursts between the things it times: before and after each
set-up, at the start of each repetition, and after an advance() call once
per INTERVAL_S of measured time.  spans.warp then scales the time between
two bursts by REFERENCE_S / (median kernel time), averaged over the two.
The reported times are seconds of a machine on which the kernel takes
REFERENCE_S, and they leave the bursts out.

The kernel uses numpy and scipy only, never nspnp, so no change to the
package can change it.  It does what the Krylov solves do, sparse
matrix-vector products, a dot product and vector updates, on a working set
of about 10 MB.  On the machine the benchmark was built on, it tracked the
drift of the Python-bound ladder steps better than a kernel of operations
on small arrays did.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from spans import CALIBRATE

# Median kernel time on the machine the benchmark was built on (2-vCPU
# Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS with
# one thread).  Only its constancy matters: it sets the unit of the times.
REFERENCE_S = 0.024

# Measured time per kernel run owed between steps.
INTERVAL_S = 0.4

_GRID = 300  # 9-point stencil on a 300 x 300 grid: 90,000 rows, 808,201 nonzeros
_ITERATIONS = 24


class Calibrator:
    """Runs kernel bursts under spans of a recorder; last is the clock after the latest."""

    def __init__(self, clock):
        tri = sp.diags(
            [np.ones(_GRID - 1), 2.0 * np.ones(_GRID), np.ones(_GRID - 1)], [-1, 0, 1]
        )
        self.matrix = (0.1 * sp.kron(tri, tri)).tocsr()
        self.x0 = np.linspace(0.5, 1.0, _GRID * _GRID)
        self.clock = clock
        self.last = None

    def kernel(self) -> float:
        x = self.x0
        for _ in range(_ITERATIONS):
            y = self.matrix @ x
            x = y * (1.0 / float(np.sqrt(y @ y))) + 0.5 * self.x0
        return float(x[0])

    def burst(self, recorder, runs: int = 1):
        """runs kernel runs under one span; their times go to its info["kernel_s"]."""
        with recorder.span(CALIBRATE) as span:
            times = []
            for _ in range(runs):
                start = self.clock()
                self.kernel()
                times.append(self.clock() - start)
            span.info["kernel_s"] = times
        self.last = self.clock()

    def burst_owed(self, recorder):
        """A burst of one run per whole INTERVAL_S measured since the latest burst."""
        owed = int((self.clock() - self.last) / INTERVAL_S)
        if owed:
            self.burst(recorder, owed)
