"""Fixed calibration kernel that converts wall seconds to reference seconds.

Raw wall time on a small shared machine drifts by well over the bounds the
benchmark gates on: the same call can take twice as long from one second to
the next.  The kernel below does work of the same kind as the solver (a
batched real FFT round trip at the N=32 padded size and a loop of small numpy
operations at the N=16 mode-cube size) on fixed data, so it slows down and
speeds up with the solver.  A job's calibrated time is

    raw_seconds * REFERENCE_S / (kernel time measured next to the job).

This module imports only numpy and scipy, never ``mildns``, and must stay the
same on every commit the benchmark compares, or calibrated times stop being
comparable.
"""

import time

import numpy as np
import scipy.fft as sfft

# Median kernel time on the machine the baseline was recorded on (2-core
# Intel Xeon, numpy 2.4, scipy 1.17).  Only the scale of calibrated seconds
# depends on it; comparisons between commits do not.
REFERENCE_S = 0.007

_REPS = 5


class Kernel:
    """The calibration kernel with its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(20071010)
        self._grid = rng.standard_normal((6, 32, 32, 32))
        self._cube = rng.standard_normal((3, 11, 11, 11)) + 1j * rng.standard_normal((3, 11, 11, 11))
        self._weights = rng.random((11, 11, 11))
        self.run_once()

    def run_once(self) -> float:
        """One pass of the kernel; returns a checksum so the work is used."""
        spec = sfft.rfftn(self._grid, axes=(1, 2, 3), norm="forward")
        back = sfft.irfftn(spec, s=self._grid.shape[1:], axes=(1, 2, 3), norm="forward")
        acc = 0.0
        c = self._cube
        for _ in range(40):
            mag2 = c.real**2 + c.imag**2
            acc += float(np.einsum("cxyz,xyz->", mag2, self._weights))
            c = 0.5 * (c + np.conj(c[:, ::-1, ::-1, ::-1]))
        return acc + float(back[0, 0, 0, 0])

    def measure(self) -> float:
        """Median seconds of one pass over a few back-to-back passes."""
        times = []
        for _ in range(_REPS):
            t0 = time.perf_counter()
            self.run_once()
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2]
