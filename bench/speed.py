"""Host speed, measured with a fixed reference kernel.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time, and no run length averages that out.  The benchmark
therefore interleaves a fixed reference kernel with the jobs and divides each
measured time by the kernel's slowdown against ``NOMINAL_S``: time metrics
read as seconds at the nominal host speed.  The kernel touches no ``invalg``
code, so a change to the package moves the metrics and not the divisor.  It
mixes the kinds of work the package does: an interpreted loop over dicts and
integers, many small numpy matrix products, and complex SVDs of a square and
of a tall matrix.  It tracks interpreted and small-matrix work well and large
dense linear algebra only partly (``record.json``, ``host_noise``).
"""

import time

import numpy as np

# One kernel cycle, in seconds, on the host that defined the benchmark
# (2-vCPU x86_64 VM, numpy 2.4 with OpenBLAS on one thread).
NOMINAL_S = 0.045


def _data():
    rng = np.random.default_rng(0)
    return {
        "small": [rng.standard_normal((4, 4)) + 0j for _ in range(3)],
        "square": rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)),
        "tall": rng.standard_normal((1024, 96)) + 1j * rng.standard_normal((1024, 96)),
    }


_DATA = _data()


def cycle():
    """Run the kernel once; returns a value so that no work is skipped."""
    table, acc = {}, 0
    for i in range(60_000):
        k = i % 977
        table[k] = table.get(k, 0) + i
        acc += (i * 7) % 13
    a = _DATA["small"][0]
    for _ in range(600):
        for b in _DATA["small"]:
            a = a @ b
            a = a / np.abs(a).max()
    s1 = np.linalg.svd(_DATA["square"], compute_uv=False)
    s2 = np.linalg.svd(_DATA["tall"], full_matrices=False)[1]
    return acc + len(table) + float(abs(a).sum() + s1[0] + s2[0])


def time_cycles(n):
    """Seconds taken by each of ``n`` kernel cycles."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        cycle()
        out.append(time.perf_counter() - t0)
    return out


class Meter:
    """Reference samples taken between jobs, about one cycle per ``every``
    seconds of job time (at most ``cap`` cycles at one boundary)."""

    def __init__(self, every=0.3, cap=12):
        self.every = every
        self.cap = cap
        self.samples = []
        self._owed = 0.0

    def ran(self, seconds):
        """Record ``seconds`` of job time; sample when a cycle is owed."""
        self._owed += seconds
        n = min(int(self._owed / self.every), self.cap)
        if n:
            self.sample(n)

    def flush(self):
        """Sample the cycles owed, at least one."""
        self.sample(max(1, min(int(self._owed / self.every), self.cap)))

    def sample(self, n=1):
        self.samples += time_cycles(n)
        self._owed = 0.0
