"""A fixed piece of work that measures how fast the host runs right now.

The host this benchmark was built on gives its processes a share of cores
that other tenants also load. For seconds at a time every process, the
benchmark's and this loop alike, runs up to 1.5x slower; the slowdown shows
on CPU time as well as wall time. The worker times this loop before and
after every invocation, and the runner divides each invocation's wall time
by the loop's time around it. The ratio follows the program, since the loop
never calls `gaincover`, and hardly the host's state: on that host it cut
the run-to-run spread of a workload's run time by a factor of 2 to 10.

`REFERENCE_S` turns a ratio back into seconds: a round figure at the fast
end of the loop's times on the host the baseline was recorded on (Intel
Xeon, 2 vCPUs; medians of 0.045 to 0.06 s). A reported time is what the
call would take when the loop takes `REFERENCE_S`.

The loop mixes the two kinds of work the program spends its time in: small
float64 matrix products reduced modulo a prime, as in the exact char poly of
a small cover, and interpreted integer arithmetic, small and multi-word. The
matrices are small enough that BLAS runs them on one thread, so the loop
measures the core it runs on, as the program's calls mostly do.
"""

import time

import numpy as np

REFERENCE_S = 0.045

_N = 20
_P = 1009


def work():
    """The fixed work; returns a checksum so that nothing is optimised away."""
    a = (np.arange(_N * _N, dtype=np.float64).reshape(_N, _N) * 7919) % _P
    b = np.eye(_N)
    for _ in range(2500):
        b = (a @ b) % _P
    s = 0
    for i in range(360_000):
        s += i * i % 7
    x = 3 ** 4000
    for _ in range(800):
        x = x * 12345 // 7
    return int(b.sum()) + s + x % _P


def measure():
    """Seconds that one `work()` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
