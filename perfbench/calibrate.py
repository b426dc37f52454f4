"""Machine-speed calibration for the benchmark's timings.

On a shared host the same pass of the same code takes from 1x to 1.7x its
fastest time, in phases that last from a fraction of a second to minutes,
and a longer run does not average them away. So each timing is paired with
a fixed reference kernel run right next to it, and reported in *reference
seconds*: wall seconds x (REFERENCE_S / kernel seconds). On a host where the
kernel takes REFERENCE_S the two are equal; elsewhere the host's speed
cancels out of the ratio. The kernel is frozen here, independent of
dualpol, and does what a Monte Carlo trial does: small complex matrix
products and inverses, plus Python-level bookkeeping. It runs on as many
threads as the timed code, so that it meets the same cores and the same
interpreter-lock hand-offs.
"""

import threading
import time

import numpy as np

#: The kernel's time on the reference host; timings are scaled to it.
REFERENCE_S = 0.1

_ROUNDS = 3500


def _kernel(rounds, results):
    rng = np.random.default_rng(20140214)
    A = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    eye = np.eye(8)
    acc = 0.0
    for k in range(rounds):
        K = np.linalg.inv(A @ A.conj().T + (1.0 + k % 7) * eye)
        acc += float(np.sum(np.abs(K @ A) ** 2))
        book = {i: (i, k) for i in range(16)}
        acc += len(book) * 1e-12
    results.append(acc)


def kernel_seconds(threads=1):
    """Wall time of one run of the fixed reference kernel, its rounds split
    over ``threads`` threads."""
    results = []
    workers = [threading.Thread(target=_kernel, args=(_ROUNDS // threads, results))
               for _ in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    if len(results) != threads or not np.all(np.isfinite(results)):
        raise FloatingPointError("calibration kernel failed")
    return elapsed
