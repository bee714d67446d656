"""Host-speed calibration for the benchmark's times.

On a shared host other tenants change how fast this process runs, by up to
a factor of two and over minutes, so a raw wall time says as much about the
neighbours as about the program.  ``kernel_s`` times a fixed piece of work
that uses no ``neva`` code and mixes, in about equal parts, what the
workloads spend their time on: numpy calls on small arrays, a dense mat-vec,
float-to-text formatting and random generator construction.  The benchmark
times it right before each of its own executions, divides each execution
time by the kernel time next to it and reports ``REFERENCE_S`` times the
median quotient: the time the work would have taken had the kernel run at
its reference time.  A change to the program moves the execution times and
not the kernel, so it shows in full.
"""
from time import perf_counter

import numpy as np

# Median kernel time on the host the benchmark was built on (2-vCPU x86_64
# VM, Python 3.11, numpy 2.4), in its usual, contended state.
REFERENCE_S = 0.003

_SEED = 20160616
_rng = np.random.Generator(np.random.PCG64(_SEED))
_VECTOR = _rng.normal(size=300)
_MATRIX = _rng.random((500, 500))
_WEIGHTS = _rng.random(500)


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    start = perf_counter()
    for _ in range(100):
        scaled = np.exp(-np.abs(_VECTOR)) * _VECTOR
        np.clip(np.sqrt(np.abs(scaled)), 0.0, 1.0, out=scaled)
    for _ in range(12):
        column = _MATRIX @ _WEIGHTS
    "\n".join(",".join(repr(float(value)) for value in column[k:k + 10])
              for k in range(0, 500, 10))
    for child in np.random.SeedSequence(_SEED).spawn(40):
        np.random.default_rng(child).standard_normal(50)
    return perf_counter() - start


def rescale(times, kernels) -> float:
    """Median of ``times`` at the reference speed, where ``kernels[i]`` is
    the kernel time measured right next to ``times[i]``."""
    return REFERENCE_S * float(np.median(np.divide(times, kernels)))
