"""Host-speed probe, sampled while a pass runs.

The benchmark's host is a share of a machine whose speed drifts by ±20%
over seconds to minutes, in wall time and CPU time alike, so raw pass times
of the same code spread too far between runs. ``Sampler`` times a fixed
numpy kernel of the same kind as the package's (16×16 complex products and
a Kraus-style einsum) every ``INTERVAL_S`` seconds from a SIGALRM handler in
the pass's own process. The pass's wall time, rescaled by ``REFERENCE_S``
over the mean probe time, is the time the pass would take on a host where
the probe takes ``REFERENCE_S``. Set-up children call ``scale_now`` once
they are ready, for the same rescaling of set-up time. The kernel uses
numpy only, never the package, so no change to the package moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Probes taken just before the pass, so that a pass shorter than
# INTERVAL_S is still scaled by samples from its own moment.
LEAD = 5
# About the probe time on an uncontended 2-vCPU Xeon host (nproc = 2).
REFERENCE_S = 0.002
ROUNDS = 3

# Fixed dense operands, made without numpy.random: importing it would add
# about 5 MB to every pass child's peak RSS.
_phase = np.arange(256.0).reshape(16, 16)
_A = np.cos(0.37 * _phase) + 1j * np.sin(0.91 * _phase)
_A /= np.linalg.norm(_A)
_K = np.cos(0.23 * np.arange(1024.0).reshape(4, 16, 16)) + 0j
_RHO = _A @ _A.conj().T  # positive, so every trace below is too


def kernel() -> float:
    """Seconds that one run of the fixed kernel takes now."""
    start = time.perf_counter()
    rho = _RHO
    for _ in range(ROUNDS):
        rho = _A @ rho @ _A.conj().T
        out = np.einsum("kab,bc,kdc->ad", _K, rho, _K.conj())
        rho = rho / np.trace(out).real
    return time.perf_counter() - start


def scale_now(runs: int = 10) -> float:
    """Factor into reference seconds from ``runs`` probes, after a warm-up."""
    kernel()  # the first einsum of a fresh interpreter plans its path
    return REFERENCE_S / statistics.mean(kernel() for _ in range(runs))


class Sampler:
    """Context manager that probes before and, by timer, during a pass."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(kernel())

    def __enter__(self) -> "Sampler":
        self.samples += [kernel() for _ in range(LEAD)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def overhead_s(self) -> float:
        """Seconds the probes took inside the pass."""
        return sum(self.samples[LEAD:])

    def scale(self) -> float:
        """Factor that turns this pass's wall time into reference seconds."""
        return REFERENCE_S / statistics.mean(self.samples)
