"""Decoherence channels with partial memory for the four-qubit register.

Each channel is parametrized by an error probability p and a memory
parameter mu. At mu=0 the four qubits see independent copies of the same
single-qubit channel; at mu=1 the error is perfectly correlated across the
register. In between, the Pauli-mixture channels draw their error pattern
from a Markov chain along the qubit order, and amplitude damping blends the
uncorrelated channel with a collective damping pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import linalg

KINDS = ("amplitude_damping", "depolarizing", "bit_flip", "phase_flip",
         "bit_phase_flip")
PAULI_KINDS = ("depolarizing", "bit_flip", "phase_flip", "bit_phase_flip")

N_QUBITS = 4

# Chain weights below this are exact zeros of the parametrization (products
# of vanishing branch probabilities), not rounding noise. Dropping them keeps
# the operator count at 16 instead of 256 for the single-axis channels.
PRUNE_EPS = 1e-300


@dataclass(frozen=True)
class ChannelSpec:
    """One channel application: kind plus its (p, mu) operating point."""

    kind: str
    p: float
    mu: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")


class KrausSet:
    """Read-only (n, d, d) stack of Kraus operators with its completeness residual.

    A complex ndarray is adopted as the stack, not copied; ``operators`` are
    views into it.
    """

    def __init__(self, operators):
        self.stack = np.asarray(operators, dtype=complex)
        if not len(self.stack):
            raise ValueError("empty Kraus set")
        self.stack.setflags(write=False)
        self.operators = tuple(self.stack)
        self.completeness_residual = linalg.completeness_residual(self.stack)

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self):
        return iter(self.operators)


def _kron_table(factors: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``reduce(np.kron)`` of ``factors[row]`` for each row of ``index``, in that
    order, so every entry rounds exactly as in ``linalg.tensor``."""
    def kron(left, right):
        n, d = left.shape[:2]
        pairs = left[:, :, None, :, None] * right[:, None, :, None, :]
        return pairs.reshape(n, 2 * d, 2 * d)
    return reduce(kron, factors[index.T])


# Factor index patterns in itertools.product order, and the Pauli string of
# each of the 256 error patterns; built once, at import
_PAULI_PATTERNS = np.array(list(itertools.product(range(4), repeat=N_QUBITS)))
_PAULI_STRINGS = _kron_table(np.stack([linalg.pauli(i) for i in range(4)]),
                             _PAULI_PATTERNS)
_PAULI_STRINGS.setflags(write=False)
_AD_PATTERNS = np.array(list(itertools.product(range(2), repeat=N_QUBITS)))


def pauli_prob_vector(kind: str, p: float) -> tuple[float, float, float, float]:
    """Mixture weights (alpha_I, alpha_x, alpha_y, alpha_z) at strength p."""
    if kind == "amplitude_damping":
        raise ValueError("amplitude_damping is not a Pauli mixture channel")
    if kind not in PAULI_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if kind == "bit_flip":
        return (1.0 - p, p, 0.0, 0.0)
    if kind == "bit_phase_flip":
        return (1.0 - p, 0.0, p, 0.0)
    if kind == "phase_flip":
        return (1.0 - p, 0.0, 0.0, p)
    return (1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)


def pauli_memory_kraus(kind: str, p: float, mu: float) -> KrausSet:
    """Markov-correlated Pauli channel on four qubits.

    The error pattern (i1, i2, i3, i4) is drawn by seeding qubit 4 from the
    mixture weights and stepping qubit by qubit: with probability mu the
    next qubit repeats the previous error index, otherwise it draws fresh.
    One Kraus operator per pattern with nonzero weight.
    """
    alpha = np.array(pauli_prob_vector(kind, p))[_PAULI_PATTERNS]
    w = alpha[:, -1]
    for m in range(N_QUBITS - 1):
        same = _PAULI_PATTERNS[:, m] == _PAULI_PATTERNS[:, m + 1]
        w = w * ((1.0 - mu) * alpha[:, m] + np.where(same, mu, 0.0))
    keep = w >= PRUNE_EPS
    ops = _PAULI_STRINGS[keep]
    # complex weights keep this one complex loop; the products are unchanged
    ops *= np.sqrt(w[keep]).astype(complex)[:, None, None]
    return KrausSet(ops)


def ad_uncorrelated_kraus(p: float) -> list[np.ndarray]:
    """Tensor products of the single-qubit damping pair, zero products dropped."""
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    stack = _kron_table(np.stack([a0, a1]), _AD_PATTERNS)
    return list(stack[np.abs(stack).max(axis=(1, 2)) > 0.0])


def ad_correlated_kraus(p: float) -> list[np.ndarray]:
    """Collective damping pair: only the all-ground component is disturbed.

    With sin(chi) = sqrt(p), the first operator shrinks the |0..0> amplitude
    and the second transfers it to |1..1>; every state orthogonal to |0..0>
    passes through untouched.
    """
    dim = 2 ** N_QUBITS
    chi = np.arcsin(np.sqrt(p))
    a00 = np.eye(dim, dtype=complex)
    a00[0, 0] = np.cos(chi)
    a11 = np.zeros((dim, dim), dtype=complex)
    a11[dim - 1, 0] = np.sin(chi)
    return [a00, a11]


@lru_cache(maxsize=8)
def build_channel(spec: ChannelSpec) -> KrausSet:
    """Kraus set for one channel application; only the last few are cached, as
    runs reuse just the spec built last and long sweeps must not grow memory."""
    if spec.kind == "amplitude_damping":
        stack = np.concatenate([
            np.sqrt(1.0 - spec.mu) * np.array(ad_uncorrelated_kraus(spec.p)),
            np.sqrt(spec.mu) * np.array(ad_correlated_kraus(spec.p))])
        return KrausSet(stack[np.abs(stack).max(axis=(1, 2)) > 0.0])
    return pauli_memory_kraus(spec.kind, spec.p, spec.mu)


def verify_completeness(ks: KrausSet) -> float:
    """max |sum A+A - I| for the given set."""
    return ks.completeness_residual
