"""One independent model of the four-player quantum Minority game, for the tests.

Each part of the model is written out once, the plain way, from its definition,
up to ``payoffs``, the whole protocol on 16x16 density matrices. Nothing here
imports ``qminority`` (``tests/test_reference.py`` checks this), so a fault in
the package cannot be shared by the code under test and its oracle. The module
also holds the helpers that several test modules share.
"""

from __future__ import annotations

import gzip
import itertools
import json
from functools import reduce
from pathlib import Path

import numpy as np

PAULIS = tuple(np.array(m, dtype=complex) for m in
               ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
I, X, Y, Z = PAULIS


def kron(factors) -> np.ndarray:
    """Kronecker product of the factors, the left one most significant."""
    return reduce(np.kron, factors)


# The 256 error patterns (i1, i2, i3, i4) in itertools.product order, and their
# Pauli strings, one np.kron chain each
PATTERNS = list(itertools.product(range(4), repeat=4))
PAULI_STRINGS = np.stack([kron([PAULIS[i] for i in pattern]) for pattern in PATTERNS])
for _m in PAULIS + (PAULI_STRINGS,):
    _m.setflags(write=False)

# The single-qubit mixture (alpha_I, alpha_X, alpha_Y, alpha_Z) = (1, 0, 0, 0) + p * slope
SLOPES = {"depolarizing": (-0.75, 0.25, 0.25, 0.25), "bit_flip": (-1.0, 1.0, 0.0, 0.0),
          "phase_flip": (-1.0, 0.0, 0.0, 1.0), "bit_phase_flip": (-1.0, 0.0, 1.0, 0.0)}


def mixture(kind: str, p) -> list:
    """The four mixture weights at strength p; p is a scalar or an array of points."""
    return [a + p * s for a, s in zip((1.0, 0.0, 0.0, 0.0), SLOPES[kind])]


def chain_weight(alpha, mu, pattern):
    """Weight of one error pattern: qubit 4 draws its error from alpha, and each
    earlier qubit repeats the next one's with probability mu, else draws afresh.
    alpha[i] and mu are scalars, or arrays over points."""
    w = alpha[pattern[3]]
    for m in range(3):
        w = w * ((1.0 - mu) * alpha[pattern[m]]
                 + (mu if pattern[m] == pattern[m + 1] else 0.0))
    return w


def kraus_stack(kind: str, p: float, mu: float) -> np.ndarray:
    """The Kraus stack of a channel with memory, zero operators dropped.

    A Pauli channel has sqrt(w) times the Pauli string of each pattern of chain
    weight w. Amplitude damping has sqrt(1 - mu) times every product of the
    single-qubit pair, then sqrt(mu) times the collective pair, which disturbs
    only |0000>.
    """
    if kind != "amplitude_damping":
        alpha = mixture(kind, p)
        return np.stack([np.sqrt(w) * string for w, string in
                         zip((chain_weight(alpha, mu, pattern) for pattern in PATTERNS),
                             PAULI_STRINGS) if w > 0.0])
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    chi = np.arcsin(np.sqrt(p))
    a00 = np.eye(16, dtype=complex)
    a00[0, 0] = np.cos(chi)
    a11 = np.zeros((16, 16), dtype=complex)
    a11[15, 0] = np.sin(chi)
    ops = [np.sqrt(1.0 - mu) * kron(combo) for combo in itertools.product((a0, a1), repeat=4)]
    ops += [np.sqrt(mu) * a00, np.sqrt(mu) * a11]
    return np.stack([a for a in ops if np.max(np.abs(a)) > 0.0])


def gate(gamma: float) -> np.ndarray:
    """J(gamma) = exp(i gamma/2 X^4) = cos(gamma/2) I + i sin(gamma/2) X^4."""
    return np.cos(gamma / 2) * np.eye(16) + 1j * np.sin(gamma / 2) * kron([X] * 4)


def move(theta: float, alpha: float, beta: float) -> np.ndarray:
    """A player's SU(2) move M(theta, alpha, beta)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[np.exp(1j * alpha) * c, 1j * np.exp(1j * beta) * s],
                     [1j * np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c]])


NE = (np.pi / 2, -np.pi / 16, np.pi / 16)


def minority(outcome: int, player: int) -> float:
    """1 if the player (1..4, player 1 the most significant bit of the outcome)
    is the only one with their bit, else 0."""
    bits = [(outcome >> (3 - k)) & 1 for k in range(4)]
    return float(bits.count(bits[player - 1]) == 1)


def payoffs(kind: str, p: float, mu: float, gamma: float, triples=(NE,) * 4) -> np.ndarray:
    """The four players' payoffs: J on |0000>, the channel, the four moves, the
    channel again, J+, then the Minority rule on the outcome probabilities."""
    noise, j, rho = kraus_stack(kind, p, mu), gate(gamma), basis_state(0)
    for ops in ([j], noise, [kron([move(*t) for t in triples])], noise, [j.conj().T]):
        rho = operator_sum(rho, ops)
    probs = np.diag(rho).real
    return np.array([sum(probs[o] * minority(o, k) for o in range(16)) for k in (1, 2, 3, 4)])


def product_channel(kind: str, p: float, rho: np.ndarray) -> np.ndarray:
    """rho through the single-qubit mixture on each qubit in turn: the channel
    with no memory."""
    singles = [np.sqrt(a) * s for a, s in zip(mixture(kind, p), PAULIS) if a > 0.0]
    for qubit in range(4):
        rho = operator_sum(rho, [kron([s if q == qubit else I for q in range(4)])
                                 for s in singles])
    return rho


def basis_state(index: int) -> np.ndarray:
    """|index><index|, index 0 being |0000>."""
    rho = np.zeros((16, 16), dtype=complex)
    rho[index, index] = 1.0
    return rho


def operator_sum(rho: np.ndarray, ops) -> np.ndarray:
    """sum_k A_k rho A_k+, by direct summation."""
    out = np.zeros_like(rho)
    for a in ops:
        out += a @ rho @ a.conj().T
    return out


def random_density(rng: np.random.Generator, dim: int = 16) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return h / np.trace(h)


def bloch_of_z(u: np.ndarray) -> np.ndarray:
    """The Bloch vector m of u+Zu, for one 2x2 move or an (n, 2, 2) stack."""
    zu = u.conj().swapaxes(-1, -2) @ Z @ u
    return np.stack([np.trace(zu @ s, axis1=-2, axis2=-1).real / 2 for s in (X, Y, Z)],
                    axis=-1)


# The seven (vary, fixed) parameterisations of the paper's figures, as CLI flag values
FIGURE_SWEEPS = (
    ("p", {"mu": "0", "gamma": "pi/2"}),
    ("p", {"mu": "0.3", "gamma": "pi/2"}),
    ("p", {"mu": "0.7", "gamma": "pi/2"}),
    ("p", {"mu": "1", "gamma": "pi/2"}),
    ("mu", {"p": "0.3", "gamma": "pi/2"}),
    ("mu", {"p": "0.7", "gamma": "pi/2"}),
    ("gamma", {"p": "0.3", "mu": "0.3"}),
)


def sweep_axes(vary: str, fixed: dict, points: int = 101) -> tuple:
    """The (p, mu, gamma) arrays of one figure sweep: ``vary`` runs over [0, 1],
    or [0, pi/2] for gamma, and the other two keep their ``fixed`` values."""
    return tuple(np.linspace(0.0, np.pi / 2 if axis == "gamma" else 1.0, points)
                 if axis == vary else
                 np.full(points, np.pi / 2 if fixed[axis] == "pi/2" else float(fixed[axis]))
                 for axis in ("p", "mu", "gamma"))


BENCH = Path(__file__).resolve().parents[1] / "bench"


def recorded(*workloads: str) -> dict:
    """Every call the benchmark's workloads can make (bench/reference/*.json.gz),
    keyed by its arguments, with the seed code's exit code and outputs."""
    calls = {}
    for workload in workloads:
        calls.update(json.loads(gzip.decompress(
            (BENCH / "reference" / f"{workload}.json.gz").read_bytes())))
    return calls
