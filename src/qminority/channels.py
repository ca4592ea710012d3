"""Decoherence channels with tunable memory for the four-qubit register.

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

import numpy as np

from . import linalg
from .linalg import KrausSet

# Single-qubit mixture (alpha_I, alpha_x, alpha_y, alpha_z) = (1, 0, 0, 0) + p * slope
_MIXTURE_SLOPES = {"depolarizing": (-0.75, 0.25, 0.25, 0.25), "bit_flip": (-1.0, 1.0, 0.0, 0.0),
                   "phase_flip": (-1.0, 0.0, 0.0, 1.0), "bit_phase_flip": (-1.0, 0.0, 1.0, 0.0)}
PAULI_KINDS = tuple(_MIXTURE_SLOPES)
KINDS = ("amplitude_damping",) + PAULI_KINDS

N_QUBITS = 4


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


# Factor index patterns in itertools.product order. Each pattern's Pauli string has
# one nonzero entry per row, in row i at column i ^ x (x the qubits its X and Y flip):
# _PAULI_COLUMNS holds those columns and _PAULI_PHASES those entries, each the product
# linalg.tensor forms of the single-qubit Paulis' nonzero entries in that row
_PAULI_PATTERNS = np.array(list(itertools.product(range(4), repeat=N_QUBITS)))
_PAULI_COLUMNS = np.arange(16) ^ (np.array([0, 1, 1, 0])[_PAULI_PATTERNS] @ [8, 4, 2, 1])[:, None]
_PAULI_PHASES = linalg.tensor(np.stack([m[m != 0][:, None] for m in map(linalg.pauli, range(4))])
                              [_PAULI_PATTERNS.T])[..., 0]
_PAULI_COLUMNS.setflags(write=False)
_PAULI_PHASES.setflags(write=False)
# A Pauli string X^x Z^z (up to a phase) maps rho[i, j] to (-1)^(z.(i^j)) rho[i^x, j^x].
# On each band rho[i, i ^ d], whose flat indices are _BANDS[:, d] (a gather that is its
# own inverse), that is an XOR convolution along i with kernel sum_z W[x, z] (-1)^(z.d).
# The Walsh matrix H = (-1)^(a.b) diagonalises it: the eigenvalues are column d of
# H W H / 16. W[x, z] is the weight of pattern _XZ_ORDER[16 x + z], where I, X, Y and
# Z set the bits (x, z) = (0, 0), (1, 0), (1, 1), (0, 1), qubit 1 the most significant
_XZ_ORDER = np.argsort(np.array([0, 16, 17, 1])[_PAULI_PATTERNS] @ [8, 4, 2, 1])
_BANDS = np.arange(16)[:, None] * 16 + (np.arange(16)[:, None] ^ np.arange(16))
_WALSH = linalg.tensor([np.array([[1.0, 1.0], [1.0, -1.0]])] * N_QUBITS)
_AD_PATTERNS = np.array(list(itertools.product(range(2), repeat=N_QUBITS)))
_POPCOUNT = _AD_PATTERNS.sum(axis=1)  # |i|, the excited qubits of basis state i


def _check_points(kind: str, p: np.ndarray, mu: np.ndarray) -> None:
    """ChannelSpec's checks on n points: on the first failing one, or (0, 0)."""
    i = np.flatnonzero(~((p >= 0.0) & (p <= 1.0) & (mu >= 0.0) & (mu <= 1.0)))[:1]
    ChannelSpec(kind, *((p[i].item(), mu[i].item()) if len(i) else (0.0, 0.0)))


def _mixture(kind: str, p, mu) -> np.ndarray:
    """Mixture weights at strength p, on a new last axis, once (kind, p, mu) pass."""
    if kind == "amplitude_damping":
        raise ValueError("amplitude_damping is not a Pauli mixture channel")
    _check_points(kind, np.atleast_1d(p), np.atleast_1d(mu))
    return (1.0, 0.0, 0.0, 0.0) + np.multiply.outer(p, _MIXTURE_SLOPES[kind])


def pauli_prob_vector(kind: str, p: float) -> tuple[float, float, float, float]:
    """Mixture weights (alpha_I, alpha_x, alpha_y, alpha_z) at strength p."""
    return tuple(_mixture(kind, p, 0.0).tolist())


def pauli_memory_weights(kind: str, p: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """(n, 256) Markov weights of the error patterns at n (p, mu) points.

    Qubit 4 draws its error from alpha and each earlier qubit repeats the next
    one's with probability mu, else draws fresh: pattern (i1, i2, i3, i4) weighs
    alpha[i4] T[i1, i2] T[i2, i3] T[i3, i4], T[i, j] = (1 - mu) alpha[i] + mu [i = j].
    """
    alpha = _mixture(kind, p, mu)
    t = (1.0 - mu)[:, None, None] * alpha[:, :, None] + mu[:, None, None] * np.eye(4)
    w = alpha[:, None, None, None] * t[..., None, None] * t[:, None, ..., None] * t[:, None, None]
    return w.reshape(len(p), 256)


def pauli_memory_kraus(kind: str, p: float, mu: float) -> KrausSet:
    """Markov-correlated Pauli channel on four qubits: one Kraus operator per
    error pattern with nonzero weight (see ``pauli_memory_weights``)."""
    if kind == "amplitude_damping":
        raise ValueError("amplitude_damping is not a Pauli mixture channel")
    return KrausSet(next(_kraus_sets(kind, [p], [mu])))


def ad_uncorrelated_kraus(p: float) -> np.ndarray:
    """(m, 16, 16) tensor products of the single-qubit damping pair, zero
    products dropped."""
    ChannelSpec("amplitude_damping", p, 0.0)  # the p check
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    stack = linalg.tensor(np.stack([a0, a1])[_AD_PATTERNS.T])
    return stack[np.abs(stack).max(axis=(1, 2)) > 0.0]


def ad_correlated_kraus(p: float) -> np.ndarray:
    """(2, 16, 16) collective damping pair: only the all-ground component is
    disturbed.

    With sin(chi) = sqrt(p), the first operator shrinks the |0..0> amplitude
    and the second transfers it to |1..1>; every state orthogonal to |0..0>
    passes through untouched.
    """
    ChannelSpec("amplitude_damping", p, 0.0)  # the p check
    dim = 2 ** N_QUBITS
    chi = np.arcsin(np.sqrt(p))
    pair = np.zeros((2, dim, dim), dtype=complex)
    pair[0] = np.eye(dim)
    pair[0, 0, 0] = np.cos(chi)
    pair[1, dim - 1, 0] = np.sin(chi)
    return pair


def build_channel(spec: ChannelSpec) -> KrausSet:
    """Kraus set for one channel application."""
    return KrausSet(next(_kraus_sets(spec.kind, [spec.p], [spec.mu])))


def _kraus_sets(kind: str, p, mu):
    """The (k, 16, 16) Kraus stack of ``build_channel`` at each of n (p, mu) points, in
    order, all points checked first: Pauli weights in one call, damping tables once per
    run of p. Each stack is a new writable array that shares memory with no other."""
    p, mu = np.asarray(p, dtype=float), np.asarray(mu, dtype=float)
    if kind != "amplitude_damping":
        for w in pauli_memory_weights(kind, p, mu):  # checks the kind and every point
            # the zero weights are exact (products with a vanishing branch probability);
            # dropping them keeps 16 operators, not 256, for the single-axis channels
            keep = w > 0.0
            ops = np.zeros((np.count_nonzero(keep), 16, 16), dtype=complex)
            # each nonzero entry is phase * sqrt(w), the complex product of the full
            # string's entry and the weight
            ops[np.arange(len(ops))[:, None], np.arange(16), _PAULI_COLUMNS[keep]] = (
                _PAULI_PHASES[keep] * np.sqrt(w[keep]).astype(complex)[:, None])
            yield ops
        return
    _check_points(kind, p, mu)
    last = None
    for p_i, mu_i in zip(p.tolist(), mu.tolist()):
        if p_i != last:
            last, uncorrelated, correlated = p_i, ad_uncorrelated_kraus(p_i), ad_correlated_kraus(p_i)
        stack = np.concatenate([np.sqrt(1.0 - mu_i) * uncorrelated, np.sqrt(mu_i) * correlated])
        yield stack[np.abs(stack).max(axis=(1, 2)) > 0.0]


def channel_maps(kind: str, p: np.ndarray, mu: np.ndarray):
    """The channel at each of n (p, mu) points, as one map on (n, 16, 16) stacks.

    The batched counterpart of ``build_channel`` plus ``linalg.apply_kraus``.
    A map takes any state stack that broadcasts with (n, 16, 16). A Pauli channel
    is diagonal in the Walsh transform of each band (see ``_BANDS``). Amplitude
    damping is (1 - mu) times the single-qubit pair on each qubit plus mu times
    the collective pair. Each point is checked to be CPTP, and ValueError raised
    if one is not.
    """
    if kind == "amplitude_damping":
        _check_points(kind, p, mu)
        return _damping_maps(p, mu)
    w = pauli_memory_weights(kind, p, mu)  # checks the kind and every point
    _check_cptp(np.maximum(np.abs(w.sum(axis=1) - 1.0), -w.min(axis=1)))
    scale = _WALSH @ w[:, _XZ_ORDER].reshape(-1, 16, 16) @ _WALSH / 16

    def apply(rho: np.ndarray) -> np.ndarray:
        bands = _WALSH @ (scale * (_WALSH @ rho.reshape(*rho.shape[:-2], -1)[..., _BANDS]))
        return bands.reshape(*bands.shape[:-2], -1)[..., _BANDS]
    return apply


def _check_cptp(residual: np.ndarray) -> None:
    if residual.max() > linalg.COMPLETENESS_TOL:
        raise ValueError(f"channel is not CPTP: residual {residual.max():.6g}")


def _damping_maps(p: np.ndarray, mu: np.ndarray):
    # a0 = diag(1, keep) and a1 = lose |0><1| on each qubit send entry (i, j) to
    # keep^(|i| + |j|) sum_m lose^(2|m|) rho[i | m, j | m], over the bit sets m that
    # share no bit with i | j: the per-qubit transfers, then one scale. The
    # collective pair of ``ad_correlated_kraus`` scales row 0 and column 0 by cos
    # and moves sin^2 rho[0, 0] to [15, 15]
    keep, lose = np.sqrt(1.0 - p), np.sqrt(p)
    cos, sin = np.cos(np.arcsin(lose)), np.sin(np.arcsin(lose))
    _check_cptp(np.maximum(np.abs(keep ** 2 + lose ** 2 - 1.0),
                           np.abs(cos ** 2 + sin ** 2 - 1.0)))
    decay_q = (lose ** 2).reshape((len(p),) + (1,) * (2 * N_QUBITS - 2))
    ground = (_POPCOUNT == 0).astype(int)
    # (n, 16, 16) tables gathered from each point's powers; 0 ** 0 is 1
    product = ((1.0 - mu)[:, None] * keep[:, None] ** np.arange(2 * N_QUBITS + 1))[
        :, _POPCOUNT[:, None] + _POPCOUNT]
    collective = (mu[:, None] * cos[:, None] ** np.arange(3))[:, ground[:, None] + ground]
    transfer = mu * sin ** 2

    def apply(rho: np.ndarray) -> np.ndarray:
        rho = np.broadcast_to(rho, np.broadcast_shapes(rho.shape, (len(p), 16, 16)))
        out = rho.copy()
        bits = out.reshape((len(out),) + (2,) * (2 * N_QUBITS))
        for q in range(N_QUBITS):
            # view with qubit q's row and column bits in front
            block = np.moveaxis(bits, (1 + q, 1 + N_QUBITS + q), (1, 2))
            block[:, 0, 0] += decay_q * block[:, 1, 1]
        out *= product
        out += collective * rho
        out[:, -1, -1] += transfer * rho[:, 0, 0]
        return out
    return apply


def verify_completeness(ks: KrausSet) -> float:
    """max |sum A+A - I| for the given set."""
    return ks.completeness_residual
