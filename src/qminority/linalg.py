"""Dense complex linear algebra for few-qubit density matrices.

Everything here works on plain numpy arrays. States are density matrices,
channels act through explicit Kraus operator sums, and the contract checks
(unitarity, completeness, state validity) live next to the operations that
need them so callers cannot skip them by accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

# Residual tolerances for the structural contracts. Algebraic identities are
# held to 1e-12; channel completeness accumulates rounding over up to 256
# operator products and gets the looser 1e-10.
UNITARY_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
for _m in _PAULI:
    _m.setflags(write=False)


def pauli(index: int) -> np.ndarray:
    """Single-qubit Pauli matrix: 0 = I, 1 = X, 2 = Y, 3 = Z."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {index}")
    return _PAULI[index]


def tensor(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given matrices, left factor most significant."""
    if len(matrices) == 0:
        raise ValueError("tensor() needs at least one matrix")
    return reduce(np.kron, matrices)


def conjugate(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unitary conjugation rho -> u rho u+."""
    residual = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if residual > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: residual {residual:.3e}")
    return u @ rho @ u.conj().T


def apply_kraus(rho: np.ndarray, kraus) -> np.ndarray:
    """Operator sum rho -> sum_k A_k rho A_k+.

    ``kraus`` is either a sequence of matrices or a KrausSet. Completeness
    (sum A+A = I) is checked on every call; a KrausSet carries its residual
    from construction so the recheck costs nothing.
    """
    ops = getattr(kraus, "operators", kraus)
    residual = getattr(kraus, "completeness_residual", None)
    stack = getattr(kraus, "stack", None)
    if stack is None:
        stack = np.stack([np.asarray(a, dtype=complex) for a in ops])
    if residual is None:
        residual = completeness_residual(stack)
    if residual > COMPLETENESS_TOL:
        raise ValueError(f"Kraus completeness violated: residual {residual:.6g}")
    # (A_k rho) for all k in one batched product, then contract against A_k*
    tmp = stack @ rho
    return np.tensordot(tmp, stack.conj(), axes=([0, 2], [0, 2]))


def completeness_residual(stack: np.ndarray) -> float:
    """max |sum_k A_k+ A_k - I| over entries."""
    flat = stack.reshape(-1, stack.shape[-1])
    return float(np.max(np.abs(flat.conj().T @ flat - np.eye(flat.shape[1]))))


@dataclass(frozen=True)
class ValidationReport:
    """Structural residuals of a candidate density matrix."""

    hermiticity_residual: float
    trace_residual: float
    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return (self.hermiticity_residual <= HERMITICITY_TOL
                and self.trace_residual <= TRACE_TOL
                and self.min_eigenvalue >= EIGENVALUE_FLOOR)


def validate_density(rho: np.ndarray) -> ValidationReport:
    """Check hermiticity, unit trace, and positivity of ``rho``."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(abs(np.trace(rho) - 1.0))
    # eigvalsh wants an exactly hermitian input; symmetrize first so the
    # reported spectrum is meaningful even when hermiticity already failed
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return ValidationReport(herm, trace, float(eigs[0]))
