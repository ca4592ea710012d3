"""Dense complex linear algebra for few-qubit density matrices.

Everything here works on plain numpy arrays. States are density matrices or
(..., d, d) stacks of them: conjugation, explicit Kraus operator sums and
validation all broadcast over the leading state axes. The contract checks
(unitarity, completeness, state validity) live next to the operations that
need them so callers cannot skip them by accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
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
    """Kronecker product of the given matrices, left factor most significant.

    (m, d, d) stacks multiply row by row and broadcast against plain matrices;
    each entry is the same product, in the same order, as in ``reduce(np.kron)``.
    """
    if len(matrices) == 0:
        raise ValueError("tensor() needs at least one matrix")
    return reduce(_kron, matrices)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    pairs = a[..., :, None, :, None] * b[..., None, :, None, :]
    return pairs.reshape(*pairs.shape[:-4], a.shape[-2] * b.shape[-2],
                         a.shape[-1] * b.shape[-1])


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def conjugate(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unitary conjugation rho -> u rho u+, broadcast over stacks of either."""
    residual = np.max(np.abs(u @ _dagger(u) - np.eye(u.shape[-1])))
    if not residual <= UNITARY_TOL:  # a nan residual fails too
        raise ValueError(f"matrix is not unitary: residual {residual:.3e}")
    return u @ rho @ _dagger(u)


def apply_kraus(rho: np.ndarray, kraus) -> np.ndarray:
    """Operator sum rho -> sum_k A_k rho A_k+, broadcast over a stack of states.

    ``kraus`` is a KrausSet, or operators that are copied into a new one, so a
    caller's array is never adopted. Completeness (sum A+A = I) is checked on
    every call against the residual the set carries from construction.
    """
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(np.array(kraus, dtype=complex))
    residual = kraus.completeness_residual
    if not residual <= COMPLETENESS_TOL:  # a nan residual fails too
        raise ValueError(f"Kraus completeness violated: residual {residual:.6g}")
    if rho.shape[-2:] != kraus.stack.shape[1:]:
        raise ValueError(f"state shape {rho.shape} does not fit Kraus stack {kraus.stack.shape}")
    # every A_k rho in one product, laid out as (d, k*d), then one (d, k*d) @ (k*d, d) per state
    left, adjoint_rows = kraus._operands
    return (left @ rho).reshape(*rho.shape[:-1], -1) @ adjoint_rows


def completeness_residual(stack: np.ndarray) -> float:
    """max |sum_k A_k+ A_k - I| over entries."""
    dim = stack.shape[-1]
    # x.T @ x on the (re, im) float view holds every sum: no conjugate copy of the stack
    x = np.ascontiguousarray(stack, dtype=complex).reshape(-1, dim).view(float)
    gram = (x.T @ x).reshape(dim, 2, dim, 2)
    return float(np.max(np.hypot(gram[:, 0, :, 0] + gram[:, 1, :, 1] - np.eye(dim),
                                 gram[:, 0, :, 1] - gram[:, 1, :, 0])))


class KrausSet:
    """Read-only (n, d, d) stack of Kraus operators with its completeness residual.

    A complex ndarray is adopted as the stack, not copied. Iterating the set
    yields its rows; calling it is the channel, ``ks(rho) == apply_kraus(rho, ks)``.
    """

    def __init__(self, operators):
        self.stack = np.asarray(operators, dtype=complex)
        if not self.stack.size:
            raise ValueError("empty Kraus set")
        if self.stack.ndim != 3 or self.stack.shape[1] != self.stack.shape[2]:
            raise ValueError(f"Kraus set must be an (n, d, d) stack, got {self.stack.shape}")
        self.stack.setflags(write=False)
        self.completeness_residual = completeness_residual(self.stack)

    @cached_property
    def _operands(self):
        """apply_kraus's read-only operands, laid out on first use: the (d*k, d) rows
        of every A_k, row i*k + j being row i of A_j, and the (k*d, d) rows of every A_k+."""
        dim = self.stack.shape[-1]
        operands = (self.stack.transpose(1, 0, 2).reshape(-1, dim),
                    _dagger(self.stack).reshape(-1, dim))
        for array in operands:
            array.setflags(write=False)
        return operands

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self):
        return iter(self.stack)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply_kraus(rho, self)


@dataclass(frozen=True)
class ValidationReport:
    """Structural residuals of a candidate density matrix."""

    hermiticity_residual: float
    trace_residual: float
    min_eigenvalue: float

    @property
    def ok(self):
        """True when all three residuals are within tolerance; elementwise for
        the array fields of ``validate_densities``."""
        return ((self.hermiticity_residual <= HERMITICITY_TOL)
                & (self.trace_residual <= TRACE_TOL)
                & (self.min_eigenvalue >= EIGENVALUE_FLOOR))


def validate_densities(rho: np.ndarray) -> ValidationReport:
    """Residuals of every density matrix in a (..., d, d) stack, as arrays."""
    adjoint = _dagger(rho)
    herm = np.max(np.abs(rho - adjoint), axis=(-2, -1))
    trace = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    # eigvalsh wants an exactly hermitian input; symmetrize first so the
    # reported spectrum is meaningful even when hermiticity already failed
    eigs = np.linalg.eigvalsh((rho + adjoint) / 2.0)
    return ValidationReport(herm, trace, eigs[..., 0])


def validate_density(rho: np.ndarray) -> ValidationReport:
    """Check hermiticity, unit trace, and positivity of ``rho``."""
    report = validate_densities(rho)
    return ValidationReport(float(report.hermiticity_residual),
                            float(report.trace_residual),
                            float(report.min_eigenvalue))
