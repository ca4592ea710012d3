"""Dense complex linear algebra for few-qubit density matrices.

Everything here works on plain numpy arrays. States are density matrices or
(..., d, d) stacks of them: conjugation, explicit Kraus operator sums and
validation all broadcast over the leading state axes. The contract checks
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

# apply_kraus forms at most this many A_k rho products at once, 256 KB for 16x16
# states (one state's, if its set has more operators), however many states it gets
KRAUS_PRODUCTS = 64

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

    ``kraus`` is a KrausSet, or operators that a new one copies, so a later write
    to a caller's array changes no application. Completeness (sum A+A = I) is
    checked on every call against the residual the set carries from construction.
    """
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(kraus)
    residual = kraus.completeness_residual
    if not residual <= COMPLETENESS_TOL:  # a nan residual fails too
        raise ValueError(f"Kraus completeness violated: residual {residual:.6g}")
    if rho.shape[-2:] != kraus.stack.shape[1:]:
        raise ValueError(f"state shape {rho.shape} does not fit Kraus stack {kraus.stack.shape}")
    # each group's A_k rho in one product, as (d, k*d), then one (d, k*d) @ (k*d, d) per state
    left, adjoint_rows = kraus._operands
    states = rho.reshape(-1, *rho.shape[-2:])
    out = np.empty(states.shape, dtype=complex)
    group = max(1, KRAUS_PRODUCTS // len(kraus))
    for start in range(0, len(states), group):
        part = states[start:start + group]
        out[start:start + group] = (left @ part).reshape(*part.shape[:-1], -1) @ adjoint_rows
    return out.reshape(rho.shape)


def completeness_residual(stack: np.ndarray) -> float:
    """max |sum_k A_k+ A_k - I| over entries."""
    dim = stack.shape[-1]
    # x.T @ x on the (re, im) float view holds every sum: no conjugate copy of the stack
    x = np.ascontiguousarray(stack, dtype=complex).reshape(-1, dim).view(float)
    gram = (x.T @ x).reshape(dim, 2, dim, 2)
    return float(np.hypot(gram[:, 0, :, 0] + gram[:, 1, :, 1] - np.eye(dim),
                          gram[:, 0, :, 1] - gram[:, 1, :, 0]).max())


class KrausSet:
    """Read-only (n, d, d) stack of Kraus operators with its completeness residual.

    The operators are copied once, into the row layout of ``apply_kraus``'s first
    product, and ``stack`` is an (n, d, d) view of that copy: the caller's array is
    neither kept nor frozen. Iterating the set yields its rows; calling it is the
    channel, ``ks(rho) == apply_kraus(rho, ks)``.
    """

    def __init__(self, operators):
        operators = np.asarray(operators, dtype=complex)
        if not operators.size:
            raise ValueError("empty Kraus set")
        if operators.ndim != 3 or operators.shape[1] != operators.shape[2]:
            raise ValueError(f"Kraus set must be an (n, d, d) stack, got {operators.shape}")
        self.completeness_residual = completeness_residual(operators)
        # apply_kraus's read-only operands: the (d*k, d) rows of every A_k, row i*k + j
        # being row i of A_j, which the stack views, and the (k*d, d) rows of every
        # A_k+, the adjoints conjugated straight into their row layout
        dim = operators.shape[-1]
        rows = operators.swapaxes(0, 1).copy()  # C order, so never the caller's array
        adjoints = np.empty(operators.shape, dtype=complex)
        np.conjugate(rows.transpose(1, 2, 0), out=adjoints)
        for array in (rows, adjoints):
            array.setflags(write=False)  # and with them every view below
        self.stack = rows.swapaxes(0, 1)
        self._operands = (rows.reshape(-1, dim), adjoints.reshape(-1, dim))

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
