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
    if not isinstance(index, (int, np.integer)) or index not in (0, 1, 2, 3):
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
    Each group of states gets its A_k rho products from the set, gathered and
    scaled or multiplied out (see ``KrausSet``), then one (d, k*d) @ (k*d, d)
    product per state with the adjoint rows. A state of another dtype is applied
    as its complex128 cast.
    """
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(kraus)
    residual = kraus.completeness_residual
    if not residual <= COMPLETENESS_TOL:  # a nan residual fails too
        raise ValueError(f"Kraus completeness violated: residual {residual:.6g}")
    shape = kraus._adjoints.shape
    if rho.shape[-2:] != shape[1:]:
        raise ValueError(f"state shape {rho.shape} does not fit Kraus stack {shape}")
    adjoint_rows = kraus._adjoints.reshape(-1, shape[-1])
    # both paths read the complex128 cast, as a matmul with the operators casts it;
    # a complex128 state is not copied
    states = np.asarray(rho, dtype=complex).reshape(-1, *rho.shape[-2:])
    out = np.empty(states.shape, dtype=complex)
    group = max(1, KRAUS_PRODUCTS // len(kraus))
    for start in range(0, len(states), group):
        # the group's products are dropped before the next group's are formed
        out[start:start + group] = kraus._products(states[start:start + group]) @ adjoint_rows
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
    """Read-only set of n (d, d) Kraus operators with its completeness residual.

    The set copies what ``apply_kraus`` reads, so the caller's array is neither kept
    nor frozen: the (n*d, d) rows of every A_k+ for the second product, and for the
    first either the (d*n, d) rows of every A_k or a (d, n) table of the column and
    value of the one entry in each row of each A_k. A caller's stack, whatever its
    entries, keeps the dense rows and takes its residual from the Gram product. The
    table layout comes only from a table (``_from_table``, the X^c D form of every
    ``build_channel`` operator), whose sum A+A is diagonal and whose residual is read
    off the table. ``stack`` reads the operators back from the adjoints, as a new
    read-only (n, d, d) array. Iterating the set yields its operators; calling it is
    the channel, ``ks(rho) == apply_kraus(rho, ks)``.
    """

    def __init__(self, operators):
        operators = np.asarray(operators, dtype=complex)
        if not operators.size:
            raise ValueError("empty Kraus set")
        if operators.ndim != 3 or operators.shape[1] != operators.shape[2]:
            raise ValueError(f"Kraus set must be an (n, d, d) stack, got {operators.shape}")
        self.completeness_residual = completeness_residual(operators)
        # the adjoints conjugated straight into their row layout; conjugation is exact,
        # so the operators read back from them bit for bit, signed zeros included
        self._adjoints = np.empty(operators.shape, dtype=complex)
        np.conjugate(operators.swapaxes(1, 2), out=self._adjoints)
        # row i*n + k is row i of A_k, a C-order copy, so never the caller's array
        self._dense_rows = operators.swapaxes(0, 1).copy().reshape(-1, operators.shape[-1])
        self._freeze()

    @classmethod
    def _from_table(cls, columns: np.ndarray, values: np.ndarray) -> KrausSet:
        """The set whose A_k holds, in each row i, the one entry values[i, k] (0 in a row
        of zeros) at column columns[i, k], from a (d, n) table whose values are all real
        or imaginary. The set adopts both arrays for the gather, reads its exact
        residual off them, and scatters its adjoint rows from them."""
        ks = cls.__new__(cls)
        dim, n = values.shape
        ks._dense_rows, ks._columns, ks._values = None, columns.reshape(-1), values
        # with one nonzero entry per row, sum A+A is diagonal
        ks.completeness_residual = float(np.abs(ks._column_weights(slice(None)) - 1.0).max())
        # entry [k, c, i] is conj(A_k[i, c]), at flat index at[i, k], among conj(+0) =
        # (0, -0) everywhere else: the bytes of the conjugated stack the table scatters
        # into. The index is formed, and the table conjugated in place and back (exact
        # both ways), so that no temporary lives beside the adjoints
        at = columns * dim
        at += np.arange(n) * dim * dim
        at += np.arange(dim)[:, None]
        ks._adjoints = np.full((n, dim, dim), complex(0.0, -0.0))
        np.conjugate(values, out=values)
        ks._adjoints.reshape(-1)[at] = values
        np.conjugate(values, out=values)
        ks._freeze()
        return ks

    def _freeze(self) -> None:
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)

    def _column_weights(self, rows) -> np.ndarray:
        """(d,) diagonal of sum_k A_k+ P A_k for the projector P on the basis states
        ``rows`` selects (a table-form set only): in each column, the sum of |v|^2
        over the table entries of those rows that lie in it."""
        dim, n = self._values.shape
        # summed per operator first, then pairwise over the operators: one running sum
        # over all the entries of a column strays about ten times as far from the Gram
        # product's sum
        slots = self._columns.reshape(dim, n)[rows] * n + np.arange(n)
        weights = np.bincount(slots.ravel(), (np.abs(self._values[rows]) ** 2).ravel(),
                              minlength=dim * n)
        return weights.reshape(dim, n).sum(axis=1)

    def _products(self, states: np.ndarray) -> np.ndarray:
        """(g, d, n*d) products A_k rho for g states, row i holding row i of every one."""
        dim = self._adjoints.shape[-1]
        if self._dense_rows is not None:
            return (self._dense_rows @ states).reshape(len(states), dim, -1)
        # one contiguous (g, d*n, d) gather of rho's rows, scaled in place: each entry
        # is the one product, exact as a real or imaginary value times a complex one,
        # that the dense product sums with exact zeros
        products = np.take(states, self._columns, axis=1)
        scaled = products.reshape(len(states), dim, -1, dim)
        scaled *= self._values[..., None]
        return products.reshape(len(states), dim, -1)

    @property
    def stack(self) -> np.ndarray:
        stack = np.conjugate(self._adjoints).swapaxes(1, 2)
        stack.setflags(write=False)
        return stack

    def __len__(self) -> int:
        return len(self._adjoints)

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


def validate_densities(rho: np.ndarray, spectrum: bool = True) -> ValidationReport:
    """Residuals of every density matrix in a (..., d, d) stack, as arrays.

    ``spectrum=False`` certifies positivity instead of solving it: if every state passes
    the hermiticity and trace checks, one batched Cholesky factors H + s I, s =
    -EIGENVALUE_FLOOR/2, where H is the hermitian matrix of rho's lower triangle and
    real diagonal (all LAPACK reads). H is the symmetrized state (rho + rho+)/2 up to
    off-diagonal entries of at most residual/2, so a finite factor puts each smallest
    eigenvalue of the symmetrized state above -s - (d-1)/2 * residual, up to rounding
    (about d^2 eps), and ``min_eigenvalue`` holds -s. Else the report is the
    eigen-solve's, so the verdicts never differ. A state with a nan or inf entry has a
    nan or inf hermiticity residual; it is not solved, and its ``min_eigenvalue`` is
    nan, so it fails.
    """
    dim = rho.shape[-1]
    flat = rho.reshape(*rho.shape[:-2], dim * dim)
    entries, lower = np.arange(dim * dim).reshape(dim, dim), np.tri(dim, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite state
        # |rho - rho+| is symmetric in (i, j): the lower triangle holds its maximum
        gap = np.take(flat, entries[lower], axis=-1)
        gap -= np.take(flat, entries.T[lower], axis=-1).conj()
        herm = np.abs(gap).max(axis=-1)
        trace = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    del gap
    if not spectrum and np.all((herm <= HERMITICITY_TOL) & (trace <= TRACE_TOL)):
        shifted = np.array(rho, dtype=complex)
        shifted.reshape(flat.shape)[..., ::dim + 1] -= EIGENVALUE_FLOOR / 2
        try:
            # a nan anywhere in a row of the factor reaches that row's diagonal entry
            if np.isfinite(np.linalg.cholesky(shifted).diagonal(0, -2, -1)).all():
                return ValidationReport(herm, trace, np.full(herm.shape, EIGENVALUE_FLOOR / 2))
        except np.linalg.LinAlgError:
            pass
        del shifted
    with np.errstate(invalid="ignore"):
        # eigvalsh wants an exactly hermitian input; symmetrize first so the
        # reported spectrum is meaningful even when hermiticity already failed
        sym = (rho + _dagger(rho)) / 2.0
    finite = np.isfinite(herm)
    sym[np.logical_not(finite)] = 0.0  # eigvalsh does not converge on nan or inf
    return ValidationReport(herm, trace,
                            np.where(finite, np.linalg.eigvalsh(sym)[..., 0], np.nan))


def validate_density(rho: np.ndarray) -> ValidationReport:
    """Check hermiticity, unit trace, and positivity of ``rho``."""
    report = validate_densities(rho)
    return ValidationReport(float(report.hermiticity_residual),
                            float(report.trace_residual),
                            float(report.min_eigenvalue))
