"""Dense complex linear algebra for small matrices (dimension 2 to MAX_DIM = 16).

Matrices are plain ``numpy.ndarray`` of complex128 in row-major order.
Every spectral computation in the package goes through
``hermitian_eigen``, a thin validated wrapper over LAPACK's ``eigh``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BadDimError, NonHermitianError, NonSquareError, NotPSDError

# Largest dimension a state or channel file may declare.
MAX_DIM = 16

# Eigenvalues in [-PSD_FLOOR, 0) are clamped to zero; anything lower is an error.
PSD_FLOOR = 1e-9


def file_dim(value) -> int:
    """The ``dim`` of a state or channel file: an integer (not a bool) in 2..MAX_DIM."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and 2 <= value <= MAX_DIM):
        raise BadDimError(f"dim must be an integer in 2..{MAX_DIM}, got {value!r}")
    return int(value)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray, raising NonSquareError otherwise."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} has non-finite entries")
    return m


@dataclasses.dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition A = V diag(w) V† with eigenvalues ascending."""

    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary; column k pairs with eigenvalues[k]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def hermitian_eigen(a) -> HermitianEigen:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    The solver runs on the exact Hermitian part ``(a + a†)/2``, which removes
    representation noise below the tolerance.  Raises NonHermitianError when
    ``a`` is not Hermitian within 1e-10 relative Frobenius, NonSquareError
    when not square.
    """
    a = as_square_matrix(a)
    scale = max(1.0, frobenius(a))
    if frobenius(a - dagger(a)) > 1e-10 * scale:
        raise NonHermitianError("matrix is not Hermitian within 1e-10")
    eigenvalues, eigenvectors = np.linalg.eigh((a + dagger(a)) / 2.0)
    return HermitianEigen(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-9, 0) are clamped to zero; anything below -1e-9
    raises NotPSDError.  Positive eigenvalues below 1e-13 relative to the
    largest are clamped too: the square root would
    otherwise turn O(eps) spectral noise of an exactly singular input into
    O(sqrt(eps)) output noise.
    """
    eig = hermitian_eigen(a)
    w = eig.eigenvalues
    if w[0] < -PSD_FLOOR:
        raise NotPSDError(f"eigenvalue {w[0]:.3e} below -{PSD_FLOOR:.0e}")
    noise_floor = 1e-13 * max(1.0, w[-1]) if w.size else 0.0
    root = np.sqrt(np.where(w > noise_floor, w, 0.0))
    v = eig.eigenvectors
    s = (v * root) @ dagger(v)
    return (s + dagger(s)) / 2.0


def is_unitary(u, tol: float) -> bool:
    """True iff ‖u†u − I‖_F ≤ tol."""
    u = as_square_matrix(u)
    return frobenius(dagger(u) @ u - np.eye(u.shape[0])) <= tol
