"""Dense complex linear algebra for small matrices (dimension 2 to MAX_DIM = 16).

Matrices are plain ``numpy.ndarray`` of complex128 in row-major order;
where a function says so, it also takes a stack ``(..., d, d)`` of them and
validates the whole stack at once.  Every spectral computation in the
package goes through ``hermitian_eigen``, a thin validated wrapper over
LAPACK's ``eigh`` that makes one call per stack.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadDimError,
    NonFiniteError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
)

# Largest dimension a state or channel file, or a harness run, may declare.
MAX_DIM = 16

# Eigenvalues in [-PSD_FLOOR, 0) are clamped to zero; anything lower is an error.
PSD_FLOOR = 1e-9


def is_integer(value) -> bool:
    """An int or numpy integer, not a bool: what a count, a dimension or a seed must be."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_dim(value) -> int:
    """The ``dim`` of a state or channel file or a harness run, as an int: an integer in 2..MAX_DIM."""
    if not (is_integer(value) and 2 <= value <= MAX_DIM):
        raise BadDimError(f"dim must be >= 2 and <= {MAX_DIM}, got {value!r} (an integer)")
    return int(value)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., d, d)."""
    return np.swapaxes(a.conj(), -1, -2)


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex square matrix, or a stack (..., d, d) of them.

    Raises NonSquareError unless the last two axes are equal, and
    NonFiniteError on a NaN or infinite entry.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NonSquareError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{name} has non-finite entries")
    return m


def _squared_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a stack (..., d, d)."""
    flat = m.reshape(*m.shape[:-2], -1)
    return np.vecdot(flat, flat).real


def as_hermitian(a, name: str = "matrix") -> np.ndarray:
    """``as_square_matrix``, then NonHermitianError unless every matrix is
    Hermitian within 1e-10 relative Frobenius."""
    m = as_square_matrix(a, name)
    scale = np.maximum(1.0, _squared_norms(m))
    if (_squared_norms(m - dagger(m)) > 1e-20 * scale).any():
        raise NonHermitianError(f"{name} is not Hermitian within 1e-10")
    return m


def hermitian_eigen(a):
    """Diagonalize a Hermitian matrix, or a stack (..., d, d) of them, with
    one call to LAPACK: ``numpy.linalg.eigh``'s own result, eigenvalues
    (..., d) ascending and unitary eigenvectors (..., d, d) whose column k
    pairs with eigenvalue k.

    The solver runs on the exact Hermitian part ``(a + a†)/2``, which removes
    representation noise below the tolerance.  Raises NonHermitianError when
    some matrix is not Hermitian within 1e-10 relative Frobenius,
    NonSquareError when not square, NonFiniteError on a non-finite entry.
    """
    a = as_hermitian(a)
    return np.linalg.eigh((a + dagger(a)) / 2.0)


def psd_eigen(a, name: str = "matrix"):
    """``hermitian_eigen`` of a positive semidefinite matrix or stack: raises
    NotPSDError when some eigenvalue lies below -PSD_FLOOR."""
    eig = hermitian_eigen(a)
    lowest = eig.eigenvalues[..., :1]
    if lowest.size and lowest.min() < -PSD_FLOOR:
        raise NotPSDError(f"{name} eigenvalue {lowest.min():.3e} below -{PSD_FLOOR:.0e}")
    return eig


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix, or of each
    matrix in a stack (..., d, d), from one ``psd_eigen`` call.

    Eigenvalues in [-1e-9, 0) are clamped to zero; anything below -1e-9
    raises NotPSDError.  Positive eigenvalues below 1e-13 relative to the
    largest are clamped too: the square root would
    otherwise turn O(eps) spectral noise of an exactly singular input into
    O(sqrt(eps)) output noise.
    """
    eig = psd_eigen(a)
    w = eig.eigenvalues
    noise_floor = 1e-13 * np.maximum(1.0, w[..., -1:])
    root = np.sqrt(np.where(w > noise_floor, w, 0.0))
    v = eig.eigenvectors
    s = (v * root[..., None, :]) @ dagger(v)
    return (s + dagger(s)) / 2.0
