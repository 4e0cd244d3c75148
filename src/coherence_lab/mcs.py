"""Maximally coherent states and the channels that spend them.

The maximally coherent states are exactly the pure states with uniform
amplitude moduli 1/sqrt(d); from any of them, every same-dimension state
can be prepared deterministically with incoherent operations alone.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel
from .errors import BadDimError
from .states import DensityMatrix, PureState, _purity, density_matrices

_TWO_PI = 2.0 * np.pi


def uniform_superposition(dim: int) -> PureState:
    """The all-phases-zero maximally coherent state (1/sqrt(d)) sum_j |j>."""
    if dim < 2:
        raise BadDimError("dim must be >= 2")
    return PureState(np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))


def mcs_deviation(rho: DensityMatrix | np.ndarray):
    """How far rho is from the maximally coherent set: max of the purity
    defect 1 - tr(rho^2) and the largest diagonal deviation from 1/d.  Takes
    a DensityMatrix, or a stack ``(..., d, d)`` as the ``c_*`` measures do."""
    m = density_matrices(rho)
    diag_dev = np.abs(np.diagonal(m, axis1=-2, axis2=-1).real - 1.0 / m.shape[-1]).max(axis=-1)
    return np.maximum(1.0 - _purity(m), diag_dev)


def is_mcs(rho: DensityMatrix, tol: float = 1e-8) -> bool:
    """True iff rho is pure within tol and has uniform diagonal within tol."""
    return bool(mcs_deviation(rho) <= tol)


def mcs_sample(dim: int, seed) -> PureState:
    """Random maximally coherent state: uniform phases, first fixed to zero."""
    if dim < 2:
        raise BadDimError("dim must be >= 2")
    return PureState(_draw_mcs(np.random.default_rng(seed), dim))


def _draw_mcs(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The amplitudes of ``mcs_sample``, drawn from rng."""
    phases = np.concatenate(([0.0], rng.uniform(0.0, _TWO_PI, dim - 1)))
    return np.exp(1j * phases) / np.sqrt(dim)


def transform_mcs_to(target: PureState) -> KrausChannel:
    """Incoherent channel mapping the uniform superposition to ``target``.

    Kraus operator n routes column (j + n) mod d to row j with the target's
    j-th amplitude.  Every measurement branch on the uniform superposition
    lands on the target with probability 1/d, so the conversion is
    deterministic; the cyclic column maps make the completeness relation hold
    exactly.
    """
    d = target.dim
    n, rows = np.arange(d)[:, None], np.arange(d)
    ops = np.zeros((d, d, d), dtype=np.complex128)
    ops[n, rows, (rows + n) % d] = target.amplitudes
    return KrausChannel(tuple(ops))


def transform_mcs_to_mixed(target: DensityMatrix) -> KrausChannel:
    """Incoherent channel mapping the uniform superposition to a mixed target.

    Convex combination of the pure-target channels over the target's
    eigendecomposition: Kraus set {sqrt(q_k) K_n^(k)}.  Eigenvalues below
    1e-12 are dropped and the remainder renormalized, keeping completeness
    exact.
    """
    eig = target.eigen
    keep = eig.eigenvalues > 1e-12
    q = eig.eigenvalues[keep]
    q = q / q.sum()
    ops = []
    for weight, col in zip(q, np.nonzero(keep)[0]):
        vec = eig.eigenvectors[:, col]
        sub = transform_mcs_to(PureState(vec / np.linalg.norm(vec)))
        ops.extend(np.sqrt(weight) * k for k in sub.kraus)
    return KrausChannel(tuple(ops))
