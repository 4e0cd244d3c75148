"""Pure states and density matrices over the fixed incoherent basis.

The basis is the computational basis of C^d; "incoherent" always means
diagonal in it.  State objects are immutable wrappers around complex
ndarrays, validated on construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import InitVar
from functools import cached_property

import numpy as np

from . import numerics
from .errors import BadDimError, BadPayloadError, BadRankError, NonSquareError, NotNormalizedError
from .numerics import dagger

# Two pure states are "the same" when |<psi|phi>| >= 1 - PHASE_EQ_TOL.
PHASE_EQ_TOL = 1e-10

# Default entrywise-l1 threshold deciding incoherence.
INCOHERENCE_TOL = 1e-9


@dataclasses.dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector; amplitudes[i] is the coefficient of basis ket i."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise NotNormalizedError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > PHASE_EQ_TOL:
            raise NotNormalizedError(f"norm {norm} is not 1 within {PHASE_EQ_TOL}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def probabilities(self) -> np.ndarray:
        """Basis probabilities p_i = |amplitudes[i]|^2, the input of the ``*_pure`` measures."""
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __eq__(self, other) -> bool:
        # Global phases are unphysical: states compare equal up to a phase.
        if not isinstance(other, PureState):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return abs(self.overlap(other)) >= 1.0 - PHASE_EQ_TOL

    __hash__ = None

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "kind": "pure",
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
        }


@dataclasses.dataclass(frozen=True, eq=False)
class DensityMatrix:
    """d x d density matrix: Hermitian, unit trace, spectrum >= -1e-9.

    ``check_psd=False`` skips the spectral floor check at construction; it is
    used internally where positivity holds by construction (channel outputs,
    convex mixtures, Gram-matrix samples).  The floor is still enforced the
    first time the spectrum is actually computed.
    """

    matrix: np.ndarray
    check_psd: InitVar[bool] = True

    def __post_init__(self, check_psd: bool):
        m = density_matrices(self.matrix)
        if m.ndim != 2:
            raise NonSquareError(f"density matrix must be d x d, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        if check_psd:
            self.eigen  # noqa: B018 -- forces the spectral floor check

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigen(self):
        return numerics.psd_eigen(self.matrix, "density matrix")

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "kind": "density",
            "re": self.matrix.real.reshape(-1).tolist(),
            "im": self.matrix.imag.reshape(-1).tolist(),
        }


def density_matrices(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """The matrix of a DensityMatrix, or a stack ``(..., d, d)`` of density
    matrices validated as DensityMatrix validates one.

    Each matrix must be square and finite (NonSquareError, NonFiniteError),
    Hermitian within 1e-10 relative Frobenius (NonHermitianError) and of
    unit trace within 1e-10 (NotNormalizedError).  As with
    ``check_psd=False``, the spectral floor is enforced where a spectrum is
    computed.  This is the input adapter of every stack-evaluating measure.
    """
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    m = numerics.as_hermitian(rho, "density matrix")
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > 1e-10
    if off.any():
        raise NotNormalizedError(f"trace {tr[off].flat[0]} is not 1 within 1e-10")
    return m


def from_pure(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    return DensityMatrix(_projectors(psi.amplitudes), check_psd=False)


def _projectors(amp: np.ndarray) -> np.ndarray:
    """|psi><psi| of an amplitude vector, or of each one in a stack (..., d)."""
    return amp[..., :, None] * amp[..., None, :].conj()


def dephase(rho: DensityMatrix | np.ndarray):
    """Project onto the diagonal (the incoherent set); idempotent and trace preserving.

    Takes a DensityMatrix and returns one, or takes an array stack
    ``(..., d, d)``, as it is, and returns the dephased stack.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    out = np.zeros_like(m)
    i = np.arange(m.shape[-1])
    out[..., i, i] = m[..., i, i]
    return DensityMatrix(out, check_psd=False) if isinstance(rho, DensityMatrix) else out


def off_diagonal_mass(rho: DensityMatrix | np.ndarray):
    """Entrywise l1 mass of the off-diagonal part of a density matrix, or of
    each matrix in a stack ``(..., d, d)``."""
    m = np.abs(density_matrices(rho))
    return m.sum(axis=(-2, -1)) - np.trace(m, axis1=-2, axis2=-1)


def purity(rho: DensityMatrix | np.ndarray):
    """tr(rho^2) of a density matrix, or of each matrix in a stack ``(..., d, d)``."""
    return _purity(density_matrices(rho))


def _purity(m: np.ndarray) -> np.ndarray:
    """``purity`` of a stack that ``density_matrices`` has already validated."""
    # a Hermitian matrix's tr(rho^2) is its squared Frobenius norm
    return numerics._squared_norms(m)


def random_pure(dim: int, seed) -> PureState:
    """Haar-random pure state: normalized standard complex Gaussian vector."""
    if dim < 2:
        raise BadDimError("dim must be >= 2")
    return PureState(_draw_pure(np.random.default_rng(seed), dim))


def _draw_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The amplitudes of ``random_pure``, drawn from rng."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Random density matrix G G†/tr(G G†) with G a dim x rank complex Gaussian."""
    if not 1 <= rank <= dim:
        raise BadRankError(f"rank must be in [1, {dim}], got {rank}")
    return DensityMatrix(_gram_states(_draw_gram(np.random.default_rng(seed), dim, rank)), check_psd=False)


def _draw_gram(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """The parts (2, dim, rank) of the G = x[0] + i x[1] of ``random_density``, drawn from rng."""
    return rng.standard_normal((2, dim, rank))


def _gram_states(x: np.ndarray) -> np.ndarray:
    """G G†/tr(G G†) of G = x[0] + i x[1] for the parts x (2, d, r) of a
    ``_draw_gram`` draw, or of each one in a stack (..., 2, d, r)."""
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    m = g @ dagger(g)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def fidelity_pure(rho: DensityMatrix, target: PureState) -> float:
    """<target|rho|target>: closeness of rho to a pure target."""
    amp = target.amplitudes
    return float(np.vdot(amp, rho.matrix @ amp).real)


def state_from_dict(payload: dict):
    """Parse the JSON state format back into PureState or DensityMatrix.

    ``{"dim": d, "kind": "pure"|"density", "re": [...], "im": [...]}``,
    density matrices flattened row-major.  Parsing re-runs full validation.
    """
    try:
        dim = numerics.checked_dim(payload["dim"])
        kind = payload["kind"]
        re = np.asarray(payload["re"], dtype=np.float64).reshape(-1)
        im = np.asarray(payload["im"], dtype=np.float64).reshape(-1)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadPayloadError(f"malformed state payload: {exc}") from exc
    if re.size != im.size:
        raise BadPayloadError(f"re/im length mismatch: {re.size} vs {im.size}")
    data = re + 1j * im
    if kind == "pure":
        if data.size != dim:
            raise BadPayloadError(f"pure state needs {dim} amplitudes, got {data.size}")
        return PureState(data)
    if kind == "density":
        if data.size != dim * dim:
            raise BadPayloadError(f"density matrix needs {dim * dim} entries, got {data.size}")
        return DensityMatrix(data.reshape(dim, dim))
    raise BadPayloadError(f"unknown state kind {kind!r}")
