"""CPTP maps as Kraus sets, and the incoherent subfamily.

A channel is incoherent when every Kraus operator carries at most one
nonzero entry per column, so that each operator maps diagonal states to
diagonal states even under subselection.  The single-Kraus unitary case
reduces to a relabeling of the basis with per-column phases; those are
the coherence-preserving operations (CPOs).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import numerics
from .errors import (
    BadParamsError,
    BadPayloadError,
    DimMismatchError,
    IncompleteChannelError,
    NotIncoherentError,
)
from .numerics import dagger, frobenius
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-10
INCOHERENT_ENTRY_TOL = 1e-9

# Selective outcomes with probability at or below this are dropped.
PROB_FLOOR = 1e-14

_TWO_PI = 2.0 * np.pi


@dataclasses.dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map given by square Kraus operators with sum K†K = I within 1e-10."""

    kraus: tuple

    def __post_init__(self):
        ops = tuple(numerics.as_square_matrix(k, "Kraus operator") for k in self.kraus)
        if not ops:
            raise IncompleteChannelError("channel needs at least one Kraus operator")
        d = ops[0].shape[-1]
        if any(k.shape != (d, d) for k in ops):
            raise DimMismatchError("Kraus operators must all be d x d matrices of one d")
        gram = sum(dagger(k) @ k for k in ops)
        if frobenius(gram - np.eye(d)) > COMPLETENESS_TOL:
            raise IncompleteChannelError(
                f"completeness defect {frobenius(gram - np.eye(d)):.3e} exceeds 1e-10"
            )
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "kraus": [
                {"re": k.real.reshape(-1).tolist(), "im": k.imag.reshape(-1).tolist()}
                for k in self.kraus
            ],
        }


def is_incoherent_channel(ch: KrausChannel, tol: float = INCOHERENT_ENTRY_TOL) -> bool:
    """True iff every Kraus operator has at most one entry above tol per column."""
    for k in ch.kraus:
        if bool(np.any((np.abs(k) > tol).sum(axis=0) > 1)):
            return False
    return True


@dataclasses.dataclass(frozen=True, eq=False)
class IncoherentKrausForm:
    """Canonical data of an incoherent channel.

    Operator n is sqrt(weights[n]) * sum_j moduli[n, j] e^{i phases[n, j]}
    |column_maps[n, j]><j|; every column carries at most one entry by
    construction.  Weights follow the tr(K†K)/d convention, which makes the
    split state independent and the reconstruction exact.
    """

    dim: int
    weights: np.ndarray  # (n,) non-negative
    column_maps: np.ndarray  # (n, d) ints: column j feeds row column_maps[n, j]
    moduli: np.ndarray  # (n, d) non-negative
    phases: np.ndarray  # (n, d) in [0, 2pi)

    def reconstruct(self) -> KrausChannel:
        ops = []
        cols = np.arange(self.dim)
        for p, rows, mag, ang in zip(self.weights, self.column_maps, self.moduli, self.phases):
            k = np.zeros((self.dim, self.dim), dtype=np.complex128)
            k[rows, cols] = np.sqrt(p) * mag * np.exp(1j * ang)
            ops.append(k)
        return KrausChannel(tuple(ops))


def canonical_form(ch: KrausChannel, tol: float = INCOHERENT_ENTRY_TOL) -> IncoherentKrausForm:
    """Extract the single-entry-per-column decomposition of an incoherent channel.

    Raises NotIncoherentError when some column carries two entries above tol.
    The round trip reconstruct(canonical_form(ch)) matches ch to within the
    dropped sub-tolerance mass (exactly, for structurally incoherent inputs).
    """
    if not is_incoherent_channel(ch, tol):
        raise NotIncoherentError("channel has a Kraus column with multiple entries")
    d = ch.dim
    n = ch.n_kraus
    weights = np.zeros(n)
    column_maps = np.zeros((n, d), dtype=np.intp)
    moduli = np.zeros((n, d))
    phases = np.zeros((n, d))
    for idx, k in enumerate(ch.kraus):
        mags = np.abs(k)
        rows = mags.argmax(axis=0)
        entries = k[rows, np.arange(d)]
        entry_mags = np.abs(entries)
        # Zero columns keep a placeholder map to their own index.
        rows = np.where(entry_mags > 0.0, rows, np.arange(d))
        p = float((entry_mags**2).sum()) / d
        weights[idx] = p
        column_maps[idx] = rows
        if p > 0.0:
            moduli[idx] = entry_mags / np.sqrt(p)
            phases[idx] = np.where(entry_mags > 0.0, np.mod(np.angle(entries), _TWO_PI), 0.0)
    return IncoherentKrausForm(
        dim=d, weights=weights, column_maps=column_maps, moduli=moduli, phases=phases
    )


def apply_channel(ch: KrausChannel, rho: DensityMatrix | np.ndarray):
    """Non-selective action sum_n K_n rho K_n†.

    Takes a DensityMatrix and returns one, or takes an array stack
    ``(..., d, d)`` and returns the stack of outputs.  Arrays are taken as
    they are: the measures validate the stacks they evaluate.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    if ch.dim != m.shape[-1]:
        raise DimMismatchError(f"channel dim {ch.dim} != state dim {m.shape[-1]}")
    out = np.zeros_like(m)
    for k in ch.kraus:
        out += k @ m @ dagger(k)
    out = (out + dagger(out)) / 2.0
    return DensityMatrix(out, check_psd=False) if isinstance(rho, DensityMatrix) else out


def apply_selective(ch: KrausChannel, rho: DensityMatrix | np.ndarray):
    """Measurement branches [(p_n, K_n rho K_n†/p_n)]; branches below 1e-14 dropped.

    The branches are DensityMatrix objects for a DensityMatrix, and d x d
    arrays for a d x d array, taken as it is like in ``apply_channel``.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    if ch.dim != m.shape[-1]:
        raise DimMismatchError(f"channel dim {ch.dim} != state dim {m.shape[-1]}")
    outcomes = []
    for k in ch.kraus:
        raw = k @ m @ dagger(k)
        p = float(np.trace(raw).real)
        if p <= PROB_FLOOR:
            continue
        branch = (raw + dagger(raw)) / (2.0 * p)
        if isinstance(rho, DensityMatrix):
            branch = DensityMatrix(branch, check_psd=False)
        outcomes.append((p, branch))
    return outcomes


@dataclasses.dataclass(frozen=True, eq=False)
class IncoherentUnitary:
    """Basis relabeling with phases: the matrix sum_j e^{i theta_j} |perm[j]><j|."""

    perm: tuple
    phases: tuple

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        d = len(perm)
        if sorted(perm) != list(range(d)):
            raise BadParamsError(f"perm {perm} is not a permutation of 0..{d - 1}")
        phases = tuple(float(np.mod(t, _TWO_PI)) for t in self.phases)
        if len(phases) != d:
            raise BadParamsError("need one phase per basis label")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "phases", phases)

    @property
    def dim(self) -> int:
        return len(self.perm)

    def matrix(self) -> np.ndarray:
        u = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for j, (a, t) in enumerate(zip(self.perm, self.phases)):
            u[a, j] = np.exp(1j * t)
        return u

    def as_channel(self) -> KrausChannel:
        return KrausChannel((self.matrix(),))

    def conjugate(self, rho: DensityMatrix | np.ndarray):
        """U rho U† of a DensityMatrix, returned as one, or of each matrix in an
        array stack ``(..., d, d)``, taken as it is and returned as a stack."""
        m = rho.matrix if isinstance(rho, DensityMatrix) else rho
        if m.shape[-1] != self.dim:
            raise DimMismatchError(f"unitary dim {self.dim} != state dim {m.shape[-1]}")
        u = self.matrix()
        out = u @ m @ dagger(u)
        return DensityMatrix(out, check_psd=False) if isinstance(rho, DensityMatrix) else out

    def inverse(self) -> "IncoherentUnitary":
        inv = [0] * self.dim
        phases = [0.0] * self.dim
        for j, a in enumerate(self.perm):
            inv[a] = j
            phases[a] = -self.phases[j]
        return IncoherentUnitary(tuple(inv), tuple(phases))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "perm": list(self.perm), "phases": list(self.phases)}


def is_cpo(
    ch: KrausChannel, tol: float = 1e-8, *, entry_tol: float = INCOHERENT_ENTRY_TOL
) -> bool:
    """True iff the channel is coherence preserving: unitary and incoherent.

    Incoherence is decided as in ``is_incoherent_channel(ch, entry_tol)``.
    Unitarity is decided on the n x n Kraus Gram matrix G_ab = tr(K_a† K_b),
    whose nonzero eigenvalues are those of the d^2 x d^2 Choi matrix: a
    single complete operator is unitary, and n >= 2 operators make a unitary
    map when the second-largest eigenvalue is at most tol times the largest,
    which admits Kraus sets with repeated proportional operators.
    """
    if not is_incoherent_channel(ch, entry_tol):
        return False
    if ch.n_kraus == 1:
        return True
    flat = np.stack(ch.kraus).reshape(ch.n_kraus, -1)
    w = numerics.hermitian_eigen(flat.conj() @ flat.T).eigenvalues
    return bool(w[-2] <= tol * w[-1])


def random_incoherent_unitary(dim: int, seed) -> IncoherentUnitary:
    """Uniformly random relabeling with uniform phases."""
    if dim < 2:
        raise BadParamsError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    perm = tuple(int(x) for x in rng.permutation(dim))
    phases = tuple(float(t) for t in rng.uniform(0.0, _TWO_PI, dim))
    return IncoherentUnitary(perm, phases)


def random_incoherent_channel(dim: int, n_kraus: int, seed) -> KrausChannel:
    """Random incoherent channel, exactly complete by construction.

    Each operator gets an independent random permutation as its column map;
    the squared entry moduli of each column across operators form a flat
    Dirichlet sample, and phases are uniform.  Keeping the per-operator maps
    injective is what lets independently drawn phases coexist with an exact
    completeness relation.
    """
    if dim < 2 or n_kraus < 1:
        raise BadParamsError(f"need dim >= 2 and n_kraus >= 1, got {dim}, {n_kraus}")
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(dim) for _ in range(n_kraus)]
    # column j of the stacked moduli sums to one in square modulus
    weights = rng.dirichlet(np.ones(n_kraus), size=dim).T  # (n_kraus, dim)
    moduli = np.sqrt(weights)
    angles = rng.uniform(0.0, _TWO_PI, size=(n_kraus, dim))
    ops = np.zeros((n_kraus, dim, dim), dtype=np.complex128)
    ops[np.arange(n_kraus)[:, None], perms, np.arange(dim)] = moduli * np.exp(1j * angles)
    return KrausChannel(tuple(ops))


def channel_from_dict(payload: dict) -> KrausChannel:
    """Parse ``{"dim": d, "kraus": [{"re": [...], "im": [...]}, ...]}`` (row-major)."""
    try:
        dim = numerics.file_dim(payload["dim"])
        ops = []
        for entry in payload["kraus"]:
            re = np.asarray(entry["re"], dtype=np.float64)
            im = np.asarray(entry["im"], dtype=np.float64)
            if re.size != dim * dim or im.size != dim * dim:
                raise BadPayloadError(f"Kraus operator needs {dim * dim} entries")
            ops.append((re + 1j * im).reshape(dim, dim))
    except (KeyError, TypeError, ValueError) as exc:
        raise BadPayloadError(f"malformed channel payload: {exc}") from exc
    return KrausChannel(tuple(ops))


def unitary_from_dict(payload: dict) -> IncoherentUnitary:
    """Parse ``{"dim": d, "perm": [...], "phases": [...]}``."""
    try:
        perm = tuple(int(p) for p in payload["perm"])
        phases = tuple(float(t) for t in payload["phases"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadPayloadError(f"malformed unitary payload: {exc}") from exc
    return IncoherentUnitary(perm, phases)
