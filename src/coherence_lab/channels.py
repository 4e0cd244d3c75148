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
from .numerics import dagger
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-10
INCOHERENT_ENTRY_TOL = 1e-9

# A Kraus set of n >= 2 operators is unitary when its Gram matrix's
# second-largest eigenvalue is at most this times the largest.
CPO_GRAM_RATIO = 1e-8

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
        _check_complete(np.stack(ops))
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


def _check_complete(ops: np.ndarray) -> None:
    """IncompleteChannelError unless sum_n K_n† K_n = I within COMPLETENESS_TOL
    (Frobenius) for the Kraus set (n, d, d), or for each one in a stack (..., n, d, d)."""
    defect = np.sqrt(numerics._squared_norms((dagger(ops) @ ops).sum(axis=-3) - np.eye(ops.shape[-1])))
    if (defect > COMPLETENESS_TOL).any():
        raise IncompleteChannelError(f"completeness defect {defect.max():.3e} exceeds 1e-10")


def is_incoherent_channel(ch: KrausChannel | np.ndarray, tol: float = INCOHERENT_ENTRY_TOL):
    """True iff every Kraus operator has at most one entry above tol per column:
    a bool for a channel, one verdict per set for Kraus sets (..., n, d, d)."""
    ops = np.stack(ch.kraus) if isinstance(ch, KrausChannel) else ch
    verdict = ~((np.abs(ops) > tol).sum(axis=-2) > 1).any(axis=(-2, -1))
    return bool(verdict) if isinstance(ch, KrausChannel) else verdict


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
        moduli = np.sqrt(self.weights)[:, None] * self.moduli
        return KrausChannel(tuple(_monomials(self.column_maps, moduli, self.phases)))


def canonical_form(ch: KrausChannel, tol: float = INCOHERENT_ENTRY_TOL) -> IncoherentKrausForm:
    """Extract the single-entry-per-column decomposition of an incoherent channel.

    Raises NotIncoherentError when some column carries two entries above tol.
    The round trip reconstruct(canonical_form(ch)) matches ch to within the
    dropped sub-tolerance mass (exactly, for structurally incoherent inputs).
    """
    if not is_incoherent_channel(ch, tol):
        raise NotIncoherentError("channel has a Kraus column with multiple entries")
    ops = np.stack(ch.kraus)
    rows = np.abs(ops).argmax(axis=-2)
    entries = np.take_along_axis(ops, rows[:, None, :], axis=-2)[:, 0]
    mags = np.abs(entries)
    weights = (mags**2).sum(axis=-1) / ch.dim
    live = (weights > 0.0)[:, None]
    return IncoherentKrausForm(
        dim=ch.dim,
        weights=weights,
        # Zero columns keep a placeholder map to their own index.
        column_maps=np.where(mags > 0.0, rows, np.arange(ch.dim)),
        moduli=np.where(live, mags / np.sqrt(np.where(live, weights[:, None], 1.0)), 0.0),
        phases=np.where(live & (mags > 0.0), np.mod(np.angle(entries), _TWO_PI), 0.0),
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
    out = _kraus_sum(np.stack(ch.kraus), m)
    return DensityMatrix(out, check_psd=False) if isinstance(rho, DensityMatrix) else out


def _kraus_sum(ops: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_n K_n m K_n† for Kraus sets (..., n, d, d) and
    matrices (..., d, d), broadcast against each other."""
    out = np.zeros(np.broadcast_shapes(ops.shape[:-3], m.shape[:-2]) + m.shape[-2:], dtype=np.complex128)
    for n in range(ops.shape[-3]):
        k = ops[..., n, :, :]
        out += k @ m @ dagger(k)
    return (out + dagger(out)) / 2.0


def apply_selective(ch: KrausChannel, rho: DensityMatrix | np.ndarray):
    """Measurement branches [(p_n, K_n rho K_n†/p_n)]; branches below 1e-14 dropped.

    The branches are DensityMatrix objects for a DensityMatrix, and d x d
    arrays for a d x d array, taken as it is like in ``apply_channel``.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    if m.shape != (ch.dim, ch.dim):
        raise DimMismatchError(f"channel dim {ch.dim} needs one {ch.dim} x {ch.dim} state, got {m.shape}")
    _, p, branches = _kraus_branches(np.stack(ch.kraus), m)
    if isinstance(rho, DensityMatrix):
        branches = [DensityMatrix(b, check_psd=False) for b in branches]
    return list(zip(p.tolist(), branches))


def _kraus_branches(ops: np.ndarray, m: np.ndarray):
    """Branches K_n m K_n† of Kraus sets (..., n, d, d) on matrices (..., d, d):
    the (..., n) mask ``kept`` of those above PROB_FLOOR, and their
    probabilities (K,) and normalized Hermitian parts (K, d, d), row-major."""
    raw = ops @ m[..., None, :, :] @ dagger(ops)
    p = np.trace(raw, axis1=-2, axis2=-1).real
    kept = p > PROB_FLOOR
    raw, p = raw[kept], p[kept]
    return kept, p, (raw + dagger(raw)) / (2.0 * p)[:, None, None]


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
        return _monomials(np.array(self.perm), np.ones(self.dim), np.array(self.phases))

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
        inv = np.argsort(self.perm)
        return IncoherentUnitary(inv, -np.array(self.phases)[inv])

    def to_dict(self) -> dict:
        return {"dim": self.dim, "perm": list(self.perm), "phases": list(self.phases)}


def is_cpo(ch: KrausChannel | np.ndarray, tol: float = INCOHERENT_ENTRY_TOL):
    """True iff the channel is coherence preserving: unitary and incoherent; a
    bool for a channel, one verdict per set for Kraus sets (..., n, d, d), from
    one Gram eigendecomposition per stack.

    Incoherence is decided by ``is_incoherent_channel(ch, tol)``, tol being
    the entry tolerance.  Unitarity is decided on the n x n Kraus Gram matrix
    G_ab = tr(K_a† K_b), whose nonzero eigenvalues are those of the d^2 x d^2
    Choi matrix: a single complete operator is unitary, and n >= 2 operators
    make a unitary map when the second-largest eigenvalue is at most
    CPO_GRAM_RATIO times the largest, which admits Kraus sets with repeated
    proportional operators.
    """
    ops = np.stack(ch.kraus) if isinstance(ch, KrausChannel) else ch
    verdict = is_incoherent_channel(ops, tol)
    if ops.shape[-3] > 1 and verdict.any():
        flat = ops.reshape(*ops.shape[:-2], -1)
        w = numerics.hermitian_eigen(flat.conj() @ np.swapaxes(flat, -1, -2)).eigenvalues
        verdict = verdict & (w[..., -2] <= CPO_GRAM_RATIO * w[..., -1])
    return bool(verdict) if isinstance(ch, KrausChannel) else verdict


def random_incoherent_unitary(dim: int, seed) -> IncoherentUnitary:
    """Uniformly random relabeling with uniform phases."""
    if dim < 2:
        raise BadParamsError("dim must be >= 2")
    return _unitary(_draw_unitary(np.random.default_rng(seed), dim))


def _draw_unitary(rng: np.random.Generator, dim: int) -> tuple:
    """The ``_monomials`` arguments (1, dim) of ``random_incoherent_unitary``, drawn from rng."""
    return rng.permutation(dim)[None], np.ones((1, dim)), rng.uniform(0.0, _TWO_PI, (1, dim))


def _unitary(draw) -> IncoherentUnitary:
    """The relabeling of a ``_draw_unitary`` draw, which keeps its phases, drawn in [0, 2 pi), as they are."""
    return IncoherentUnitary(draw[0][0], draw[2][0])


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
    return KrausChannel(tuple(_monomials(*_draw_incoherent(np.random.default_rng(seed), dim, n_kraus))))


def _draw_incoherent(rng: np.random.Generator, dim: int, n_kraus: int) -> tuple:
    """The ``_monomials`` arguments (n_kraus, dim) of ``random_incoherent_channel``,
    drawn from rng: column maps, moduli and phases."""
    perms = rng.permuted(np.tile(np.arange(dim), (n_kraus, 1)), axis=1)  # as n_kraus rng.permutation(dim)
    # column j of the squared moduli is a flat Dirichlet sample: it sums to one
    moduli = np.sqrt(rng.dirichlet(np.ones(n_kraus), size=dim).T)
    return perms, moduli, rng.uniform(0.0, _TWO_PI, size=(n_kraus, dim))


def _monomials(rows: np.ndarray, moduli: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The matrix sum_j moduli[j] e^{i phases[j]} |rows[j]><j| of arrays (d,),
    or one per row of stacks (..., d): a relabeling's unitary, a Kraus set
    (n, d, d) from rows (n, d), Kraus sets (..., n, d, d) from (..., n, d)."""
    out = np.zeros(rows.shape + rows.shape[-1:], dtype=np.complex128)
    np.put_along_axis(out, rows[..., None, :], (moduli * np.exp(1j * phases))[..., None, :], axis=-2)
    return out


def channel_from_dict(payload: dict) -> KrausChannel:
    """Parse ``{"dim": d, "kraus": [{"re": [...], "im": [...]}, ...]}`` (row-major)."""
    try:
        dim = numerics.checked_dim(payload["dim"])
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
