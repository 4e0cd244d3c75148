"""Coherence measures behind a uniform name/evaluate interface.

Implemented measures:

* ``l1`` -- summed moduli of the off-diagonal entries.
* ``rel_ent`` -- entropy of the dephased state minus entropy of the state,
  in bits.
* ``int_rand`` -- intrinsic randomness: equals ``rel_ent`` on pure states,
  and the convex roof (minimum ensemble average of the pure-state value)
  on mixed states, estimated by a batched Riemannian gradient descent over
  the mixing isometry from the eigen ensemble and random restarts.  The
  optimizer yields an upper bound on the true roof.
* ``skew`` -- the skew information -1/2 tr([sqrt(rho), K]^2) for a
  nondegenerate diagonal observable K.  A valid quantifier in dimension 2
  only; for d >= 3 it fails monotonicity, which the harness exploits.
* ``trivial`` -- the pathological 0/1 indicator of coherence.  Satisfies
  the four standard criteria yet assigns the maximal value to every
  coherent state, which is exactly what the maximal-value criterion
  is designed to exclude.

Each ``c_*`` measure takes a DensityMatrix, for which it returns the value,
or an array stack ``(..., d, d)`` of density matrices, which it validates
once (``states.density_matrices``) and for which it returns the ``(...)``
values; each row rounds as the matrix would alone.  The ``*_pure`` forms
take basis probabilities ``(..., d)``.

Entropies use base-2 logarithms throughout, with 0 log 0 = 0 and a 1e-15
floor inside logs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from . import numerics, states
from .errors import BadParamsError, DimMismatchError, OptimizerFailedError
from .states import DensityMatrix, PureState, density_matrices, off_diagonal_mass

_LOG_FLOOR = 1e-15

# Eigenvalues below this are treated as absent when building ensembles.
_RANK_TOL = 1e-12

# The convex-roof descent: its first step, the Armijo constant, how many halvings
# of a step a row tries before it stops, the range of its Barzilai-Borwein steps,
# and the relative decrease that stops the restarts (after at most
# _LOOSE_ITERATIONS iterations) and then the winner's polish.
_FIRST_STEP, _ARMIJO, _BACKTRACKS, _STEP_RANGE = 0.1, 1e-4, 20, (1e-8, 10.0)
_LOOSE_TOL, _LOOSE_ITERATIONS, _TIGHT_TOL = 1e-6, 300, 1e-13


def shannon_entropy(probs: np.ndarray):
    """Base-2 entropy of each distribution along the last axis, with 0 log 0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    return -np.where(p > 0.0, p * np.log2(np.maximum(p, _LOG_FLOOR)), 0.0).sum(axis=-1)


@dataclasses.dataclass(frozen=True)
class DiagonalObservable:
    """Diagonal observable with pairwise-distinct entries (minimum gap 1e-6)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        gaps = np.abs(v[:, None] - v[None, :])[~np.eye(v.size, dtype=bool)]
        if v.size > 1 and gaps.min() < 1e-6:
            raise BadParamsError("observable values must be pairwise distinct (gap >= 1e-6)")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size


def default_observable(dim: int) -> DiagonalObservable:
    """K = diag(0, 1, ..., d-1), the test default."""
    return DiagonalObservable(np.arange(dim, dtype=np.float64))


@dataclasses.dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the convex-roof estimator: restart count, gradient iterations per
    stage and restart seed.  The stops are fixed: the restarts stop at a relative
    decrease below 1e-6 (after at most 300 iterations), the winner's polish below 1e-13."""

    restarts: int = 32
    max_iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        knobs = (self.restarts, self.max_iterations, self.seed)
        if not all(map(numerics.is_integer, knobs)):
            raise BadParamsError(f"restarts, max_iterations and seed must be integers: {self}")
        if self.restarts < 0 or self.max_iterations < 1 or self.seed < 0:
            raise BadParamsError(f"need restarts >= 0, max_iterations >= 1, seed >= 0: {self}")


@dataclasses.dataclass(frozen=True, eq=False)
class Ensemble:
    """Pure-state decomposition sum_k weights[k] |states[k]><states[k]|."""

    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if abs(w.sum() - 1.0) > 1e-10:
            raise BadParamsError(f"ensemble weights sum to {w.sum()}, not 1")
        if w.size != len(self.states):
            raise BadParamsError("one weight per state required")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", tuple(self.states))

    def reconstruction(self) -> np.ndarray:
        a = np.stack([psi.amplitudes for psi in self.states], axis=1) * np.sqrt(self.weights)
        return a @ a.conj().T


# ---------------------------------------------------------------------------
# the measures
# ---------------------------------------------------------------------------


def c_l1(rho: DensityMatrix | np.ndarray):
    """Off-diagonal l1 mass; ranges from 0 (incoherent) to d-1."""
    return off_diagonal_mass(rho)


def l1_pure(p: np.ndarray):
    """l1 of the pure state with basis probabilities p: (sum_i sqrt(p_i))^2 - sum_i p_i."""
    # np.square, not ** 2: a numpy float64 scalar's ** 2 can round differently
    # from the array ufunc, so a single row would not match its stacked value
    return np.square(np.sqrt(p).sum(axis=-1)) - p.sum(axis=-1)


def c_rel_ent(rho: DensityMatrix | np.ndarray):
    """Entropy gained by dephasing: H(diag) - H(spectrum), in bits."""
    m = density_matrices(rho)
    diagonal = np.diagonal(m, axis1=-2, axis2=-1).real
    return shannon_entropy(diagonal) - shannon_entropy(numerics.psd_eigen(m).eigenvalues)


def rel_ent_pure(p: np.ndarray):
    """rel_ent of the pure state with basis probabilities p: their Shannon entropy."""
    return shannon_entropy(p)


def c_trivial(rho: DensityMatrix | np.ndarray):
    """0 on incoherent states, 1 on everything else."""
    return (off_diagonal_mass(rho) > states.INCOHERENCE_TOL).astype(np.float64)


def trivial_pure(p: np.ndarray):
    return (l1_pure(p) > states.INCOHERENCE_TOL).astype(np.float64)


def c_skew(rho: DensityMatrix | np.ndarray, k: DiagonalObservable):
    """Skew information -1/2 tr([sqrt(rho), K]^2) for diagonal K."""
    m = density_matrices(rho)
    if k.dim != m.shape[-1]:
        raise DimMismatchError(f"observable dim {k.dim} != state dim {m.shape[-1]}")
    s = numerics.psd_sqrt(m)
    kv = k.values
    # vecdot, not matmul: each row rounds as a one-matrix dot product does
    direct = np.vecdot(np.diagonal(m, axis1=-2, axis2=-1).real, kv**2)
    crossed = np.vecdot(kv @ (np.abs(s) ** 2), kv)
    return direct - crossed


def c_skew_pure(p: np.ndarray, k: DiagonalObservable):
    """Closed form on pure states: 1/2 sum_{i != j} p_i p_j (k_i - k_j)^2 with p = |<i|psi>|^2."""
    if k.dim != p.shape[-1]:
        raise DimMismatchError(f"observable dim {k.dim} != state dim {p.shape[-1]}")
    diff2 = (k.values[:, None] - k.values[None, :]) ** 2
    # sum_i p_i diff2[i] accumulated in order, as a sum over that axis would, without
    # the (..., d, d) product; elementwise, not matmul: each row rounds the same in any stack
    acc = p[..., 0, None] * diff2[0]
    for i in range(1, k.dim):
        acc = acc + p[..., i, None] * diff2[i]
    return 0.5 * (acc * p).sum(axis=-1)


# ---------------------------------------------------------------------------
# intrinsic randomness: convex roof of the pure-state relative entropy
# ---------------------------------------------------------------------------


def _roof_gradient(ws: np.ndarray, b: np.ndarray):
    """Values of isometries (..., m, r) mixing b (d, r) into members M = ws b^T, and the
    Euclidean gradients G = 2 (M * log2(p / a)) conj(b), a = |M|^2, p its row sums.
    The value of member i is p_i log2 p_i - sum_j a_ij log2 a_ij, with 0 log 0 = 0:
    entries at or below _LOG_FLOOR take log2(1) = 0, so zero rows add 0 to both."""
    members = ws @ b.T
    a = members.real**2 + members.imag**2
    p = np.add.reduce(a, axis=-1)
    log_a = np.log2(np.where(a > _LOG_FLOOR, a, 1.0))
    log_p = np.log2(np.where(p > _LOG_FLOOR, p, 1.0))
    values = np.add.reduce(p * log_p - np.add.reduce(a * log_a, axis=-1), axis=-1)
    return values, 2.0 * ((log_p[..., None] - log_a) * members) @ b.conj()


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of a stack of complex matrices (R, m, r)."""
    return (x.real**2 + x.imag**2).sum(axis=(1, 2))


def _descend(ws: np.ndarray, b: np.ndarray, max_iterations: int, tol: float):
    """Riemannian gradient descent on the Stiefel manifold for a stack of isometries (R, m, r).

    Each isometry W moves along the Cayley curve (I + tau A / 2)^-1 (I - tau A / 2) W of
    the skew-Hermitian A = G W^+ - W G^+, in the low-rank form of Wen & Yin (Math.
    Program. 142, 397 (2013)) with one 2r x 2r solve (see also Abrudan, Eriksson &
    Koivunen, IEEE Trans. Signal Process. 56, 1134 (2008)).  tau starts from the
    Barzilai-Borwein step |<s, y>| / |y|^2 of the last move s and the change y of the
    Riemannian gradient A W, and is halved until the Armijo condition holds; a row
    whose backtracking fails keeps its point and stops, so no row ends above its start.
    Each row also stops at a decrease below tol times its value, at or below _RANK_TOL
    or after max_iterations iterations, and follows the trajectory it would follow
    alone.  Returns the isometries and their values."""
    r = ws.shape[2]
    eye = np.eye(2 * r)
    ws, (values, grads) = ws.copy(), _roof_gradient(ws, b)
    live = np.flatnonzero(values > _RANK_TOL)
    w, f, g, tau = ws[live], values[live], grads[live], np.full(live.size, _FIRST_STEP)
    for _ in range(max_iterations):
        if not live.size:
            break
        # A = U V^+ with U = [G, W], V = [W, -G]
        u = np.concatenate((g, w), axis=2)
        vh = np.concatenate((w, -g), axis=2).conj().swapaxes(1, 2)
        vu, vw = vh @ u, vh @ w
        gw = -vw[:, r:]  # G^+ W
        # f falls along the curve at the rate |A|^2 / 2 = |G|^2 - Re tr((G^+ W)^2)
        slope = _sq_norm(g) - (gw * gw.swapaxes(1, 2)).real.sum(axis=(1, 2))
        new_w, new_f, new_g = w.copy(), f.copy(), g.copy()
        pending = np.arange(live.size)
        for _ in range(_BACKTRACKS):
            t = tau[pending, None, None]
            trial = w[pending] - t * u[pending] @ np.linalg.solve(eye + 0.5 * t * vu[pending], vw[pending])
            trial_f, trial_g = _roof_gradient(trial, b)
            ok = trial_f <= f[pending] - _ARMIJO * tau[pending] * slope[pending]
            new_w[pending[ok]], new_f[pending[ok]], new_g[pending[ok]] = trial[ok], trial_f[ok], trial_g[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            tau[pending] *= 0.5
        s = new_w - w
        y = new_g - new_w @ (new_g.conj().swapaxes(1, 2) @ new_w) - (g - w @ gw)
        tau = np.clip(np.abs((s.conj() * y).real.sum(axis=(1, 2))) / np.maximum(_sq_norm(y), 1e-300), *_STEP_RANGE)
        keep = (f - new_f > tol * f) & (new_f > _RANK_TOL)
        keep[pending] = False
        ws[live], values[live] = new_w, new_f
        live, w, f, g, tau = live[keep], new_w[keep], new_f[keep], new_g[keep], tau[keep]
    return ws, values


def convex_roof_ensemble(rho: DensityMatrix, opt: Optional[OptimizerConfig] = None) -> tuple[float, Ensemble]:
    """Best ensemble found for the intrinsic-randomness minimization.

    Ensembles are the eigendecomposition mixed through an m x r isometry,
    m = r^2 for rank r, which suffices for the roof (Uhlmann, Entropy 12,
    1799 (2010)); the eigenensemble is always among the candidates, so the
    result never exceeds the eigendecomposition average.  The value is an
    upper bound on the exact roof.  The eigen start and the random restarts
    descend as one stack to a loose stop; the best of them is then polished
    to a tight stop.
    """
    value, members = _convex_roof(rho.matrix, opt)
    probs = (np.abs(members) ** 2).sum(axis=0)
    return value, Ensemble(probs / probs.sum(), tuple(PureState(v / np.sqrt(p)) for v, p in zip(members.T, probs)))


def _convex_roof(m: np.ndarray, opt: Optional[OptimizerConfig]) -> tuple[float, np.ndarray]:
    """``convex_roof_ensemble``'s value and members (d, k), m = members members†, on a validated m."""
    opt = opt or OptimizerConfig()
    eig = numerics.psd_eigen(m, "density matrix")
    keep = eig.eigenvalues > _RANK_TOL
    q = eig.eigenvalues[keep] / eig.eigenvalues[keep].sum()
    r = q.size
    b = eig.eigenvectors[:, keep] * np.sqrt(q)  # d x r, rho = b b†

    # the eigen start, padded with zero rows to the restarts' m = r^2, then the restarts;
    # per restart: real part, then imaginary part, of an m x r Gaussian
    g = np.random.default_rng(opt.seed).standard_normal((opt.restarts, 2, r * r, r))
    starts = np.concatenate((np.eye(r * r, r, dtype=np.complex128)[None], np.linalg.qr(g[:, 0] + 1j * g[:, 1])[0]))
    if _roof_gradient(starts[0], b)[0] <= _RANK_TOL:  # the eigen ensemble is incoherent: no restart can beat it
        starts = starts[:1]
    ws, values = _descend(starts, b, min(opt.max_iterations, _LOOSE_ITERATIONS), _LOOSE_TOL)
    best = np.argmin(values)  # the first of equal values: the eigen start wins ties
    (best_w,), (best_val,) = _descend(ws[best : best + 1], b, opt.max_iterations, _TIGHT_TOL)

    members = b @ best_w.T
    probs = (np.abs(members) ** 2).sum(axis=0)
    kept = probs > _RANK_TOL
    members = members[:, kept] / np.sqrt(probs[kept].sum())
    defect = numerics.frobenius(members @ members.conj().T - m)
    if defect > 1e-9:
        raise OptimizerFailedError(f"ensemble reconstructs rho to {defect:.3e} > 1e-9")
    return float(best_val), members


def c_int_rand(rho: DensityMatrix | np.ndarray, opt: Optional[OptimizerConfig] = None):
    """Intrinsic randomness: rel_ent on pure states, convex-roof estimate otherwise.

    On a stack, the pure matrices go through ``c_rel_ent`` together and the
    optimizer runs on the mixed ones one after another, in row order.
    """
    return _int_rand(rho, opt, map)


def _int_rand(rho: DensityMatrix | np.ndarray, opt: Optional[OptimizerConfig], map_rows: Callable):
    """``c_int_rand`` with its mixed rows' ``_convex_roof`` calls made by ``map_rows(fn, rows,
    opts)`` in row order: the builtin ``map`` or a process pool's, which give the same values,
    since each call is a pure function of its row and ``opt``."""
    m = density_matrices(rho)
    flat = m.reshape(-1, *m.shape[-2:])
    pure = states._purity(flat) >= 1.0 - 1e-10
    values = np.empty(len(flat))
    if pure.any():
        values[pure] = c_rel_ent(flat[pure])
    mixed = flat[~pure]
    values[~pure] = [value for value, _ in map_rows(_convex_roof, mixed, [opt] * len(mixed))]
    return values.reshape(m.shape[:-2])[()]


# ---------------------------------------------------------------------------
# named measure registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Measure:
    """Named evaluator.

    ``evaluate`` takes a DensityMatrix, or a stack ``(..., d, d)`` of density
    matrices for which it returns the ``(...)`` values, validating the stack
    once.  ``evaluate_pure`` takes the basis probabilities ``p = |psi|^2`` of
    a pure state (``PureState.probabilities``), all a pure-state value
    depends on by invariance under relabelings with phases, or a stack
    ``(..., d)`` of them, for which it returns the ``(...)`` row values."""

    name: str
    evaluate: Callable[[DensityMatrix], float]
    evaluate_pure: Callable[[np.ndarray], np.ndarray]


MEASURE_NAMES = ("l1", "rel_ent", "int_rand", "skew", "trivial")


def measure_by_name(name: str, dim: Optional[int] = None, opt: Optional[OptimizerConfig] = None) -> Measure:
    """Look up a measure by its wire name.

    ``skew`` needs a dim and uses its default observable diag(0..d-1)
    (``c_skew`` takes any other); ``int_rand`` accepts an optimizer config
    for its mixed-state branch.
    """
    if name == "l1":
        return Measure("l1", c_l1, l1_pure)
    if name == "rel_ent":
        return Measure("rel_ent", c_rel_ent, rel_ent_pure)
    if name == "trivial":
        return Measure("trivial", c_trivial, trivial_pure)
    if name == "int_rand":
        return Measure("int_rand", lambda rho: c_int_rand(rho, opt), rel_ent_pure)
    if name == "skew":
        if dim is None:
            raise BadParamsError("skew needs a dimension")
        k = default_observable(dim)
        return Measure("skew", lambda rho: c_skew(rho, k), lambda p: c_skew_pure(p, k))
    raise BadParamsError(f"unknown measure {name!r}; choose from {MEASURE_NAMES}")
