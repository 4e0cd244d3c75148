"""Coherence measures behind a uniform name/evaluate interface.

Implemented measures:

* ``l1`` -- summed moduli of the off-diagonal entries.
* ``rel_ent`` -- entropy of the dephased state minus entropy of the state,
  in bits.
* ``int_rand`` -- intrinsic randomness: equals ``rel_ent`` on pure states,
  and the convex roof (minimum ensemble average of the pure-state value)
  on mixed states, estimated by a restart + local-refinement optimizer.
  The optimizer yields an upper bound on the true roof.
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

# Step floors of the convex-roof refinement: restarts stop halving below the
# coarse one, and the winner is polished down to the fine one.
_COARSE_STEP, _FINE_STEP = 1e-3, 1e-8


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
    """Knobs for the convex-roof estimator: restart count, passes per refinement
    (a pass sweeps every round of row pairs that share no row) and restart seed.
    The step floors are fixed (1e-3 for the restarts, 1e-8 for the winner's polish)."""

    restarts: int = 32
    max_iterations: int = 500
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
    diff = k.values[:, None] - k.values[None, :]
    # elementwise sums, not matmul: each row rounds the same in any stack
    return 0.5 * ((p[..., :, None] * diff**2).sum(axis=-2) * p).sum(axis=-1)


# ---------------------------------------------------------------------------
# intrinsic randomness: convex roof of the pure-state relative entropy
# ---------------------------------------------------------------------------


# The four trial rotations of a row pair, in the order they are tried:
# phi = 0 with t = +step, -step, then phi = pi/2 with t = +step, -step.
_TRIAL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
_TRIAL_PHASES = np.exp(1j * np.array([0.0, 0.0, 0.5 * np.pi, 0.5 * np.pi]))


def _member_values(members: np.ndarray) -> np.ndarray:
    """Probability-weighted pure-state values of unnormalized members (last axis)."""
    a = members.real**2 + members.imag**2
    p = np.add.reduce(a, axis=-1)
    # 0 log 0 = 0: entries at or below _LOG_FLOOR take log2(1) = 0
    xlogx = a * np.log2(np.where(a > _LOG_FLOOR, a, 1.0))
    return p * np.log2(np.where(p > _LOG_FLOOR, p, 1.0)) - np.add.reduce(xlogx, axis=-1)


def _round_robin(m: int) -> np.ndarray:
    """Each row pair (i, j), i < j, of m rows once, in m - 1 + m % 2 rounds of m // 2
    pairs sharing no row (the circle method: Brent & Luk, SIAM J. Sci. Stat. Comput. 6,
    69 (1985)): for n = m + m % 2, round k pairs k with n - 1 (no row for odd m) and k ± a mod n - 1."""
    n = m + m % 2
    k, a = np.arange(n - 1)[:, None], np.arange(n // 2)
    i, j = (k + a) % (n - 1), np.where(a > 0, (k - a) % (n - 1), n - 1)
    return np.sort(np.stack((i, j), axis=-1), axis=-1)[:, n // 2 - m // 2 :]


def _refine_mixer(ws: np.ndarray, b: np.ndarray, cfg: OptimizerConfig, floor: float):
    """Coordinate descent over row-pair rotations of a stack of isometries (R, m, r).

    Each isometry follows the trajectory it would follow alone: its own step,
    halved after three passes or a pass without gain, and its own exit below
    ``floor``, after cfg.max_iterations passes or at _RANK_TOL.  A pass sweeps
    the rounds of ``_round_robin(m)``, whose pairs share no row and so move
    together as they would in turn.  A rotation touches two rows, hence two
    ensemble members, so acceptance tests are incremental: per round, the four
    trial rotations of each (isometry, pair) entry still to score are scored
    in one array evaluation, and after an accepted one the phi = pi/2 trials
    still ahead are rescored.  Returns the isometries and their values."""
    (n, m, _), d = ws.shape, b.shape[0]
    # row i of x[k] is member i of isometry k (d amplitudes) followed by row i
    # of the isometry itself: a rotation of the pair mixes both alike
    x = np.concatenate((ws @ b.T, ws), axis=2)
    values = _member_values(x[:, :, :d])
    rounds = _round_robin(m)
    step = np.full(n, 0.5)
    passes, at_step = np.zeros((2, n), dtype=int)  # at_step: passes made at the current step
    active = np.full(n, 0.5 >= floor)
    while active.any():
        t = step[:, None] * _TRIAL_SIGNS
        c = (1.0 - t * t) / (1.0 + t * t)
        s = 2.0 * t * _TRIAL_PHASES / (1.0 + t * t)
        # (2, n, 4, 2, 1): the factors of x_i, then of x_j, in the Cayley rotation [[c, -s], [conj(s), c]]
        rot = np.stack((np.stack((c, s.conj()), -1), np.stack((-s, c), -1)))[..., None]
        improving = np.zeros(n, dtype=bool)
        for pairs in rounds:
            # the (isometry, pair) entries to score: active, members not both incoherent
            k, p = np.nonzero(active[:, None] & (values[:, pairs].sum(axis=2) > 1e-14))
            first = 0  # the first trial still to score
            while k.size:
                at = k[:, None], pairs[p]  # (e, 2): each entry's isometry and its two rows
                xp = x[at][:, :, None, None]  # (e, 2, 1, 1, d + r)
                rot_i, rot_j = rot[:, k]
                trial = rot_i * xp[:, 0] + rot_j * xp[:, 1]  # (e, 4, 2, d + r)
                trial_values = _member_values(trial[..., :d])
                ok = values[at].sum(axis=1)[:, None] - trial_values[..., 0] - trial_values[..., 1] > 1e-14
                ok[:, :first] = False
                f = ok.argmax(axis=1)  # the first accepted trial, where ok has one
                hit = ok.any(axis=1)
                moved = at[0][hit], at[1][hit]
                x[moved], values[moved] = trial[hit, f[hit]], trial_values[hit, f[hit]]
                improving[k[hit]] = True
                # R(-t) = R(t)^-1, so the accepted phase's other sign would only undo it
                again = hit & (f < 2)
                k, p, first = k[again], p[again], 2
        passes += active
        at_step += active
        done = values.sum(axis=1) <= _RANK_TOL
        halve = active & ~done & (~improving | (passes >= cfg.max_iterations) | (at_step == 3))
        step = np.where(halve, 0.5 * step, step)
        at_step[halve] = 0
        active &= ~done & (~halve | ((step >= floor) & (passes < cfg.max_iterations)))
    return x[:, :, d:], values.sum(axis=1)


def convex_roof_ensemble(rho: DensityMatrix, opt: Optional[OptimizerConfig] = None) -> tuple[float, Ensemble]:
    """Best ensemble found for the intrinsic-randomness minimization.

    Ensembles are the eigendecomposition mixed through an m x r isometry,
    m = r^2 for rank r, which suffices for the roof (Uhlmann, Entropy 12,
    1799 (2010)); the eigenensemble is always among the candidates, so the
    result never exceeds the eigendecomposition average.  The value is an
    upper bound on the exact roof.  Random restarts are refined as one stack;
    each refinement pass sweeps rounds of row pairs that share no row.
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

    (best_w,), (best_val,) = _refine_mixer(np.eye(r, dtype=np.complex128)[None], b, opt, _COARSE_STEP)

    if best_val > _RANK_TOL:
        # per restart: real part, then imaginary part, of an m x r Gaussian, m = r^2
        g = np.random.default_rng(opt.seed).standard_normal((opt.restarts, 2, r * r, r))
        ws, values = _refine_mixer(np.linalg.qr(g[:, 0] + 1j * g[:, 1])[0], b, opt, _COARSE_STEP)
        for w, val in zip(ws, values):  # the first restart at or below _RANK_TOL ends the search
            if best_val > _RANK_TOL and val < best_val:
                best_val, best_w = val, w

    if best_val > _RANK_TOL:  # polish the winner down to the fine step floor
        (best_w,), (best_val,) = _refine_mixer(best_w[None], b, opt, _FINE_STEP)

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
    optimizer runs on the mixed ones one at a time.
    """
    m = density_matrices(rho)
    flat = m.reshape(-1, *m.shape[-2:])
    pure = states._purity(flat) >= 1.0 - 1e-10
    values = np.empty(len(flat))
    if pure.any():
        values[pure] = c_rel_ent(flat[pure])
    for i in np.flatnonzero(~pure):
        values[i], _ = _convex_roof(flat[i], opt)
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
