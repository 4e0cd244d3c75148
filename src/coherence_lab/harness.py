"""Randomized verification of the coherence-measure criteria.

Each criterion runs seeded independent trials and aggregates them into a
CriterionReport.  Trial randomness derives from (seed, trial index), so a
report is a pure function of its TrialConfig: reruns, and runs at any
``jobs``, produce bit-identical results.

Trials run serially, in blocks of as many as fit STACK_BUDGET
(``_block_rows``); only ``int_rand``'s convex roofs may run in a process
pool (``check_criterion``).  ``_blocks`` seeds a block's streams
default_rng([seed, trial]) at once; each trial only draws its inputs as
arrays from its own stream, in the order it would draw them alone.  The block
builds the draws into stacks (states one per rank, Kraus sets one per block
zero-padded to n_kraus_range[1] operators), validates, maps and measures each
stack once, and returns one row per trial; the stacked kernels round every
row as they round one matrix.  ``is_cpo`` decides a Kraus stack in one call,
at its fixed Gram ratio, whatever ``tol``.  THEOREM3 draws a channel and a
relabeling per trial and measures the probe panel of each stack at once; a
trial whose channel is a CPO is inconclusive.  ``_rows`` streams the blocks
into the report, whose one witness is the violating row of least slack.

Criteria: the keys of ``CRITERIA``, each run by ``check_criterion``
-------------------------------------------------------------------
* ``C1``   -- value vanishes exactly on incoherent states and is
  bounded away from zero on visibly coherent ones.
* ``C2``   -- monotonicity under non-selective incoherent channels.
* ``C3``   -- monotonicity on average under subselection.
* ``C4``   -- convexity under mixing.
* ``C5``   -- only the uniform-modulus (maximally coherent) states
  attain the measure's maximum; located by a restart maximizer on the
  probability simplex.
* ``LEMMA1`` -- invariance under relabeling-with-phases unitaries.
* ``LEMMA2`` -- no incoherent channel produces a maximally coherent
  output unless it is a CPO acting on a maximally coherent input.
* ``THEOREM3`` -- no non-unitary incoherent channel preserves both
  the l1 and relative-entropy values on a probe panel (and sampled CPOs
  always do).
* ``skew_violation_witness`` -- deterministic counterexample showing the
  skew information grows under a relabeling for d >= 3.

Sign convention: every trial yields a signed slack, negative meaning a
violation of the property under test.
"""

from __future__ import annotations

import dataclasses
import os
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from . import channels as ch_mod
from . import mcs as mcs_mod
from . import measures as m_mod
from . import states as st_mod
from .channels import (
    IncoherentUnitary,
    KrausChannel,
    apply_channel,
    apply_selective,
    channel_from_dict,
    is_cpo,
    unitary_from_dict,
)
from .errors import BadDimError, BadParamsError, BadPayloadError
from .measures import Measure, default_observable, measure_by_name
from .mcs import mcs_deviation
from .numerics import checked_dim, dagger, is_integer
from .states import DensityMatrix, PureState, dephase, from_pure

# C1 thresholds: zero level on incoherent inputs, and the floor a
# measure must clear once the off-diagonal mass is macroscopic.
C1_ZERO_TOL, C1_VALUE_FLOOR, C1_MASS_FLOOR = 1e-9, 1e-6, 1e-3

# CPO sanity arm of THEOREM3: preservation must hold this tightly.
CPO_PRESERVE_TOL = 1e-9

# Probe panel size for THEOREM3.
PROBE_COUNT = 20

# Entries of a block's widest stacked temporary: every kernel takes as many
# rows per block as fit, worked out from its shape by ``_block_rows``.
STACK_BUDGET = 2**17

# SeedSequence's hash constants (NumPy NEP 19, after O'Neill's seed_seq_fe).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


@dataclasses.dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for the randomized checks; C5 reads ``n_trials`` as its
    restart count and uses neither ``tol`` nor ``n_kraus_range``.

    ``tol`` is the violation tolerance only, finite and positive: LEMMA2 and
    THEOREM3 decide whether a channel is a CPO with ``is_cpo``'s fixed rule
    (``channels.CPO_GRAM_RATIO``)."""

    dim: int
    n_trials: int
    seed: int = 0
    tol: float = 1e-8
    n_kraus_range: tuple = (1, 4)

    def __post_init__(self):
        object.__setattr__(self, "dim", checked_dim(self.dim))
        if not (is_integer(self.n_trials) and 1 <= self.n_trials <= 2**32):  # one 32-bit entropy word each
            raise BadParamsError(f"n_trials must be an integer in [1, 2**32], got {self.n_trials!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise BadParamsError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not ((isinstance(self.tol, (float, np.floating)) or is_integer(self.tol)) and 0 < self.tol < np.inf):
            raise BadParamsError(f"tol must be finite and positive, got {self.tol!r}")
        lo_hi = tuple(self.n_kraus_range) if np.ndim(self.n_kraus_range) == 1 else ()
        if not (len(lo_hi) == 2 and all(map(is_integer, lo_hi)) and 1 <= lo_hi[0] <= lo_hi[1]):
            raise BadParamsError(f"n_kraus_range must be integers 1 <= lo <= hi, got {self.n_kraus_range!r}")
        object.__setattr__(self, "n_kraus_range", tuple(map(int, lo_hi)))
        if self.n_kraus_range[1] * self.dim**2 > STACK_BUDGET:  # each row of a channel block holds hi operators
            raise BadParamsError(f"n_kraus_range hi must be <= {STACK_BUDGET // self.dim**2} at dim {self.dim}, "
                                 f"so that one trial's operators fit STACK_BUDGET, got {self.n_kraus_range[1]}")
        for knob in ("n_trials", "seed"):  # a numpy integer would not serialize
            object.__setattr__(self, knob, int(getattr(self, knob)))


def default_tol(measure_name: str) -> float:
    """1e-8 for exactly evaluated measures, 1e-6 where an optimizer mediates."""
    return 1e-6 if measure_name == "int_rand" else 1e-8


@dataclasses.dataclass(frozen=True, eq=False)
class ViolationWitness:
    """Reproducible (state, channel) pair with the values it produced."""

    state: DensityMatrix
    channel: Union[KrausChannel, IncoherentUnitary, None]
    value_before: float
    value_after: float
    aux: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}  # in field order
        out["state"] = self.state.to_dict()
        out["channel"] = None if self.channel is None else self.channel.to_dict()
        return out


def witness_from_dict(payload: dict) -> ViolationWitness:
    """Parse a witness's JSON form; BadPayloadError when it is malformed."""
    try:
        state = st_mod.state_from_dict(payload["state"])
        raw_channel = payload.get("channel")
        if raw_channel is None:
            channel = None
        elif "kraus" in raw_channel:
            channel = channel_from_dict(raw_channel)
        else:
            channel = unitary_from_dict(raw_channel)
        return ViolationWitness(
            state=from_pure(state) if isinstance(state, PureState) else state,
            channel=channel,
            value_before=float(payload["value_before"]),
            value_after=float(payload["value_after"]),
            aux=payload.get("aux"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadPayloadError(f"malformed witness payload: {exc}") from exc


@dataclasses.dataclass(frozen=True, eq=False)
class CriterionReport:
    """Aggregated outcome of one criterion run."""

    criterion: str
    measure: str
    dim: int
    trials: int
    violations: int
    worst_violation: float
    witness: Optional[ViolationWitness]
    seed: int
    max_value: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}  # in field order
        out["witness"] = None if self.witness is None else self.witness.to_dict()
        if self.max_value is None:
            del out["max_value"]
        return out


def report_from_dict(payload: dict) -> CriterionReport:
    """Parse a report's JSON form: BadDimError on a bad ``dim``, as for a state,
    and BadPayloadError on anything else malformed."""
    try:
        trials, violations, seed = payload["trials"], payload["violations"], payload["seed"]
        if not all(map(is_integer, (trials, violations, seed))):
            raise TypeError("trials, violations and seed must be integers")
        witness, max_value = payload.get("witness"), payload.get("max_value")
        return CriterionReport(
            criterion=payload["criterion"],
            measure=payload["measure"],
            dim=checked_dim(payload["dim"]),
            trials=int(trials),
            violations=int(violations),
            worst_violation=float(payload["worst_violation"]),
            witness=None if witness is None else witness_from_dict(witness),
            seed=int(seed),
            max_value=None if max_value is None else float(max_value),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadPayloadError(f"malformed report payload: {exc}") from exc


# ---------------------------------------------------------------------------
# trial plumbing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _seed_words_type() -> type:
    """The ISeedSequence that hands PCG64 the state words ``_seed_words``
    computed, defined on first use: subclassing it imports numpy.random."""

    @dataclasses.dataclass
    class SeedWords(np.random.bit_generator.ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _seed_words(seed: int, trials: range) -> np.ndarray:
    """SeedSequence([seed, t]).generate_state(4, np.uint64) for each trial t
    (< 2**32), as rows (N, 4): SeedSequence's pool-of-4 hash, run in uint32
    arithmetic over the trial axis, for a seed of any number of 32-bit words.
    The hashmixes that do not feed each other run as one stack (k, N)."""
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]  # low first
    entropy = np.zeros((max(4, len(words) + 1), len(trials)), dtype=np.uint32)
    entropy[: len(words)], entropy[len(words)] = np.c_[words], np.arange(trials.start, trials.stop)
    h = [_INIT_A]  # the hash constant, advanced by every hashmix

    def hashmix(values, rows, mult=_MULT_A):  # row i takes the constant's i-th next value
        h.extend([h[-1] * mult**i & _MASK32 for i in range(1, rows + 1)])
        c = np.array(h[-rows - 1 :], dtype=np.uint32)[:, None]
        values = (values ^ c[:-1]) * c[1:]
        return values ^ values >> 16

    pool = hashmix(entropy[:4], 4)
    # each pool word takes in each other one, then each entropy word past the fourth
    for src, dst in [(s, [i for i in range(4) if i != s]) for s in range(len(entropy))]:
        mixed = pool[dst] * _MIX_MULT_L - hashmix((pool if src < 4 else entropy)[src], len(dst)) * _MIX_MULT_R
        pool[dst] = mixed ^ mixed >> 16
    h.append(_INIT_B)
    state = hashmix(np.tile(pool, (2, 1)), 8, _MULT_B)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _trial_rngs(cfg: TrialConfig, trials: range) -> list:
    """The stream default_rng([cfg.seed, t]) of each trial t, seeded for the block at once."""
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(w))) for w in _seed_words(cfg.seed, trials)]


def _draw_state(rng: np.random.Generator, dim: int, measure: Optional[Measure]) -> np.ndarray:
    """One trial's input: the amplitudes (d,) of a pure state, or the G (d, rank) of G G†/tr."""
    # int_rand fuzzing sticks to pure inputs, where the measure is exact.
    if measure is not None and measure.name == "int_rand":
        return st_mod._draw_pure(rng, dim)
    return st_mod._draw_gram(rng, dim, int(rng.integers(1, dim + 1)))


def _groups(draws) -> list:
    """Row indices of the draws of each shape, shapes in order of first appearance."""
    rows = {}
    for i, draw in enumerate(draws):
        rows.setdefault(draw.shape, []).append(i)
    return [np.array(r) for r in rows.values()]


def _states(draws) -> np.ndarray:
    """The validated stack of the states of ``_draw_state`` draws, built per
    shape: zero-padding G to rank d would change how the products round."""
    d = draws[0].shape[-2:][0]  # of amplitudes (d,) or Gram parts (2, d, r)
    out = np.empty((len(draws), d, d), dtype=np.complex128)
    for rows in _groups(draws):
        g = np.stack([draws[i] for i in rows])
        out[rows] = st_mod._projectors(g) if g.ndim == 2 else st_mod._gram_states(g)
    return st_mod.density_matrices(out)


def _draw_channels(rngs, dim: int, lo: int, hi: int, relabel=False) -> tuple:
    """One incoherent channel per stream, of a Kraus count drawn in [lo, hi],
    or where relabel[i], a relabeling: the Kraus sets (N, hi, d, d), zero
    past each row's count and checked for completeness, and ``kraus(i)``,
    row i's KrausChannel without its zero operators."""
    relabel = np.broadcast_to(relabel, len(rngs))
    counts = [1 if unit else int(rng.integers(lo, hi + 1)) for rng, unit in zip(rngs, relabel)]
    ops = ch_mod._monomials(*ch_mod._draw_monomials(rngs, dim, counts, hi, relabel))
    ch_mod._check_complete(ops)
    return ops, lambda i: KrausChannel(tuple(ops[i, : counts[i]]))


def _witness(m, before, after, channel=lambda i: None, aux=lambda i: None):
    """``make_witness`` of a block whose trial i takes m[i] from before[i] to
    after[i], by ``channel(i)``, with ``aux(i)``: objects for one row only."""
    return lambda i: ViolationWitness(
        DensityMatrix(m[i], check_psd=False), channel(i), float(before[i]), float(after[i]), aux(i)
    )


def _c1_block(measure: Measure, cfg: TrialConfig, trials: range, rngs: list) -> tuple:
    m = _states([_draw_state(rng, cfg.dim, measure) for rng in rngs])
    value = measure.evaluate(m)
    zero_value = measure.evaluate(dephase(m))
    mass = st_mod.off_diagonal_mass(m)
    slack = C1_ZERO_TOL - zero_value
    slack = np.where(mass > C1_MASS_FLOOR, np.minimum(slack, value - C1_VALUE_FLOOR), slack)
    witness = _witness(m, value, zero_value, aux=lambda i: {"off_diagonal_mass": float(mass[i])})
    return slack, slack < 0, witness, None


def _c2_block(measure: Measure, cfg: TrialConfig, trials: range, rngs: list) -> tuple:
    m = _states([_draw_state(rng, cfg.dim, measure) for rng in rngs])
    ops, kraus = _draw_channels(rngs, cfg.dim, *cfg.n_kraus_range)
    before = measure.evaluate(m)
    after = measure.evaluate(ch_mod._kraus_sum(ops, m))
    slack = before - after
    return slack, slack < -cfg.tol, _witness(m, before, after, kraus), None


def _c3_block(measure: Measure, cfg: TrialConfig, trials: range, rngs: list) -> tuple:
    m = _states([_draw_state(rng, cfg.dim, measure) for rng in rngs])
    ops, kraus = _draw_channels(rngs, cfg.dim, *cfg.n_kraus_range)
    kept, weights, branches = ch_mod._kraus_branches(ops, m)
    values = measure.evaluate(branches)
    before = measure.evaluate(m)
    after = np.zeros(len(trials))
    np.add.at(after, np.nonzero(kept)[0], weights * values)  # each trial's branches in order, as it adds them alone
    slack = before - after
    return slack, slack < -cfg.tol, _witness(m, before, after, kraus), None


def _c4_block(measure: Measure, cfg: TrialConfig, trials: range, rngs: list) -> tuple:
    a = _states([_draw_state(rng, cfg.dim, measure) for rng in rngs])
    b = _states([_draw_state(rng, cfg.dim, measure) for rng in rngs])
    lam = np.array([float(rng.uniform()) for rng in rngs])
    mixed = lam[:, None, None] * a + (1.0 - lam)[:, None, None] * b
    before = lam * measure.evaluate(a) + (1.0 - lam) * measure.evaluate(b)
    after = measure.evaluate(mixed)
    slack = before - after

    def aux(i):
        a_i, b_i = (DensityMatrix(x[i], check_psd=False).to_dict() for x in (a, b))
        return {"state_a": a_i, "state_b": b_i, "lam": float(lam[i])}

    return slack, slack < -cfg.tol, _witness(mixed, before, after, aux=aux), None


def _lemma1_block(measure: Measure, cfg: TrialConfig, trials: range, rngs: list) -> tuple:
    m = _states([_draw_state(rng, cfg.dim, measure) for rng in rngs])
    perms, moduli, phases = (a[:, 0] for a in ch_mod._draw_monomials(rngs, cfg.dim, [1] * len(rngs), relabel=True))
    u = ch_mod._monomials(perms, moduli, phases)
    before = measure.evaluate(m)
    after = measure.evaluate(u @ m @ dagger(u))
    slack = cfg.tol - np.abs(after - before)
    return slack, slack < 0, _witness(m, before, after, lambda i: IncoherentUnitary(perms[i], phases[i])), None


def _lemma2_block(measure: None, cfg: TrialConfig, trials: range, rngs: list) -> tuple:
    # Half the inputs are maximally coherent, half generic.
    m = _states([
        mcs_mod._draw_mcs(rng, cfg.dim) if t % 2 == 0 else _draw_state(rng, cfg.dim, None)
        for t, rng in zip(trials, rngs)
    ])
    # A quarter of the channels are CPOs so the allowed branch gets exercised.
    ops, kraus = _draw_channels(rngs, cfg.dim, *cfg.n_kraus_range, [rng.uniform() < 0.25 for rng in rngs])
    before, after = mcs_deviation(m), mcs_deviation(ch_mod._kraus_sum(ops, m))
    # a CPO acting on a maximally coherent input is exempt
    counted = ~is_cpo(ops) | (before > cfg.tol)
    slack = after - cfg.tol
    return slack, counted & (slack < 0), _witness(m, before, after, kraus), counted


@lru_cache(maxsize=16)
def _probe_panel(dim: int, seed: int, count: int) -> np.ndarray:
    """Fixed probe amplitudes, one per row (count, dim): equal-weight basis
    pairs first, Haar samples after.  Read-only, since it is cached."""
    i, j = np.triu_indices(dim, 1)  # the basis pairs in row-major order
    pairs = np.zeros((i.size, dim), dtype=np.complex128)
    pairs[np.arange(i.size), i] = pairs[np.arange(i.size), j] = 1.0 / np.sqrt(2.0)
    haar = [st_mod._draw_pure(np.random.default_rng([seed, 104729, k]), dim) for k in range(count - i.size)]
    panel = np.concatenate([pairs[:count], np.reshape(haar, (-1, dim))])
    panel.flags.writeable = False
    return panel


def _panel_deviation(probes: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Largest change of either reference measure across the probe panel
    (P, d), for each Kraus set of a stack (N, n, d, d): all the outputs are
    measured as one stack."""
    out = ch_mod._kraus_sum(ops[:, None], st_mod._projectors(probes))
    p = np.abs(probes) ** 2
    l1_dev = np.abs(m_mod.c_l1(out) - m_mod.l1_pure(p))
    rel_ent_dev = np.abs(m_mod.c_rel_ent(out) - m_mod.rel_ent_pure(p))
    return np.maximum(l1_dev, rel_ent_dev).max(axis=1)


def _theorem3_block(measure: None, cfg: TrialConfig, trials: range, rngs: list) -> tuple:
    probes = _probe_panel(cfg.dim, cfg.seed, PROBE_COUNT)
    lo, hi = cfg.n_kraus_range
    ops, kraus = _draw_channels(rngs, cfg.dim, max(2, lo), max(2, hi))
    perms, moduli, phases = ch_mod._draw_monomials(rngs, cfg.dim, [1] * len(rngs), relabel=True)
    cpo_ops = ch_mod._monomials(perms, moduli, phases)
    dev, cpo_dev = _panel_deviation(probes, ops), _panel_deviation(probes, cpo_ops)
    counted = ~is_cpo(ops)  # a CPO draw tests nothing: the trial is inconclusive
    masquerade = dev <= cfg.tol
    slack = np.minimum(dev - cfg.tol, CPO_PRESERVE_TOL - cpo_dev)

    def witness(i):
        if masquerade[i]:
            channel = offender = kraus(i)
        else:
            channel, offender = KrausChannel(tuple(cpo_ops[i])), IncoherentUnitary(perms[i, 0], phases[i, 0])
        probe = from_pure(PureState(probes[0]))
        out = apply_channel(channel, probe)
        aux = {"panel_deviation": float(dev[i]), "cpo_deviation": float(cpo_dev[i]), "measure": "l1"}
        before = float(m_mod.l1_pure(np.abs(probes[0]) ** 2))
        return ViolationWitness(probe, offender, before, float(m_mod.c_l1(out)), aux)

    return slack, counted & (masquerade | (cpo_dev > CPO_PRESERVE_TOL)), witness, counted


def _block_rows(criterion: str, cfg: TrialConfig) -> int:
    """Rows per block of a criterion's kernel: as many as keep its widest stacked temporary within
    STACK_BUDGET entries, and at least one.  Per row that is d(d-1) points of d in a C5 ascent pass;
    PROBE_COUNT d x d outputs of a THEOREM3 channel (its channel and its relabeling are separate
    stacks); n_kraus_range[1] d x d operators for C2, C3 and LEMMA2; one d x d state
    otherwise; but at least a trial's stream and draws, about 1 KiB of objects: 64 entries."""
    d, n = cfg.dim, cfg.n_kraus_range[1]
    per_row = {"C5": d - 1, "THEOREM3": max(PROBE_COUNT, n), "C2": n, "C3": n, "LEMMA2": n}
    entries = per_row.get(criterion, 1) * d * d
    return max(1, STACK_BUDGET // (entries if criterion == "C5" else max(entries, 64)))


def _blocks(criterion: str, measure: Optional[Measure], cfg: TrialConfig):
    """The rows of each block of a criterion's trials, one block after another in trial order."""
    fn, rows = CRITERIA[criterion].block, _block_rows(criterion, cfg)
    for start in range(0, cfg.n_trials, rows):
        trials = range(start, min(start + rows, cfg.n_trials))
        yield fn(measure, cfg, trials, _trial_rngs(cfg, trials))


def _rows(blocks) -> tuple:
    """The rows ``(slack, counted, violation)`` of a check's blocks, each concatenated, and its witness.

    The witness is that of the violating row of least slack, the first one on
    ties: a block's ``make_witness`` runs once, for its own such row, and only
    where that row's slack is strictly below every earlier block's."""
    rows, witness, least = [], None, None
    for slack, violation, make_witness, counted in blocks:
        rows.append((slack, np.ones(len(slack), dtype=bool) if counted is None else counted, violation))
        violating = np.flatnonzero(violation)
        if violating.size:
            i = violating[np.argmin(slack[violating])]
            if least is None or slack[i] < least:
                least, witness = slack[i], make_witness(i)
    return (*map(np.concatenate, zip(*rows)), witness)


# ---------------------------------------------------------------------------
# C5: maximizer search
# ---------------------------------------------------------------------------

C5_NEAR_MAX_WINDOW, C5_MCS_TOL = 1e-6, 1e-3
# Entries one ascent iteration scores past a single pass (restarts x passes x moves x d):
# passes past a restart's next move are scored for nothing, so this bounds wasted work.
C5_CHAIN_BUDGET = 2048


def _ascend(measure: Measure, w: np.ndarray, floor=1e-9, max_rounds=50):
    """Coordinate ascent of ``measure.evaluate_pure`` from a stack of simplex points (R, d).

    A move (i, j) shifts ``min(step, w[i])`` of probability from i to j;
    gradient-free because l1 is not smooth where probabilities vanish.  Each
    row follows the trajectory it would follow alone: passes try the d(d-1)
    moves in row-major order and accept each gain above 1e-15, the step halves
    after a pass without a move, and a round ends below ``floor`` with a
    renormalization, the last one after ``max_rounds`` or a round without a
    move.  One array evaluation scores, for every row, the chain of passes it
    would make before its next accepted move: the rest of its current pass,
    a fresh pass at the same step if that one moved, then one pass per
    halving down to ``floor``.  The point does not move along the chain and
    every step is 0.25 * 2**-j, exact, so the chain's first gain is the move
    the passes would reach one at a time.  The chain holds as many passes as
    ``C5_CHAIN_BUDGET`` allows for the stack's shape, from 1 (the current
    pass alone) to 30; that budget bounds wasted scoring, not memory.
    """
    w = np.array(w, dtype=np.float64)
    n, d = w.shape
    src, dst = np.nonzero(~np.eye(d, dtype=bool))
    moves = np.arange(src.size)
    val = measure.evaluate_pure(w)
    step = np.full(n, 0.25)
    rounds = np.zeros(n, dtype=int)
    first = np.zeros(n, dtype=int)  # first move of the current pass still to score
    moved = np.zeros(n, dtype=bool)  # a move was accepted in the current pass
    improved = np.zeros(n, dtype=bool)  # ... in the current round
    live = np.ones(n, dtype=bool)
    depth = min(max(C5_CHAIN_BUDGET // (n * src.size * d), 1), 30)
    chain = np.arange(depth * src.size)  # move m of the chain's pass p is p * d(d-1) + m
    while True:
        ended = np.flatnonzero(live & (step < floor))
        if ended.size:
            w[ended] /= w[ended].sum(axis=1, keepdims=True)
            val[ended] = measure.evaluate_pure(w[ended])
            rounds[ended] += 1
            again = improved[ended] & (rounds[ended] < max_rounds)
            live[ended[~again]] = False
            step[ended[again]] = 0.25
            improved[ended] = False
        k = np.flatnonzero(live)
        if not k.size:
            return w, val
        steps = np.ldexp(step[k, None], -np.maximum(np.arange(depth + 1) - moved[k, None], 0))
        wk = w[k]
        # t is 0 where no move is scored: at a vanishing source, or past the round's end
        t = np.minimum(steps[:, :depth, None], wk[:, None, src]) * (steps[:, :depth, None] >= floor)
        trial = np.repeat(wk[:, None], chain.size, axis=1).reshape(k.size, depth, -1, d)
        trial[..., moves, src], trial[..., moves, dst] = wk[:, None, src] - t, wk[:, None, dst] + t
        v = measure.evaluate_pure(trial)
        ok = ((t > 0.0) & (v > val[k, None, None] + 1e-15)).reshape(k.size, -1) & (chain >= first[k, None])
        f = ok.argmax(axis=1)  # the first accepted move of the chain, where ok has one
        hit = ok[np.arange(k.size), f]
        w[k[hit]] = trial.reshape(k.size, -1, d)[hit, f[hit]]
        val[k[hit]] = v.reshape(k.size, -1)[hit, f[hit]]
        improved[k] |= hit  # the pass that moved ends in this round
        step[k] = steps[np.arange(k.size), np.where(hit, f // src.size, depth)]
        first[k] = np.where(hit, f % src.size + 1, 0)
        moved[k] = hit


def _c5_block(measure: Measure, cfg: TrialConfig) -> tuple[tuple, float]:
    """Maximize the measure over pure states from ``cfg.n_trials`` restarts
    and test that every near-maximal state found is maximally coherent.

    The search runs on the probability simplex through ``evaluate_pure``,
    one ascent per restart from a Dirichlet-random point, and each point
    found stands for the real-amplitude state ``sqrt(p)``.  The restarts
    ascend together, each on its own trajectory, in blocks whose ascent
    pass, d(d-1) points of d per restart, fits STACK_BUDGET.
    Near-maximal means within 1e-6 of the best value; membership is tested
    at tolerance 1e-3.  Returns the rows of the near-maximal states, one
    block as ``Criterion.block`` returns it (every row counts), and the best
    value.  It seeds its own stream, default_rng([seed, 424243]), for the
    starts of all the restarts.  A FAIL report (violations > 0) carries a witness state
    attaining the maximum while not being maximally coherent, which is what
    the 0/1 ``trivial`` measure produces.  For ``int_rand`` the verdict is
    advisory: its mixed-state branch is an optimizer upper bound, and the
    search runs over pure states where it coincides with ``rel_ent``.
    """
    rng = np.random.default_rng([cfg.seed, 424243])
    starts = rng.dirichlet(np.ones(cfg.dim), size=cfg.n_trials)
    rows = _block_rows("C5", cfg)
    ascents = [_ascend(measure, starts[b : b + rows]) for b in range(0, len(starts), rows)]
    vals = np.concatenate([val for _, val in ascents])
    best_val = float(vals.max())
    near = np.flatnonzero(vals >= best_val - C5_NEAR_MAX_WINDOW)
    amp = np.sqrt(np.concatenate([w for w, _ in ascents])[near]).astype(np.complex128)
    rhos = st_mod._projectors(amp)
    deviation = mcs_deviation(rhos)
    slack = C5_MCS_TOL - deviation
    witness = _witness(rhos, vals[near], deviation, aux=lambda i: {"max_value": best_val})
    return (slack, slack < 0, witness, None), best_val


# ---------------------------------------------------------------------------
# deterministic skew-information counterexample
# ---------------------------------------------------------------------------


def skew_violation_witness(dim: int) -> ViolationWitness:
    """Deterministic growth of the skew information under a cyclic relabeling.

    Build the pure state with weights (1/2, 1/3, 1/6, uniform rest), take
    K = diag(0..d-1) and the cyclic relabeling j -> j+1 mod d, then record
    whichever direction of the relabeling increases the value.  For d = 3
    the recorded values are 17/36 before and 5/9 after.  d = 2 has no such
    counterexample (the single-pair closed form is permutation symmetric),
    so dim must be an integer in 3..16 (BadDimError otherwise).
    """
    if checked_dim(dim) < 3:
        raise BadDimError("no skew violation exists below dimension 3")
    k = default_observable(dim)
    weights = np.full(dim, 1.0 / dim)  # (1/2, 1/3, 1/6) scaled to mass 3/d, then uniform 1/d
    weights[:3] = np.array([1.0 / 2.0, 1.0 / 3.0, 1.0 / 6.0]) * (3.0 / dim)
    base = PureState(np.sqrt(weights))
    shift = IncoherentUnitary(perm=np.roll(np.arange(dim), -1), phases=np.zeros(dim))  # j -> j+1 mod d
    shifted = PureState(np.roll(base.amplitudes, 1))

    v_base = float(m_mod.c_skew_pure(base.probabilities, k))
    v_shifted = float(m_mod.c_skew_pure(shifted.probabilities, k))
    if v_shifted > v_base:
        state, channel, before, after = base, shift, v_base, v_shifted
    else:
        state, channel, before, after = shifted, shift.inverse(), v_shifted, v_base
    return ViolationWitness(from_pure(state), channel, before, after, {"observable": k.values.tolist()})


# ---------------------------------------------------------------------------
# witness re-evaluation
# ---------------------------------------------------------------------------


def _values_under(w: ViolationWitness, fn):
    """``fn`` of the witness state and of its image under the witness channel."""
    unitary = isinstance(w.channel, IncoherentUnitary)
    return fn(w.state), fn(w.channel.conjugate(w.state) if unitary else apply_channel(w.channel, w.state))


def _c3_values(w: ViolationWitness, measure: Measure):
    branches = apply_selective(w.channel, w.state)
    return measure.evaluate(w.state), float(sum(p * measure.evaluate(b) for p, b in branches))


def _c4_values(w: ViolationWitness, measure: Measure):
    rho_a = st_mod.state_from_dict(w.aux["state_a"])
    rho_b = st_mod.state_from_dict(w.aux["state_b"])
    lam = float(w.aux["lam"])
    before = lam * measure.evaluate(rho_a) + (1.0 - lam) * measure.evaluate(rho_b)
    return before, measure.evaluate(w.state)


# ---------------------------------------------------------------------------
# the criterion table
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Criterion:
    """What the harness knows about one criterion.

    ``block(measure, cfg, trials, rngs)`` evaluates a block of trials, given
    the Measure under test (None for LEMMA2 and THEOREM3) and the trials'
    streams, which ``_blocks`` seeds; C5 has none, since its restarts ascend
    together.  A block returns its rows ``(slack, violation, make_witness,
    counted)``: each trial's signed slack and violation flag, ``make_witness(i)``
    building row i's ViolationWitness (``_rows`` calls it only for a row that
    may be the report's witness), and which rows count towards the worst
    slack, None when all do (exempt and inconclusive trials do not).
    ``witness_values(witness, measure)`` recomputes a witness's (value_before,
    value_after).  ``measure`` is the report's fixed measure label, None where
    the caller names the measure (the re-evaluator then gets measure None).
    ``trials`` is the default trial count.
    """

    block: Optional[Callable]
    witness_values: Callable
    measure: Optional[str] = None
    trials: int = 1000


CRITERIA = {
    "C1": Criterion(_c1_block, lambda w, m: (m.evaluate(w.state), m.evaluate(dephase(w.state)))),
    "C2": Criterion(_c2_block, lambda w, m: _values_under(w, m.evaluate)),
    "C3": Criterion(_c3_block, _c3_values),
    "C4": Criterion(_c4_block, _c4_values),
    "C5": Criterion(None, lambda w, m: (m.evaluate(w.state), mcs_deviation(w.state)), trials=64),
    "LEMMA1": Criterion(_lemma1_block, lambda w, m: _values_under(w, m.evaluate)),
    "LEMMA2": Criterion(_lemma2_block, lambda w, _: _values_under(w, mcs_deviation), "none"),
    "THEOREM3": Criterion(_theorem3_block, lambda w, _: _values_under(w, m_mod.c_l1), "l1+rel_ent"),
}


def check_criterion(
    criterion: str, measure: Optional[str], cfg: TrialConfig, jobs: int = 1
) -> CriterionReport:
    """Run one criterion of ``CRITERIA`` with ``cfg.n_trials`` trials (C5: restarts).

    ``measure`` names the measure under test; LEMMA2 and THEOREM3 test
    channels and report their fixed label whatever it is.  ``jobs`` sizes the
    process pool, min(jobs, CPUs) workers, that runs ``int_rand``'s mixed rows;
    every other run, and any run where that minimum is 1, is serial.  Raises
    BadParamsError on an unknown criterion, a missing measure or jobs < 1.
    """
    entry = CRITERIA.get(criterion)
    if entry is None:
        raise BadParamsError(f"unknown criterion {criterion!r}; choose from {tuple(CRITERIA)}")
    label = entry.measure or measure
    if label is None:
        raise BadParamsError(f"criterion {criterion} needs a measure")
    if not (is_integer(jobs) and jobs >= 1):
        raise BadParamsError(f"jobs must be an integer >= 1, got {jobs!r}")
    measure = None if entry.measure else measure_by_name(label, dim=cfg.dim)
    workers, max_value = min(jobs, os.cpu_count() or 1), None
    if entry.block is None:
        block, max_value = _c5_block(measure, cfg)
        slack, counted, violation, witness = _rows([block])
    elif label == "int_rand" and workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so that runs without a pool never load it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # measure_by_name's int_rand (no optimizer config), its mixed rows one task each
            pooled = dataclasses.replace(measure, evaluate=lambda rho: m_mod._int_rand(rho, None, pool.map))
            slack, counted, violation, witness = _rows(_blocks(criterion, pooled, cfg))
    else:
        slack, counted, violation, witness = _rows(_blocks(criterion, measure, cfg))
    return CriterionReport(
        criterion=criterion,
        measure=label,
        dim=cfg.dim,
        trials=cfg.n_trials,
        violations=int(np.count_nonzero(violation)),
        worst_violation=float(slack[counted].min()) if counted.any() else 0.0,
        witness=witness,
        seed=cfg.seed,
        max_value=max_value,
    )


def reevaluate_witness(report: CriterionReport) -> tuple[float, float]:
    """Recompute (value_before, value_after) of a report's witness from scratch."""
    if report.witness is None:
        raise BadParamsError("report has no witness")
    # the skew witness is a state and a relabeling, as a C2 witness is
    entry = CRITERIA.get("C2" if report.criterion == "SKEW_WITNESS" else report.criterion)
    if entry is None:
        raise BadParamsError(f"unknown criterion {report.criterion!r}")
    measure = None if entry.measure else measure_by_name(report.measure, dim=report.dim)
    return entry.witness_values(report.witness, measure)


def skew_witness_report(dim: int, seed: int = 0) -> CriterionReport:
    """Wrap the deterministic skew witness in a report (criterion SKEW_WITNESS)."""
    witness = skew_violation_witness(dim)
    return CriterionReport(
        criterion="SKEW_WITNESS",
        measure="skew",
        dim=dim,
        trials=1,
        violations=1,
        worst_violation=witness.value_before - witness.value_after,
        witness=witness,
        seed=seed,
    )
