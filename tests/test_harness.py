import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coherence_lab
from coherence_lab import channels as ch_mod
from coherence_lab import harness
from coherence_lab import mcs as mcs_mod
from coherence_lab import states as st_mod
from coherence_lab.channels import (
    IncoherentUnitary,
    KrausChannel,
    apply_channel,
    apply_selective,
    is_cpo,
    random_incoherent_channel,
    random_incoherent_unitary,
)
from coherence_lab.errors import (
    BadDimError,
    BadParamsError,
    BadPayloadError,
    IncompleteChannelError,
    NonHermitianError,
    NotNormalizedError,
)
from coherence_lab.harness import (
    CriterionReport,
    TrialConfig,
    ViolationWitness,
    check_criterion,
    _ascend,
    _panel_deviation,
    _probe_panel,
    reevaluate_witness,
    report_from_dict,
    skew_violation_witness,
    skew_witness_report,
)
from coherence_lab.mcs import is_mcs, mcs_deviation, mcs_sample
from coherence_lab.measures import MEASURE_NAMES, c_l1, c_rel_ent, l1_pure, measure_by_name, rel_ent_pure
from coherence_lab.numerics import dagger
from coherence_lab.states import DensityMatrix, PureState, from_pure, random_density, random_pure


def small_cfg(dim=3, n=50, seed=0, **kw):
    return TrialConfig(dim=dim, n_trials=n, seed=seed, **kw)


def _row_entries(criterion, cfg):
    """The widest stacked temporary of one row of a criterion's kernel, in array
    entries, as the stack budget's rule states it."""
    d, n = cfg.dim, cfg.n_kraus_range[1]
    if criterion == "C5":
        return d * (d - 1) * d  # the points of one ascent pass
    operators = {"THEOREM3": max(harness.PROBE_COUNT, n), "C2": n, "C3": n, "LEMMA2": n}.get(criterion, 1)
    return max(operators * d * d, 64)  # a trial's stream and draws take about 64 entries


def test_trial_config_validation():
    with pytest.raises(BadParamsError):
        TrialConfig(dim=3, n_trials=0)
    for tol in (0.0, -1e-8, float("inf"), float("nan")):
        with pytest.raises(BadParamsError, match="tol"):
            TrialConfig(dim=3, n_trials=10, tol=tol)
    with pytest.raises(BadDimError):
        TrialConfig(dim=1, n_trials=10)
    # a float or a bool is no dim, trial count, tolerance or Kraus count, and lo needs a hi
    for kw in ({"dim": 3.0}, {"dim": True}, {"n_trials": 10.5}, {"n_trials": True}, {"tol": True},
               {"n_kraus_range": (1.5, 3)}, {"n_kraus_range": (1,)}, {"n_kraus_range": (True, 3)},
               {"n_kraus_range": 4}):
        with pytest.raises((BadDimError, BadParamsError)):
            TrialConfig(**{"dim": 3, "n_trials": 10, **kw})
    # every row of a channel block holds hi operators, so one trial's must fit the stack budget
    most = harness.STACK_BUDGET // 9
    assert TrialConfig(dim=3, n_trials=10, n_kraus_range=(1, most)).n_kraus_range == (1, most)
    with pytest.raises(BadParamsError, match="n_kraus_range"):
        TrialConfig(dim=3, n_trials=10, n_kraus_range=(1, most + 1))
    stored = TrialConfig(dim=np.int64(3), n_trials=np.int64(10), n_kraus_range=np.array([2, 4]))
    assert (stored.dim, stored.n_trials, stored.n_kraus_range) == (3, 10, (2, 4))
    assert {type(x) for x in (stored.dim, stored.n_trials, *stored.n_kraus_range)} == {int}


def test_trial_config_caps_dim_at_16():
    assert TrialConfig(dim=16, n_trials=1).dim == 16
    with pytest.raises(BadDimError, match="<= 16"):
        TrialConfig(dim=17, n_trials=1)


def test_trial_config_caps_trials_at_2_32_and_rejects_negative_seeds():
    assert TrialConfig(dim=2, n_trials=2**32).n_trials == 2**32
    with pytest.raises(BadParamsError, match="n_trials"):
        TrialConfig(dim=2, n_trials=2**32 + 1)
    stored = TrialConfig(dim=2, n_trials=1, seed=np.int64(7)).seed
    assert stored == 7 and type(stored) is int  # so that reports serialize
    for seed in (-1, -(2**40), 1.5, "3"):
        with pytest.raises(BadParamsError, match="seed"):
            TrialConfig(dim=2, n_trials=1, seed=seed)


# The largest seed the benchmark passes, 4294967295 * 1000 + 999, and seeds
# of one to five 32-bit words (five words run SeedSequence's tail mixing).
STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 4294967295 * 1000 + 999, 2**64 + 3, 2**128 + 11)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_streams_match_default_rng(seed):
    """The block's seeding is numpy's: each trial's PCG64 seed words are
    SeedSequence([seed, t])'s, and its stream is default_rng([seed, t])'s."""
    cfg = TrialConfig(dim=2, n_trials=2**32, seed=seed)
    for trials in (range(300), range(2**32 - 1, 2**32)):
        words = harness._seed_words(seed, trials)
        rngs = harness._trial_rngs(cfg, trials)
        assert words.shape == (len(trials), 4) and len(rngs) == len(trials)
        for t, w, rng in zip(trials, words, rngs):
            assert _same_bits(w, np.random.SeedSequence([seed, t]).generate_state(4, np.uint64))
            assert _same_bits(rng.standard_normal(16), np.random.default_rng([seed, t]).standard_normal(16))


def _per_matrix_draws(rng, dim, rank, n):
    """G as two (d, r) calls, then a channel's column maps as n
    ``permutation`` calls, its moduli from ``dirichlet`` and its phases from
    ``uniform``: the draws that the single-call draws replaced, in their order."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    perms = np.array([rng.permutation(dim) for _ in range(n)])
    moduli = np.sqrt(rng.dirichlet(np.ones(n), size=dim).T)
    return g, (perms, moduli, rng.uniform(0.0, 2.0 * np.pi, size=(n, dim)))


@pytest.mark.parametrize("dim", range(2, 9))
def test_single_call_draws_match_the_per_matrix_draws(dim):
    """A Gram draw in one (2, d, r) call, the column maps in one ``permuted``
    call, and the Dirichlet moduli and uniform phases from exponentials and
    ``random`` give, bit for bit, the numbers of the per-matrix calls they
    replace, for a channel and then a relabeling, and leave the stream where
    those calls left it."""
    # past 7, where a reciprocal of a pairwise sum would part from numpy's Dirichlet
    for rank in range(1, dim + 1):
        for n in [*range(1, 13), 16, 33, 69]:
            rng, ref_rng = (np.random.default_rng([dim, rank, n]) for _ in range(2))
            parts = st_mod._draw_gram(rng, dim, rank)
            channel = ch_mod._draw_monomials([rng], dim, [n], n + 1)  # one zero operator past the n
            g, ref_channel = _per_matrix_draws(ref_rng, dim, rank, n)
            assert _same_bits(parts[0] + 1j * parts[1], g)
            m = g @ dagger(g)
            assert _same_bits(st_mod._gram_states(parts), m / np.trace(m).real)
            for got, want in zip(channel, ref_channel):
                assert _same_bits(got[0, :n], want)
            assert _same_bits(channel[1][0, n], np.zeros(dim))
            # a relabeling: one permutation and uniform phases, with no Dirichlet draw between them
            unitary = ch_mod._draw_monomials([rng], dim, [1], relabel=True)
            ref_unitary = ref_rng.permutation(dim), np.ones(dim), ref_rng.uniform(0.0, 2.0 * np.pi, dim)
            for got, want in zip(unitary, ref_unitary):
                assert _same_bits(got[0, 0], want)
            assert _same_bits(rng.standard_normal(3), ref_rng.standard_normal(3))


def test_reports_are_deterministic():
    a = check_criterion("C2", "rel_ent", small_cfg())
    b = check_criterion("C2", "rel_ent", small_cfg())
    assert a.to_dict() == b.to_dict()
    c = check_criterion("LEMMA2", None, small_cfg(n=40))
    d = check_criterion("LEMMA2", None, small_cfg(n=40))
    assert c.to_dict() == d.to_dict()


# int_rand's mixed rows are the one work --jobs sends to a pool: C1 measures dephased states,
# C2 channel outputs and C4 mixtures, each with some rows to optimize at d = 2 and 3
INT_RAND_CASES = [(criterion, dim) for criterion in ("C1", "C2", "C4") for dim in (2, 3)]


def test_parallel_runs_match_sequential(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so that jobs=2 starts a pool on any machine
    cfg = small_cfg(n=40, seed=3)
    seq = check_criterion("C3", "l1", cfg, jobs=1)
    par = check_criterion("C3", "l1", cfg, jobs=2)
    assert seq.to_dict() == par.to_dict()
    for criterion, dim in INT_RAND_CASES:
        cfg = small_cfg(dim=dim, n=5, seed=3)
        seq = check_criterion(criterion, "int_rand", cfg, jobs=1)
        assert seq.to_dict() == check_criterion(criterion, "int_rand", cfg, jobs=2).to_dict()


@settings(max_examples=12, deadline=None)
@given(
    criterion=st.sampled_from(sorted(c for c in harness.CRITERIA if c != "C5")),
    measure=st.sampled_from(("l1", "rel_ent", "skew", "trivial")),
    dim=st.integers(2, 5),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
@example(criterion="C1", measure="int_rand", dim=2, n=3, seed=7)
@example(criterion="C1", measure="int_rand", dim=3, n=3, seed=8)
@example(criterion="C2", measure="int_rand", dim=2, n=3, seed=9)
@example(criterion="C2", measure="int_rand", dim=3, n=3, seed=10)
@example(criterion="C4", measure="int_rand", dim=2, n=3, seed=11)
@example(criterion="C4", measure="int_rand", dim=3, n=3, seed=12)
def test_jobs_do_not_change_reports(criterion, measure, dim, n, seed):
    cfg = small_cfg(dim=dim, n=n, seed=seed)
    one = check_criterion(criterion, measure, cfg, jobs=1)
    assert one.to_dict() == check_criterion(criterion, measure, cfg, jobs=2).to_dict()


def _per_trial_input(rng, dim, measure_name):
    """A trial's input state through the public constructors, drawn as a block draws it."""
    if measure_name == "int_rand":
        return from_pure(random_pure(dim, rng))
    return random_density(dim, int(rng.integers(1, dim + 1)), rng)


def _per_trial_channel(rng, cfg):
    lo, hi = cfg.n_kraus_range
    return random_incoherent_channel(cfg.dim, int(rng.integers(lo, hi + 1)), rng)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", range(2, 9))
def test_stacked_sampler_matches_the_public_constructors(dim):
    """Draws built, validated and mapped as stacks equal, bit for bit, what
    the public constructors and maps give one trial at a time."""
    cfg = small_cfg(dim=dim, n=64, seed=29)
    rngs = harness._trial_rngs(cfg, range(cfg.n_trials))
    states = [harness._draw_state(rng, dim, measure_by_name("l1")) for rng in rngs]
    ops, kraus = harness._draw_channels(rngs, dim, *cfg.n_kraus_range)
    perms, moduli, phases = ch_mod._draw_monomials(rngs, dim, [1] * len(rngs), relabel=True)
    pures = [harness._draw_state(rng, dim, measure_by_name("int_rand")) for rng in rngs]
    mcss = [mcs_mod._draw_mcs(rng, dim) for rng in rngs]
    ref = [
        (
            _per_trial_input(ref_rng, dim, "l1"),
            _per_trial_channel(ref_rng, cfg),
            random_incoherent_unitary(dim, ref_rng),
            _per_trial_input(ref_rng, dim, "int_rand"),
            from_pure(mcs_sample(dim, ref_rng)),
        )
        for ref_rng in harness._trial_rngs(cfg, range(cfg.n_trials))
    ]
    # the block mixes every rank and every Kraus count
    assert {g.shape[-1] for g in states} == set(range(1, dim + 1))
    counts = [kraus(i).n_kraus for i in range(len(ops))]  # the witness channel drops the zero operators
    assert set(counts) == {1, 2, 3, 4} and ops.shape == (64, 4, dim, dim)

    m = harness._states(states)
    assert _same_bits(m, np.stack([r[0].matrix for r in ref]))
    assert _same_bits(harness._states(pures), np.stack([r[3].matrix for r in ref]))
    assert _same_bits(harness._states(mcss), np.stack([r[4].matrix for r in ref]))
    chans, rhos = [r[1] for r in ref], [r[0] for r in ref]
    for row, count, ch in zip(ops, counts, chans):
        assert _same_bits(row[:count], np.stack(ch.kraus))
        assert _same_bits(row[count:], np.zeros_like(row[count:]))  # the pad operators are exact zeros
    outputs = [apply_channel(ch, rho).matrix for ch, rho in zip(chans, rhos)]
    assert _same_bits(ch_mod._kraus_sum(ops, m), np.stack(outputs))
    kept, weights, branches = ch_mod._kraus_branches(ops, m)
    selective = [apply_selective(ch, rho) for ch, rho in zip(chans, rhos)]
    assert kept.sum(axis=1).tolist() == [len(sel) for sel in selective]
    assert _same_bits(weights, np.array([p for sel in selective for p, _ in sel]))
    assert _same_bits(branches, np.stack([b.matrix for sel in selective for _, b in sel]))
    u = ch_mod._monomials(perms, moduli, phases)[:, 0]
    assert _same_bits(u, np.stack([r[2].matrix() for r in ref]))
    assert _same_bits(u @ m @ dagger(u), np.stack([r[2].conjugate(r[0]).matrix for r in ref]))


def test_stack_validation_bites(monkeypatch):
    cfg = small_cfg(dim=4, n=12, seed=3)
    rngs = harness._trial_rngs(cfg, range(cfg.n_trials))
    states = [harness._draw_state(rng, cfg.dim, measure_by_name("l1")) for rng in rngs]
    gram_states, monomials = st_mod._gram_states, ch_mod._monomials

    for defect, error in ((np.array([[0.0, 1e-3], [0.0, 0.0]]), NonHermitianError),
                          (np.diag([1e-3, 0.0]), NotNormalizedError)):
        def spoiled(g):
            out = gram_states(g)
            out[0, :2, :2] += defect  # one matrix of the stack
            return out

        monkeypatch.setattr(st_mod, "_gram_states", spoiled)
        with pytest.raises(error):
            harness._states(states)
    monkeypatch.setattr(st_mod, "_gram_states", gram_states)

    spoilt = []

    def incomplete(*args):
        ops = monomials(*args)
        ops[-1, 0] *= 1.0 + 1e-6  # the first operator of one channel of the stack
        spoilt.append(ops[-1])
        return ops

    monkeypatch.setattr(ch_mod, "_monomials", incomplete)
    with pytest.raises(IncompleteChannelError):
        harness._draw_channels(rngs, cfg.dim, *cfg.n_kraus_range)
    with pytest.raises(IncompleteChannelError):
        KrausChannel(tuple(k for k in spoilt[0] if k.any()))  # without its zero operators


def _per_trial_slacks(criterion, measure_name, cfg):
    """The per-trial evaluation the blocks replaced, one DensityMatrix at a
    time through the per-object API: the reference for the stacked checks."""
    from coherence_lab.states import dephase, off_diagonal_mass

    measure = measure_by_name(measure_name, dim=cfg.dim)
    slacks = []
    for trial in range(cfg.n_trials):
        rng = np.random.default_rng([cfg.seed, trial])
        rho = _per_trial_input(rng, cfg.dim, measure_name)
        before = measure.evaluate(rho)
        if criterion == "C1":
            slack = harness.C1_ZERO_TOL - measure.evaluate(dephase(rho))
            if off_diagonal_mass(rho) > harness.C1_MASS_FLOOR:
                slack = min(slack, before - harness.C1_VALUE_FLOOR)
        elif criterion == "C2":
            slack = before - measure.evaluate(apply_channel(_per_trial_channel(rng, cfg), rho))
        elif criterion == "C3":
            branches = apply_selective(_per_trial_channel(rng, cfg), rho)
            slack = before - sum(p * measure.evaluate(branch) for p, branch in branches)
        elif criterion == "C4":
            rho_b = _per_trial_input(rng, cfg.dim, measure_name)
            lam = float(rng.uniform())
            mixed = DensityMatrix(lam * rho.matrix + (1.0 - lam) * rho_b.matrix, check_psd=False)
            slack = lam * before + (1.0 - lam) * measure.evaluate(rho_b) - measure.evaluate(mixed)
        else:
            unitary = random_incoherent_unitary(cfg.dim, rng)
            slack = cfg.tol - abs(measure.evaluate(unitary.conjugate(rho)) - before)
        slacks.append(slack)
    return np.array(slacks)


@pytest.mark.parametrize("criterion", ["C1", "C2", "C3", "C4", "LEMMA1"])
@pytest.mark.parametrize("measure", ["l1", "rel_ent", "skew", "trivial"])
def test_blocks_match_the_per_trial_reference(criterion, measure, monkeypatch):
    for dim in (2, 4, 8):
        cfg = small_cfg(dim=dim, n=30, seed=13, n_kraus_range=(2, 4))
        monkeypatch.setattr(harness, "STACK_BUDGET", 7 * _row_entries(criterion, cfg))  # 7 trials a block
        report = check_criterion(criterion, measure, cfg, jobs=1)
        slacks = _per_trial_slacks(criterion, measure, cfg)
        violating = slacks < (0.0 if criterion in ("C1", "LEMMA1") else -cfg.tol)
        assert report.violations == int(violating.sum())
        # skew's quadratic forms may round differently in the last bit once stacked
        assert abs(report.worst_violation - slacks.min()) <= (1e-15 if measure == "skew" else 0.0)
        if report.witness is not None:
            before, after = reevaluate_witness(report)
            assert abs(before - report.witness.value_before) <= 1e-12
            assert abs(after - report.witness.value_after) <= 1e-12


def _lemma2_trial(rng, trial, cfg):
    """One LEMMA2 trial through the public API: its slack and whether it counts."""
    rho = from_pure(mcs_sample(cfg.dim, rng)) if trial % 2 == 0 else _per_trial_input(rng, cfg.dim, "any")
    if rng.uniform() < 0.25:
        channel = random_incoherent_unitary(cfg.dim, rng).as_channel()
    else:
        channel = _per_trial_channel(rng, cfg)
    before, after = mcs_deviation(rho), mcs_deviation(apply_channel(channel, rho))
    return after - cfg.tol, not is_cpo(channel) or before > cfg.tol


def _probe_deviation(channel, probes):
    """The largest change of l1 or rel_ent over the probes, one probe at a time."""
    devs = []
    for amplitudes in probes:
        probe = PureState(amplitudes)
        out = apply_channel(channel, from_pure(probe))
        p = probe.probabilities
        devs.append(max(abs(c_l1(out) - l1_pure(p)), abs(c_rel_ent(out) - rel_ent_pure(p))))
    return max(devs)


def _theorem3_trial(rng, cfg, probes):
    """One THEOREM3 trial through the public API: its slack and whether it counts."""
    lo, hi = max(2, cfg.n_kraus_range[0]), cfg.n_kraus_range[1]
    channel = random_incoherent_channel(cfg.dim, int(rng.integers(lo, max(lo, hi) + 1)), rng)
    cpo = random_incoherent_unitary(cfg.dim, rng).as_channel()
    dev, cpo_dev = _probe_deviation(channel, probes), _probe_deviation(cpo, probes)
    return min(dev - cfg.tol, harness.CPO_PRESERVE_TOL - cpo_dev), not is_cpo(channel)


@pytest.mark.parametrize("criterion, loose_tol", [("LEMMA2", 0.5), ("THEOREM3", 0.9)])
@pytest.mark.parametrize("dim", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("loose", [False, True])
def test_channel_blocks_match_the_per_trial_reference(criterion, loose_tol, dim, seed, loose, monkeypatch):
    """LEMMA2's and THEOREM3's blocks give, bit for bit, the slack and the
    counted flag of each trial evaluated alone through the public API."""
    cfg = small_cfg(dim=dim, n=40, seed=seed, **({"tol": loose_tol} if loose else {}))
    monkeypatch.setattr(harness, "STACK_BUDGET", 7 * _row_entries(criterion, cfg))  # 7 trials a block
    blocks = harness._run_trials(criterion, None, cfg)
    probes = _probe_panel(dim, seed, harness.PROBE_COUNT)
    ref = [
        _lemma2_trial(rng, t, cfg) if criterion == "LEMMA2" else _theorem3_trial(rng, cfg, probes)
        for t, rng in ((t, np.random.default_rng([seed, t])) for t in range(cfg.n_trials))
    ]
    slack, counted = (np.array(x) for x in zip(*ref))
    assert _same_bits(np.concatenate([b.slack for b in blocks]), slack)
    assert _same_bits(np.concatenate([b.counted for b in blocks]), counted)


def _counted(criterion, cfg):
    blocks = harness._run_trials(criterion, None, cfg)
    return np.concatenate([b.counted for b in blocks])


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", [0, 7])
def test_cpo_verdicts_do_not_depend_on_tol(dim, seed, monkeypatch):
    """Being a CPO is a property of the channel: the violation tolerance does
    not decide which THEOREM3 trials are inconclusive, nor which LEMMA2
    channels acting on a maximally coherent input (even trials) are exempt."""
    # 7 THEOREM3 trials a block, and 8 to 35 of LEMMA2's
    monkeypatch.setattr(harness, "STACK_BUDGET", 7 * _row_entries("THEOREM3", small_cfg(dim=dim)))
    theorem3 = [_counted("THEOREM3", small_cfg(dim=dim, n=40, seed=seed, tol=tol)) for tol in (1e-8, 0.5, 0.9)]
    assert _same_bits(theorem3[0], theorem3[1]) and _same_bits(theorem3[0], theorem3[2])
    lemma2 = [_counted("LEMMA2", small_cfg(dim=dim, n=40, seed=seed, tol=tol))[::2] for tol in (1e-8, 0.5)]
    assert _same_bits(lemma2[0], lemma2[1])


def test_pool_workers_are_capped_by_cpus(monkeypatch):
    """int_rand's pool holds min(jobs, CPUs) workers, is opened only when that is above 1,
    maps its mixed rows, and leaves the report as it is serially; other measures open none."""
    import concurrent.futures

    pools = []  # (max_workers, rows mapped) of each pool opened

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append([max_workers, 0])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, rows, *args):
            pools[-1][1] += len(rows)
            return map(fn, rows, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = small_cfg(dim=2, n=4, seed=1)
    serial = check_criterion("C2", "int_rand", cfg).to_dict()
    for cpus, jobs, workers in [(8, 1, None), (8, 4, 4), (2, 10**6, 2), (64, 3, 3), (1, 4, None), (None, 4, None)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        assert check_criterion("C2", "int_rand", cfg, jobs=jobs).to_dict() == serial
        assert [size for size, _ in pools] == ([] if workers is None else [workers])
        assert all(rows > 0 for _, rows in pools)
    pools.clear()
    for measure in ("l1", "rel_ent", "skew", "trivial"):
        check_criterion("C2", measure, cfg, jobs=4)
    assert pools == []


def test_runs_without_int_rand_do_not_load_the_process_pool():
    # every criterion and measure but int_rand at jobs=2, with 2 CPUs to be had: no pool, no pool modules
    env = {**os.environ, "PYTHONPATH": str(Path(coherence_lab.__file__).parents[1])}
    code = """if True:
        import os, sys
        os.cpu_count = lambda: 2
        from coherence_lab.harness import CRITERIA, TrialConfig, check_criterion
        for criterion in CRITERIA:
            for measure in ("l1", "rel_ent", "skew", "trivial"):
                check_criterion(criterion, measure, TrialConfig(dim=3, n_trials=4), jobs=2)
        print(sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing"))))
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("jobs", [0, -3, 1.5, 2.0, True, "2"])
def test_nonpositive_jobs_rejected(jobs):
    with pytest.raises(BadParamsError):
        check_criterion("C2", "l1", small_cfg(n=5), jobs=jobs)


def test_criterion_table_order_and_default_trials():
    assert {name: c.trials for name, c in harness.CRITERIA.items()} == {
        "C1": 1000, "C2": 1000, "C3": 1000, "C4": 1000, "C5": 64,
        "LEMMA1": 1000, "LEMMA2": 1000, "THEOREM3": 1000,
    }
    assert list(harness.CRITERIA) == ["C1", "C2", "C3", "C4", "C5", "LEMMA1", "LEMMA2", "THEOREM3"]


@pytest.mark.parametrize("criterion", ["C6", "ALL", "c2", "SKEW_WITNESS"])
def test_check_criterion_rejects_unknown_criterion(criterion):
    with pytest.raises(BadParamsError):
        check_criterion(criterion, "l1", small_cfg(n=2))


@pytest.mark.parametrize("criterion", ["C1", "C2", "C3", "C4", "C5", "LEMMA1"])
def test_check_criterion_needs_a_measure(criterion):
    with pytest.raises(BadParamsError):
        check_criterion(criterion, None, small_cfg(n=2))


@pytest.mark.parametrize("criterion, label", [("LEMMA2", "none"), ("THEOREM3", "l1+rel_ent")])
def test_channel_criteria_report_their_fixed_label(criterion, label):
    for measure in (None, "skew"):
        assert check_criterion(criterion, measure, small_cfg(dim=2, n=2)).measure == label


def test_c5_rejects_nonpositive_jobs():
    with pytest.raises(BadParamsError):
        check_criterion("C5", "l1", small_cfg(n=2), jobs=0)


def test_reevaluate_witness_rejects_unknown_criterion():
    report = dataclasses.replace(skew_witness_report(3), criterion="C6")
    with pytest.raises(BadParamsError):
        reevaluate_witness(report)


@pytest.mark.parametrize("name", ["l1", "rel_ent", "trivial"])
def test_valid_measures_pass_c1_to_c4(name):
    cfg = small_cfg(n=120)
    for criterion in ("C1", "C2", "C3", "C4"):
        report = check_criterion(criterion, name, cfg)
        assert report.violations == 0, f"{criterion} {name}"
        assert report.witness is None
        assert report.trials == 120


def test_lemma1_invariance_for_valid_measures():
    cfg = small_cfg(n=120)
    for name in ("l1", "rel_ent", "trivial", "int_rand"):
        report = check_criterion("LEMMA1", name, cfg)
        assert report.violations == 0, name


def test_skew_violates_c2_with_reproducible_witness():
    report = check_criterion("C2", "skew", small_cfg(n=100, seed=0))
    assert report.violations >= 1
    assert report.witness is not None
    before, after = reevaluate_witness(report)
    assert abs(before - report.witness.value_before) <= 1e-12
    assert abs(after - report.witness.value_after) <= 1e-12
    assert after > before + report.to_dict()["worst_violation"] * 0  # direction: increase
    assert report.witness.value_after > report.witness.value_before


def test_skew_violates_lemma1_at_d3_but_not_d2():
    assert check_criterion("LEMMA1", "skew", small_cfg(dim=3, n=100)).violations > 0
    assert check_criterion("LEMMA1", "skew", small_cfg(dim=2, n=300)).violations == 0


def test_lemma2_no_violations_and_exercises_cpo_branch():
    report = check_criterion("LEMMA2", None, small_cfg(n=200))
    assert report.violations == 0
    # some trials are exempt (CPO on MCS input): the block marks them, and their slack does not count
    assert report.trials == 200
    blocks = harness._run_trials("LEMMA2", None, small_cfg(n=400))
    assert sum(int(np.count_nonzero(~b.counted)) for b in blocks) == 82


def test_theorem3_no_masquerading_channels():
    report = check_criterion("THEOREM3", None, small_cfg(dim=2, n=60, n_kraus_range=(2, 4)))
    assert report.violations == 0
    assert report.worst_violation > 0  # channels visibly move the probe values


def test_theorem3_trials_without_a_non_cpo_channel_are_inconclusive(monkeypatch):
    # every draw a CPO: no trial tests anything, so none violates or sets the worst slack
    monkeypatch.setattr(harness, "is_cpo", lambda ops: np.ones(len(ops), dtype=bool))
    report = check_criterion("THEOREM3", None, small_cfg(dim=2, n=5))
    assert (report.trials, report.violations, report.worst_violation, report.witness) == (5, 0, 0.0, None)


def test_projective_channel_fails_preservation_on_probes():
    dim = 3
    ops = []
    for i in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[i, i] = 1.0
        ops.append(k)
    projective = KrausChannel(tuple(ops))
    probes = _probe_panel(dim, seed=0, count=20)
    assert _panel_deviation(probes, np.stack(projective.kraus)[None])[0] > 0.9  # plus-state values drop to zero


def test_cpo_channels_preserve_probe_values():
    probes = _probe_panel(3, seed=1, count=20)
    for i in range(20):
        u = IncoherentUnitary(
            perm=tuple(np.random.default_rng([5, i]).permutation(3).tolist()),
            phases=tuple(np.random.default_rng([6, i]).uniform(0, 2 * np.pi, 3).tolist()),
        )
        assert _panel_deviation(probes, np.stack(u.as_channel().kraus)[None])[0] <= 1e-9


# ---------------------------------------------------------------------------
# C5
# ---------------------------------------------------------------------------


def test_c5_l1_maximum_and_maximizers():
    report = check_criterion("C5", "l1", TrialConfig(dim=3, n_trials=64))
    assert report.violations == 0
    assert abs(report.max_value - 2.0) <= 1e-6
    assert report.max_value <= 2.0 + 1e-9


def test_c5_rel_ent_maximum():
    report = check_criterion("C5", "rel_ent", TrialConfig(dim=2, n_trials=64))
    assert report.violations == 0
    assert abs(report.max_value - 1.0) <= 1e-6


def test_c5_trivial_fails_with_coherent_non_mcs_witness():
    report = check_criterion("C5", "trivial", TrialConfig(dim=3, n_trials=64))
    assert report.violations > 0
    w = report.witness
    assert w is not None
    assert w.value_before == 1.0  # attains the maximal value
    assert not is_mcs(w.state, 1e-3)
    assert w.state.matrix[np.abs(w.state.matrix) > 1e-9].size > 3  # coherent


# Pure-state maxima: l1 d-1 and rel_ent log2 d at the uniform-modulus states;
# skew (d-1)^2/4 at p = (1/2, 0, ..., 0, 1/2), which is maximally coherent only
# at d = 2; trivial 1 on every coherent state.
C5_MAXIMA = {
    "l1": lambda d: d - 1,
    "rel_ent": np.log2,
    "int_rand": np.log2,
    "skew": lambda d: (d - 1) ** 2 / 4,
    "trivial": lambda d: 1.0,
}


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("measure", MEASURE_NAMES)
def test_c5_closed_form_maxima(measure, dim):
    report = check_criterion("C5", measure, TrialConfig(dim=dim, n_trials=8, seed=dim))
    assert abs(report.max_value - C5_MAXIMA[measure](dim)) <= 1e-6
    fails = measure == "trivial" or (measure == "skew" and dim >= 3)
    assert (report.violations > 0) == fails


# C5 with 8 restarts and seed s, recorded from the scalar
# ascent: (max_value, violations, worst_violation, witness amplitudes).
C5_PINS = {
    ('l1', 2, 0): (0.9999999999999996, 0, 0.0009999814243922813, None),
    ('l1', 2, 5): (1.0000000000000004, 0, 0.0009999849193914603, None),
    ('l1', 3, 0): (2.0000000000000013, 0, 0.0009999831869693656, None),
    ('l1', 3, 5): (2.000000000000001, 0, 0.0009999829578341548, None),
    ('l1', 4, 0): (3.0, 0, 0.00099998714569166, None),
    ('l1', 4, 5): (3.0, 0, 0.0009999854660957532, None),
    ('rel_ent', 2, 0): (1.0, 0, 0.0009999814243922813, None),
    ('rel_ent', 2, 5): (1.0, 0, 0.0009999849193914603, None),
    ('rel_ent', 3, 0): (1.584962500721156, 0, 0.0009999831869693656, None),
    ('rel_ent', 3, 5): (1.584962500721156, 0, 0.0009999829578341548, None),
    ('rel_ent', 4, 0): (2.0, 0, 0.0009999832035320613, None),
    ('rel_ent', 4, 5): (1.9999999999999996, 0, 0.000999982609851401, None),
    ('int_rand', 2, 0): (1.0, 0, 0.0009999814243922813, None),
    ('int_rand', 2, 5): (1.0, 0, 0.0009999849193914603, None),
    ('int_rand', 3, 0): (1.584962500721156, 0, 0.0009999831869693656, None),
    ('int_rand', 3, 5): (1.584962500721156, 0, 0.0009999829578341548, None),
    ('int_rand', 4, 0): (2.0, 0, 0.0009999832035320613, None),
    ('int_rand', 4, 5): (1.9999999999999996, 0, 0.000999982609851401, None),
    ('skew', 2, 0): (0.24999999999999994, 0, 0.0009999683510047977, None),
    ('skew', 2, 5): (0.25, 0, 0.0009999741032622458, None),
    ('skew', 3, 0): (1.0000000000000002, 8, -0.3323333333333333, [0.707106787983766, 0.0, 0.707106774389329]),
    ('skew', 3, 5): (1.0000000000000002, 8, -0.3323333333333333, [0.7071067791882291, 0.0, 0.707106783184866]),
    ('skew', 4, 0): (2.2500000000000004, 8, -0.24900000734479344, [0.7071067863801007, 0.0, 0.0, 0.7071067759929942]),
    ('skew', 4, 5): (2.2500000000000004, 8, -0.24900001009889505, [0.7071067740455504, 0.0, 0.0, 0.7071067883275447]),
    ('trivial', 2, 0): (1.0, 8, -0.42622140459423163, [0.2697750829965, 0.9629233638219771]),
    ('trivial', 2, 5): (1.0, 8, -0.47026710816776207, [0.9855288469485619, 0.16950779283631157]),
    ('trivial', 3, 0): (1.0, 8, -0.5688464571525552, [0.10498247047325332, 0.9503577171180799, 0.2929144762681493]),
    ('trivial', 3, 5): (1.0, 8, -0.5299356655454169, [0.20256865090444529, 0.3077286837329316, 0.9296606901868822]),
    ('trivial', 4, 0): (1.0, 8, -0.3629798372055092, [0.2835353830316601, 0.7835686550682774, 0.49597967014982564, 0.24419667516502105]),
    ('trivial', 4, 5): (1.0, 8, -0.6122038674431354, [0.03510565928955533, 0.20244378887887032, 0.3075390017332399, 0.9290876532615937]),
}


@pytest.mark.parametrize("key", sorted(C5_PINS))
def test_c5_pinned(key):
    measure, dim, seed = key
    max_value, violations, worst, amplitudes = C5_PINS[key]
    report = check_criterion("C5", measure, TrialConfig(dim=dim, n_trials=8, seed=seed))
    # skew's quadratic form rounds differently once stacked, which can flip a
    # near-tie acceptance at the 1e-15 margin and move a maximizer slightly
    loose = 1e-6 if measure == "skew" else 1e-12
    assert abs(report.max_value - max_value) <= 1e-12
    assert report.violations == violations
    assert abs(report.worst_violation - worst) <= loose
    if amplitudes is None:
        assert report.witness is None
    else:
        np.testing.assert_allclose(
            np.sqrt(np.diagonal(report.witness.state.matrix).real), amplitudes, rtol=0, atol=loose
        )


def _ascend_pure(measure, w, floor=1e-9, max_rounds=50):
    """The scalar ascent ``_ascend`` replaced, one restart at a time: the reference."""
    dim = w.size
    val = measure.evaluate_pure(w)
    for _ in range(max_rounds):
        improved = False
        step = 0.25
        while step >= floor:
            moved = False
            for i in range(dim):
                if w[i] <= 0.0:
                    continue
                for j in range(dim):
                    if i == j:
                        continue
                    t = min(step, w[i])
                    w2 = w.copy()
                    w2[i] -= t
                    w2[j] += t
                    v2 = measure.evaluate_pure(w2)
                    if v2 > val + 1e-15:
                        w, val = w2, v2
                        moved = True
            if moved:
                improved = True
            else:
                step *= 0.5
        w = w / w.sum()
        val = measure.evaluate_pure(w)
        if not improved:
            break
    return w, val


def _ascent_starts(dim, rows):
    starts = np.random.default_rng([61, dim]).dirichlet(np.ones(dim), size=rows)
    starts[0, 0] = 0.0  # a vanishing coordinate, skipped as a source
    starts[0] /= starts[0].sum()
    return starts


def _ascend_seen(measure, starts, **kw):
    """``_ascend``'s result, and the chain depths of the trial stacks it evaluated."""
    depths = set()

    def evaluate_pure(p):
        if p.ndim == 4:  # (rows, passes, moves, d)
            depths.add(p.shape[1])
        return measure.evaluate_pure(p)

    return _ascend(dataclasses.replace(measure, evaluate_pure=evaluate_pure), starts, **kw), depths


ASCENT_KWARGS = [{}, {"max_rounds": 1}, {"floor": 1e-3}, {"floor": 0.5}]


@pytest.mark.parametrize("kw", ASCENT_KWARGS)
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("name", MEASURE_NAMES)
def test_ascent_stack_matches_one_at_a_time(name, dim, kw):
    m = measure_by_name(name, dim=dim)
    starts = _ascent_starts(dim, 5)
    ws, vals = _ascend(m, starts, **kw)
    for start, w, val in zip(starts, ws, vals):
        (w_one,), (val_one,) = _ascend(m, start[None], **kw)
        w_ref, val_ref = _ascend_pure(m, start.copy(), **kw)
        assert np.array_equal(w, w_one) and val == val_one
        assert np.array_equal(w, w_ref) and val == val_ref


@pytest.mark.parametrize("kw", ASCENT_KWARGS[:2])
@pytest.mark.parametrize("dim", [5, 8])
@pytest.mark.parametrize("name", MEASURE_NAMES)
def test_ascent_of_a_full_block_matches_one_at_a_time(name, dim, kw, monkeypatch):
    m = measure_by_name(name, dim=dim)
    cfg = TrialConfig(dim=dim, n_trials=64)
    monkeypatch.setattr(harness, "STACK_BUDGET", 64 * _row_entries("C5", cfg))  # a full block of 64 restarts
    starts = _ascent_starts(dim, harness._block_rows("C5", cfg))
    (ws, vals), depths = _ascend_seen(m, starts, **kw)
    assert depths == {1}  # the block scores one pass at a time, each row alone a chain of passes
    for i, (start, w, val) in enumerate(zip(starts, ws, vals)):
        ((w_one,), (val_one,)), depths = _ascend_seen(m, start[None], **kw)
        assert depths == {harness.C5_CHAIN_BUDGET // (dim * (dim - 1) * dim)} and depths != {1}
        assert np.array_equal(w, w_one) and val == val_one
        if i < 2:
            w_ref, val_ref = _ascend_pure(m, start.copy(), **kw)
            assert np.array_equal(w, w_ref) and val == val_ref


@pytest.mark.parametrize("kw", ASCENT_KWARGS)
@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("name", MEASURE_NAMES)
def test_ascent_does_not_depend_on_chain_depth(name, dim, kw, monkeypatch):
    m = measure_by_name(name, dim=dim)
    starts = _ascent_starts(dim, 3)
    entries = len(starts) * dim * (dim - 1) * dim
    results = []
    for depth, budget in [(1, 0), (1, entries), (2, 2 * entries), (3, 3 * entries), (30, 1000 * entries)]:
        monkeypatch.setattr(harness, "C5_CHAIN_BUDGET", budget)
        result, depths = _ascend_seen(m, starts, **kw)
        assert depths == (set() if kw.get("floor") == 0.5 else {depth})  # 0.5: no round has a pass
        results.append(result)
    for ws, vals in results[1:]:
        assert np.array_equal(ws, results[0][0]) and np.array_equal(vals, results[0][1])
    for start, w, val in zip(starts, *results[0]):
        w_ref, val_ref = _ascend_pure(m, start.copy(), **kw)
        assert np.array_equal(w, w_ref) and val == val_ref


def test_c5_does_not_depend_on_block_size(monkeypatch):
    cfg = TrialConfig(dim=3, n_trials=10, seed=3)
    reports = []
    for budget in (harness.STACK_BUDGET, 3 * _row_entries("C5", cfg), 1):  # blocks of 10, 3 and 1 restarts
        monkeypatch.setattr(harness, "STACK_BUDGET", budget)
        reports.append(json.dumps(check_criterion("C5", "skew", cfg).to_dict()))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("criterion", list(harness.CRITERIA))
def test_blocks_hold_as_many_rows_as_fit_the_stack_budget(criterion):
    for dim in range(2, 17):
        for kraus in [(1, 4), (2, 40), (1, harness.STACK_BUDGET // dim**2)]:  # the last, as many as one row fits
            cfg = TrialConfig(dim=dim, n_trials=1, n_kraus_range=kraus)
            rows, entries = harness._block_rows(criterion, cfg), _row_entries(criterion, cfg)
            assert rows >= 1 and (rows == 1 or rows * entries <= harness.STACK_BUDGET)
            assert (rows + 1) * entries > harness.STACK_BUDGET


def test_benchmark_shapes_fit_one_block():
    """The benchmark's commands run at most 150 trials of d <= 8, 6 of THEOREM3
    at d = 3, 4 and 8 C5 restarts at d <= 4: each of them, and the default 64
    restarts, in one block, as when blocks held a fixed 256 trials or 64 restarts."""
    for dim in range(2, 9):
        for criterion in ["C1", "C2", "C3", "C4", "LEMMA1", "LEMMA2"]:
            assert harness._block_rows(criterion, small_cfg(dim=dim)) >= 150
    assert min(harness._block_rows("THEOREM3", small_cfg(dim=dim)) for dim in (3, 4)) >= 6
    assert min(harness._block_rows("C5", small_cfg(dim=dim)) for dim in (2, 3, 4)) >= 64


@pytest.mark.parametrize("dim", [2, 16])
@pytest.mark.parametrize("criterion, measure", [
    ("C1", "skew"), ("C2", "l1"), ("C3", "skew"), ("C4", "rel_ent"), ("C5", "rel_ent"),
    ("LEMMA1", "l1"), ("LEMMA2", None), ("THEOREM3", None),
])
def test_a_full_block_stays_within_a_few_budgets(criterion, measure, dim):
    """The budget bounds each temporary, so a block's traced peak, all its live
    arrays and per-trial objects together, stays within a few budgets of
    complex entries: 1.2 to 6.1 at these shapes, against a bound of 12."""
    rows = harness._block_rows(criterion, small_cfg(dim=dim))
    cfg = small_cfg(dim=dim, n=rows)
    measure = measure and measure_by_name(measure, dim=dim)
    tracemalloc.start()
    try:
        if criterion == "C5":
            harness._c5_block(measure, cfg)
        else:
            harness.CRITERIA[criterion].block(measure, cfg, range(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 16 * harness.STACK_BUDGET


def test_c5_rejects_bad_dim():
    with pytest.raises(BadDimError):
        check_criterion("C5", "l1", TrialConfig(dim=1, n_trials=64))


# ---------------------------------------------------------------------------
# skew witness
# ---------------------------------------------------------------------------


def test_skew_witness_d3_exact_values():
    w = skew_violation_witness(3)
    assert abs(w.value_before - 17 / 36) <= 1e-15
    assert abs(w.value_after - 5 / 9) <= 1e-15
    assert w.value_after - w.value_before > 0.05


def test_skew_witness_rejects_d2():
    with pytest.raises(BadDimError):
        skew_violation_witness(2)


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
def test_skew_witness_grows_with_gap(dim):
    w = skew_violation_witness(dim)
    assert w.value_after > w.value_before
    assert w.value_after - w.value_before > 0.05
    # the channel really is incoherent and unitary
    assert isinstance(w.channel, IncoherentUnitary)


def test_skew_witness_reevaluates_exactly():
    report = skew_witness_report(3)
    before, after = reevaluate_witness(report)
    assert abs(before - report.witness.value_before) <= 1e-12
    assert abs(after - report.witness.value_after) <= 1e-12


def test_skew_witness_is_the_inverse_relabeling_direction():
    w = skew_violation_witness(3)
    # applying the recorded channel to the recorded state reproduces value_after
    out = w.channel.conjugate(w.state)
    from coherence_lab.measures import c_skew, default_observable

    assert abs(c_skew(out, default_observable(3)) - 5 / 9) <= 1e-12


# ---------------------------------------------------------------------------
# reports and witnesses
# ---------------------------------------------------------------------------


def test_report_json_round_trip():
    report = check_criterion("C2", "skew", small_cfg(n=60, seed=1))
    payload = json.loads(json.dumps(report.to_dict()))
    back = report_from_dict(payload)
    assert back.to_dict() == report.to_dict()


def test_report_without_witness_round_trips():
    report = check_criterion("C2", "l1", small_cfg(n=30))
    back = report_from_dict(json.loads(json.dumps(report.to_dict())))
    assert back.to_dict() == report.to_dict()


@pytest.mark.parametrize("parse", [report_from_dict, harness.witness_from_dict])
@pytest.mark.parametrize("malform", ["empty", "bad float", "list"])
def test_malformed_report_payloads_raise_bad_payload(parse, malform):
    report = check_criterion("C2", "skew", small_cfg(n=60, seed=1))
    payload = json.loads(json.dumps(report.to_dict()))
    if parse is harness.witness_from_dict:
        payload = payload["witness"]
    float_field = "worst_violation" if parse is report_from_dict else "value_before"
    bad = {"empty": {}, "bad float": {**payload, float_field: "x"}, "list": []}[malform]
    with pytest.raises(BadPayloadError):
        parse(bad)


def test_witness_invariants_across_checks():
    reports = [
        check_criterion("C2", "skew", small_cfg(n=80)),
        check_criterion("LEMMA1", "skew", small_cfg(n=80)),
        check_criterion("C2", "l1", small_cfg(n=80)),
    ]
    for r in reports:
        assert r.violations <= r.trials
        assert (r.witness is not None) == (r.violations > 0)
        if r.witness is not None:
            before, after = reevaluate_witness(r)
            assert abs(before - r.witness.value_before) <= 1e-12
            assert abs(after - r.witness.value_after) <= 1e-12


def test_c4_witness_reevaluation_path():
    # construct a fake C4 witness and check the aux-based recomputation
    rho_a = from_pure(_plus(2))
    rho_b = DensityMatrix(np.diag([0.5, 0.5]))
    lam = 0.5
    mixed = DensityMatrix(lam * rho_a.matrix + (1 - lam) * rho_b.matrix)
    from coherence_lab.measures import c_l1

    witness = ViolationWitness(
        state=mixed,
        channel=None,
        value_before=lam * c_l1(rho_a) + (1 - lam) * c_l1(rho_b),
        value_after=c_l1(mixed),
        aux={"state_a": rho_a.to_dict(), "state_b": rho_b.to_dict(), "lam": lam},
    )
    report = CriterionReport(
        criterion="C4",
        measure="l1",
        dim=2,
        trials=1,
        violations=1,
        worst_violation=-1.0,
        witness=witness,
        seed=0,
    )
    before, after = reevaluate_witness(report)
    assert abs(before - witness.value_before) <= 1e-12
    assert abs(after - witness.value_after) <= 1e-12


def _plus(dim):
    from coherence_lab.states import PureState

    return PureState(np.ones(dim) / np.sqrt(dim))


def test_lemma2_witness_semantics_on_forced_example():
    # CPO on an MCS input produces an MCS output but is exempt: no violation.
    cfg = small_cfg(n=300, seed=2)
    report = check_criterion("LEMMA2", None, cfg)
    assert report.violations == 0
    # the worst slack stays clearly positive: nothing got near the MCS set
    assert report.worst_violation > 1e-4


def test_probe_panel_composition():
    probes = _probe_panel(3, seed=0, count=20)
    assert len(probes) == 20
    # the first C(3,2)=3 probes are the equal-weight basis pairs
    for amplitudes in probes[:3]:
        mags = np.sort(np.abs(amplitudes))
        np.testing.assert_allclose(mags, [0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_mcs_deviation_matches_is_mcs_threshold():
    rho = from_pure(_plus(3))
    assert mcs_deviation(rho) <= 1e-12
    assert is_mcs(rho, 1e-10)
