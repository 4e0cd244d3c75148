"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one explicit
pass/fail line per criterion (pytest -v already shows one line per test).
"""

import numpy as np
import pytest

from coherence_lab import numerics
from coherence_lab.harness import (
    TrialConfig,
    check_criterion,
    skew_violation_witness,
)
from coherence_lab.channels import is_incoherent_channel
from coherence_lab.measures import (
    OptimizerConfig,
    c_int_rand,
    c_l1,
    c_rel_ent,
    convex_roof_ensemble,
    rel_ent_pure,
)
from coherence_lab.mcs import is_mcs, mcs_sample, transform_mcs_to, transform_mcs_to_mixed, uniform_superposition
from coherence_lab.states import (
    DensityMatrix,
    PureState,
    fidelity_pure,
    from_pure,
    random_density,
    random_pure,
)
from coherence_lab.channels import apply_channel


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_01_l1_maximum_located_at_uniform_modulus_states():
    for dim in (2, 3, 4, 5, 6):
        for i in range(5):
            sample = mcs_sample(dim, [1, dim, i])
            assert abs(c_l1(from_pure(sample)) - (dim - 1)) <= 1e-9
        report = check_criterion("C5", "l1", TrialConfig(dim=dim, n_trials=64))
        assert abs(report.max_value - (dim - 1)) <= 1e-6
        assert report.max_value <= dim - 1 + 1e-9
        assert report.violations == 0  # every near-maximizer passed is_mcs(1e-3)
    _ok("01 l1 maximum = d-1 with maximally coherent maximizers (d=2..6)")


def test_02_rel_ent_maximum_is_log2_d():
    for dim in (2, 3):
        report = check_criterion("C5", "rel_ent", TrialConfig(dim=dim, n_trials=64))
        assert abs(report.max_value - np.log2(dim)) <= 1e-6
        assert report.violations == 0
    _ok("02 rel_ent maximum = log2(d) with maximally coherent maximizers (d=2,3)")


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("measure", ["l1", "rel_ent", "trivial"])
def test_03_monotonicity_and_convexity_fuzz(measure, dim):
    cfg = TrialConfig(dim=dim, n_trials=2000, seed=300 + dim, tol=1e-8)
    for criterion in ("C2", "C3", "C4"):
        report = check_criterion(criterion, measure, cfg)
        assert report.violations == 0, f"{criterion}({measure}, d={dim})"
    _ok(f"03 C2/C3/C4 fuzz zero violations ({measure}, d={dim}, 2000 trials each)")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_04_relabeling_invariance_for_valid_measures(dim):
    cfg = TrialConfig(dim=dim, n_trials=1000, seed=400 + dim, tol=1e-8)
    for measure in ("l1", "rel_ent", "trivial", "int_rand"):
        report = check_criterion("LEMMA1", measure, cfg)
        assert report.violations == 0, f"lemma1({measure}, d={dim})"
    _ok(f"04 relabeling-unitary invariance zero violations (d={dim}, 1000 trials)")


def test_05_skew_information_violations():
    witness = skew_violation_witness(3)
    assert abs(witness.value_before - 17 / 36) <= 1e-15
    assert abs(witness.value_after - 5 / 9) <= 1e-15

    c2 = check_criterion("C2", "skew", TrialConfig(dim=3, n_trials=100, seed=500, tol=1e-8))
    assert c2.violations >= 1
    assert c2.witness is not None

    lemma1_d2 = check_criterion("LEMMA1", "skew", TrialConfig(dim=2, n_trials=1000, seed=501, tol=1e-8))
    assert lemma1_d2.violations == 0
    _ok("05 skew witness {17/36 -> 5/9}, C2 violations at d=3, none at d=2")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_06_no_incoherent_channel_reaches_maximal_coherence(dim):
    report = check_criterion("LEMMA2", None, TrialConfig(dim=dim, n_trials=1000, seed=600 + dim, tol=1e-8))
    assert report.violations == 0
    _ok(f"06 maximal coherence unreachable except CPO-on-MCS (d={dim}, 1000 trials)")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_07_uniform_superposition_prepares_any_state(dim):
    source = from_pure(uniform_superposition(dim))
    eye = np.eye(dim)
    for i in range(100):
        target = random_pure(dim, [700, dim, i])
        channel = transform_mcs_to(target)
        gram = sum(k.conj().T @ k for k in channel.kraus)
        assert numerics.frobenius(gram - eye) <= 1e-12
        assert is_incoherent_channel(channel)
        assert fidelity_pure(apply_channel(channel, source), target) >= 1 - 1e-10
    for i in range(20):
        target = random_density(dim, 1 + i % dim, [701, dim, i])
        channel = transform_mcs_to_mixed(target)
        gram = sum(k.conj().T @ k for k in channel.kraus)
        assert numerics.frobenius(gram - eye) <= 1e-12
        assert is_incoherent_channel(channel)
        out = apply_channel(channel, source)
        assert numerics.frobenius(out.matrix - target.matrix) <= 1e-9
    _ok(f"07 preparation channels: complete, incoherent, on-target (d={dim})")


@pytest.mark.parametrize("dim", [2, 3])
def test_08_only_relabelings_preserve_values_everywhere(dim):
    report = check_criterion(
        "THEOREM3",
        None,
        TrialConfig(dim=dim, n_trials=500, seed=800 + dim, tol=1e-8, n_kraus_range=(2, 4))
    )
    # zero masquerading non-unitary channels AND zero CPO preservation failures
    assert report.violations == 0
    assert report.worst_violation > 0
    _ok(f"08 no non-unitary value-preserving channel in 500 samples (d={dim})")


def test_09_trivial_measure_is_excluded_by_maximal_value_criterion():
    report = check_criterion("C5", "trivial", TrialConfig(dim=3, n_trials=64))
    assert report.violations > 0
    witness = report.witness
    assert witness is not None
    assert witness.value_before == 1.0  # attains the measure's maximum
    assert not is_mcs(witness.state, 1e-3)
    assert c_l1(witness.state) > 1e-3  # genuinely coherent
    _ok("09 trivial measure FAILS the maximal-value criterion with witness")


def test_10_intrinsic_randomness_consistency():
    for i in range(200):
        dim = 2 + i % 3
        rho = from_pure(random_pure(dim, [1000, i]))
        assert c_int_rand(rho) == c_rel_ent(rho)
    for dim in (2, 3):
        assert c_int_rand(DensityMatrix(np.eye(dim) / dim)) <= 1e-6
    opt = OptimizerConfig(restarts=8, seed=10)
    for i in range(10):
        dim = 2 + i % 2
        rho = random_density(dim, 1 + i % dim, [1001, i])
        eig = rho.eigen
        keep = eig.eigenvalues > 1e-12
        average = sum(
            q * rel_ent_pure(PureState(eig.eigenvectors[:, k] / np.linalg.norm(eig.eigenvectors[:, k])).probabilities)
            for q, k in zip(eig.eigenvalues[keep], np.nonzero(keep)[0])
        )
        value, ensemble = convex_roof_ensemble(rho, opt)
        assert value <= average + 1e-9
        assert np.max(np.abs(ensemble.reconstruction() - rho.matrix)) <= 1e-9
    _ok("10 intrinsic randomness: pure branch exact, mixed branch bounded")


def test_11_numerics_floor():
    for dim in range(2, 9):
        for i in range(500):
            rng = np.random.default_rng([1100, dim, i])
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = (g + g.conj().T) / 2
            w, v = numerics.hermitian_eigen(a)
            scale = max(1.0, numerics.frobenius(a))
            assert numerics.frobenius(a - (v * w[..., None, :]) @ numerics.dagger(v)) <= 1e-10 * scale
    for dim in range(2, 9):
        for i in range(40):
            rng = np.random.default_rng([1101, dim, i])
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = g @ g.conj().T
            s = numerics.psd_sqrt(a)
            assert numerics.frobenius(s @ s - a) <= 1e-8 * max(1.0, numerics.frobenius(a))
    _ok("11 eigen reconstruction <= 1e-10 (500/dim, d=2..8); sqrt roundtrip <= 1e-8")
