import numpy as np
import pytest

from coherence_lab.channels import (
    apply_channel,
    apply_selective,
    is_cpo,
    is_incoherent_channel,
    random_incoherent_channel,
    random_incoherent_unitary,
)
from coherence_lab.errors import BadDimError
from coherence_lab.mcs import (
    is_mcs,
    mcs_deviation,
    mcs_sample,
    transform_mcs_to,
    transform_mcs_to_mixed,
    uniform_superposition,
)
from coherence_lab.states import (
    DensityMatrix,
    PureState,
    fidelity_pure,
    from_pure,
    random_density,
    random_pure,
)


def test_uniform_superposition_is_mcs():
    for dim in (2, 3, 5):
        assert is_mcs(from_pure(uniform_superposition(dim)), 1e-10) is True  # a bool, for JSON


def test_circular_qubit_state_is_mcs():
    psi = PureState(np.array([1.0, 1j]) / np.sqrt(2))
    assert is_mcs(from_pure(psi), 1e-10)


def test_maximally_mixed_is_not_mcs():
    assert not is_mcs(DensityMatrix(np.eye(3) / 3), 1e-6)


def test_nonuniform_pure_state_is_not_mcs():
    assert not is_mcs(from_pure(PureState(np.array([0.8, 0.6]))), 1e-6)


def test_mcs_sample_membership_and_determinism():
    for dim in (2, 3, 5):
        psi = mcs_sample(dim, 9)
        assert is_mcs(from_pure(psi), 1e-10)
    assert mcs_sample(4, 5) == mcs_sample(4, 5)
    assert np.array_equal(mcs_sample(4, 5).amplitudes, mcs_sample(4, 5).amplitudes)
    with pytest.raises(BadDimError):
        mcs_sample(1, 0)


# ---------------------------------------------------------------------------
# the preparation channel
# ---------------------------------------------------------------------------


def test_transform_to_itself_is_faithful():
    psi = uniform_superposition(3)
    out = apply_channel(transform_mcs_to(psi), from_pure(psi))
    assert fidelity_pure(out, psi) == pytest.approx(1.0, abs=1e-12)


def test_transform_to_basis_state_d2():
    # target |0>: operators |0><0| and |0><1|; both branches land on |0>
    ch = transform_mcs_to(PureState(np.eye(2)[0]))
    np.testing.assert_allclose(ch.kraus[0], np.array([[1, 0], [0, 0]]), atol=0)
    np.testing.assert_allclose(ch.kraus[1], np.array([[0, 1], [0, 0]]), atol=0)
    assert is_incoherent_channel(ch)
    out = apply_channel(ch, from_pure(uniform_superposition(2)))
    np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_transform_reaches_random_targets(dim):
    source = from_pure(uniform_superposition(dim))
    for i in range(25):
        target = random_pure(dim, [90, dim, i])
        ch = transform_mcs_to(target)
        assert is_incoherent_channel(ch)
        gram = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12
        out = apply_channel(ch, source)
        assert fidelity_pure(out, target) >= 1.0 - 1e-10


def test_transform_branches_all_reach_target():
    target = random_pure(3, 17)
    ch = transform_mcs_to(target)
    outcomes = apply_selective(ch, from_pure(uniform_superposition(3)))
    assert abs(sum(p for p, _ in outcomes) - 1.0) <= 1e-10
    for p, branch in outcomes:
        assert p == pytest.approx(1 / 3, abs=1e-12)
        assert fidelity_pure(branch, target) >= 1.0 - 1e-10


def test_transform_kraus_column_structure():
    target = random_pure(4, 23)  # generic target: every amplitude nonzero
    for k in transform_mcs_to(target).kraus:
        assert np.all((np.abs(k) > 1e-12).sum(axis=0) == 1)


def test_transform_mixed_pure_target_reduces_to_pure_construction():
    target = random_pure(3, 31)
    direct = transform_mcs_to(target)
    via_mixed = transform_mcs_to_mixed(from_pure(target))
    assert via_mixed.n_kraus == direct.n_kraus
    source = from_pure(uniform_superposition(3))
    a = apply_channel(direct, source)
    b = apply_channel(via_mixed, source)
    assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-9


def test_transform_mixed_reaches_maximally_mixed():
    target = DensityMatrix(np.eye(3) / 3)
    ch = transform_mcs_to_mixed(target)
    assert is_incoherent_channel(ch)
    out = apply_channel(ch, from_pure(uniform_superposition(3)))
    assert np.max(np.abs(out.matrix - target.matrix)) <= 1e-10


def test_transform_mixed_reaches_diagonal_target():
    target = DensityMatrix(np.diag([0.2, 0.8]))
    out = apply_channel(transform_mcs_to_mixed(target), from_pure(uniform_superposition(2)))
    assert np.max(np.abs(out.matrix - target.matrix)) <= 1e-10


def test_transform_mixed_reaches_random_targets():
    for i in range(10):
        target = random_density(3, 2, [91, i])
        ch = transform_mcs_to_mixed(target)
        gram = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        out = apply_channel(ch, from_pure(uniform_superposition(3)))
        assert np.max(np.abs(out.matrix - target.matrix)) <= 1e-9


# ---------------------------------------------------------------------------
# closure and fragility
# ---------------------------------------------------------------------------


def test_relabeling_unitaries_preserve_mcs():
    for i in range(100):
        psi = mcs_sample(3, [92, i])
        u = random_incoherent_unitary(3, [93, i])
        assert is_mcs(u.conjugate(from_pure(psi)), 1e-8)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_non_cpo_channels_break_mcs(dim):
    hits = 0
    for i in range(200):
        ch = random_incoherent_channel(dim, 2 + i % 3, [94, dim, i])
        if is_cpo(ch):
            continue
        hits += 1
        psi = mcs_sample(dim, [95, dim, i])
        assert not is_mcs(apply_channel(ch, from_pure(psi)), 1e-8)
    assert hits > 150  # nearly all sampled channels are genuinely non-unitary


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_mcs_not_reachable_from_generic_states(dim):
    for i in range(200):
        rho = random_density(dim, 1 + i % dim, [96, dim, i])
        if is_mcs(rho, 1e-6):  # astronomically unlikely; skip if sampled
            continue
        ch = random_incoherent_channel(dim, 1 + i % 4, [97, dim, i])
        assert not is_mcs(apply_channel(ch, rho), 1e-8)


def test_mcs_deviation_scales():
    assert mcs_deviation(from_pure(uniform_superposition(3))) <= 1e-12
    assert mcs_deviation(DensityMatrix(np.eye(3) / 3)) == pytest.approx(2 / 3, abs=1e-12)
