import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_lab import states
from coherence_lab.errors import (
    BadDimError,
    BadPayloadError,
    BadRankError,
    NonFiniteError,
    NonHermitianError,
    NonSquareError,
    NotNormalizedError,
)
from coherence_lab.mcs import mcs_deviation
from coherence_lab.states import (
    DensityMatrix,
    PureState,
    density_matrices,
    dephase,
    fidelity_pure,
    from_pure,
    off_diagonal_mass,
    purity,
    random_density,
    random_pure,
    state_from_dict,
)


def test_from_pure_basis_state():
    rho = from_pure(PureState(np.eye(2)[0]))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=0)


def test_from_pure_plus_state():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    rho = from_pure(plus)
    np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)


def test_from_pure_circular_state():
    psi = PureState(np.array([1.0, 1j]) / np.sqrt(2))
    rho = from_pure(psi)
    np.testing.assert_allclose(np.diag(rho.matrix), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(rho.matrix[0, 1], -0.5j, atol=1e-15)
    np.testing.assert_allclose(rho.matrix[1, 0], 0.5j, atol=1e-15)


def test_pure_state_requires_normalization():
    with pytest.raises(NotNormalizedError):
        PureState(np.array([1.0, 1.0]))


def test_phase_quotient_equality():
    psi = random_pure(3, 5)
    rotated = PureState(np.exp(1j * 0.7) * psi.amplitudes)
    assert psi == rotated
    assert psi != random_pure(3, 6)


def test_dephase_kills_off_diagonals():
    rho = from_pure(PureState(np.array([1.0, 1.0]) / np.sqrt(2)))
    np.testing.assert_allclose(dephase(rho).matrix, np.diag([0.5, 0.5]), atol=1e-15)


def test_dephase_idempotent_exactly():
    rho = random_density(4, 3, 9)
    once = dephase(rho)
    twice = dephase(once)
    assert np.array_equal(once.matrix, twice.matrix)


def test_dephase_uniform_superposition():
    amp = np.ones(3, dtype=complex) / np.sqrt(3)
    rho = dephase(from_pure(PureState(amp)))
    np.testing.assert_allclose(rho.matrix, np.eye(3) / 3, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), dim=st.integers(2, 6))
def test_dephase_output_is_incoherent(seed, dim):
    rho = random_density(dim, dim, seed)
    deph = dephase(rho)
    assert off_diagonal_mass(deph) <= 1e-9
    assert np.array_equal(deph.matrix, dephase(deph).matrix)
    np.testing.assert_allclose(np.diagonal(deph.matrix).real, np.diagonal(rho.matrix).real, atol=0)


def test_is_incoherent_examples():
    assert off_diagonal_mass(DensityMatrix(np.diag([0.3, 0.7]))) <= 1e-9
    plus = from_pure(PureState(np.array([1.0, 1.0]) / np.sqrt(2)))
    assert off_diagonal_mass(plus) > 1e-9


def test_random_pure_deterministic_and_normalized():
    a = random_pure(3, 123)
    b = random_pure(3, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) <= 1e-12
    with pytest.raises(BadDimError):
        random_pure(1, 0)


def test_random_pure_haar_first_moment():
    # Monte Carlo oracle: Haar average of |<0|psi>|^2 in d=2 is 1/2.
    total = 0.0
    n = 10_000
    for i in range(n):
        total += abs(random_pure(2, [777, i]).amplitudes[0]) ** 2
    assert abs(total / n - 0.5) <= 0.02


def test_random_density_ranks_and_determinism():
    pure = random_density(4, 1, 6)
    assert abs(purity(pure) - 1.0) <= 1e-10
    full = random_density(4, 4, 6)
    assert abs(np.trace(full.matrix).real - 1.0) <= 1e-12
    assert np.all(full.eigen.eigenvalues > 0)
    again = random_density(4, 4, 6)
    assert np.array_equal(full.matrix, again.matrix)
    with pytest.raises(BadRankError):
        random_density(3, 4, 0)


def test_density_matrix_validation():
    with pytest.raises(NotNormalizedError):
        DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(NonHermitianError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(NonFiniteError):
        DensityMatrix(np.diag([np.nan, 1.0]))


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.diag([0.6, 0.6]), NotNormalizedError),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), NonHermitianError),
        (np.diag([np.inf, 0.0]), NonFiniteError),
    ],
)
def test_stack_validation_raises_the_per_object_types(bad, error):
    good = np.eye(2) / 2
    with pytest.raises(error):
        DensityMatrix(bad)
    for stacked in (density_matrices, purity, mcs_deviation):
        with pytest.raises(error):
            stacked(np.stack([good, bad]))


def test_density_stacks_are_stacks_of_square_matrices():
    good = np.stack([np.eye(2) / 2, np.diag([0.25, 0.75])])
    np.testing.assert_array_equal(density_matrices(good), good)
    with pytest.raises(NonSquareError):
        density_matrices(np.ones((3, 2, 3)))
    with pytest.raises(NonSquareError):
        DensityMatrix(good)  # a DensityMatrix is one matrix


def test_state_json_round_trip():
    psi = random_pure(3, 11)
    back = state_from_dict(psi.to_dict())
    assert isinstance(back, PureState)
    assert np.array_equal(psi.amplitudes, back.amplitudes)

    rho = random_density(3, 2, 11)
    back_rho = state_from_dict(rho.to_dict())
    assert isinstance(back_rho, DensityMatrix)
    assert np.array_equal(rho.matrix, back_rho.matrix)


def test_state_from_dict_rejects_garbage():
    with pytest.raises(BadPayloadError):
        state_from_dict({"dim": 2, "kind": "pure", "re": [1.0], "im": [0.0, 0.0]})
    with pytest.raises(BadPayloadError):
        state_from_dict({"dim": 2, "kind": "other", "re": [1, 0], "im": [0, 0]})


def test_state_from_dict_caps_dim_at_16():
    def payloads(dim):
        mixed = (np.eye(dim) / dim).ravel().tolist()
        return (
            {"dim": dim, "kind": "pure", "re": [dim**-0.5] * dim, "im": [0.0] * dim},
            {"dim": dim, "kind": "density", "re": mixed, "im": [0.0] * dim**2},
        )

    for payload in payloads(16):
        assert state_from_dict(payload).dim == 16
    for payload in payloads(17):
        with pytest.raises(BadDimError):
            state_from_dict(payload)


# each of these int() would read as a dimension of 1 or 2
@pytest.mark.parametrize("dim", [2.7, 2.0, "2", 1.9, True, 1, 0])
def test_state_from_dict_rejects_non_integer_or_small_dim(dim):
    n = max(1, int(dim))
    payload = {"dim": dim, "kind": "pure", "re": [1.0] + [0.0] * (n - 1), "im": [0.0] * n}
    with pytest.raises(BadDimError):
        state_from_dict(payload)


def test_state_from_dict_accepts_numpy_integer_dim():
    payload = {"dim": np.int64(2), "kind": "pure", "re": [1.0, 0.0], "im": [0.0, 0.0]}
    assert state_from_dict(payload).dim == 2


def test_fidelity_pure():
    psi = random_pure(4, 2)
    assert abs(fidelity_pure(from_pure(psi), psi) - 1.0) <= 1e-12
    other = PureState(np.eye(4)[0])
    assert fidelity_pure(from_pure(other), psi) == pytest.approx(abs(psi.amplitudes[0]) ** 2)


def test_off_diagonal_mass():
    rho = DensityMatrix(np.array([[0.5, 0.25], [0.25, 0.5]]))
    assert states.off_diagonal_mass(rho) == pytest.approx(0.5, abs=1e-15)
