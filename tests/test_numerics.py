import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_lab import numerics
from coherence_lab.errors import NonFiniteError, NonHermitianError, NonSquareError, NotPSDError


def reconstruct(eig):
    """V diag(w) V† of an eigendecomposition, or of each one in a stack."""
    v = eig.eigenvectors
    return (v * eig.eigenvalues[..., None, :]) @ numerics.dagger(v)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_eigen_diagonal_input():
    eig = numerics.hermitian_eigen(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 3.0], atol=0)
    np.testing.assert_allclose(eig.eigenvectors, np.eye(3), atol=0)


def test_eigen_pauli_x():
    eig = numerics.hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigen_random_5x5_reconstruction():
    a = random_hermitian(5, 42)
    eig = numerics.hermitian_eigen(a)
    err = numerics.frobenius(a - reconstruct(eig))
    assert err <= 1e-10 * max(1.0, numerics.frobenius(a))


@pytest.mark.parametrize("dim", range(2, 9))
def test_eigen_reconstruction_and_unitarity(dim):
    for i in range(50):
        a = random_hermitian(dim, [42, dim, i])
        eig = numerics.hermitian_eigen(a)
        scale = max(1.0, numerics.frobenius(a))
        assert numerics.frobenius(a - reconstruct(eig)) <= 1e-10 * scale
        v = eig.eigenvectors
        assert numerics.frobenius(v.conj().T @ v - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(eig.eigenvalues) >= -1e-12)


def haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def degenerate_spectra(draw):
    """(dim, spectrum) with dim in 1..8; from dim 2 on, some eigenvalue repeats."""
    dim = draw(st.integers(1, 8))
    n_levels = max(1, dim - 1)
    levels = draw(st.lists(st.floats(-10.0, 10.0), min_size=n_levels, max_size=n_levels))
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=dim, max_size=dim))
    return dim, np.array([levels[i] for i in picks])


@settings(max_examples=200, deadline=None)
@given(spectrum=degenerate_spectra(), seed=st.integers(0, 10**9))
def test_eigen_degenerate_spectra(spectrum, seed):
    dim, w = spectrum
    u = haar_unitary(dim, seed)
    a = (u * w) @ u.conj().T
    eig = numerics.hermitian_eigen(a)
    scale = max(1.0, numerics.frobenius(a))
    assert numerics.frobenius(a - reconstruct(eig)) <= 1e-10 * scale
    v = eig.eigenvectors
    assert numerics.frobenius(v.conj().T @ v - np.eye(dim)) <= 1e-10
    assert np.all(np.diff(eig.eigenvalues) >= 0)


def test_eigen_rejects_non_square():
    with pytest.raises(NonSquareError):
        numerics.hermitian_eigen(np.ones((2, 3)))


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        numerics.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_square_matrix_rejects_non_finite_entries():
    with pytest.raises(NonFiniteError):
        numerics.as_square_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_spectral_calls_take_stacks_and_round_as_one_matrix():
    mats = np.stack([random_hermitian(4, [9, i]) for i in range(6)]).reshape(2, 3, 4, 4)
    eig = numerics.hermitian_eigen(mats)
    assert eig.eigenvalues.shape == (2, 3, 4) and eig.eigenvectors.shape == (2, 3, 4, 4)
    psd = mats @ mats  # squares of Hermitian matrices are PSD
    roots = numerics.psd_sqrt(psd)
    for i in range(2):
        for j in range(3):
            one = numerics.hermitian_eigen(mats[i, j])
            np.testing.assert_array_equal(eig.eigenvalues[i, j], one.eigenvalues)
            np.testing.assert_array_equal(eig.eigenvectors[i, j], one.eigenvectors)
            np.testing.assert_array_equal(roots[i, j], numerics.psd_sqrt(psd[i, j]))
    np.testing.assert_allclose(reconstruct(eig), mats, atol=1e-12)
    skewed = mats.copy()
    skewed[1, 2, 0, 1] += 1.0
    with pytest.raises(NonHermitianError):
        numerics.hermitian_eigen(skewed)
    with pytest.raises(NotPSDError):
        numerics.psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -1e-6])]))


def test_density_matrix_spectrum_sums_to_one():
    rng = np.random.default_rng(7)
    for dim in (2, 4, 6):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        eig = numerics.hermitian_eigen(rho)
        assert abs(eig.eigenvalues.sum() - 1.0) <= 1e-10


def test_psd_sqrt_identity():
    np.testing.assert_allclose(numerics.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)


def test_psd_sqrt_projector_is_itself():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    np.testing.assert_allclose(numerics.psd_sqrt(proj), proj, atol=1e-12)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(numerics.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5, 8):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = g @ g.conj().T
        s = numerics.psd_sqrt(a)
        assert numerics.frobenius(s @ s - a) <= 1e-8 * max(1.0, numerics.frobenius(a))


def test_psd_sqrt_clamps_small_negatives():
    s = numerics.psd_sqrt(np.diag([1.0, -0.5e-9]))
    np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_sqrt_rejects_clearly_negative():
    with pytest.raises(NotPSDError):
        numerics.psd_sqrt(np.diag([1.0, -1e-6]))
