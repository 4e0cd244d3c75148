import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_lab.channels import (
    CPO_GRAM_RATIO,
    IncoherentUnitary,
    KrausChannel,
    apply_channel,
    apply_selective,
    canonical_form,
    channel_from_dict,
    is_cpo,
    is_incoherent_channel,
    random_incoherent_channel,
    random_incoherent_unitary,
    unitary_from_dict,
)
from coherence_lab.errors import (
    BadDimError,
    BadParamsError,
    BadPayloadError,
    DimMismatchError,
    IncompleteChannelError,
    NotIncoherentError,
)
from coherence_lab.states import (
    DensityMatrix,
    PureState,
    from_pure,
    density_matrices,
    off_diagonal_mass,
    random_density,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def projective_channel(dim):
    ops = []
    for i in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[i, i] = 1.0
        ops.append(k)
    return KrausChannel(tuple(ops))


def plus_state(dim=2):
    return PureState(np.ones(dim, dtype=complex) / np.sqrt(dim))


def test_completeness_enforced():
    with pytest.raises(IncompleteChannelError):
        KrausChannel((np.diag([1.0, 0.5]),))


def test_is_incoherent_channel_examples():
    assert is_incoherent_channel(projective_channel(2))
    assert not is_incoherent_channel(KrausChannel((HADAMARD,)))
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert is_incoherent_channel(KrausChannel((perm,)))


def test_canonical_form_permutation_with_phases():
    u = IncoherentUnitary(perm=(2, 0, 1), phases=(0.3, 1.1, 5.0))
    form = canonical_form(u.as_channel())
    assert form.weights[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(form.moduli[0], np.ones(3), atol=1e-12)
    assert list(form.column_maps[0]) == [2, 0, 1]
    np.testing.assert_allclose(form.phases[0], [0.3, 1.1, 5.0], atol=1e-12)


def test_canonical_form_projective():
    form = canonical_form(projective_channel(2))
    np.testing.assert_allclose(form.weights, [0.5, 0.5], atol=1e-12)
    # each operator has modulus sqrt(d)=sqrt(2) on its own column, zero elsewhere
    np.testing.assert_allclose(sorted(form.moduli[0]), [0.0, np.sqrt(2)], atol=1e-12)


def test_canonical_form_round_trip():
    for seed in range(5):
        ch = random_incoherent_channel(3, 3, seed)
        rebuilt = canonical_form(ch).reconstruct()
        for a, b in zip(ch.kraus, rebuilt.kraus):
            assert np.max(np.abs(a - b)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 8), n_kraus=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_canonical_form_round_trip_acts_like_the_channel(dim, n_kraus, seed):
    rng = np.random.default_rng(seed)
    ch = random_incoherent_channel(dim, n_kraus, rng)
    rebuilt = canonical_form(ch).reconstruct()
    assert rebuilt.n_kraus == n_kraus
    rhos = np.stack([random_density(dim, rank, rng).matrix for rank in (1, dim)])
    np.testing.assert_allclose(apply_channel(rebuilt, rhos), apply_channel(ch, rhos), rtol=0, atol=1e-12)


def test_canonical_form_rejects_coherent_channel():
    with pytest.raises(NotIncoherentError):
        canonical_form(KrausChannel((HADAMARD,)))


def test_apply_identity():
    rho = random_density(3, 2, 1)
    out = apply_channel(KrausChannel((np.eye(3),)), rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)


def test_apply_projective_dephases():
    out = apply_channel(projective_channel(2), from_pure(plus_state()))
    np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-15)


def test_apply_permutation_on_diagonal():
    u = IncoherentUnitary(perm=(1, 2, 0), phases=(0.0, 0.0, 0.0))
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    out = apply_channel(u.as_channel(), rho)
    np.testing.assert_allclose(np.diag(out.matrix).real, [0.2, 0.5, 0.3], atol=1e-15)


def test_apply_dim_mismatch():
    with pytest.raises(DimMismatchError):
        apply_channel(KrausChannel((np.eye(2),)), random_density(3, 1, 0))


def test_selective_takes_one_matrix_of_the_channel_dim():
    ch = projective_channel(2)
    with pytest.raises(DimMismatchError):
        apply_selective(ch, random_density(3, 1, 0))
    with pytest.raises(DimMismatchError):
        apply_selective(ch, np.stack([np.eye(2) / 2] * 3))  # a stack has no branch list


def test_selective_projective_on_plus():
    outcomes = apply_selective(projective_channel(2), from_pure(plus_state()))
    assert len(outcomes) == 2
    for i, (p, branch) in enumerate(outcomes):
        assert p == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros((2, 2))
        expected[i, i] = 1.0
        np.testing.assert_allclose(branch.matrix, expected, atol=1e-12)


def test_selective_unitary_single_outcome():
    u = random_incoherent_unitary(3, 4)
    outcomes = apply_selective(u.as_channel(), random_density(3, 3, 4))
    assert len(outcomes) == 1
    assert outcomes[0][0] == pytest.approx(1.0, abs=1e-12)


def test_selective_consistent_with_nonselective():
    for seed in range(10):
        rho = random_density(3, 2, [20, seed])
        ch = random_incoherent_channel(3, 3, [21, seed])
        total = sum(p * branch.matrix for p, branch in apply_selective(ch, rho))
        direct = apply_channel(ch, rho).matrix
        assert np.max(np.abs(total - direct)) <= 1e-12
        assert abs(sum(p for p, _ in apply_selective(ch, rho)) - 1.0) <= 1e-10


def test_realize_unitary_examples():
    ident = IncoherentUnitary(perm=(0, 1), phases=(0.0, 0.0))
    np.testing.assert_allclose(ident.matrix(), np.eye(2), atol=0)
    swap = IncoherentUnitary(perm=(1, 0), phases=(0.0, 0.0))
    np.testing.assert_allclose(swap.matrix(), np.array([[0, 1], [1, 0]]), atol=0)
    phase = IncoherentUnitary(perm=(0, 1), phases=(0.0, np.pi))
    np.testing.assert_allclose(phase.matrix(), np.diag([1.0, -1.0]), atol=1e-15)


def test_incoherent_unitary_group_structure():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_incoherent_unitary(4, rng)
        random_incoherent_unitary(4, rng)  # the second draw of each pair, as before
        inv = a.inverse()
        np.testing.assert_allclose(inv.matrix(), a.matrix().conj().T, atol=1e-12)


def test_incoherent_unitary_validation():
    with pytest.raises(BadParamsError):
        IncoherentUnitary(perm=(0, 0), phases=(0.0, 0.0))
    with pytest.raises(BadParamsError):
        IncoherentUnitary(perm=(0, 1), phases=(0.0,))
    # a perm entry must be an integer, not a float, a string or a bool, and a phase finite
    for perm in ((0, 1.7), (1.0, 0.0), ("1", "0"), (True, False)):
        with pytest.raises(BadParamsError, match="integers"):
            IncoherentUnitary(perm=perm, phases=(0.0, 0.0))
    for phases in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(BadParamsError, match="finite"):
            IncoherentUnitary(perm=(1, 0), phases=phases)
    assert IncoherentUnitary(perm=np.array([1, 0]), phases=(0.0, 7.0)).perm == (1, 0)


def test_is_cpo_examples():
    perm_phase = IncoherentUnitary(perm=(1, 2, 0), phases=(0.1, 2.2, 4.4))
    assert is_cpo(perm_phase.as_channel())
    assert not is_cpo(KrausChannel((HADAMARD,)))  # unitary but coherent
    assert not is_cpo(projective_channel(2))  # incoherent but not unitary


def test_is_cpo_handles_redundant_kraus_sets():
    # two proportional copies of the same unitary still describe a unitary map
    u = IncoherentUnitary(perm=(1, 0), phases=(0.4, 1.9)).matrix()
    ch = KrausChannel((u / np.sqrt(2), u * np.exp(1j * 0.8) / np.sqrt(2)))
    assert is_cpo(ch)


def choi_says_unitary(ch, tol):
    """Reference: the Choi matrix sum_n |K_n>><<K_n| has one dominant eigenvalue."""
    vecs = np.stack([k.reshape(-1) for k in ch.kraus])
    w = np.linalg.eigvalsh(vecs.T @ vecs.conj())
    return bool(w[-2] <= tol * w[-1])


def sample_channel(rng, dim, n_kraus, kind):
    """A random incoherent channel, an incoherent unitary split into n_kraus
    proportional operators, or a coherent unitary so split."""
    if kind == "random":
        return random_incoherent_channel(dim, n_kraus, rng)
    if kind == "split":
        u = random_incoherent_unitary(dim, rng).matrix()
    else:
        u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    weights = rng.dirichlet(np.ones(n_kraus))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_kraus))
    return KrausChannel(tuple(np.sqrt(p) * z * u for p, z in zip(weights, phases)))


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_is_cpo_agrees_with_choi_spectrum(dim, seed):
    """Each channel's verdict is the Choi reference's, and Kraus sets stacked
    per Kraus count, or zero-padded to six operators as the harness stacks
    them, give each set its own channel's verdict."""
    rng = np.random.default_rng(seed)
    for n_kraus in range(1, 5):
        chans = [sample_channel(rng, dim, n_kraus, kind) for kind in ("random", "split", "coherent") * 2]
        for ch in chans:
            assert is_cpo(ch) == (is_incoherent_channel(ch) and choi_says_unitary(ch, CPO_GRAM_RATIO))
        assert all(is_cpo(ch) for ch in chans[1::3])  # the split incoherent unitaries
        assert not any(is_incoherent_channel(ch) for ch in chans[2::3])
        stack = np.stack([np.stack(ch.kraus) for ch in chans])
        assert is_cpo(stack).tolist() == [is_cpo(ch) for ch in chans]
        padded = np.concatenate([stack, np.zeros((len(chans), 6 - n_kraus, dim, dim))], axis=1)
        assert is_cpo(padded).tolist() == [is_cpo(ch) for ch in chans]
        assert is_incoherent_channel(stack).tolist() == [is_incoherent_channel(ch) for ch in chans]
        assert not is_cpo(stack[2::3]).any()  # no set of this stack is incoherent
        # a stack with leading axes gives a verdict per set in the same layout
        assert is_cpo(stack.reshape(2, 3, *stack.shape[1:])).tolist() == np.reshape(
            [is_cpo(ch) for ch in chans], (2, 3)).tolist()


def test_is_cpo_tol_is_the_entry_tolerance():
    # a swap with a 1e-6 stray entry, made exactly unitary: a CPO only at a loose entry tolerance
    w, _, vh = np.linalg.svd(np.array([[1e-6, 1.0], [1.0, 0.0]]))
    ch = KrausChannel((w @ vh,))
    assert is_cpo(ch, 1e-3) and is_incoherent_channel(ch, 1e-3)
    assert not is_cpo(ch) and not is_incoherent_channel(ch)
    stack = np.stack([np.stack(ch.kraus)] * 2)
    assert is_cpo(stack, 1e-3).tolist() == [True, True] and not is_cpo(stack).any()


def test_random_incoherent_channel_properties():
    for seed in range(8):
        ch = random_incoherent_channel(4, 3, seed)
        gram = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10
        assert is_incoherent_channel(ch)
    a = random_incoherent_channel(3, 2, 99)
    b = random_incoherent_channel(3, 2, 99)
    for ka, kb in zip(a.kraus, b.kraus):
        assert np.array_equal(ka, kb)
    with pytest.raises(BadParamsError):
        random_incoherent_channel(3, 0, 0)


def test_compose_with_identity_is_identity_map():
    ch = random_incoherent_channel(3, 2, 5)
    composed = KrausChannel(tuple(np.eye(3) @ k for k in ch.kraus))
    rho = random_density(3, 3, 5)
    assert np.max(np.abs(apply_channel(composed, rho).matrix - apply_channel(ch, rho).matrix)) <= 1e-12


def test_compose_permutations():
    a = IncoherentUnitary(perm=(1, 2, 0), phases=(0.0, 0.0, 0.0))
    b = IncoherentUnitary(perm=(2, 0, 1), phases=(0.0, 0.0, 0.0))
    composed = KrausChannel(
        tuple(ka @ kb for ka in a.as_channel().kraus for kb in b.as_channel().kraus)
    )
    np.testing.assert_allclose(composed.kraus[0], a.matrix() @ b.matrix(), atol=1e-15)
    assert is_incoherent_channel(composed)


def test_compose_preserves_incoherence():
    for seed in range(6):
        a = random_incoherent_channel(3, 2, [30, seed])
        b = random_incoherent_channel(3, 3, [31, seed])
        both = KrausChannel(tuple(ka @ kb for ka in a.kraus for kb in b.kraus))
        assert is_incoherent_channel(both)
        rho = random_density(3, 2, [32, seed])
        chained = apply_channel(a, apply_channel(b, rho))
        assert np.max(np.abs(apply_channel(both, rho).matrix - chained.matrix)) <= 1e-12


def test_incoherent_channels_preserve_incoherence():
    for seed in range(10):
        ch = random_incoherent_channel(3, 3, [40, seed])
        diag = DensityMatrix(np.diag(np.random.default_rng([41, seed]).dirichlet(np.ones(3))))
        assert off_diagonal_mass(apply_channel(ch, diag)) <= 1e-9
        for _, branch in apply_selective(ch, diag):
            assert off_diagonal_mass(branch) <= 1e-9


def test_channel_from_dict_caps_dim_at_16():
    def identity(dim):
        return {"dim": dim, "kraus": [{"re": np.eye(dim).ravel().tolist(), "im": [0.0] * dim**2}]}

    assert channel_from_dict(identity(16)).dim == 16
    with pytest.raises(BadDimError):
        channel_from_dict(identity(17))


# each of these int() would read as a dimension of 1 or 2
@pytest.mark.parametrize("dim", [2.7, 2.0, "2", 1.9, True, 1, 0])
def test_channel_from_dict_rejects_non_integer_or_small_dim(dim):
    n = max(1, int(dim))
    payload = {"dim": dim, "kraus": [{"re": np.eye(n).ravel().tolist(), "im": [0.0] * n**2}]}
    with pytest.raises(BadDimError):
        channel_from_dict(payload)


@pytest.mark.parametrize("payload", [
    {"dim": 2, "kraus": [{"re": [1, 0, 0, 1]}]},
    {"dim": 2, "kraus": [1]},
    {"dim": 2, "kraus": 5},
    {"dim": 2, "kraus": [{"re": [1, 0, 0, 1], "im": [0, 0, 0]}]},
    {"dim": 2, "kraus": [{"re": ["a", 0, 0, 1], "im": [0, 0, 0, 0]}]},
    {"kraus": []},
    [2],
])
def test_channel_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(BadPayloadError):
        channel_from_dict(payload)


@pytest.mark.parametrize("payload", [
    {"perm": [1, 0]},
    {"perm": [1, 0], "phases": 0.5},
    {"perm": ["x", 0], "phases": [0.0, 0.0]},
    {"perm": [0, 1.7], "phases": [0, 0]},
    {"perm": ["1", "0"], "phases": [0, 0]},
    {"perm": [True, False], "phases": [0, 0]},
    {"perm": [1, 0], "phases": ["nan", 0]},
    {"perm": [1, 0], "phases": [0, float("inf")]},
])
def test_unitary_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(BadPayloadError):
        unitary_from_dict(payload)


def test_channel_json_round_trip():
    ch = random_incoherent_channel(3, 2, 77)
    back = channel_from_dict(ch.to_dict())
    for a, b in zip(ch.kraus, back.kraus):
        assert np.array_equal(a, b)
    u = random_incoherent_unitary(3, 77)
    u_back = unitary_from_dict(u.to_dict())
    assert u.perm == u_back.perm
    np.testing.assert_allclose(u.phases, u_back.phases, atol=0)


def _is_density_matrix(m, tol=1e-12):
    w = np.linalg.eigvalsh(m)
    return (
        np.abs(m - m.conj().T).max() <= tol
        and abs(np.trace(m) - 1.0) <= tol
        and w[0] >= -tol
    )


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(2, 8),
    rank_frac=st.floats(0.0, 1.0),
    n_kraus=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_outputs_stay_density_matrices(dim, rank_frac, n_kraus, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, 1 + int(rank_frac * (dim - 1)), rng)
    ch = random_incoherent_channel(dim, n_kraus, rng)
    u = random_incoherent_unitary(dim, rng)
    out = apply_channel(ch, rho)
    assert _is_density_matrix(out.matrix)
    assert _is_density_matrix(u.conjugate(rho).matrix)
    branches = apply_selective(ch, rho)
    assert abs(sum(p for p, _ in branches) - 1.0) <= 1e-12
    for p, branch in branches:
        assert 0.0 < p <= 1.0 + 1e-12
        assert _is_density_matrix(branch.matrix, tol=1e-12 / p)
    # a stack in, a stack out, each matrix as it comes out alone
    stack = np.stack([rho.matrix, out.matrix])
    outs = density_matrices(apply_channel(ch, stack))
    np.testing.assert_array_equal(outs[0], out.matrix)
    np.testing.assert_array_equal(outs[1], apply_channel(ch, out).matrix)
