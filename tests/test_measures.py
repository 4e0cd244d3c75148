import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coherence_lab import measures
from coherence_lab.channels import random_incoherent_unitary
from coherence_lab.errors import BadParamsError, DimMismatchError
from coherence_lab.measures import (
    DiagonalObservable,
    OptimizerConfig,
    c_int_rand,
    c_l1,
    c_rel_ent,
    c_skew,
    c_skew_pure,
    c_trivial,
    convex_roof_ensemble,
    default_observable,
    l1_pure,
    measure_by_name,
    rel_ent_pure,
    shannon_entropy,
)
from coherence_lab.mcs import is_mcs, mcs_deviation, mcs_sample, uniform_superposition
from coherence_lab.states import (
    DensityMatrix,
    PureState,
    dephase,
    from_pure,
    off_diagonal_mass,
    purity,
    random_density,
    random_pure,
)


def state_from_weights(weights):
    return PureState(np.sqrt(np.asarray(weights, dtype=float)))


# ---------------------------------------------------------------------------
# l1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_l1_maximal_on_uniform_superposition(dim):
    rho = from_pure(uniform_superposition(dim))
    assert c_l1(rho) == pytest.approx(dim - 1, abs=1e-12)


def test_l1_zero_on_diagonal():
    assert c_l1(DensityMatrix(np.diag([0.2, 0.3, 0.5]))) == 0.0


def test_l1_hand_value():
    rho = DensityMatrix(np.array([[0.5, 0.25], [0.25, 0.5]]))
    assert c_l1(rho) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_l1_bounded_by_dim_minus_one(dim):
    for seed in range(50):
        rho = random_density(dim, 1 + seed % dim, [50, dim, seed])
        assert c_l1(rho) <= dim - 1 + 1e-9


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------


def test_rel_ent_zero_on_diagonal():
    assert c_rel_ent(DensityMatrix(np.diag([0.25, 0.75]))) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rel_ent_log2d_on_uniform_superposition(dim):
    # dephased state is uniform (entropy log2 d); a pure state has zero entropy
    rho = from_pure(uniform_superposition(dim))
    assert c_rel_ent(rho) == pytest.approx(np.log2(dim), abs=1e-10)


def test_rel_ent_one_bit_on_plus():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert c_rel_ent(from_pure(plus)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rel_ent_bounded_by_log2d(dim):
    for seed in range(50):
        rho = random_density(dim, 1 + seed % dim, [51, dim, seed])
        value = c_rel_ent(rho)
        assert -1e-10 <= value <= np.log2(dim) + 1e-9


def test_shannon_entropy_conventions():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# trivial
# ---------------------------------------------------------------------------


def test_trivial_values():
    assert c_trivial(DensityMatrix(np.diag([1 / 3, 2 / 3]))) == 0.0
    plus = from_pure(PureState(np.array([1.0, 1.0]) / np.sqrt(2)))
    assert c_trivial(plus) == 1.0
    nudged = DensityMatrix(np.array([[0.5, 1e-3], [1e-3, 0.5]]))
    assert c_trivial(nudged) == 1.0


# ---------------------------------------------------------------------------
# skew information
# ---------------------------------------------------------------------------


def test_skew_zero_on_diagonal():
    rho = DensityMatrix(np.diag([0.2, 0.5, 0.3]))
    assert c_skew(rho, default_observable(3)) == pytest.approx(0.0, abs=1e-12)


def test_skew_plus_state_quarter_gap_squared():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    k = DiagonalObservable([0.5, 3.5])
    # single pair: w0*w1*(k0-k1)^2 = (1/4)*9
    assert c_skew(from_pure(plus), k) == pytest.approx((0.5 - 3.5) ** 2 / 4, abs=1e-10)
    assert c_skew_pure(plus.probabilities, k) == pytest.approx(2.25, abs=1e-12)


def test_skew_hand_value_5_9():
    psi = state_from_weights([1 / 2, 1 / 3, 1 / 6])
    k = default_observable(3)
    # pairs: (0,1) 1/2*1/3*1 + (0,2) 1/2*1/6*4 + (1,2) 1/3*1/6*1 = 5/9
    assert c_skew(from_pure(psi), k) == pytest.approx(5 / 9, abs=1e-10)
    assert c_skew_pure(psi.probabilities, k) == pytest.approx(5 / 9, abs=1e-15)


def test_skew_pure_hand_value_17_36():
    psi = state_from_weights([1 / 6, 1 / 2, 1 / 3])
    # pairs: 1/6*1/2*1 + 1/6*1/3*4 + 1/2*1/3*1 = 17/36
    assert c_skew_pure(psi.probabilities, default_observable(3)) == pytest.approx(17 / 36, abs=1e-15)


def test_skew_pure_basis_state_zero():
    assert c_skew_pure(PureState(np.eye(3)[0]).probabilities, default_observable(3)) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_skew_matches_pure_formula(dim):
    k = default_observable(dim)
    for i in range(1000):
        psi = random_pure(dim, [60, dim, i])
        assert abs(c_skew(from_pure(psi), k) - c_skew_pure(psi.probabilities, k)) <= 1e-9


def test_skew_dim_mismatch():
    with pytest.raises(DimMismatchError):
        c_skew(random_density(3, 1, 0), default_observable(2))


def test_observable_requires_distinct_values():
    with pytest.raises(BadParamsError):
        DiagonalObservable([1.0, 1.0 + 1e-9])


# ---------------------------------------------------------------------------
# intrinsic randomness
# ---------------------------------------------------------------------------


def test_int_rand_equals_rel_ent_on_pure():
    for dim in (2, 3, 4):
        rho = from_pure(uniform_superposition(dim))
        assert c_int_rand(rho) == c_rel_ent(rho)
        assert c_int_rand(rho) == pytest.approx(np.log2(dim), abs=1e-10)
    for i in range(20):
        rho = from_pure(random_pure(3, [70, i]))
        assert c_int_rand(rho) == c_rel_ent(rho)


def test_int_rand_zero_on_maximally_mixed():
    assert c_int_rand(DensityMatrix(np.eye(2) / 2)) <= 1e-9
    assert c_int_rand(DensityMatrix(np.eye(3) / 3)) <= 1e-9


def test_int_rand_zero_on_diagonal_mixed():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    assert c_int_rand(rho) <= 1e-9


def test_int_rand_never_exceeds_eigendecomposition_average():
    opt = OptimizerConfig(restarts=8, seed=3)
    for i in range(10):
        rho = random_density(3, 2, [71, i])
        eig = rho.eigen
        keep = eig.eigenvalues > 1e-12
        avg = sum(
            q * rel_ent_pure(PureState(eig.eigenvectors[:, k] / np.linalg.norm(eig.eigenvectors[:, k])).probabilities)
            for q, k in zip(eig.eigenvalues[keep], np.nonzero(keep)[0])
        )
        assert c_int_rand(rho, opt) <= avg + 1e-9


def test_convex_roof_ensemble_reconstructs_state():
    opt = OptimizerConfig(restarts=4, seed=1)
    rho = random_density(3, 3, 8)
    value, ensemble = convex_roof_ensemble(rho, opt)
    assert value >= -1e-12
    assert abs(ensemble.weights.sum() - 1.0) <= 1e-10
    assert np.max(np.abs(ensemble.reconstruction() - rho.matrix)) <= 1e-9


def test_convex_roof_beats_eigenbasis_when_phases_help():
    # equal mixture of two coherent states whose coherences cancel:
    # 0.5|+><+| + 0.5|-><-| = I/2 has a decomposition into incoherent states.
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    minus = PureState(np.array([1.0, -1.0]) / np.sqrt(2))
    rho = DensityMatrix(
        0.5 * np.outer(plus.amplitudes, plus.amplitudes.conj())
        + 0.5 * np.outer(minus.amplitudes, minus.amplitudes.conj())
    )
    assert c_int_rand(rho, OptimizerConfig(restarts=4, seed=0)) <= 1e-9


# c_int_rand values on random_density(d, d, seed) with optimizer seed 5; the
# restarts=0 and max_iterations=1 ids also pin the pair order of a pass.
ROOF_PINS = {2: [95, 2, 0], 3: [95, 3, 1], 4: [95, 4, 1]}


TRAJECTORY_PINS = [
    (2, {}, 0.43459260971898417),
    (2, {"restarts": 0}, 0.43459260971898417),
    (2, {"max_iterations": 1}, 0.4557604265761247),
    (3, {}, 0.5873360561418296),
    (3, {"restarts": 0}, 0.5873360561418296),
    (3, {"max_iterations": 1}, 0.6163685541549756),
    (4, {}, 1.3305417383757168),
    (4, {"restarts": 0}, 1.338227861070928),
    (4, {"max_iterations": 1}, 1.3739602098637977),
]


# ids name the case, not the pinned value, so that re-deriving a pin keeps its id
@pytest.mark.parametrize(
    "dim, opt_kwargs, expected",
    TRAJECTORY_PINS,
    ids=[f"d{d}-" + ("-".join(f"{k}{v}" for k, v in kw.items()) or "default") for d, kw, _ in TRAJECTORY_PINS],
)
def test_int_rand_trajectory_pinned(dim, opt_kwargs, expected):
    rho = random_density(dim, dim, ROOF_PINS[dim])
    assert abs(c_int_rand(rho, OptimizerConfig(seed=5, **opt_kwargs)) - expected) <= 1e-12


def _circle_rounds(m):
    """The circle method's rounds of row pairs i < j of m rows: round k pairs i
    with 2k - i mod n - 1, and with n - 1 the row that would pair with itself
    (n = m + m % 2; for odd m, row n - 1 = m is none and that row sits out)."""
    n, rounds = m + m % 2, []
    for k in range(n - 1):
        rounds.append([])
        for i in range(n - 1):
            j = (2 * k - i) % (n - 1)
            j = n - 1 if j == i else j
            if i < j < m:
                rounds[-1].append((i, j))
    return rounds


@pytest.mark.parametrize("m", range(1, 17))
def test_round_robin_schedule_covers_each_pair_once(m):
    rounds = measures._round_robin(m)
    assert rounds.shape == (m - 1 + m % 2, m // 2, 2) and rounds.dtype.kind == "i"
    pairs = [tuple(p) for r in rounds.tolist() for p in r]
    assert sorted(pairs) == [(i, j) for i in range(m) for j in range(i + 1, m)]
    for r in rounds:
        assert np.unique(r).size == r.size  # no row twice in a round
    # the rounds come in the order the reference below sweeps them
    assert [sorted(map(tuple, r)) for r in rounds.tolist()] == _circle_rounds(m)


def _scalar_refine(w, b, max_iterations, floor):
    """Reference: the coordinate descent on one isometry, one trial rotation at
    a time, over the row pairs in the circle method's round-by-round order."""

    def contrib(col):
        a = np.abs(col) ** 2
        p, big = a.sum(), a[a > 1e-15]
        return 0.0 if p <= 1e-15 else p * np.log2(p) - (big * np.log2(big)).sum()

    w, members = w.copy(), b @ w.T
    contribs = [contrib(members[:, i]) for i in range(w.shape[0])]
    passes, step = 0, 0.5
    while step >= floor and passes < max_iterations:
        for _ in range(3):
            improving, passes = False, passes + 1
            for i, j in (pair for r in _circle_rounds(w.shape[0]) for pair in r):
                if contribs[i] + contribs[j] <= 1e-14:
                    continue
                for phi in (0.0, 0.5 * np.pi):
                    for t in (step, -step):
                        c, s = (1 - t * t) / (1 + t * t), 2 * t * np.exp(1j * phi) / (1 + t * t)
                        rot = np.array([[c, -s], [np.conj(s), c]])
                        new = rot @ members[:, [i, j]].T
                        gain = contribs[i] + contribs[j] - contrib(new[0]) - contrib(new[1])
                        if gain > 1e-14:
                            members[:, [i, j]] = new.T
                            w[[i, j]] = rot @ w[[i, j]]
                            contribs[i], contribs[j] = contrib(new[0]), contrib(new[1])
                            improving = True
            if sum(contribs) <= 1e-12:
                return w, sum(contribs)
            if not improving or passes >= max_iterations:
                break
        step *= 0.5
    return w, sum(contribs)


# convex_roof_ensemble(random_density(d, r, [97, d, r, s]), OptimizerConfig(seed=s))
# values of the optimizer that mixed every state into d^2 members
@pytest.mark.parametrize(
    "dim, rank, seed, d2_value",
    [
        (3, 2, 0, 0.9757829419298214),
        (3, 2, 1, 0.835463997227176),
        (4, 2, 0, 1.0365354764587424),
        (4, 2, 1, 1.0684851700985447),
        (4, 3, 0, 1.198328084495238),
        (4, 3, 1, 1.2239732835619757),
    ],
)
def test_int_rand_rank_deficient_not_worse(dim, rank, seed, d2_value):
    rho = random_density(dim, rank, [97, dim, rank, seed])
    value, ensemble = convex_roof_ensemble(rho, OptimizerConfig(seed=seed))
    # a local optimizer's value moves with its member count; 1e-6 is the
    # ceiling the qubit closed-form test allows it above the exact roof
    assert c_rel_ent(rho) - 1e-9 <= value <= d2_value + 1e-6
    assert len(ensemble.states) <= rank * rank
    assert np.max(np.abs(ensemble.reconstruction() - rho.matrix)) <= 1e-9


@pytest.mark.parametrize(
    "dim, rank, max_iterations", [(2, 2, 500), (3, 2, 500), (3, 3, 4), (4, 2, 500), (4, 4, 3)]
)
def test_refine_stack_matches_one_at_a_time(dim, rank, max_iterations):
    rho = random_density(dim, rank, [99, dim, rank])
    q, v = np.linalg.eigh(rho.matrix)
    b = v[:, -rank:] * np.sqrt(q[-rank:])
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((3, dim * dim, rank)) + 1j * rng.standard_normal((3, dim * dim, rank))
    ws = np.linalg.qr(g)[0]
    cfg = OptimizerConfig(max_iterations=max_iterations)
    got_ws, got_values = measures._refine_mixer(ws, b, cfg, 1e-3)
    for w, got_w, got_value in zip(ws, got_ws, got_values):
        want_w, want_value = _scalar_refine(w, b, max_iterations, 1e-3)
        assert abs(got_value - want_value) <= 1e-12
        assert np.max(np.abs(got_w - want_w)) <= 1e-10


def test_int_rand_qubit_closed_form():
    # Yuan, Zhou, Cao & Ma, PRA 92, 022124 (2015): h((1 + sqrt(1 - 4|rho_01|^2)) / 2)
    for seed in range(20):
        rho = random_density(2, 2, [98, seed])
        lam = (1.0 + np.sqrt(1.0 - 4.0 * abs(rho.matrix[0, 1]) ** 2)) / 2.0
        closed = shannon_entropy([lam, 1.0 - lam])
        assert closed - 1e-9 <= c_int_rand(rho, OptimizerConfig(seed=seed)) <= closed + 1e-6


# A near-pure mixed qubit on which the optimizer, at optimizer seed 9003, once
# returned 6.3e-6 above the closed form; the benchmark's roof workload runs it.
FAULT_QUBIT = np.array([[0.2542961115499865, 0.30728842183620586 - 0.3041168840410126j],
                        [0.30728842183620586 + 0.3041168840410126j, 0.7457038884500135]])


def test_int_rand_fault_qubit_meets_closed_form():
    rho = DensityMatrix(FAULT_QUBIT)
    lam = (1.0 + np.sqrt(1.0 - 4.0 * abs(rho.matrix[0, 1]) ** 2)) / 2.0
    closed = shannon_entropy([lam, 1.0 - lam])
    assert abs(c_int_rand(rho, OptimizerConfig(seed=9003)) - closed) <= 1e-6


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_convex_roof_ensemble_on_pure_state_is_rel_ent(dim):
    # rank 1: one member, and no row pair to rotate
    rho = random_density(dim, 1, [96, dim])
    value, ensemble = convex_roof_ensemble(rho)
    assert abs(value - c_rel_ent(rho)) <= 1e-12
    assert len(ensemble.states) == 1
    assert np.max(np.abs(ensemble.reconstruction() - rho.matrix)) <= 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"restarts": -1},
        {"max_iterations": 0},
        {"restarts": float("nan")},
        {"max_iterations": float("nan")},
        {"seed": 1.5},
        {"seed": -1},
        {"restarts": True},
    ],
)
def test_optimizer_config_rejects_bad_values(kwargs):
    with pytest.raises(BadParamsError):
        OptimizerConfig(**kwargs)


# ---------------------------------------------------------------------------
# shared measure properties
# ---------------------------------------------------------------------------

VALID_MEASURES = ("l1", "rel_ent", "trivial")


@pytest.mark.parametrize("name", VALID_MEASURES)
def test_c1_vanishing_iff_incoherent(name, dim=3):
    m = measure_by_name(name, dim=dim)
    for i in range(60):
        rho = random_density(dim, 1 + i % dim, [80, i])
        assert m.evaluate(dephase(rho)) <= 1e-9
        if off_diagonal_mass(rho) > 1e-3:
            assert m.evaluate(rho) > 1e-6


@pytest.mark.parametrize("name", VALID_MEASURES + ("skew",))
def test_measures_nonnegative(name, dim=3):
    m = measure_by_name(name, dim=dim)
    for i in range(40):
        rho = random_density(dim, 1 + i % dim, [81, i])
        assert m.evaluate(rho) >= -1e-12


@pytest.mark.parametrize("name", VALID_MEASURES)
def test_invariance_under_relabeling_unitaries(name, dim=3):
    m = measure_by_name(name, dim=dim)
    for i in range(60):
        rho = random_density(dim, 1 + i % dim, [82, i])
        u = random_incoherent_unitary(dim, [83, i])
        assert abs(m.evaluate(u.conjugate(rho)) - m.evaluate(rho)) <= 1e-9


def test_int_rand_invariant_on_pure_inputs():
    m = measure_by_name("int_rand", dim=3)
    for i in range(40):
        rho = from_pure(random_pure(3, [84, i]))
        u = random_incoherent_unitary(3, [85, i])
        assert abs(m.evaluate(u.conjugate(rho)) - m.evaluate(rho)) <= 1e-9


@st.composite
def phased_simplex_points(draw):
    """A point p of the probability simplex in d = 2..6, and one phase per basis state."""
    dim = draw(st.integers(2, 6))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
    assume(w.sum() > 0.0)
    theta = np.array(draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=dim, max_size=dim)))
    return w / w.sum(), theta


@pytest.mark.parametrize("name", VALID_MEASURES + ("skew", "int_rand"))
@settings(max_examples=100, deadline=None)
@given(point=phased_simplex_points())
def test_pure_fast_path_matches_density_path(name, point):
    # a pure-state value depends on p = |psi|^2 only, whatever the phases
    p, theta = point
    m = measure_by_name(name, dim=p.size)
    psi = PureState(np.sqrt(p) * np.exp(1j * theta))
    assert abs(m.evaluate(from_pure(psi)) - m.evaluate_pure(p)) <= 1e-9


@st.composite
def simplex_stacks(draw):
    """A stack (n, k, d) of probability-simplex points in d = 2..8, zeros allowed."""
    dim = draw(st.integers(2, 8))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    size = n * k * dim
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    w = w.reshape(n, k, dim)
    assume(bool((w.sum(axis=-1) > 0.0).all()))
    return w / w.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("name", measures.MEASURE_NAMES)
@settings(max_examples=50, deadline=None)
@given(stack=simplex_stacks())
# a row whose squared sqrt-sum once rounded differently as a scalar than stacked
@example(stack=np.array([[[0.3644544063229941, 0.2589609735839338, 0.3765846200930721]]]))
def test_pure_measures_evaluate_stacks_row_by_row(name, stack):
    m = measure_by_name(name, dim=stack.shape[-1])
    values = m.evaluate_pure(stack)
    assert values.shape == stack.shape[:-1]
    rows = np.array([[m.evaluate_pure(p) for p in block] for block in stack])
    if name == "skew":
        np.testing.assert_allclose(values, rows, rtol=0, atol=1e-15)
    else:
        np.testing.assert_array_equal(values, rows)


@st.composite
def density_stacks(draw):
    """A stack (n, k, d, d) of random density matrices in d = 2..8, of ranks
    1..d, some of them dephased (incoherent) and some maximally coherent."""
    dim = draw(st.integers(2, 8))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    ranks = draw(st.lists(st.integers(1, dim), min_size=n * k, max_size=n * k))
    kinds = draw(st.lists(st.sampled_from(("random", "dephased", "mcs")), min_size=n * k, max_size=n * k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rhos = [random_density(dim, rank, rng) for rank in ranks]
    rhos = [
        dephase(rho) if kind == "dephased" else from_pure(mcs_sample(dim, rng)) if kind == "mcs" else rho
        for rho, kind in zip(rhos, kinds)
    ]
    return np.stack([rho.matrix for rho in rhos]).reshape(n, k, dim, dim)


@pytest.mark.parametrize("name", ("l1", "rel_ent", "skew", "trivial"))
@settings(max_examples=50, deadline=None)
@given(stack=density_stacks())
def test_measures_evaluate_density_stacks_row_by_row(name, stack):
    m = measure_by_name(name, dim=stack.shape[-1])
    values = m.evaluate(stack)
    assert values.shape == stack.shape[:-2]
    rows = np.array([[m.evaluate(DensityMatrix(x, check_psd=False)) for x in block] for block in stack])
    if name == "skew":
        np.testing.assert_allclose(values, rows, rtol=0, atol=1e-15)
    else:
        np.testing.assert_array_equal(values, rows)


@pytest.mark.parametrize("fn", (purity, mcs_deviation))
@settings(max_examples=50, deadline=None)
@given(stack=density_stacks())
def test_mcs_functions_evaluate_density_stacks_row_by_row(fn, stack):
    values = fn(stack)
    assert values.shape == stack.shape[:-2]
    rows = np.array([[fn(DensityMatrix(x, check_psd=False)) for x in block] for block in stack])
    np.testing.assert_array_equal(values, rows)
    if fn is mcs_deviation:
        for tol in (1e-12, 1e-8, 1e-3):
            verdicts = [[is_mcs(DensityMatrix(x, check_psd=False), tol) for x in block] for block in stack]
            np.testing.assert_array_equal(verdicts, values <= tol)


def test_int_rand_stack_takes_pure_rows_through_rel_ent():
    opt = OptimizerConfig(restarts=2, seed=4)
    rhos = [from_pure(random_pure(2, 31)), random_density(2, 2, 32), from_pure(random_pure(2, 33))]
    values = c_int_rand(np.stack([rho.matrix for rho in rhos]), opt)
    assert values.shape == (3,)
    assert values[0] == c_rel_ent(rhos[0]) and values[2] == c_rel_ent(rhos[2])
    assert values[1] == c_int_rand(rhos[1], opt) == convex_roof_ensemble(rhos[1], opt)[0]


def test_l1_pure_identity():
    psi = random_pure(4, 1)
    a = np.abs(psi.amplitudes)
    assert l1_pure(psi.probabilities) == pytest.approx(a.sum() ** 2 - 1.0, abs=1e-12)


def test_measure_by_name_rejects_unknown():
    with pytest.raises(BadParamsError):
        measure_by_name("fidelity")
    with pytest.raises(BadParamsError):
        measure_by_name("skew")  # needs a dim
