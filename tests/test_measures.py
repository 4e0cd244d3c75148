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
# restarts=0 and max_iterations=1 ids also pin the descent's steps.
ROOF_PINS = {2: [95, 2, 0], 3: [95, 3, 1], 4: [95, 4, 1]}


TRAJECTORY_PINS = [
    (2, {}, 0.434592609718981),
    (2, {"restarts": 0}, 0.434592609718981),
    (2, {"max_iterations": 1}, 0.4607036701243958),
    (3, {}, 0.587336056142254),
    (3, {"restarts": 0}, 0.587336056142254),
    (3, {"max_iterations": 1}, 0.7186362139731519),
    (4, {}, 1.3305152382796135),
    (4, {"restarts": 0}, 1.33822785799007),
    (4, {"max_iterations": 1}, 1.5340590462858907),
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


def _roof_value(w, b):
    """Reference: the summed pure-state values of the members w b^T, one member at a time."""
    total = 0.0
    for member in w @ b.T:
        a = np.abs(member) ** 2
        p, big = a.sum(), a[a > 1e-15]
        total += 0.0 if p <= 1e-15 else p * np.log2(p) - (big * np.log2(big)).sum()
    return total


def _roof_starts(rho, rank, count, seed):
    """b (d, rank) with rho = b b^+, and a stack of the eigen start padded to rank^2 rows
    (its zero rows have zero members) followed by count random rank^2 x rank isometries."""
    q, v = np.linalg.eigh(rho.matrix)
    b = v[:, -rank:] * np.sqrt(q[-rank:])
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, rank * rank, rank)) + 1j * rng.standard_normal((count, rank * rank, rank))
    return b, np.concatenate((np.eye(rank * rank, rank, dtype=np.complex128)[None], np.linalg.qr(g)[0]))


@pytest.mark.parametrize("dim, rank", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
def test_roof_gradient_matches_finite_differences(dim, rank):
    b, ws = _roof_starts(random_density(dim, rank, [94, dim, rank]), rank, 3, dim)
    values, grads = measures._roof_gradient(ws, b)
    rng, h = np.random.default_rng(rank), 1e-6
    for w, value, grad in zip(ws, values, grads):
        assert abs(value - _roof_value(w, b)) <= 1e-14
        for _ in range(4):
            e = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
            central = (_roof_value(w + h * e, b) - _roof_value(w - h * e, b)) / (2 * h)
            assert abs(central - np.vdot(grad, e).real) <= 1e-7


@pytest.mark.parametrize(
    "dim, rank, max_iterations", [(2, 2, 500), (3, 2, 500), (3, 3, 4), (4, 2, 500), (4, 4, 3)]
)
def test_refine_stack_matches_one_at_a_time(dim, rank, max_iterations):
    b, ws = _roof_starts(random_density(dim, rank, [99, dim, rank]), rank, 3, dim)
    for tol in (1e-6, 1e-13):
        got_ws, got_values = measures._descend(ws, b, max_iterations, tol)
        for w, got_w, got_value in zip(ws, got_ws, got_values):
            (want_w,), (want_value,) = measures._descend(w[None], b, max_iterations, tol)
            assert got_value == want_value
            np.testing.assert_array_equal(got_w, want_w)


@pytest.mark.parametrize("dim, rank", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
def test_descent_never_ends_above_its_start(dim, rank):
    b, ws = _roof_starts(random_density(dim, rank, [93, dim, rank]), rank, 8, dim)
    # at 3 b (a state of trace 9) the gradients are 9 times larger, so first steps overshoot
    for b in (b, 3.0 * b):
        start_values, _ = measures._roof_gradient(ws, b)
        for max_iterations, tol in ((1, 1e-6), (300, 1e-6), (1000, 1e-13)):
            got_ws, got_values = measures._descend(ws, b, max_iterations, tol)
            assert (got_values <= start_values).all()
            assert np.array_equal(got_values, measures._roof_gradient(got_ws, b)[0])
            # restarted at its end point, where a step gains at most rounding, no row rises either
            assert (measures._descend(got_ws, b, 20, 0.0)[1] <= got_values).all()
            # each Cayley step keeps an isometry one up to rounding, about 1e-15 a step,
            # so its members still reconstruct rho within _convex_roof's 1e-9
            gram = got_ws.conj().swapaxes(1, 2) @ got_ws
            assert np.max(np.abs(gram - np.eye(rank))) <= 1e-10


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


def test_int_rand_polish_reaches_the_restarts_minimum():
    # a polish that stopped short once read 1.198328450 here, above the 1.198328093
    # that the second-best restart reaches when polished
    rho = random_density(4, 3, [97, 4, 3, 0])
    assert c_int_rand(rho, OptimizerConfig(seed=0)) <= 1.198328093


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
