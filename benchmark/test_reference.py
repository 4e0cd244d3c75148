"""Tests of the numpy reference and the report checks against exact values.

Run with ``python -m pytest benchmark/test_reference.py``.  Reports are built
by hand in the program's JSON format, so these tests import nothing from
``coherence_lab``.
"""

import copy
import json
import math
import pathlib

import numpy as np
import pytest

import checks
import reference as ref
import tracing
from workloads import FAULT_QUBIT, random_density

DIMS = range(2, 9)


def pure(weights, phases=None) -> np.ndarray:
    amp = np.sqrt(np.asarray(weights, dtype=np.float64)).astype(np.complex128)
    if phases is not None:
        amp = amp * np.exp(1j * np.asarray(phases))
    return np.outer(amp, amp.conj())


def uniform(dim: int) -> np.ndarray:
    return pure(np.full(dim, 1.0 / dim))


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def test_skew_witness_is_17_36_to_5_9():
    # The relabeling j -> j-1 maps weights (1/6, 1/2, 1/3) to (1/2, 1/3, 1/6).
    before = pure([1 / 6, 1 / 2, 1 / 3])
    shift = {"dim": 3, "perm": [2, 0, 1], "phases": [0.0, 0.0, 0.0]}
    after = ref.apply_kraus(ref.kraus_from_json(shift), before)
    assert np.allclose(after, pure([1 / 2, 1 / 3, 1 / 6]), atol=1e-15)
    assert abs(ref.skew(before) - 17 / 36) <= 1e-12
    assert abs(ref.skew(after) - 5 / 9) <= 1e-12


@pytest.mark.parametrize("dim", DIMS)
def test_maxima(dim):
    rho = uniform(dim)
    assert abs(ref.l1(rho) - (dim - 1)) <= 1e-12
    assert abs(ref.rel_ent(rho) - math.log2(dim)) <= 1e-12
    assert abs(ref.int_rand(rho) - math.log2(dim)) <= 1e-12
    assert ref.trivial(rho) == 1.0
    ends = np.zeros(dim)
    ends[[0, -1]] = 0.5
    assert abs(ref.skew(pure(ends)) - (dim - 1) ** 2 / 4) <= 1e-12
    for name in ref.MEASURES:
        assert ref.measure(name, rho) <= ref.max_value(name, dim) + 1e-12


@pytest.mark.parametrize("dim", DIMS)
def test_incoherent_states_score_zero(dim):
    rho = np.diag(np.random.default_rng(dim).dirichlet(np.ones(dim))).astype(np.complex128)
    for name in ("l1", "rel_ent", "skew", "trivial"):
        assert abs(ref.measure(name, rho)) <= 1e-12


def test_skew_on_pure_states_is_the_variance_of_k():
    rng = np.random.default_rng(0)
    for dim in DIMS:
        w = rng.dirichlet(np.ones(dim))
        k = np.arange(dim)
        variance = w @ k**2 - (w @ k) ** 2
        assert abs(ref.skew(pure(w, rng.uniform(0, 6, dim))) - variance) <= 1e-10


def test_qubit_closed_form_brackets():
    rng = np.random.default_rng(1)
    for _ in range(50):
        rho = random_density(rng, 2, 2)
        cf = ref.int_rand_qubit(rho)
        assert ref.rel_ent(rho) - 1e-12 <= cf <= ref.eigen_ensemble_bound(rho) + 1e-12
    assert ref.int_rand_qubit(np.eye(2) / 2) == 0.0
    psi = pure([0.3, 0.7], [0.0, 1.0])
    assert abs(ref.int_rand_qubit(psi) - ref.binary_entropy(0.3)) <= 1e-12
    assert abs(ref.eigen_ensemble_bound(psi) - ref.rel_ent(psi)) <= 1e-12


@pytest.mark.parametrize("dim", DIMS)
def test_mcs_distance(dim):
    phases = np.random.default_rng(dim).uniform(0, 6, dim)
    assert abs(ref.mcs_distance(pure(np.full(dim, 1 / dim), phases))) <= 1e-12
    basis = np.zeros(dim)
    basis[0] = 1.0
    assert abs(ref.mcs_distance(pure(basis)) - (1 - 1 / dim)) <= 1e-12
    with pytest.raises(ValueError):
        ref.mcs_distance(np.eye(dim) / dim)


def test_json_round_trip_is_exact():
    rho = random_density(np.random.default_rng(2), 3, 2)
    back = ref.density_from_json(json.loads(json.dumps(ref.density_to_json(rho))))
    assert np.array_equal(back, rho)


# ---------------------------------------------------------------------------
# report checks: accept the right report, reject a perturbed or flipped one
# ---------------------------------------------------------------------------


def _state_json(rho):
    return ref.density_to_json(rho)


def skew_c2_report():
    """A C2 skew report whose witness is the 17/36 -> 5/9 relabeling as a Kraus channel."""
    rho = pure([1 / 6, 1 / 2, 1 / 3])
    u = np.zeros((3, 3))
    u[[2, 0, 1], [0, 1, 2]] = 1.0
    channel = {"dim": 3, "kraus": [{"re": u.reshape(-1).tolist(), "im": [0.0] * 9}]}
    return {
        "criterion": "C2", "measure": "skew", "dim": 3, "trials": 10, "violations": 2,
        "worst_violation": 17 / 36 - 5 / 9, "seed": 5,
        "witness": {"state": _state_json(rho), "channel": channel,
                    "value_before": 17 / 36, "value_after": 5 / 9, "aux": None},
    }


def rel_ent_pass_report():
    return {"criterion": "C2", "measure": "rel_ent", "dim": 3, "trials": 10, "violations": 0,
            "worst_violation": -1e-15, "seed": 5, "witness": None}


def c5_report(measure, dim, violations, witness_rho=None):
    witness = None
    if witness_rho is not None:
        witness = {"state": _state_json(witness_rho), "channel": None,
                   "value_before": ref.measure(measure, witness_rho), "value_after": 0.25,
                   "aux": {"max_value": ref.max_value(measure, dim)}}
    return {"criterion": "C5", "measure": measure, "dim": dim, "trials": 8,
            "violations": violations, "worst_violation": -0.2 if violations else 1e-3,
            "seed": 5, "max_value": ref.max_value(measure, dim), "witness": witness}


def check_skew(report, expect="violate"):
    checks.check_report(report, criterion="C2", measure="skew", dim=3, trials=10, seed=5,
                        tol=1e-8, expect=expect)


def check_rel_ent(report):
    checks.check_report(report, criterion="C2", measure="rel_ent", dim=3, trials=10, seed=5,
                        tol=1e-8, expect="pass")


def test_accepts_correct_reports():
    check_skew(skew_c2_report())
    check_rel_ent(rel_ent_pass_report())
    checks.check_c5(c5_report("l1", 4, 0), measure="l1", dim=4, trials=8, seed=5, expect="pass")
    ends = np.array([0.5, 0.0, 0.0, 0.5])
    checks.check_c5(c5_report("skew", 4, 3, pure(ends)), measure="skew", dim=4, trials=8, seed=5,
                    expect="violate")


@pytest.mark.parametrize("field", ["value_before", "value_after"])
def test_rejects_witness_perturbed_by_1e_4(field):
    report = skew_c2_report()
    report["witness"][field] += 1e-4
    with pytest.raises(checks.CheckFailed):
        check_skew(report)


def test_rejects_flipped_verdicts():
    flipped = skew_c2_report()
    flipped["violations"] = 0
    with pytest.raises(checks.CheckFailed):
        check_skew(flipped)
    flipped = rel_ent_pass_report()
    flipped["violations"] = 1
    with pytest.raises(checks.CheckFailed):
        check_rel_ent(flipped)
    with pytest.raises(checks.CheckFailed):  # a valid report, but the control found nothing
        check_skew(rel_ent_pass_report() | {"measure": "skew"})


def test_rejects_c5_perturbed_or_flipped():
    report = c5_report("l1", 4, 0)
    report["max_value"] += 1e-4
    with pytest.raises(checks.CheckFailed):
        checks.check_c5(report, measure="l1", dim=4, trials=8, seed=5, expect="pass")
    with pytest.raises(checks.CheckFailed):  # trivial must fail C5
        checks.check_c5(c5_report("trivial", 4, 0), measure="trivial", dim=4, trials=8, seed=5,
                        expect="violate")
    with pytest.raises(checks.CheckFailed):  # a maximally coherent witness is no counterexample
        checks.check_c5(c5_report("trivial", 4, 1, uniform(4)), measure="trivial", dim=4,
                        trials=8, seed=5, expect="violate")


def test_roof_bracket_and_closed_form():
    rho = random_density(np.random.default_rng(3), 2, 2)
    cf = ref.int_rand_qubit(rho)
    checks.check_roof({"measure": "int_rand", "dim": 2, "value": cf + 1e-7}, rho)
    for delta in (1e-4, -1e-4):
        with pytest.raises(checks.CheckFailed):
            checks.check_roof({"measure": "int_rand", "dim": 2, "value": cf + delta}, rho)
    qutrit = random_density(np.random.default_rng(4), 3, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_roof({"measure": "int_rand", "dim": 3, "value": ref.rel_ent(qutrit) - 1e-4},
                          qutrit)


def test_roof_fault_excuses_only_the_known_overshoot():
    cf = ref.int_rand_qubit(FAULT_QUBIT)

    def check(value):
        checks.check_roof_fault({"measure": "int_rand", "dim": 2, "value": value}, FAULT_QUBIT)

    check(cf + 1e-7)
    with pytest.raises(checks.KnownFault):
        check(cf + 6.3e-6)
    for value in (cf + 2e-5, cf - 1e-6, ref.rel_ent(FAULT_QUBIT) - 1e-4):
        with pytest.raises(checks.CheckFailed) as info:
            check(value)
        assert not isinstance(info.value, checks.KnownFault)


def test_c4_witness_must_be_the_stated_mixture():
    rng = np.random.default_rng(5)
    a, b = random_density(rng, 3, 2), random_density(rng, 3, 3)
    lam = 0.3
    mixed = lam * a + (1 - lam) * b
    report = {"criterion": "C4", "measure": "l1", "witness": {
        "state": _state_json(mixed), "aux": {"state_a": _state_json(a), "state_b": _state_json(b),
                                             "lam": lam}}}
    before, after = checks.reevaluate_witness(report)
    assert abs(before - (lam * ref.l1(a) + (1 - lam) * ref.l1(b))) <= 1e-12
    assert abs(after - ref.l1(mixed)) <= 1e-12
    report["witness"]["aux"]["lam"] = 0.3001
    with pytest.raises(checks.CheckFailed):
        checks.reevaluate_witness(report)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracing.metric_units()


def test_rejects_report_for_other_config():
    report = copy.deepcopy(skew_c2_report())
    report["seed"] = 6
    with pytest.raises(checks.CheckFailed):
        check_skew(report)
