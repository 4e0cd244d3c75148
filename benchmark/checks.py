"""Checks of coherence-lab's JSON outputs against the numpy reference.

Every check either recomputes a value with ``reference`` (which imports
nothing from ``coherence_lab``) or tests a property the method must have.
None compares with a stored copy of earlier output.  A failed check raises
``CheckFailed`` with the reason.
"""

from __future__ import annotations

import numpy as np

import reference as ref

# A stored witness value must re-evaluate to within this.  Both sides are
# double-precision spectral computations on matrices of norm <= 1 at d <= 8,
# so they agree to ~1e-13; 1e-9 leaves room for ill-conditioned eigenvectors.
WITNESS_TOL = 1e-9
# The deterministic skew witness is exactly 17/36 -> 5/9 at d = 3.
EXACT_TOL = 1e-12
# C5 maximum against its closed form: the maximizer stops at step 1e-9 in the
# weights, and every measure here is smooth or flat at its maximum.
MAX_VALUE_TOL = 1e-6
# A C5 witness must lie this far from the maximally coherent set: the
# program's own membership tolerance.
C5_MCS_TOL = 1e-3
# Slack on each side of the int_rand bracket [rel_ent, eigen-ensemble average].
ROOF_SLACK = 1e-9
# How far above the qubit closed form the optimizer may sit: the program's own
# int_rand tolerance; it is an upper bound and was seen 5.4e-7 above.
ROOF_CF_ABOVE = 1e-6
# The known fault (``workloads.FAULT_QUBIT``) sits 6.3e-6 above the closed form;
# an overshoot beyond this is a new fault, not the known one.
FAULT_CF_ABOVE = 1e-5

# Criteria whose violation is a signed slack below -tol; the others flag slack below 0.
_TOL_CRITERIA = ("C2", "C3", "C4")


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a required property."""


class Overshoot(CheckFailed):
    """A qubit int_rand value more than ``ROOF_CF_ABOVE`` above the closed form."""

    def __init__(self, message: str, above: float):
        super().__init__(message)
        self.above = above


class KnownFault(CheckFailed):
    """The output shows the known fault and nothing else: its ops fail, as expected."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float) -> bool:
    return bool(abs(float(a) - float(b)) <= tol)


def _check_header(report: dict, **expected) -> None:
    for key, value in expected.items():
        require(report.get(key) == value, f"{key} is {report.get(key)!r}, expected {value!r}")
    require(0 <= report["violations"] <= report["trials"], "violation count out of range")


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def reevaluate_witness(report: dict) -> tuple:
    """(value_before, value_after) of a report's witness, recomputed by the reference."""
    crit = report["criterion"]
    witness = report["witness"]
    rho = ref.density_from_json(witness["state"])

    def value(r):
        return ref.measure(report["measure"], r)

    if crit == "C1":
        return value(rho), value(ref.dephase(rho))
    if crit in ("C2", "LEMMA1", "SKEW_WITNESS"):
        ops = ref.kraus_from_json(witness["channel"])
        return value(rho), value(ref.apply_kraus(ops, rho))
    if crit == "C3":
        ops = ref.kraus_from_json(witness["channel"])
        branches = ref.selective_branches(ops, rho)
        return value(rho), float(sum(p * value(b) for p, b in branches))
    if crit == "C4":
        aux = witness["aux"]
        rho_a = ref.density_from_json(aux["state_a"])
        rho_b = ref.density_from_json(aux["state_b"])
        lam = float(aux["lam"])
        mixed = lam * rho_a + (1.0 - lam) * rho_b
        require(np.allclose(mixed, rho, rtol=0.0, atol=1e-12), "C4 witness is not the stated mixture")
        return lam * value(rho_a) + (1.0 - lam) * value(rho_b), value(rho)
    raise CheckFailed(f"no reference re-evaluation for {crit} witnesses")


def _is_violation(crit: str, before: float, after: float, tol: float, rho=None) -> bool:
    """Whether re-evaluated values break the property the criterion tests."""
    if crit in _TOL_CRITERIA:
        return after - before > tol
    if crit in ("LEMMA1", "SKEW_WITNESS"):
        return abs(after - before) > tol
    if crit == "C1":  # value on the dephased state, or too small on a coherent one
        return after > 1e-9 or (before < 1e-6 and ref.l1(rho) > 1e-3)
    raise CheckFailed(f"no violation rule for {crit}")


def check_witness(report: dict, tol: float) -> None:
    """The witness re-evaluates to its stored values and really violates the criterion."""
    witness = report["witness"]
    require(witness is not None, f"{report['criterion']} reports violations but no witness")
    before, after = reevaluate_witness(report)
    require(
        _close(before, witness["value_before"], WITNESS_TOL)
        and _close(after, witness["value_after"], WITNESS_TOL),
        f"witness re-evaluates to ({before!r}, {after!r}), stored "
        f"({witness['value_before']!r}, {witness['value_after']!r})",
    )
    rho = ref.density_from_json(witness["state"])
    require(
        _is_violation(report["criterion"], before, after, tol, rho),
        f"witness values ({before!r}, {after!r}) do not violate {report['criterion']}",
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def check_report(
    report: dict,
    *,
    criterion: str,
    measure: str,
    dim: int,
    trials: int,
    seed: int,
    tol: float,
    expect: str,
) -> None:
    """One C1-C4, LEMMA1, LEMMA2 or THEOREM3 report.

    ``expect`` is ``"pass"`` (no violations: the measure is valid, or the
    lemma holds), ``"violate"`` (a positive control: violations with a
    witness that re-evaluates), or ``"any"`` (whichever verdict, it must be
    consistent and any witness must re-evaluate).
    """
    _check_header(report, criterion=criterion, measure=measure, dim=dim, trials=trials, seed=seed)
    violations = report["violations"]
    worst = report["worst_violation"]
    if violations == 0:
        require(report["witness"] is None, "witness without violations")
        require(worst >= -tol, f"no violations but worst_violation {worst!r} < -tol")
    else:
        require(worst < 0.0, f"{violations} violations but worst_violation {worst!r} >= 0")
        if criterion in _TOL_CRITERIA:
            require(worst < -tol, f"{violations} violations but worst_violation {worst!r} >= -tol")
        check_witness(report, tol)
    if expect == "pass":
        require(violations == 0, f"{criterion} {measure} d={dim}: {violations} violations")
    elif expect == "violate":
        require(violations > 0, f"{criterion} {measure} d={dim}: positive control found no violation")


def check_c5(report: dict, *, measure: str, dim: int, trials: int, seed: int, expect: str) -> None:
    """One C5 report: the maximum found, and the verdict on the maximizers.

    ``expect="pass"``: every near-maximal state found is maximally coherent.
    ``expect="violate"``: the witness is coherent, attains the maximum, and
    lies more than 1e-3 (in infidelity) from the maximally coherent set.
    """
    _check_header(report, criterion="C5", measure=measure, dim=dim, trials=trials, seed=seed)
    expected_max = ref.max_value(measure, dim)
    require(
        _close(report["max_value"], expected_max, MAX_VALUE_TOL),
        f"C5 {measure} d={dim}: max_value {report['max_value']!r}, closed form {expected_max!r}",
    )
    violations = report["violations"]
    if expect == "pass":
        require(violations == 0, f"C5 {measure} d={dim}: {violations} violations")
        require(report["witness"] is None, "witness without violations")
        require(report["worst_violation"] >= 0.0, "no violations but negative worst_violation")
        return
    require(violations > 0, f"C5 {measure} d={dim}: positive control found no violation")
    require(report["worst_violation"] < 0.0, "violations but non-negative worst_violation")
    witness = report["witness"]
    require(witness is not None, "C5 reports violations but no witness")
    rho = ref.density_from_json(witness["state"])
    require(ref.l1(rho) > ref.INCOHERENT_TOL, "C5 witness is incoherent")
    distance = ref.mcs_distance(rho)
    require(distance > C5_MCS_TOL, f"C5 witness is within {distance!r} of maximal coherence")
    value = ref.measure(measure, rho)
    require(
        _close(value, witness["value_before"], WITNESS_TOL),
        f"C5 witness value re-evaluates to {value!r}, stored {witness['value_before']!r}",
    )
    require(_close(value, expected_max, MAX_VALUE_TOL), f"C5 witness value {value!r} is not maximal")


def check_hunt(payload: dict, *, dim: int, trials: int, seed: int, tol: float) -> None:
    """``hunt`` output: the deterministic skew witness and both randomized searches."""
    wr = payload["skew_witness"]
    _check_header(wr, criterion="SKEW_WITNESS", measure="skew", dim=dim, seed=seed)
    witness = wr["witness"]
    if dim == 3:
        require(
            _close(witness["value_before"], 17.0 / 36.0, EXACT_TOL)
            and _close(witness["value_after"], 5.0 / 9.0, EXACT_TOL),
            f"skew witness is ({witness['value_before']!r}, {witness['value_after']!r}), "
            "expected 17/36 -> 5/9",
        )
    check_witness(wr, tol)
    for key, criterion in (("c2_search", "C2"), ("lemma1_search", "LEMMA1")):
        check_report(
            payload[key],
            criterion=criterion,
            measure="skew",
            dim=dim,
            trials=trials,
            seed=seed,
            tol=tol,
            expect="violate",
        )


def check_roof(payload: dict, rho: np.ndarray) -> None:
    """``measure --measure int_rand`` output on the mixed state ``rho``."""
    dim = rho.shape[0]
    require(payload.get("measure") == "int_rand" and payload.get("dim") == dim, "wrong header")
    value = float(payload["value"])
    lower = ref.rel_ent(rho)
    upper = ref.eigen_ensemble_bound(rho)
    require(
        lower - ROOF_SLACK <= value <= upper + ROOF_SLACK,
        f"int_rand {value!r} outside [rel_ent {lower!r}, eigen-ensemble {upper!r}]",
    )
    if dim == 2:
        cf = ref.int_rand_qubit(rho)
        require(value >= cf - ROOF_SLACK, f"qubit int_rand {value!r} below closed form {cf!r}")
        if value > cf + ROOF_CF_ABOVE:
            raise Overshoot(f"qubit int_rand {value!r} is {value - cf:.3g} above closed form "
                            f"{cf!r} (tolerance {ROOF_CF_ABOVE:g})", value - cf)


def check_roof_fault(payload: dict, rho: np.ndarray) -> None:
    """``check_roof`` on the known-fault qubit.

    Every check must hold except the closed-form ceiling; an overshoot of at
    most ``FAULT_CF_ABOVE`` raises ``KnownFault``, anything else ``CheckFailed``.
    """
    try:
        check_roof(payload, rho)
    except Overshoot as exc:
        if exc.above > FAULT_CF_ABOVE:
            raise
        raise KnownFault(str(exc)) from None
