"""Full report JSON of the randomized criterion checks, pinned.

The pins in ``criteria_pins.json`` were recorded from the per-trial
implementation, which built and diagonalized one density matrix at a time.
With channels of one Kraus operator allowed, the worst C2 and C3 slack of a
valid measure is a rounding residue near 0, which a 1e-12 tolerance cannot
tell apart from another; the ``K2-4`` cases draw 2 to 4 Kraus operators, so
that their worst slacks depend on every trial's draws.
Any later evaluation strategy must reproduce them: floats within 1e-12,
verdicts, counts, strings and structure exactly.  The ``skew`` kernel
takes a matrix square root and a quadratic form whose rounding can move
in the last bits once evaluated on a stack, so its floats are held within
1e-12 as well rather than bit for bit.

At the default tolerance 1e-8, LEMMA2 and THEOREM3 never violate, so the
``LOOSE`` cases rerun them at a tolerance loose enough that some trials
violate (LEMMA2 at 0.5, THEOREM3 at 0.9): their witnesses are pinned too,
and must re-evaluate to the stored values.  The LOOSE pins were recorded
from the block harness once LEMMA2 and THEOREM3 decided CPOs with
``is_cpo``'s fixed Gram ratio rather than with the loose ``tol``, and
THEOREM3 stopped redrawing CPO channels; each one's counts and worst slack
were checked against the per-trial reference of ``test_harness.py``.
"""

import json
import pathlib

import pytest

from coherence_lab import harness
from coherence_lab.harness import TrialConfig

PINS_PATH = pathlib.Path(__file__).with_name("criteria_pins.json")
SEEDS = (0, 7)
DIMS = (2, 3, 4)
TRIALS = 20
THEOREM3_TRIALS = 8
FLOAT_TOL = 1e-12

_MEASURE_CRITERIA = ("C1", "C2", "C3", "C4", "LEMMA1")

# criterion -> (tol, trials) of the LOOSE cases
LOOSE = {"LEMMA2": (0.5, 20), "THEOREM3": (0.9, 30)}


def _cases():
    for dim in DIMS:
        for seed in SEEDS:
            for criterion in _MEASURE_CRITERIA:
                for measure in ("l1", "rel_ent", "skew", "trivial"):
                    yield criterion, measure, dim, seed
            for criterion in ("C1", "LEMMA1"):
                yield criterion, "int_rand", dim, seed
            yield "LEMMA2", None, dim, seed
            yield "THEOREM3", None, dim, seed
            for criterion in ("C2", "C3"):
                for measure in ("l1", "rel_ent"):
                    yield f"K2-4/{criterion}", measure, dim, seed
            yield "LOOSE/LEMMA2", None, dim, seed
    yield "LOOSE/THEOREM3", None, 2, 0
    yield "LOOSE/THEOREM3", None, 3, 1


CASES = tuple(_cases())


def pin_key(criterion, measure, dim, seed):
    return f"{criterion}/{measure}/d{dim}/s{seed}"


def run_case(criterion, measure, dim, seed):
    kraus_range = (1, 4)
    if criterion.startswith("K2-4/"):
        criterion, kraus_range = criterion[len("K2-4/"):], (2, 4)
    trials = THEOREM3_TRIALS if criterion == "THEOREM3" else TRIALS
    # LEMMA2 and THEOREM3 run with measure None, at default_tol(None) == 1e-8
    tol = harness.default_tol(measure)
    if criterion.startswith("LOOSE/"):
        criterion = criterion[len("LOOSE/"):]
        tol, trials = LOOSE[criterion]
    cfg = TrialConfig(dim=dim, n_trials=trials, seed=seed, tol=tol, n_kraus_range=kraus_range)
    return harness.check_criterion(criterion, measure, cfg)


def _assert_matches(got, want, path):
    if isinstance(want, float) and not isinstance(want, bool):
        assert isinstance(got, float), path
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


_PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: pin_key(*case))
def test_criteria_pinned(case):
    want = _PINS[pin_key(*case)]
    got = json.loads(json.dumps(run_case(*case).to_dict()))
    _assert_matches(got, want, pin_key(*case))


def test_pins_cover_every_case():
    assert sorted(_PINS) == sorted(pin_key(*case) for case in CASES)


@pytest.mark.parametrize(
    "case",
    [c for c in CASES if (c[2], c[3]) == (3, 7) or c[0].startswith("LOOSE/")],
    ids=lambda case: pin_key(*case),
)
def test_reports_do_not_depend_on_block_size(case, monkeypatch):
    # one block at the default budget, one trial a block at 1; at these shapes 500
    # entries give blocks of 7 trials, or of 2 to 6 for THEOREM3 (20 d x d per row)
    reports = []
    for budget in (harness.STACK_BUDGET, 500, 1):
        monkeypatch.setattr(harness, "STACK_BUDGET", budget)
        reports.append(json.dumps(run_case(*case).to_dict()))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize(
    "key", [k for k, pin in _PINS.items() if k.startswith("LOOSE/") and pin["witness"] is not None]
)
def test_loose_witnesses_reevaluate(key):
    report = harness.report_from_dict(_PINS[key])
    before, after = harness.reevaluate_witness(report)
    assert abs(before - report.witness.value_before) <= FLOAT_TOL
    assert abs(after - report.witness.value_after) <= FLOAT_TOL
