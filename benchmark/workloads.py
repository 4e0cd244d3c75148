"""The four benchmark workloads: the CLI commands of one round and their checks.

A round is a fixed list of ``coherence_lab.cli.run`` argument vectors.  Every
round of a run repeats the same commands on the same inputs, which come from
the benchmark seed alone.  With ``s = seed mod 2**32``, command ``i`` gets
``--seed s * 1000 + i``, and the ``roof`` state files are drawn from
``numpy.random.default_rng([s, 3])``.
Each command carries its op count and a check of its exit code and stdout.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Callable

import numpy as np

import checks
import reference as ref

NAMES = ("spectral", "kraus", "maximize", "roof")

# The program's documented default tolerance for exactly evaluated measures,
# passed explicitly so that the checks and the program agree on it.
TOL = 1e-8

CRITERIA = ("C1", "C2", "C3", "C4", "LEMMA1")

# spectral: trials per command by dimension; skew C2 violates in about one
# trial in seven, so it runs 150 trials to make the positive control certain
# (0.87^150 < 1e-9).
SPECTRAL_DIMS = {3: 60, 4: 40}
SKEW_C2_TRIALS = 150
LEMMA2_TRIALS = 40
THEOREM3_TRIALS = 6
HUNT_TRIALS = 150

KRAUS_DIMS = tuple(range(2, 9))
KRAUS_TRIALS = 60

MAXIMIZE_MEASURES = ("l1", "rel_ent", "skew", "trivial", "int_rand")
MAXIMIZE_DIMS = (2, 3, 4)
C5_RESTARTS = 8

# roof: (dim, rank) of each seeded state file; rank-1 states take the pure
# branch.  Seeded mixed qubits are left out: the optimizer overshoots the
# qubit closed form by more than 1e-6 on about one in a hundred of them, so
# they would fail on some seeds only.
ROOF_PANEL = ((2, 1), (2, 1), (3, 2), (3, 3))
# A near-pure mixed qubit on which the optimizer, with this seed, returns
# 6.3e-6 above the closed form: a fault of the program that fails every run.
FAULT_QUBIT = np.array([[0.2542961115499865, 0.30728842183620586 - 0.3041168840410126j],
                        [0.30728842183620586 + 0.3041168840410126j, 0.7457038884500135]])
FAULT_SEED = 9003


@dataclasses.dataclass(frozen=True)
class Command:
    argv: tuple
    ops: int
    # (exit code, stdout); raises checks.CheckFailed, or checks.KnownFault when
    # the output shows the known fault and nothing else.
    check: Callable[[int, str], None]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    jobs_check: int | None = None  # index of the command also run with --jobs 2

    @property
    def ops_per_round(self) -> int:
        return sum(c.ops for c in self.commands)


# The report's measure field for criteria that take no measure.
_NO_MEASURE = {"LEMMA2": "none", "THEOREM3": "l1+rel_ent"}


def _expect_exit(rc: int, expected: int) -> None:
    checks.require(rc == expected, f"exit code {rc}, expected {expected}")


def _verify(cli_seed: int, criterion: str, dim: int, trials: int, measure=None, expect="pass"):
    argv = ["verify", "--criterion", criterion, "--dim", str(dim), "--trials", str(trials),
            "--seed", str(cli_seed), "--jobs", "1"]
    if measure is not None:
        argv += ["--measure", measure]
    if criterion != "C5":
        argv += ["--tol", repr(TOL)]

    def check(rc: int, out: str) -> None:
        report = json.loads(out)
        if criterion == "C5":
            checks.check_c5(report, measure=measure, dim=dim, trials=trials, seed=cli_seed,
                            expect=expect)
        else:
            checks.check_report(report, criterion=criterion, measure=measure or _NO_MEASURE[criterion],
                                dim=dim, trials=trials, seed=cli_seed, tol=TOL, expect=expect)
        _expect_exit(rc, 1 if report["violations"] > 0 else 0)

    return argv, trials, check


def _hunt(cli_seed: int, dim: int, trials: int):
    argv = ["hunt", "--dim", str(dim), "--trials", str(trials), "--seed", str(cli_seed),
            "--tol", repr(TOL), "--jobs", "1"]

    def check(rc: int, out: str) -> None:
        checks.check_hunt(json.loads(out), dim=dim, trials=trials, seed=cli_seed, tol=TOL)
        _expect_exit(rc, 1)

    return argv, 2 * trials + 1, check


def _roof(cli_seed: int, path: pathlib.Path, rho: np.ndarray, check_value=checks.check_roof):
    argv = ("measure", "--state", str(path), "--measure", "int_rand", "--seed", str(cli_seed))

    def check(rc: int, out: str) -> None:
        _expect_exit(rc, 0)
        check_value(json.loads(out), rho)

    return argv, 1, check


def _spectral_specs():
    for dim, trials in SPECTRAL_DIMS.items():
        for criterion in CRITERIA:
            yield _verify, (criterion, dim, trials, "rel_ent", "pass")
        for criterion in CRITERIA:
            # C2 and LEMMA1 are positive controls at d >= 3; C1, C3 and C4 are
            # checked for consistency and witness re-evaluation only.
            expect = "violate" if criterion in ("C2", "LEMMA1") else "any"
            n = SKEW_C2_TRIALS if criterion == "C2" else trials
            yield _verify, (criterion, dim, n, "skew", expect)
        yield _verify, ("LEMMA2", dim, LEMMA2_TRIALS, None, "pass")
        yield _verify, ("THEOREM3", dim, THEOREM3_TRIALS, None, "pass")
    yield _hunt, (3, HUNT_TRIALS)


def _kraus_specs():
    for dim in KRAUS_DIMS:
        for measure in ("l1", "trivial"):
            for criterion in CRITERIA:
                yield _verify, (criterion, dim, KRAUS_TRIALS, measure, "pass")


def _c5_expectation(measure: str, dim: int) -> str:
    # trivial gives every coherent state the maximum; skew at d >= 3 peaks at
    # half the weight on each end of K's spectrum.  Both fail C5.
    if measure == "trivial" or (measure == "skew" and dim >= 3):
        return "violate"
    return "pass"


def _maximize_specs():
    for dim in MAXIMIZE_DIMS:
        for measure in MAXIMIZE_MEASURES:
            yield _verify, ("C5", dim, C5_RESTARTS, measure, _c5_expectation(measure, dim))


def random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """G G^dagger / tr, G a dim x rank complex Gaussian; exactly Hermitian."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _write_state(path: pathlib.Path, rho: np.ndarray) -> pathlib.Path:
    path.write_text(json.dumps(ref.density_to_json(rho)), encoding="utf-8")
    return path


def _roof_specs(seed: int, workdir: pathlib.Path):
    rng = np.random.default_rng([seed, NAMES.index("roof")])
    for i, (dim, rank) in enumerate(ROOF_PANEL):
        rho = random_density(rng, dim, rank)
        yield _roof, (_write_state(workdir / f"roof-{i}.json", rho), rho)


def _fault_command(workdir: pathlib.Path) -> Command:
    path = _write_state(workdir / "roof-fault.json", FAULT_QUBIT)
    return Command(*_roof(FAULT_SEED, path, FAULT_QUBIT, checks.check_roof_fault))


def build(name: str, seed: int, workdir: pathlib.Path) -> Workload:
    """The commands of one round of workload ``name``; roof writes its state files to ``workdir``."""
    seed %= 2**32  # the program's seeds must be non-negative
    if name == "spectral":
        specs = _spectral_specs()
    elif name == "kraus":
        specs = _kraus_specs()
    elif name == "maximize":
        specs = _maximize_specs()
    elif name == "roof":
        specs = _roof_specs(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    commands = []
    for i, (make, args) in enumerate(specs):
        argv, ops, check = make(seed * 1000 + i, *args)
        commands.append(Command(tuple(argv), ops, check))
    if name == "roof":
        commands.append(_fault_command(workdir))
    jobs_check = None
    if name == "kraus":  # one C3 command at d = 5 also runs with --jobs 2
        jobs_check = next(
            i for i, c in enumerate(commands)
            if c.argv[2] == "C3" and c.argv[4] == "5" and "l1" in c.argv
        )
    return Workload(name, tuple(commands), jobs_check)
