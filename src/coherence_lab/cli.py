"""Batch command-line front end.

Subcommands: ``measure`` (evaluate a measure on a state file),
``check-channel`` (incoherence/CPO verdicts plus canonical form),
``verify`` (randomized criterion suites), ``hunt`` (skew counterexample and
randomized search), ``mcs`` (membership test and state preparation channel).

Exit codes: 0 success/PASS, 1 violations found, 2 usage error, 3 I/O or
format error.  Output is JSON (reports also serialize to CSV via
``--format csv``); identical argv and seed give byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import channels as ch_mod
from . import harness as h_mod
from . import measures as m_mod
from . import mcs as mcs_mod
from . import states as st_mod
from .errors import BadDimError, BadParamsError, CoherenceLabError

CSV_COLUMNS = ("criterion", "measure", "dim", "trials", "violations", "worst_violation", "seed")


class _InputError(Exception):
    """File missing, unwritable or malformed; maps to exit code 3."""


def _default_seed() -> int:
    try:
        return nonnegative_int(os.environ.get("COHERENCE_LAB_SEED", "0"))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise BadParamsError(f"COHERENCE_LAB_SEED is not an integer >= 0: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_state(path: str):
    try:
        return st_mod.state_from_dict(_load_json(path))
    except CoherenceLabError as exc:
        raise _InputError(f"bad state file {path}: {exc}") from exc


def _load_density(path: str) -> st_mod.DensityMatrix:
    state = _load_state(path)
    if isinstance(state, st_mod.PureState):
        return st_mod.from_pure(state)
    return state


def _load_channel(path: str) -> ch_mod.KrausChannel:
    try:
        return ch_mod.channel_from_dict(_load_json(path))
    except CoherenceLabError as exc:
        raise _InputError(f"bad channel file {path}: {exc}") from exc


def _write_text(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {out_path}: {exc}") from exc


def _dump(payload, out_path):
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def emit_reports(reports, format: str = "json") -> str:
    """Serialize reports: JSON is one object for a single report and a list
    otherwise; CSV is the fixed column order, one row per report, no witness."""
    if format == "json":
        payload = [r.to_dict() for r in reports]
        if len(payload) == 1:
            payload = payload[0]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if format == "csv":
        return "\n".join([",".join(CSV_COLUMNS)] + [_csv_row(r) for r in reports]) + "\n"
    raise BadParamsError(f"unknown format {format!r}")


def _csv_row(report: h_mod.CriterionReport) -> str:
    d = report.to_dict()
    return ",".join(repr(d[c]) if isinstance(d[c], float) else str(d[c]) for c in CSV_COLUMNS)


def positive_int(text: str) -> int:
    """argparse type of ``--jobs``, the most worker processes ``int_rand``'s
    convex roofs may use: anything but an integer >= 1 is a usage error (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type of ``--tol``: anything but a finite float > 0 is a usage error (exit 2)."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type of ``--seed``: anything but an integer >= 0 is a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="coherence-lab",
        description="Coherence measures, incoherent channels, and criteria verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="evaluate a measure on a state file")
    p_measure.add_argument("--state", required=True, help="state JSON file")
    p_measure.add_argument("--measure", required=True, choices=m_mod.MEASURE_NAMES)
    p_measure.add_argument("--seed", type=nonnegative_int, default=None, help="optimizer seed (int_rand)")
    p_measure.add_argument("--out", default=None)

    p_channel = sub.add_parser("check-channel", help="incoherence and CPO verdicts")
    p_channel.add_argument("--channel", required=True, help="channel JSON file")
    p_channel.add_argument("--tol", type=positive_float, default=ch_mod.INCOHERENT_ENTRY_TOL,
                           help="entry tolerance, default 1e-9, of all three verdicts: "
                                "incoherent, cpo and canonical_form")
    p_channel.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run randomized criterion suites")
    p_verify.add_argument("--measure", default=None, choices=m_mod.MEASURE_NAMES)
    p_verify.add_argument(
        "--criterion",
        required=True,
        choices=tuple(h_mod.CRITERIA) + ("ALL",),
    )
    p_verify.add_argument("--dim", type=int, default=3)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=nonnegative_int, default=None)
    tol_help = ("violation tolerance only, a finite float > 0, default 1e-8 (1e-6 for int_rand); C5 "
                "ignores it and uses its fixed 1e-6 near-maximum window and 1e-3 membership tolerance, "
                "and LEMMA2 and THEOREM3 decide CPOs with is_cpo's fixed rule (CPO_GRAM_RATIO 1e-8)")
    p_verify.add_argument("--tol", type=positive_float, default=None, help=tol_help)
    jobs_help = "worker processes (at most one per CPU) for int_rand's mixed states; others run serially"
    p_verify.add_argument("--jobs", type=positive_int, default=1, help=jobs_help)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")

    p_hunt = sub.add_parser("hunt", help="skew witness and randomized counterexample search")
    p_hunt.add_argument("--dim", type=int, default=3)
    p_hunt.add_argument("--trials", type=int, default=100)
    p_hunt.add_argument("--seed", type=nonnegative_int, default=None)
    p_hunt.add_argument("--tol", type=positive_float, default=1e-8)
    p_hunt.add_argument("--jobs", type=positive_int, default=1,
                        help="accepted as for verify; hunt's skew searches run serially and ignore it")
    p_hunt.add_argument("--out", default=None)

    p_mcs = sub.add_parser("mcs", help="maximal-coherence membership and preparation")
    p_mcs.add_argument("--state", default=None, help="state JSON file to test")
    p_mcs.add_argument("--tol", type=positive_float, default=1e-8)
    p_mcs.add_argument(
        "--transform-to",
        default=None,
        metavar="PATH",
        help="emit the incoherent channel preparing this target from the uniform superposition",
    )
    p_mcs.add_argument("--out", default=None)
    return parser


def _cmd_measure(args) -> int:
    rho = _load_density(args.state)
    opt = m_mod.OptimizerConfig(seed=args.seed)
    measure = m_mod.measure_by_name(args.measure, dim=rho.dim, opt=opt)
    value = measure.evaluate(rho)
    _dump({"measure": args.measure, "dim": rho.dim, "value": value}, args.out)
    return 0


def _cmd_check_channel(args) -> int:
    channel = _load_channel(args.channel)
    incoherent = ch_mod.is_incoherent_channel(channel, args.tol)
    cpo = ch_mod.is_cpo(channel, args.tol)
    canonical = None
    if incoherent:
        form = ch_mod.canonical_form(channel, args.tol)
        canonical = {
            "weights": form.weights.tolist(),
            "column_maps": form.column_maps.tolist(),
            "moduli": form.moduli.tolist(),
            "phases": form.phases.tolist(),
        }
    _dump(
        {
            "dim": channel.dim,
            "n_kraus": channel.n_kraus,
            "incoherent": incoherent,
            "cpo": cpo,
            "canonical_form": canonical,
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    criteria = list(h_mod.CRITERIA) if args.criterion == "ALL" else [args.criterion]
    tol = args.tol if args.tol is not None else h_mod.default_tol(args.measure or "l1")
    reports = []
    for criterion in criteria:
        trials = h_mod.CRITERIA[criterion].trials if args.trials is None else args.trials
        cfg = h_mod.TrialConfig(dim=args.dim, n_trials=trials, seed=args.seed, tol=tol)
        reports.append(h_mod.check_criterion(criterion, args.measure, cfg, args.jobs))

    _write_text(emit_reports(reports, args.format), args.out)
    return 1 if any(r.violations > 0 for r in reports) else 0


def _cmd_hunt(args) -> int:
    cfg = h_mod.TrialConfig(dim=args.dim, n_trials=args.trials, seed=args.seed, tol=args.tol)
    payload = {}
    found = False
    try:
        witness_report = h_mod.skew_witness_report(args.dim, args.seed)
        payload["skew_witness"] = witness_report.to_dict()
        found = True
    except BadDimError:
        payload["skew_witness"] = None
    c2 = h_mod.check_criterion("C2", "skew", cfg, args.jobs)
    lemma1 = h_mod.check_criterion("LEMMA1", "skew", cfg, args.jobs)
    payload["c2_search"] = c2.to_dict()
    payload["lemma1_search"] = lemma1.to_dict()
    found = found or c2.violations > 0 or lemma1.violations > 0
    _dump(payload, args.out)
    return 1 if found else 0


def _cmd_mcs(args) -> int:
    if args.state is None and args.transform_to is None:
        raise BadParamsError("mcs needs --state and/or --transform-to")
    payload = {}
    if args.state is not None:
        rho = _load_density(args.state)
        payload["is_mcs"] = mcs_mod.is_mcs(rho, args.tol)
        payload["deviation"] = mcs_mod.mcs_deviation(rho)
        payload["dim"] = rho.dim
    if args.transform_to is not None:
        target = _load_state(args.transform_to)
        if isinstance(target, st_mod.PureState):
            channel = mcs_mod.transform_mcs_to(target)
        else:
            channel = mcs_mod.transform_mcs_to_mixed(target)
        payload["transform_channel"] = channel.to_dict()
    _dump(payload, args.out)
    return 0


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    handlers = {
        "measure": _cmd_measure,
        "check-channel": _cmd_check_channel,
        "verify": _cmd_verify,
        "hunt": _cmd_hunt,
        "mcs": _cmd_mcs,
    }
    try:
        if getattr(args, "seed", 0) is None:  # the commands with a --seed default to COHERENCE_LAB_SEED
            args.seed = _default_seed()
        return handlers[args.command](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BadParamsError, BadDimError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CoherenceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
