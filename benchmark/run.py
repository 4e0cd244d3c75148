"""Benchmark of coherence-lab driven through its command-line front end.

    python3 benchmark/run.py --workload {spectral,kraus,maximize,roof} \
        --seed N --seconds S --trace {0,1}

Builds one workload's round of ``coherence_lab.cli.run`` commands from the
seed, runs whole rounds in this process with stdout captured for about
``--seconds`` seconds, checks every output against the numpy reference in
``checks.py``, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``ops_per_s`` and
``peak_rss_mb``.  ``--trace 1`` spends half the time untraced and half with
spans around every layer (``tracing.py``) and reports the per-layer metrics,
per round, with the ratio of traced to untraced round time.  Set-up and rounds
are timed in CPU seconds of the process (``time.process_time``): the program
runs in one thread with ``--jobs 1``, and CPU time leaves out the time the
hypervisor runs other tenants instead.  The program is imported from
``src/`` beside this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# Nothing imported here imports numpy, so that setup() times numpy's import
# as part of the program's; ``workloads`` and ``checks`` are imported after.
import tracing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of this many set-ups: this process and fresh children.
SETUP_SAMPLES = 5


def _import_program():
    if not (SRC / "coherence_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no coherence_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coherence_lab.cli as cli

    if SRC not in pathlib.Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: coherence_lab was imported from {cli.__file__}, not {SRC}")
    return cli


def setup(name: str, seed: int, workdir: pathlib.Path):
    """Import the program and build the workload's inputs; returns (cli, workload, CPU seconds)."""
    start = time.process_time()
    cli = _import_program()
    import workloads

    workload = workloads.build(name, seed, workdir)
    return cli, workload, time.process_time() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up CPU seconds measured in a fresh interpreter, which imports the program anew."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def run_round(cli, commands):
    """CPU seconds of one round, and (exit code, stdout, traceback or None) per command."""
    outputs = []
    start = time.process_time()
    for cmd in commands:
        out = io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.run(list(cmd.argv))
            except Exception:  # a crash fails this command's ops; the run goes on
                rc, error = None, traceback.format_exc()
        outputs.append((rc, out.getvalue(), error))
    return time.process_time() - start, outputs


def jobs2_stdout(cli, cmd) -> str:
    """Stdout of ``cmd`` with ``--jobs 2`` in place of ``--jobs 1``."""
    argv = list(cmd.argv)
    argv[argv.index("--jobs") + 1] = "2"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.run(argv)
    return out.getvalue()


class Ledger:
    """Ops attempted and failed.  Each command's output is checked once; a later
    round must reproduce it byte for byte, since a report is a pure function
    of its argv.  ``unexpected`` counts failed ops other than the known fault."""

    def __init__(self, commands, jobs2=None):
        self.commands = commands
        self.jobs2 = jobs2 or {}  # command index -> stdout under --jobs 2
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons = {}  # command index -> {(known, reason)}
        self._first = {}
        self._verdict = {}

    def _check(self, i: int, output) -> tuple:
        """(known, reason) of a failed check, or (False, None) when it passes."""
        import checks

        rc, stdout, error = output
        if error is not None:
            return False, f"raised:\n{error}"
        if i in self.jobs2 and self.jobs2[i] != stdout:
            return False, "stdout under --jobs 2 differs from --jobs 1"
        try:
            self.commands[i].check(rc, stdout)
        except checks.KnownFault as exc:
            return True, str(exc)
        except checks.CheckFailed as exc:
            return False, str(exc)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return False, f"malformed output: {exc!r}"
        return False, None

    def record(self, outputs) -> None:
        for i, output in enumerate(outputs):
            self.attempted += self.commands[i].ops
            if output != self._first.setdefault(i, output):
                known, reason = False, "output differs from an earlier run of the same argv"
            else:
                if i not in self._verdict:
                    self._verdict[i] = self._check(i, output)
                known, reason = self._verdict[i]
            if reason is not None:
                self.failed += self.commands[i].ops
                if not known:
                    self.unexpected += self.commands[i].ops
                self.reasons.setdefault(i, set()).add((known, reason))


def timed_phase(cli, workload, ledger: Ledger, seconds: float) -> list:
    """Whole rounds until the next one would end past ``seconds`` of wall time; their CPU times."""
    times = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        cpu, outputs = run_round(cli, workload.commands)
        times.append(cpu)
        ledger.record(outputs)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return times


def measure(args, cli, workload, setup_seconds: float) -> tuple:
    """(ledger, {metric: (value, unit)}) for one run; ``setup_seconds`` is this process's set-up."""
    jobs2 = {}
    if workload.jobs_check is not None:
        i = workload.jobs_check
        try:
            jobs2[i] = jobs2_stdout(cli, workload.commands[i])
        except Exception:  # recorded as a mismatch, so the command's ops fail
            jobs2[i] = traceback.format_exc()
    ledger = Ledger(workload.commands, jobs2)
    if not args.trace:
        setup_samples = [setup_seconds] + [probe_setup(args.workload, args.seed)
                                           for _ in range(SETUP_SAMPLES - 1)]
        times = timed_phase(cli, workload, ledger, args.seconds)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (workload.ops_per_round * len(times) / sum(times), "ops/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"round CPU seconds: {' '.join(f'{t:.4f}' for t in times)}", file=sys.stderr)
        return ledger, metrics
    untraced = timed_phase(cli, workload, ledger, args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_phase(cli, workload, ledger, args.seconds / 2.0)
    finally:
        tracer.uninstall()
    values = tracer.metrics(len(traced), workload.ops_per_round)
    values["trace.overhead_ratio"] = statistics.mean(traced) / statistics.mean(untraced)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    units = tracing.metric_units()
    return ledger, {name: (value, units[name]) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectral", "kraus", "maximize", "roof"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cli, workload, seconds = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(seconds))
            return 0
        ledger, metrics = measure(args, cli, workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, reasons in sorted(ledger.reasons.items()):
        for known, reason in sorted(reasons):
            label = "KNOWN FAULT" if known else "FAILED"
            print(f"{label} {' '.join(workload.commands[i].argv)}: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value!r:>24} {unit}", file=sys.stderr)
    print(f"{args.workload}: {ledger.attempted} ops attempted, {ledger.failed} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": ledger.unexpected == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
