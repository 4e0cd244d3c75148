"""Per-layer spans around coherence-lab's public functions, installed from outside.

``Tracer.install`` replaces every public function of the seven package
modules, in every module namespace that holds it (``harness`` does
``from .channels import apply_channel``), with a wrapper that records a
span, and wraps ``__init__`` of the validating dataclasses (those with a
``__post_init__``).  ``uninstall`` puts the originals back.  Spans stay in
memory and are written when the run ends; ``cli.run`` opens one request.

Three arithmetic helpers of ``numerics`` (``dagger``, ``frobenius``,
``as_square_matrix``) are left unwrapped: they are called several times per
matrix operation, so a span around each would cost more than the work.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time

PACKAGE = "coherence_lab"
LAYERS = ("numerics", "states", "channels", "measures", "mcs", "harness", "cli")
UNTRACED = {"numerics": {"dagger", "frobenius", "as_square_matrix"}}
# The four pure-state fast paths share one metric, as do the harness checks.
PURE_FNS = {"l1_pure", "rel_ent_pure", "c_skew_pure", "trivial_pure"}
SPAN_CAP = 100_000

# (layer, metric key, fields) of every reported per-layer metric.
REPORTED = (
    ("numerics", "hermitian_eigen", ("calls", "s", "per_op")),
    ("numerics", "psd_sqrt", ("calls", "s")),
    ("states", "PureState", ("calls", "s", "per_op")),
    ("states", "DensityMatrix", ("calls", "s")),
    ("states", "random_density", ("calls", "s")),
    ("states", "random_pure", ("calls", "s")),
    ("channels", "KrausChannel", ("calls", "s")),
    ("channels", "random_incoherent_channel", ("calls", "s")),
    ("channels", "random_incoherent_unitary", ("calls", "s")),
    ("channels", "apply_channel", ("calls", "s")),
    ("channels", "apply_selective", ("calls", "s")),
    ("channels", "is_cpo", ("calls", "s")),
    ("measures", "c_l1", ("calls", "s")),
    ("measures", "c_rel_ent", ("calls", "s")),
    ("measures", "c_skew", ("calls", "s")),
    ("measures", "c_int_rand", ("calls", "s")),
    ("measures", "pure", ("calls", "s")),
    ("mcs", "mcs_deviation", ("calls", "s")),
    ("mcs", "is_mcs", ("calls", "s")),
    ("mcs", "mcs_sample", ("calls", "s")),
    ("harness", "check", ("calls", "s")),
    ("cli", "run", ("calls", "s")),
)
UNITS = {"calls": "count", "s": "s", "per_op": "calls/op"}


def metric_units() -> dict:
    """Name -> unit of every per-layer metric the traced run prints."""
    units = {f"{layer}.{key}.{field}": UNITS[field] for layer, key, fields in REPORTED for field in fields}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["harness.trials"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _metric_key(name: str) -> str:
    if name in PURE_FNS:
        return "pure"
    if name.startswith("check_"):
        return "check"
    return name


class Tracer:
    def __init__(self):
        self.stats = {}  # (layer, key) -> [calls, inclusive s, self s]
        self.trials = 0  # trials in the reports the checks returned
        self.spans = []  # (id, parent id, request, layer, name, start, end), first SPAN_CAP
        self._stack = []  # open spans: [id, seconds covered by child spans]
        self._next_id = 0
        self._request = -1
        self._undo = []

    def _wrap(self, layer: str, name: str, fn):
        stats = self.stats.setdefault((layer, _metric_key(name)), [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        is_request = layer == "cli" and name == "run"
        is_check = name.startswith("check_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_request:
                self._request += 1
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], None if parent is None else parent[0],
                                  self._request, layer, name, start, end))
            if is_check:
                self.trials += result.trials
            return result

        return traced

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [pkg, *modules.values()]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in UNTRACED.get(layer, ())
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isclass(obj):
                    if dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__"):
                        self._undo.append((obj, "__init__", obj.__dict__["__init__"]))
                        obj.__init__ = self._wrap(layer, name, obj.__init__)
                elif inspect.isfunction(obj):
                    traced = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._undo.append((ns, attr, obj))
                                setattr(ns, attr, traced)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def metrics(self, rounds: int, ops_per_round: int) -> dict:
        """Per-layer figures per round of the workload, over ``rounds`` traced rounds."""

        def per_round(x):
            if isinstance(x, int) and x % rounds == 0:
                return x // rounds
            return x / rounds

        out = {}
        for layer, key, fields in REPORTED:
            calls, incl, _ = self.stats.get((layer, key), (0, 0.0, 0.0))
            values = {"calls": per_round(calls), "s": incl / rounds,
                      "per_op": calls / rounds / ops_per_round}
            for field in fields:
                out[f"{layer}.{key}.{field}"] = values[field]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s[2] for (lay, _), s in self.stats.items() if lay == layer) / rounds
        out["harness.trials"] = per_round(self.trials)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent, request, layer, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "request", "layer", "name", "start", "end"), span))) + "\n")
