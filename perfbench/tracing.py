"""Outside-in span tracing of the program's public entry points.

The tracer never touches the program's own ``repro.obs`` instrumentation.
It replaces each public entry point named in :data:`ENTRY_POINTS` with a
wrapper that records a span (name, start, end, parent) into an in-memory
list, and puts the original back on :meth:`Tracer.uninstall`.  Each entry
point is patched at the name its caller looks up: a method on the class
that defines it, or a function in the module whose global the caller reads
(``repro.core.model`` imports ``membership_matrix`` and ``motion_signature``
by name, so those are patched there).

Self time is a span's duration minus the durations of its direct child
spans.  Calls are strictly nested in one thread, so children never
overlap and their sum never exceeds the parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Marker set on every wrapper, so a check can tell wrapped from original.
WRAPPED_MARK = "__perfbench_span__"


def _count_samples(tracer: "Tracer", result) -> None:
    tracer.counters["signal.filtfilt.samples"] += result.size


def _count_windows(tracer: "Tracer", result) -> None:
    tracer.counters["features.windows"] += result.n_windows


def _count_iterations(tracer: "Tracer", result) -> None:
    tracer.counters["fuzzy.cmeans_fit.iterations"] += result.n_iter


#: (module, class or None, attribute, span name, result counter).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.signal.filters", "IIRFilter", "apply_zero_phase", "signal.filtfilt",
     _count_samples),
    ("repro.emg.synthesis", "SurfaceEMGSynthesizer", "synthesize", "emg.synthesize", None),
    ("repro.emg.myomonitor", "Myomonitor", "acquire", "emg.acquire", None),
    ("repro.emg.myomonitor", "Myomonitor", "condition", "emg.condition", None),
    ("repro.mocap.vicon", "ViconSystem", "capture", "mocap.capture", None),
    ("repro.motions.base", "MotionClass", "plan", "motions.plan", None),
    ("repro.sync.session", "AcquisitionSession", "record_trial", "sync.record_trial", None),
    ("repro.data.protocol", None, "build_dataset", "data.build_dataset", None),
    ("repro.data.population", None, "synthesize_population",
     "data.synthesize_population", None),
    ("repro.features.combine", "WindowFeaturizer", "features", "features.featurize",
     _count_windows),
    ("repro.features.scaling", "FeatureScaler", "fit", "features.scaler", None),
    ("repro.features.scaling", "FeatureScaler", "transform", "features.scaler", None),
    ("repro.fuzzy.cmeans", "FuzzyCMeans", "fit", "fuzzy.cmeans_fit", _count_iterations),
    ("repro.core.model", None, "membership_matrix", "fuzzy.membership", None),
    ("repro.core.model", None, "motion_signature", "core.signature", None),
    ("repro.core.model", "MotionClassifier", "fit", "core.fit", None),
    ("repro.core.model", "MotionClassifier", "classify", "core.query", None),
    ("repro.core.model", "MotionClassifier", "kneighbors", "core.query", None),
    ("repro.retrieval.linear", "LinearScanIndex", "query", "retrieval.linear.query", None),
    ("repro.retrieval.store", "SignatureStore", "ingest", "retrieval.store.ingest", None),
    ("repro.retrieval.shard", "ShardedSignatureIndex", "fit_store",
     "retrieval.shard.fit_store", None),
    ("repro.retrieval.shard", "ShardedSignatureIndex", "query_batch",
     "retrieval.shard.query_batch", None),
)


#: Per-layer metrics and their units, in print order.
PER_LAYER = (
    ("signal.filtfilt.calls", "count"),
    ("signal.filtfilt.self_s", "s"),
    ("signal.filtfilt.samples_per_s", "1/s"),
    ("emg.synthesize.self_s", "s"),
    ("emg.acquire.self_s", "s"),
    ("emg.condition.self_s", "s"),
    ("mocap.capture.self_s", "s"),
    ("motions.plan.self_s", "s"),
    ("sync.record_trial.self_s", "s"),
    ("data.build_dataset.self_s", "s"),
    ("data.synthesize_population.self_s", "s"),
    ("features.featurize.calls", "count"),
    ("features.featurize.self_s", "s"),
    ("features.windows", "count"),
    ("features.windows_per_s", "1/s"),
    ("features.scaler.self_s", "s"),
    ("fuzzy.cmeans_fit.self_s", "s"),
    ("fuzzy.cmeans_fit.iterations", "count"),
    ("fuzzy.membership.calls", "count"),
    ("fuzzy.membership.self_s", "s"),
    ("core.fit.self_s", "s"),
    ("core.signature.self_s", "s"),
    ("core.query.self_s", "s"),
    ("retrieval.linear.query.calls", "count"),
    ("retrieval.linear.query.self_s", "s"),
    ("retrieval.store.ingest.self_s", "s"),
    ("retrieval.store.bytes_per_row", "B"),
    ("retrieval.shard.fit_store.self_s", "s"),
    ("retrieval.shard.query_batch.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def installed_wrappers() -> List[str]:
    """Entry points that currently hold a tracing wrapper (empty when untraced)."""
    found = []
    for module, cls, attr, _, _ in ENTRY_POINTS:
        if hasattr(vars(_owner(module, cls))[attr], WRAPPED_MARK):
            found.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    return found


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, -1 at the root."""

    name: str
    start: float
    end: float
    parent: int
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            sp = self.spans[index]
            sp.end = self.clock()
            if parent >= 0:
                self.spans[parent].child_s += sp.duration_s

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module, cls, attr, name, on_result in ENTRY_POINTS:
            self.wrap(_owner(module, cls), attr, name, on_result)
        return self

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reports --------------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Calls, inclusive and self seconds per span name.

        A recursive name (``core.query`` nests ``classify`` over
        ``kneighbors``) counts its self time once per call, so self
        seconds add up without double counting.
        """
        out: Dict[str, Dict[str, float]] = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration_s
            row["self_s"] += sp.self_s
        return out

    def tree(self) -> List[Dict[str, object]]:
        """Aggregated call tree, depth first, one row per span path.

        Every node with children is followed by an ``(unattributed)`` row:
        the part of its time that no child span covers.
        """
        nodes: Dict[Tuple[str, ...], Dict[str, float]] = {}
        paths: List[Tuple[str, ...]] = []
        for sp in self.spans:
            path = (paths[sp.parent] if sp.parent >= 0 else ()) + (sp.name,)
            paths.append(path)
            row = nodes.setdefault(path, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration_s
            row["self_s"] += sp.self_s
        has_children = {path[:-1] for path in nodes}
        rows: List[Dict[str, object]] = []

        def visit(prefix: Tuple[str, ...]) -> None:
            for path in sorted((p for p in nodes if p[:-1] == prefix),
                               key=lambda p: -nodes[p]["total_s"]):
                rows.append({"path": "/".join(path), **nodes[path]})
                if path in has_children:
                    visit(path)
                    rows.append({"path": "/".join(path + ("(unattributed)",)),
                                 "calls": nodes[path]["calls"],
                                 "total_s": nodes[path]["self_s"],
                                 "self_s": nodes[path]["self_s"]})

        visit(())
        return rows

    def export(self) -> Dict[str, object]:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": [
                {"name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": sp.parent}
                for sp in self.spans
            ],
            "counters": dict(self.counters),
            "by_name": self.by_name(),
            "tree": self.tree(),
        }


def layer_metrics(tracer: Tracer, bytes_per_row: float,
                  overhead_pct: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a finished traced pass."""
    rows = tracer.by_name()
    out: Dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, quantity = metric.rsplit(".", 1)
        if quantity in ("calls", "self_s"):
            out[metric] = rows.get(layer, {}).get(quantity, 0)
    filt = out["signal.filtfilt.self_s"]
    feat = out["features.featurize.self_s"]
    out["signal.filtfilt.samples_per_s"] = (
        tracer.counters["signal.filtfilt.samples"] / filt if filt else 0.0)
    out["features.windows"] = tracer.counters["features.windows"]
    out["features.windows_per_s"] = out["features.windows"] / feat if feat else 0.0
    out["fuzzy.cmeans_fit.iterations"] = tracer.counters["fuzzy.cmeans_fit.iterations"]
    out["retrieval.store.bytes_per_row"] = bytes_per_row
    out["trace.overhead_pct"] = overhead_pct
    return {metric: out[metric] for metric, _ in PER_LAYER}


def null_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op context when untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)
