"""The benchmark's workloads: the paper's whole chain, sized three ways.

Every workload runs the same timed phases, from the seed to checked
answers, so that every end-to-end metric is measured on every workload:

campaign
    ``build_dataset`` (motion planning, synchronized mocap + EMG
    acquisition, conditioning), a stratified split, ``MotionClassifier.fit``
    and ``classify`` of every held-out record -> ``campaign_s_per_min``
    (campaign seconds per minute of motion recorded: seeds vary the
    recorded length by up to 20%).
rounds
    Then, round after round:

    * fit -- a refit of the campaign's training records at the paper's
      heaviest grid corner, with a fresh FCM initialisation seed and run to
      FCM's iteration cap (see :func:`corner_classifier`) -> ``fit_s_per_min``
      (median over the run's fits, per minute of training motion);
    * serve -- a closed loop with one client over distinct queries: seeded
      crops (1-1.5 s, at most 70-100% of the length) of the held-out records,
      each answered by ``classify(k=1)`` then ``kneighbors(k=5)`` ->
      ``query_p50_ms``, ``query_p95_ms`` over every query of the run;
    * population -- the fitted signatures, inflated once by
      ``synthesize_population``, ingested into a fresh store,
      ``ShardedSignatureIndex.fit_store``, one batched ``query_batch`` and
      the same queries through ``LinearScanIndex.query`` ->
      ``ingest_rows_per_s``, ``shard_knn_qps``, ``linear_knn_qps``
      (medians over rounds).

Interleaving campaigns and rounds spreads each metric's samples over the
whole run, so a slow stretch of the host weighs on all of them alike
instead of on whichever phase it happened to hit.  On the 2-vCPU host the
benchmark was built on, the same work ran up to 2x slower for stretches
of seconds to minutes, so every timing is also scaled by the host speed
measured over its own interval (see :mod:`calibration`).

The workloads differ in size, which sets the layer each one loads (see
``README.md`` in this directory).  A run is a sequence of blocks, each one
campaign followed by a few rounds; blocks repeat until ``--seconds`` is
used and never fewer than the workload's minimum, and a traced pass runs
exactly the minimum, so its counts are exact.  All answers are checked
after the pass, outside every timed region, by :mod:`checks`.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import MotionClassifier
from repro.data import population as population_mod
from repro.data import protocol as protocol_mod
from repro.data.record import RecordedMotion
from repro.features.combine import WindowFeaturizer
from repro.fuzzy.cmeans import FuzzyCMeans
from repro.retrieval.linear import LinearScanIndex
from repro.retrieval.shard import ShardedSignatureIndex
from repro.retrieval.store import SignatureStore
from calibration import HostSpeed
from tracing import Tracer, null_span

#: End-to-end metrics and their units, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s_per_min", "s/min"),
    ("fit_s_per_min", "s/min"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("ingest_rows_per_s", "1/s"),
    ("shard_knn_qps", "1/s"),
    ("linear_knn_qps", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Timed samples a pass keeps, by phase; the last three are rates.
TIMED = ("campaign", "fit", "serve", "ingest", "shard", "linear")
RATES = frozenset(TIMED[3:])

SERVE_K = 5
POPULATION_K = 10
POPULATION_SHARDS = 16
POPULATION_TENANTS = 32
POPULATION_BATCHES = 5
QUERY_JITTER = 0.01
#: Query length: a draw from CROP_S seconds, but at most a draw from
#: CROP_RANGE of the record.  An absolute length keeps the queries' cost
#: the same across seeds, which scale every motion's duration by up to
#: 20% (a participant's style); the share keeps short records' crops distinct.
CROP_S = (1.0, 1.5)
CROP_RANGE = (0.7, 1.0)
MAX_MISSES = 1000
#: Most blocks a run makes, as a multiple of the minimum; bounds the crops cut.
MAX_BLOCKS_FACTOR = 3


def corner_classifier() -> MotionClassifier:
    """The fit phase's model: the paper's heaviest grid corner, fixed work.

    c=40 over 50 ms windows at a 25 ms stride, with FCM run to its
    200-iteration cap (``tol=0``), so every fit does the same number of
    iterations.  At the default tolerance the count depends on the seed's
    data (84 to 200 across seeds), which would swamp any change in the
    cost of a fit; smaller corners can reach an exact fixed point early
    even at ``tol=0``.
    """
    return MotionClassifier(
        n_clusters=40, featurizer=WindowFeaturizer(window_ms=50.0, stride_ms=25.0),
        clusterer=lambda c: FuzzyCMeans(n_clusters=c, tol=0.0), cache_dir=None)


@dataclass(frozen=True)
class Workload:
    """One sizing of the chain."""

    name: str
    protocol: str
    participants: int
    trials: int
    clusters: int
    window_ms: float
    stride_ms: Optional[float]
    #: A block is one campaign followed by ``rounds_per_block`` rounds.
    min_blocks: int
    rounds_per_block: int
    queries_per_round: int
    population_rows: int
    population_queries: int

    @property
    def min_queries(self) -> int:
        return self.min_blocks * self.rounds_per_block * self.queries_per_round

    def classifier(self) -> MotionClassifier:
        # The program's defaults: repro.obs off, no feature cache, serial.
        return MotionClassifier(
            n_clusters=self.clusters,
            featurizer=WindowFeaturizer(window_ms=self.window_ms, stride_ms=self.stride_ms),
            cache_dir=None)

    def protocol_spec(self):
        return (protocol_mod.hand_protocol() if self.protocol == "hand"
                else protocol_mod.leg_protocol())


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Acquisition-bound: the paper's light corner, so the campaign
        # (acquisition and EMG filtering) takes most of the run.
        Workload(
            name="campaign-cold", protocol="hand", participants=1, trials=2,
            clusters=8, window_ms=100.0, stride_ms=None,
            min_blocks=1, rounds_per_block=5, queries_per_round=440,
            population_rows=20_000, population_queries=32,
        ),
        # FCM- and query-bound: the paper's heaviest grid corner.
        Workload(
            name="fit-serve", protocol="hand", participants=1, trials=2,
            clusters=40, window_ms=50.0, stride_ms=25.0,
            min_blocks=1, rounds_per_block=6, queries_per_round=370,
            population_rows=20_000, population_queries=32,
        ),
        # Retrieval-bound: 100k x 30 float64 signatures, larger than L2.
        Workload(
            name="population-knn", protocol="leg", participants=1, trials=2,
            clusters=15, window_ms=100.0, stride_ms=None,
            min_blocks=2, rounds_per_block=2, queries_per_round=550,
            population_rows=100_000, population_queries=32,
        ),
    )
}


def tail_count(n: int, q: float = 0.99) -> int:
    """Samples strictly beyond the ``q`` quantile of ``n`` samples."""
    return n - math.ceil(q * n)


@dataclass(frozen=True)
class InputSeeds:
    """Every seed the workload hands the program, derived from ``--seed``."""

    data: int
    split: int
    fit: int
    crops: int
    population: int
    queries: int

    @classmethod
    def from_seed(cls, seed: int) -> "InputSeeds":
        return cls(*(int(v) for v in np.random.SeedSequence(seed).generate_state(6)))


def plan_crops(lengths: List[int], n: int, seed: int,
               fps: float) -> List[Tuple[int, int, int]]:
    """``n`` distinct ``(record, start, stop)`` crops of ``CROP_S`` seconds.

    A crop is at most ``CROP_RANGE`` of its record.  Records take turns, so
    every held-out record is queried equally often, until a record too
    short to give more distinct crops (``MAX_MISSES`` draws in a row repeat
    one) drops out of the turns.
    """
    rng = np.random.default_rng(seed)
    seen = set()
    plans: List[Tuple[int, int, int]] = []
    live = list(range(len(lengths)))
    misses = 0
    while len(plans) < n:
        if not live:
            raise ValueError(f"the records give fewer than {n} distinct crops")
        r = live[len(plans) % len(live)]
        length = lengths[r]
        size = max(2, int(round(min(rng.uniform(*CROP_S) * fps,
                                    rng.uniform(*CROP_RANGE) * length))))
        start = int(rng.integers(0, length - size + 1))
        plan = (r, start, start + size)
        if plan not in seen:
            seen.add(plan)
            plans.append(plan)
            misses = 0
        else:
            misses += 1
            if misses == MAX_MISSES:
                live.remove(r)
                misses = 0
    return plans


def cut(record: RecordedMotion, start: int, stop: int) -> RecordedMotion:
    """Frames ``[start, stop)`` of ``record`` as a query motion."""
    return RecordedMotion(
        label=record.label, participant_id=record.participant_id,
        trial_id=record.trial_id,
        mocap=record.mocap.slice_frames(start, stop),
        emg=record.emg.slice_samples(start, stop),
        metadata=dict(record.metadata),
    )


def population_queries(vectors: np.ndarray, n: int, seed: int) -> np.ndarray:
    """``n`` perturbed copies of stored rows."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, vectors.shape[0], size=n)
    return np.clip(vectors[rows] + rng.normal(0.0, QUERY_JITTER,
                                              size=(n, vectors.shape[1])), 0.0, 1.0)


@dataclass
class PassOutput:
    """Timings and raw answers of one pass; answers are checked later."""

    model: MotionClassifier
    test_records: List[RecordedMotion]
    #: The pass's timed seconds, scaled to the reference host speed.
    timed_s: float = 0.0
    timings: Dict[str, List[float]] = field(default_factory=lambda: {
        k: [] for k in TIMED})
    #: Per timing, the ``perf_counter`` interval it was timed over, and the
    #: host-speed factor over that interval (see :mod:`calibration`).
    intervals: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=lambda: {k: [] for k in TIMED})
    scales: Dict[str, List[float]] = field(default_factory=dict)
    campaign_labels: List[List[str]] = field(default_factory=list)
    #: Per query: its crop, then the label, neighbour keys and distances
    #: (an empty label when the query raised).
    crops: List[Tuple[int, int, int]] = field(default_factory=list)
    served: List[Tuple[str, List[str], List[float]]] = field(default_factory=list)
    #: Per population round: sharded ids, distances, oracle ids, distances.
    knn_rounds: List[Tuple[np.ndarray, ...]] = field(default_factory=list)
    knn_errors: int = 0
    bytes_per_row: float = 0.0
    #: Seconds of motion the campaign records, of its training records,
    #: and of each query.
    recorded_s: float = 0.0
    train_s: float = 0.0
    query_s: List[float] = field(default_factory=list)

    def record(self, key: str, value: float, start: float, stop: float) -> None:
        self.timings[key].append(value)
        self.intervals[key].append((start, stop))


class _Pass:
    """The state one pass threads through its phases."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.seeds = InputSeeds.from_seed(seed)
        self.workdir = workdir

    def campaign(self) -> Tuple[MotionClassifier, list, List[str], list]:
        dataset = protocol_mod.build_dataset(
            self.w.protocol_spec(), n_participants=self.w.participants,
            trials_per_motion=self.w.trials, seed=self.seeds.data)
        train, test = dataset.train_test_split(0.25, seed=self.seeds.split)
        model = self.w.classifier().fit(train, seed=self.seeds.fit)
        self.recorded_s = sum(r.duration_s for r in dataset)
        return model, list(train), [model.classify(r, k=1) for r in test], list(test)

    def serve(self, out: PassOutput, crops: List[Tuple[int, int, int]]) -> None:
        model, test = out.model, out.test_records
        for r, a, b in crops:
            query = cut(test[r], a, b)
            try:
                t0 = time.perf_counter()
                label = model.classify(query, k=1)
                neighbors = model.kneighbors(query, k=SERVE_K)
                t1 = time.perf_counter()
                out.record("serve", t1 - t0, t0, t1)
            except Exception:  # a raised error is a failed query, not a crash
                label, neighbors = "", []
            out.crops.append((r, a, b))
            out.query_s.append(query.duration_s)
            out.served.append((label, [n.key for n in neighbors],
                               [n.distance for n in neighbors]))

    def knn_round(self, out: PassOutput, pop, index: int) -> None:
        w = self.w
        queries = population_queries(pop.vectors, w.population_queries,
                                     self.seeds.queries + index)
        batch = -(-w.population_rows // POPULATION_BATCHES)
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        try:
            store = SignatureStore(root)
            t0 = time.perf_counter()
            for a in range(0, w.population_rows, batch):
                store.ingest(pop.vectors[a:a + batch], list(pop.labels[a:a + batch]),
                             list(pop.tenants[a:a + batch]))
            sharded = ShardedSignatureIndex(n_shards=POPULATION_SHARDS,
                                            seed=self.seeds.population).fit_store(store)
            t1 = time.perf_counter()
            out.record("ingest", w.population_rows / (t1 - t0), t0, t1)
            out.bytes_per_row = store.stats().n_bytes / store.n_records
            try:
                t0 = time.perf_counter()
                ids, dists = sharded.query_batch(queries, POPULATION_K)
                t1 = time.perf_counter()
                out.record("shard", len(queries) / (t1 - t0), t0, t1)
            except Exception:  # every query of the failed batch failed
                out.knn_errors += len(queries)
                return
            contents = store.records()
            linear = LinearScanIndex().fit(contents.vectors)
            rows = np.empty((len(queries), POPULATION_K), dtype=np.int64)
            lin_dists = np.empty((len(queries), POPULATION_K))
            t0 = time.perf_counter()
            for qi, q in enumerate(queries):
                rows[qi], lin_dists[qi] = linear.query(q, POPULATION_K)
            t1 = time.perf_counter()
            out.record("linear", len(queries) / (t1 - t0), t0, t1)
            out.knn_rounds.append((ids, dists, contents.ids[rows], lin_dists))
        finally:
            shutil.rmtree(root, ignore_errors=True)


def run_pass(workload: Workload, seed: int, seconds: float, workdir: Path,
             tracer: Optional[Tracer] = None) -> PassOutput:
    """One pass of blocks; ``seconds=0`` runs the minimum number only.

    Every campaign repeats the same inputs, so the first one's model and
    held-out records serve all rounds.  The host's speed is sampled
    throughout, and every timing gets the factor of its interval.
    """
    start = time.perf_counter()
    with HostSpeed() as host:
        out = _run_blocks(_Pass(workload, seed, workdir), seconds, tracer)
    out.scales = {key: host.factors(spans) for key, spans in out.intervals.items()}
    out.timed_s *= host.factors([(start, time.perf_counter())])[0]
    return out


def _run_blocks(p: _Pass, seconds: float, tracer: Optional[Tracer]) -> PassOutput:
    workload = p.w
    max_blocks = MAX_BLOCKS_FACTOR * workload.min_blocks
    q = workload.queries_per_round
    out: Optional[PassOutput] = None
    rounds = 0
    start = time.perf_counter()
    for block in range(max_blocks):
        if block >= workload.min_blocks and time.perf_counter() - start >= seconds:
            break
        with null_span(tracer, "bench.campaign"):
            t0 = time.perf_counter()
            model, train, predicted, test = p.campaign()
            t1 = time.perf_counter()
        if out is None:
            out = PassOutput(model=model, test_records=test, recorded_s=p.recorded_s,
                             train_s=sum(r.duration_s for r in train))
        out.record("campaign", t1 - t0, t0, t1)
        if block == 0:
            # Derived inputs: cut outside the timed phases.
            untimed = time.perf_counter()
            crops = plan_crops([r.n_frames for r in test],
                               max_blocks * workload.rounds_per_block * q, p.seeds.crops,
                               test[0].fps)
            pop = population_mod.synthesize_population(
                model.database_signatures, model.database_labels,
                n_signatures=workload.population_rows, n_tenants=POPULATION_TENANTS,
                seed=p.seeds.population)
            start += time.perf_counter() - untimed
        out.campaign_labels.append(predicted)
        for i in range(rounds, rounds + workload.rounds_per_block):
            with null_span(tracer, "bench.fit"):
                t0 = time.perf_counter()
                corner_classifier().fit(train, seed=p.seeds.fit + 1 + i)
                t1 = time.perf_counter()
                out.record("fit", t1 - t0, t0, t1)
            with null_span(tracer, "bench.serve"):
                p.serve(out, crops[i * q:(i + 1) * q])
            with null_span(tracer, "bench.population"):
                p.knn_round(out, pop, i)
        rounds += workload.rounds_per_block
    out.timed_s = time.perf_counter() - start
    return out


def samples(out: PassOutput, key: str, scaled: bool = True) -> np.ndarray:
    """The pass's timings of ``key``, scaled to the reference host speed
    unless ``scaled`` is false: times are multiplied by their factor, rates
    divided by it."""
    raw = np.asarray(out.timings[key])
    if not scaled:
        return raw
    factors = np.asarray(out.scales[key])
    return raw / factors if key in RATES else raw * factors


def end_to_end(out: PassOutput, scaled: bool = True) -> Dict[str, float]:
    """The pass's end-to-end metrics (``setup_s`` and memory come from the run).

    ``query_p95_ms`` is the tail metric, not p99: p99 rests on the 1% of
    queries a host stall of a few milliseconds hits, and spread by up to
    0.30 across seeded runs where p95 stayed steady.
    """
    def values(key: str) -> np.ndarray:
        return samples(out, key, scaled)

    latencies_ms = values("serve") * 1e3
    return {
        "campaign_s_per_min": float(np.median(values("campaign")) * 60.0 / out.recorded_s),
        "fit_s_per_min": float(np.median(values("fit")) * 60.0 / out.train_s),
        "query_p50_ms": float(np.percentile(latencies_ms, 50)),
        "query_p95_ms": float(np.percentile(latencies_ms, 95)),
        "ingest_rows_per_s": float(np.median(values("ingest"))),
        "shard_knn_qps": float(np.median(values("shard"))),
        "linear_knn_qps": float(np.median(values("linear"))),
    }
