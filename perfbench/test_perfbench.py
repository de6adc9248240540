"""The benchmark's own tests: ``python -m pytest perfbench -q`` from the repo root."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import ENTRY_POINTS, PER_LAYER, Tracer, installed_wrappers  # noqa: E402


class StepClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_untraced_runs_have_no_wrappers_installed():
    assert installed_wrappers() == []
    with Tracer():
        assert len(installed_wrappers()) == len(ENTRY_POINTS)
        import repro.core.model as model

        # Patched where the caller looks the name up, not where it is defined.
        assert hasattr(model.membership_matrix, tracing.WRAPPED_MARK)
        assert hasattr(model.motion_signature, tracing.WRAPPED_MARK)
    assert installed_wrappers() == []


def test_wrapper_records_a_span_and_returns_the_result():
    import repro.core.model as model

    centers = np.array([[0.0, 0.0], [1.0, 1.0]])
    points = np.array([[0.1, 0.0], [0.9, 1.0]])
    plain = model.membership_matrix(points, centers)
    with Tracer() as tracer:
        traced = model.membership_matrix(points, centers)
    assert np.array_equal(plain, traced)
    assert tracer.by_name()["fuzzy.membership"]["calls"] == 1


def test_children_self_times_sum_to_no_more_than_the_parent_span():
    tracer = Tracer(clock=StepClock())
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    spans = {sp.name: sp for sp in tracer.spans}
    for parent_index, parent in enumerate(tracer.spans):
        children = [sp for sp in tracer.spans if sp.parent == parent_index]
        assert sum(sp.self_s for sp in children) <= parent.duration_s
        assert parent.self_s == parent.duration_s - sum(sp.duration_s for sp in children)
    assert spans["root"].duration_s == 7.0  # eight readings, one second apart
    assert spans["root"].self_s == 3.0  # a took 3 s and b 1 s of the 7
    rows = {row["path"]: row for row in tracer.tree()}
    assert rows["root/(unattributed)"]["self_s"] == spans["root"].self_s
    assert rows["root/a/(unattributed)"]["self_s"] == spans["a"].self_s
    assert "root/b/(unattributed)" not in rows  # a leaf has no children


def test_layer_metrics_cover_every_per_layer_metric():
    values = tracing.layer_metrics(Tracer(), bytes_per_row=260.0, overhead_pct=1.5)
    assert list(values) == [name for name, _ in PER_LAYER]
    assert values["trace.overhead_pct"] == 1.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_query_count_leaves_ten_samples_beyond_p99(name):
    assert workloads.tail_count(workloads.WORKLOADS[name].min_queries) >= 10


def test_fit_serve_queries_are_distinct_crops():
    w = workloads.WORKLOADS["fit-serve"]
    lengths = [300, 280, 350, 410, 290, 330, 360, 310]
    n = workloads.MAX_BLOCKS_FACTOR * w.min_queries
    crops = workloads.plan_crops(lengths, n, seed=7, fps=120.0)
    assert len(set(crops)) == len(crops) == n
    for r, a, b in crops:
        assert 0 <= a < b <= lengths[r]
        assert min(120, 0.7 * lengths[r]) - 1 <= b - a <= min(180, lengths[r]) + 1


def test_a_record_too_short_for_more_distinct_crops_drops_out():
    crops = workloads.plan_crops([10, 300], 100, seed=3, fps=120.0)
    assert len(set(crops)) == len(crops) == 100
    assert sum(1 for r, _, _ in crops if r == 0) <= 10  # 7-10 frames: 10 crops
    with pytest.raises(ValueError):
        workloads.plan_crops([10], 11, seed=3, fps=120.0)


def test_a_different_seed_changes_the_generated_inputs():
    s0, s1 = workloads.InputSeeds.from_seed(0), workloads.InputSeeds.from_seed(1)
    assert s0 == workloads.InputSeeds.from_seed(0)
    assert all(getattr(s0, f) != getattr(s1, f) for f in s0.__dataclass_fields__)
    lengths = [300, 280, 350]
    assert workloads.plan_crops(lengths, 50, s0.crops, 120.0) != workloads.plan_crops(
        lengths, 50, s1.crops, 120.0)
    vectors = np.random.default_rng(0).random((100, 6))
    assert not np.array_equal(workloads.population_queries(vectors, 8, s0.queries),
                              workloads.population_queries(vectors, 8, s1.queries))


def _tied_model(program_winner: int) -> SimpleNamespace:
    """One window equally near the coincident centers 0 and 1."""
    window = np.array([[1.0, 0.1]])
    centers = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d2 = ((window - centers) ** 2).sum(axis=1)
    highest = (1.0 / d2).max() / (1.0 / d2).sum()
    database = np.zeros((2, 6))
    database[0, 0:2] = highest  # cluster 0 won
    database[1, 2:4] = highest  # cluster 1 won
    return SimpleNamespace(
        scaler=SimpleNamespace(transform=lambda x: x),
        featurizer=SimpleNamespace(features=lambda r: SimpleNamespace(matrix=window)),
        centers=centers, m=2.0, database_signatures=database,
        database_labels=["won-0", "won-1"],
        signature=lambda r: SimpleNamespace(window_clusters=np.array([program_winner])))


def test_oracle_takes_the_programs_winner_among_tied_memberships():
    dist, _ = checks.oracle_query(_tied_model(1), record=None)
    assert dist[1] == 0.0 < dist[0]
    dist, _ = checks.oracle_query(_tied_model(0), record=None)
    assert dist[0] == 0.0 < dist[1]


def test_oracle_rejects_a_winner_outside_the_tie():
    dist, _ = checks.oracle_query(_tied_model(2), record=None)
    assert dist[0] == 0.0 < dist[1]  # its own argmax, so the answer mismatches


def test_host_factor_uses_the_kernel_timings_of_the_interval():
    host = calibration.HostSpeed()
    ref, n = calibration.REFERENCE_S, calibration.MIN_SAMPLES
    host._at = [float(i) for i in range(3 * n)]
    # The host ran at half speed from n to 2n.
    host._took = [ref] * n + [2 * ref] * n + [ref] * n
    assert host.factors([(0.0, 3.0 * n)]) == [1.0]
    assert host.factors([(n, 2.0 * n)]) == [0.5]
    # A short interval takes the MIN_SAMPLES nearest timings.
    assert host.factors([(1.5 * n, 1.5 * n + 0.1)]) == [0.5]
    assert host.factors([(2.5 * n, 2.5 * n + 0.1)]) == [1.0]


def test_host_speed_thread_stops_when_the_block_ends():
    with calibration.HostSpeed() as host:
        assert host._thread.is_alive()
    assert not host._thread.is_alive()


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
