"""Answer checks, made after a pass and outside every timed region.

Three independent checks; each wrong answer or raised error is one failed
operation:

* every label and neighbour list is recomputed by :func:`oracle_query`, a
  separate implementation of the query side (Eq. 9 memberships, Eqs. 5-8
  signature, Euclidean nearest neighbours) over the fitted model's
  centers and database signatures.  At large c, FCM can place several
  centers within 1e-16 of each other; a window's memberships of such
  centers tie, and either may win Eq. 6 depending on rounding.  The
  oracle then takes the program's winner, provided it is one of the tied
  clusters, and recomputes the rest;
* labels of seeds recorded in ``reference.json`` must equal the recorded
  ones, when the run's environment matches the recording's (float
  results, and so FCM and the labels, may differ across BLAS builds and
  CPUs);
* every sharded k-NN answer must be bit-identical, ids and distances, to
  :class:`~repro.retrieval.linear.LinearScanIndex`.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from workloads import SERVE_K, PassOutput, Workload, cut

REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Relative gap within which two distances, or two memberships, count as tied.
TIE_RTOL = 1e-9


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    reference_used: bool = False

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def oracle_query(model, record) -> Tuple[np.ndarray, List[str]]:
    """Distances from ``record``'s signature to every database signature.

    Where a window's highest memberships tie to within ``TIE_RTOL``, the
    winner of the program's own signature is taken if it is among them.
    """
    scaled = model.scaler.transform(model.featurizer.features(record).matrix)
    centers = model.centers
    d2 = ((scaled[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    exponent = 1.0 / (model.m - 1.0)
    with np.errstate(divide="ignore"):
        inv = d2 ** -exponent
    hits = np.isinf(inv)
    u = np.where(hits.any(axis=1, keepdims=True), hits.astype(float), inv)
    u = u / u.sum(axis=1, keepdims=True)  # Eq. 9
    highest, winners = u.max(axis=1), u.argmax(axis=1)
    tied = u >= highest[:, None] * (1.0 - TIE_RTOL)
    if tied.sum(axis=1).max() > 1:
        chosen = model.signature(record).window_clusters
        admissible = tied[np.arange(len(winners)), chosen]
        winners = np.where(admissible, chosen, winners)
    signature = np.zeros(2 * centers.shape[0])
    for cluster in np.unique(winners):
        won = highest[winners == cluster]
        signature[2 * cluster], signature[2 * cluster + 1] = won.min(), won.max()
    db = model.database_signatures
    return np.sqrt(((db - signature) ** 2).sum(axis=1)), model.database_labels


def _neighbours_ok(dist: np.ndarray, keys: List[str], picked: List[str],
                   picked_dists: List[float]) -> bool:
    """``picked`` are ``len(picked)`` nearest rows, up to ties."""
    k = len(picked)
    best = np.sort(dist)[:k]
    index = {key: i for i, key in enumerate(keys)}
    if len(set(picked)) != k or any(key not in index for key in picked):
        return False
    mine = dist[[index[key] for key in picked]]
    tol = TIE_RTOL * (1.0 + best)
    return bool(np.all(np.abs(np.sort(mine) - best) <= tol)
                and np.all(np.abs(mine - np.asarray(picked_dists)) <= tol))


def _label_ok(dist: np.ndarray, labels: List[str], label: str) -> bool:
    """``label`` belongs to a nearest database row, up to ties."""
    nearest = dist.min()
    tied = np.flatnonzero(dist <= nearest + TIE_RTOL * (1.0 + nearest))
    return label in {labels[i] for i in tied}


def environment_key() -> Dict[str, str]:
    """What the recorded labels depend on beyond the code and the seed."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"machine": platform.machine(), "cpu": cpu, "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def load_reference() -> Dict:
    if not REFERENCE.exists():
        return {"environment": environment_key(), "workloads": {}}
    return json.loads(REFERENCE.read_text())


def _encode(labels: List[str], classes: List[str]) -> str:
    return "".join(str(classes.index(label)) if label in classes else "?"
                   for label in labels)


def answers(out: PassOutput) -> Dict[str, str]:
    """The pass's labels in the compact form ``reference.json`` stores."""
    classes = sorted(set(out.model.database_labels))
    return {"classes": ",".join(classes),
            "campaign": _encode(out.campaign_labels[0], classes),
            "serve": _encode([label for label, _, _ in out.served], classes)}


def record_reference(workload: Workload, seed: int, out: PassOutput) -> None:
    """Store this pass's labels as the reference for ``workload`` at ``seed``.

    Only the first ``workload.min_queries`` queries are stored: every run
    answers at least those, whatever its time budget.
    """
    ref = load_reference()
    if ref["environment"] != environment_key():
        raise SystemExit("reference.json was recorded in another environment; "
                         "delete it to record afresh")
    got = answers(out)
    got["serve"] = got["serve"][:workload.min_queries]
    ref["workloads"].setdefault(workload.name, {})[str(seed)] = got
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def check_pass(workload: str, seed: int, out: PassOutput) -> CheckResult:
    """Check every answer of one pass."""
    result = CheckResult()
    model, test = out.model, out.test_records
    for labels in out.campaign_labels:
        for record, label in zip(test, labels):
            result.add(labels == out.campaign_labels[0]
                       and _label_ok(*oracle_query(model, record), label))
    for (r, a, b), (label, keys, dists) in zip(out.crops, out.served):
        if not label:  # the query raised
            result.add(False)
            result.add(False)
            continue
        dist, labels = oracle_query(model, cut(test[r], a, b))
        result.add(_label_ok(dist, labels, label))
        result.add(len(keys) == SERVE_K
                   and _neighbours_ok(dist, model.database_keys, keys, dists))
    for ids, dists, lin_ids, lin_dists in out.knn_rounds:
        for qi in range(ids.shape[0]):
            result.add(np.array_equal(ids[qi], lin_ids[qi])
                       and np.array_equal(dists[qi], lin_dists[qi]))
    for _ in range(out.knn_errors):
        result.add(False)

    ref = load_reference()
    recorded: Optional[Dict[str, str]] = ref["workloads"].get(workload, {}).get(str(seed))
    if recorded is not None and ref["environment"] == environment_key():
        result.reference_used = True
        got = answers(out)
        for part in ("campaign", "serve"):
            want = recorded[part]
            result.attempted += len(want)
            result.failed += sum(1 for i, ch in enumerate(want)
                                 if i >= len(got[part]) or got[part][i] != ch)
        result.add(recorded["classes"] == got["classes"])
    return result
