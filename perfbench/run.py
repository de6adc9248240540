"""Run the benchmark: ``python3 perfbench/run.py --workload NAME --seed N``.

One workload per call, in this process: its four phases run untraced and
their end-to-end metrics are printed (``--trace 0``), or an untraced and
then a traced pass run and the per-layer metrics are printed
(``--trace 1``).  ``--workload all`` runs every workload in a fresh
interpreter, untraced and then traced, and prints both tables.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
pass and the run's environment stamp go to ``.perfbench_out/`` at the root
of the checkout.  Run from the root of a checkout; the program is imported
from its ``src/`` directory, and BLAS/OpenMP threads are pinned to one.
"""

from __future__ import annotations

import os
import sys

THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = THREADS
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Fresh-interpreter imports timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
SETUP_IMPORT = ("import repro.core.model, repro.data.protocol, repro.data.population, "
                "repro.retrieval.linear, repro.retrieval.shard, repro.retrieval.store")


def _fail(message: str) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the program.

    Each import is scaled to the reference host speed, as every timed
    phase is (see ``calibration.py``).
    """
    from calibration import HostSpeed

    intervals = []
    with HostSpeed() as host:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=_child_env(),
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
            intervals.append((t0, time.perf_counter()))
            if proc.returncode != 0:
                raise _fail(f"importing the program failed:\n{proc.stderr}")
    return statistics.median((b - a) * f for (a, b), f in zip(intervals, host.factors(intervals)))


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    from checks import environment_key

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:  # the program does not need scipy
        scipy_version = "absent"
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, **environment_key(),
            "threads": THREADS, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace}


def run_one(name: str, seed: int, seconds: int, trace: int, record: bool) -> dict:
    import numpy as np

    import checks
    import workloads
    from repro.obs.config import is_enabled
    from tracing import PER_LAYER, Tracer, installed_wrappers, layer_metrics

    workload = workloads.WORKLOADS[name]
    if is_enabled():
        raise _fail("repro.obs is switched on; the benchmark measures it off")
    setup_s = measure_setup()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    env = stamp(name, seed, seconds, trace)
    print("# env " + json.dumps(env, sort_keys=True))
    try:
        if installed_wrappers():
            raise _fail(f"wrappers installed before an untraced pass: {installed_wrappers()}")
        untraced = workloads.run_pass(workload, seed, 0 if trace else seconds, workdir)
        passes = [untraced]
        if trace:
            tracer = Tracer()
            with tracer:
                traced = workloads.run_pass(workload, seed, 0, workdir, tracer)
            passes.append(traced)
        if installed_wrappers():
            raise _fail(f"wrappers left installed: {installed_wrappers()}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [checks.check_pass(name, seed, out) for out in passes]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if record:
        checks.record_reference(workload, seed, untraced)

    if trace:
        values = layer_metrics(tracer, traced.bytes_per_row,
                               100.0 * (traced.timed_s / untraced.timed_s - 1.0))
        units = dict(PER_LAYER)
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps(
            {"env": env, "metrics": values, **tracer.export()}, indent=1) + "\n")
        print("# layer tree (self time; '(unattributed)' is a parent's own time):")
        for row in tracer.tree():
            depth = row["path"].count("/")
            leaf = row["path"].rsplit("/", 1)[-1]
            print(f"#   {'  ' * depth}{leaf:<32} calls={row['calls']:<7} "
                  f"total={row['total_s']:.4f}s self={row['self_s']:.4f}s")
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    else:
        values = {"setup_s": setup_s, **workloads.end_to_end(untraced),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(workloads.END_TO_END)
        n = len(untraced.timings["serve"])
        print(f"# serve: {n} queries (closed loop, 1 client), "
              f"p99 {np.percentile(workloads.samples(untraced, 'serve'), 99) * 1e3:.6g} ms "
              f"({workloads.tail_count(n)} beyond it); campaign reps "
              f"{len(untraced.timings['campaign'])}, fits {len(untraced.timings['fit'])}, "
              f"population rounds {len(untraced.timings['shard'])}")
        raw = workloads.end_to_end(untraced, scaled=False)
        print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print(f"# inputs: campaign records {untraced.recorded_s:.2f} s of motion; "
              f"median query {statistics.median(untraced.query_s):.3f} s of motion")
    for key, value in values.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(f"error_rate {failed / max(attempted, 1):.6g} ({failed}/{attempted} failed"
          f"{', reference labels checked' if results[0].reference_used else ''})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(names, seed: int, seconds: int) -> dict:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            print(f"## {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise _fail(f"{name} (trace={trace}) exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["workloads"].setdefault(name, {}).update(result["metrics"])
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's labels in reference.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        raise _fail(f"cannot import the program from {SRC}: {exc}")
    if args.workload == "all":
        result = run_all(list(workloads.WORKLOADS), args.seed, args.seconds)
    elif args.workload in workloads.WORKLOADS:
        result = run_one(args.workload, args.seed, args.seconds, args.trace,
                         args.record_reference)
    else:
        raise _fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(workloads.WORKLOADS)} or 'all'")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
