"""One workload iteration in a fresh process; writes its record as JSON.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
The record holds set-up and body timestamps, CPU time, peak RSS, the
correctness checks, report digests, quality numbers, the environment and,
for a traced iteration, the per-layer metrics and the self-time table.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import checks as chk
from tracing import Tracer
from workloads import WORKLOADS

# (metric, span) pairs whose value is the span's self time.
SELF_TIME_METRICS = (
    ("learners.knn.predict_s", "learners.knn.predict"),
    ("learners.net.forward_s", "learners.net.forward"),
    ("learners.net.backward_s", "learners.net.backward"),
    ("learners.fit_s.knn", "learners.fit.knn"),
    ("learners.fit_s.random_forest", "learners.fit.random_forest"),
    ("learners.fit_s.neural_net", "learners.fit.neural_net"),
    ("learners.io.save_s", "learners.io.save"),
    ("learners.io.load_s", "learners.io.load"),
    ("blackbox.collect_s", "blackbox.collect"),
    ("substitute.train_s", "substitute.train"),
    ("substitute.weights_s", "substitute.weights"),
    ("substitute.scan_s", "substitute.scan"),
    ("camouflage.train_s", "camouflage.train"),
    ("camouflage.eval_s", "camouflage.eval"),
    ("profiler.signature_s", "profiler.signature"),
    ("profiler.fit_s", "profiler.fit"),
    ("profiler.defense_s", "profiler.defense"),
    ("profiler.identify_s", "profiler.identify"),
    ("harness.synth.generate_s", "harness.synth.generate"),
    ("harness.csvio.ingest_s", "harness.csvio.ingest"),
    ("harness.csvio.write_s", "harness.csvio.write"),
)
COUNT_METRICS = (
    "learners.knn.calls", "learners.knn.query_rows", "learners.knn.distance_pairs",
    "learners.net.forward_calls", "learners.net.backward_calls",
    "blackbox.collect_calls", "substitute.epochs_run",
    "camouflage.trainings", "camouflage.epochs_run", "camouflage.epochs_budget",
    "camouflage.eval_calls", "camouflage.eval_rows",
    "profiler.signatures", "profiler.identify_rows",
    "harness.csvio.ingest_rows", "harness.csvio.bytes_written",
)
CLI_STEPS = ("gen-data", "ingest", "train-target", "train-substitute", "scan-features",
             "attack", "defend")
# Quality numbers a workload may not produce; they are reported as 0 there.
LAYER_QUALITY = (
    ("camouflage.spoof_rate_mean", "spoof_rate_mean"),
    ("camouflage.spoof_rate_min", "spoof_rate_min"),
    ("profiler.defense_rate_min", "defense_rate_min"),
)


def layer_metrics(tracer: Tracer, quality: dict, spoof_accept) -> dict:
    """Per-layer metrics of a traced iteration (times are self time)."""
    table = tracer.self_times()
    counts = tracer.counts
    m = {metric: table.get(span, [0.0])[0] for metric, span in SELF_TIME_METRICS}
    m.update({name: float(counts.get(name, 0.0)) for name in COUNT_METRICS})
    calls = counts.get("learners.net.forward_calls", 0.0)
    m["learners.net.rows_per_forward"] = counts.get("learners.net.forward_rows", 0.0) / calls \
        if calls else 0.0
    m["blackbox.queries"] = float(sum(o.query_log for o in tracer.oracles))
    budget = counts.get("camouflage.epochs_budget", 0.0)
    m["camouflage.epoch_use"] = counts.get("camouflage.epochs_run", 0.0) / budget if budget else 0.0
    cells = tracer.cells
    m["camouflage.spoof_cells"] = float(len(cells))
    m["camouflage.spoof_trainings"] = float(counts.get("camouflage.spoof_trainings", 0.0))
    m["camouflage.restarts"] = m["camouflage.spoof_trainings"] - len(cells)
    accepted = sum(1 for c in cells if c and c[0] >= spoof_accept)
    m["camouflage.first_try_accept"] = accepted / len(cells) if cells else 0.0
    for step in CLI_STEPS:
        # A CLI step is a root span; its inclusive time is the step's time.
        m[f"harness.cli.{step}_s"] = table.get(f"harness.cli.{step}", [0.0, 0, 0.0])[2]
    for metric, key in LAYER_QUALITY:
        m[metric] = float(quality.get(key, 0.0))
    m["trace.spans"] = float(len(tracer.spans))
    return m


def blas_threads():
    """Threads OpenBLAS reports it uses, or None when the library is not found."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "seeds_run": workload.seeds(seed),
        "sizes": {k: list(v) if isinstance(v, tuple) else v for k, v in workload.sizes.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    shutil.rmtree(args.out_dir, ignore_errors=True)
    os.makedirs(args.out_dir)

    import flowcamo  # noqa: F401  (import time is part of set-up)

    tracer = Tracer(timed=bool(args.trace))
    tracer.install()
    record = {"checks": []}
    try:
        state = wl.setup(args.seed, args.out_dir, tracer)
        record["t_ready"] = time.monotonic()
        record["checks"] += state["checks"]
        record["checks"] += wl.body(state, tracer)
        record["t_done"] = time.monotonic()
    except Exception:  # noqa: BLE001  (a failing workload is a failed check)
        record["checks"].append(("completed", False, traceback.format_exc(limit=3)))
        state = None
    tracer.active = False
    ru = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = ru.ru_utime + ru.ru_stime
    record["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    record["digests"] = chk.file_digests(args.out_dir, wl.reports(state)) if state else {}
    record["quality"] = {}
    if state is not None and all(c[1] for c in record["checks"]):
        record["checks"] += wl.generator_checks(state, tracer)
        record["quality"] = wl.quality(state)
    if args.trace and state is not None:
        record["layers"] = layer_metrics(tracer, record["quality"], state["spoof_accept"])
        record["self_table"] = tracer.self_times()
    record["env"] = environment(wl, args.seed)
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
