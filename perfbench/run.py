"""flowcamo benchmark: one workload, timed from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extract-knn --seed 42 --seconds 30 --trace 0

Each iteration is a fresh ``python3 perfbench/worker.py`` process running
the same job on the same seed; iterations repeat until ``--seconds`` would
be exceeded (at least two, so every report can be compared across runs).
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` iterations alternate untraced and
traced, and it carries the per-layer metrics. The full record goes to
``.perfbench_out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks as chk  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITERATIONS = 2
# Whole-run limit: a run must end within 180 s, so no iteration starts
# unless the slowest one so far still fits before this.
RUN_LIMIT_S = 160.0
END_TO_END_FROM_QUALITY = ("ident_rate_min", "agreement_min", "evasion_min")


def describe(values):
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    text = f"median of {n}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100.0) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"{text}, p{p:g}={q:.6g}"
    return f"{text}; no percentile has 10 samples beyond it (min {min(values):.6g}, " \
           f"max {max(values):.6g})"


def run_iteration(root, env, workload, seed, traced, index, timeout):
    work = os.path.join(root, ".perfbench_out")
    result = os.path.join(work, "iter", f"{workload}-{index}.json")
    os.makedirs(os.path.dirname(result), exist_ok=True)
    if os.path.exists(result):
        os.unlink(result)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)),
            "--out-dir", os.path.join(work, "out", workload), "--result", result]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=root, stdout=sys.stderr,
                              timeout=timeout, check=False)
        code = proc.returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code = "timeout"
    t_end = time.monotonic()
    if code != 0 or not os.path.exists(result):
        return {"checks": [("iteration_record", False, f"worker exit {code}")],
                "traced": traced, "duration": t_end - t_spawn}
    with open(result, encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["traced"] = traced
    rec["duration"] = t_end - t_spawn
    if "t_done" in rec:
        rec["setup_s"] = rec["t_ready"] - t_spawn
        rec["wall_s"] = rec["t_done"] - rec["t_ready"]
    return rec


def trace_checks(wl, layers):
    """A layer metric predicted nonzero must be, and one predicted zero must be 0."""
    out = []
    for name in wl.nonzero:
        ok = layers.get(name, 0.0) > 0
        out.append((f"trace.nonzero.{name}", ok, "" if ok else "missing or 0"))
    for name in wl.zero:
        ok = layers.get(name, -1.0) == 0
        out.append((f"trace.zero.{name}", ok, "" if ok else f"{layers.get(name)}"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flowcamo", "__init__.py")):
        print(f"error: {root} holds no flowcamo source tree (src/flowcamo)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # One BLAS thread: a second one roughly doubled cpu_s by spinning, cut
    # wall_s only where large products dominate, and tied every timing to
    # whether a neighbour held the other core.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["TMPDIR"] = os.path.join(root, ".perfbench_out", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    start = time.monotonic()
    iters = []
    while True:
        elapsed = time.monotonic() - start
        longest = max((it["duration"] for it in iters), default=0.0)
        if len(iters) >= MIN_ITERATIONS and elapsed + longest > args.seconds:
            break
        if iters and elapsed + longest > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and len(iters) % 2 == 1
        iters.append(run_iteration(root, env, args.workload, args.seed, traced, len(iters),
                                   timeout=RUN_LIMIT_S - elapsed))

    done = [it for it in iters if "wall_s" in it]
    checks = [c for it in iters for c in it["checks"]]
    checks += chk.digest_checks([it["digests"] for it in done])
    if len(done) < MIN_ITERATIONS:
        checks.append(("iterations_completed", False, f"{len(done)} of {len(iters)}"))
    untraced = [it for it in done if not it["traced"]]
    traced = [it for it in done if it["traced"]]
    quality = done[0]["quality"] if done else {}

    values = {}
    if not args.trace:
        for key in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb"):
            if untraced:
                values[key] = [it[key] for it in untraced]
        for key in END_TO_END_FROM_QUALITY:
            if key in quality:
                values[key] = [quality[key]]
    else:
        for it in traced:
            checks += trace_checks(wl, it.get("layers", {}))
            for name, v in it.get("layers", {}).items():
                values.setdefault(name, []).append(v)
        if traced and untraced:
            values["trace.overhead_s"] = [
                statistics.median(it["wall_s"] for it in traced)
                - statistics.median(it["wall_s"] for it in untraced)]

    metrics = {}
    for m in declared:
        if m["name"] == "check_fail_frac":
            continue  # computed last, over every check below
        if m["name"] not in values:
            checks.append((f"metric.{m['name']}", False, "not produced"))
            continue
        v = values[m["name"]]
        metrics[m["name"]] = {"value": statistics.median(v), "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']} ({describe(v)})")
    failed = [c for c in checks if not c[1]]
    if args.trace:
        metrics["check_fail_frac"] = {"value": chk.check_fail_frac(checks), "unit": "ratio"}
        print(f"check_fail_frac = {metrics['check_fail_frac']['value']:.6g} ratio "
              f"({len(failed)} of {len(checks)} checks failed)")

    env_rec = done[0]["env"] if done else {}
    print("environment:", json.dumps(env_rec, sort_keys=True))
    if done:
        print("report digests (sha256):")
        for name, digest in done[0]["digests"].items():
            print(f"  {name} {digest}")
    for it in traced[:1]:
        print("self time by span (traced iteration 1): name self_s calls inclusive_s")
        for name, (self_s, calls, incl) in sorted(
                it["self_table"].items(), key=lambda kv: -kv[1][0]):
            print(f"  {name:28s} {self_s:10.4f} {int(calls):8d} {incl:10.4f}")
    for name, _ok, detail in failed:
        print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    summary = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
               "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_rec, "quality": quality,
              "samples": values, "failed_checks": failed, "iterations": iters, **summary}
    results = os.path.join(root, ".perfbench_out", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
