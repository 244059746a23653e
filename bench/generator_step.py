"""Layer microbenchmark: one spoof-mode batch step of ``train_generator``.

Builds the spoof-grid workload's shapes (neural_net target, 8 classes, 150
rows per class, the 28-feature attacker pool, 128-row batches), then times
``camouflage.generator_step``, the step ``train_generator`` runs per batch,
and each of its matrix products and bias column sums alone, as medians over
repeats. The step runs toward the spoof objective with step size 0, so
every repeat sees the same generator.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/generator_step.py > out.json
"""
from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time

import numpy as np

from flowcamo.camouflage import (BATCH_SIZE, RECIPES, attack_objective, build_generator,
                                 generator_step, sample_multipliers, spoof)
from flowcamo.core import DeviceClass
from flowcamo.harness import synth
from flowcamo.harness.experiment import ExperimentConfig, run_experiment


def stats_us(ns):
    q1, med, q3 = statistics.quantiles(ns, n=4, method="inclusive")
    return {"median_us": round(med / 1e3, 2), "q1_us": round(q1 / 1e3, 2),
            "q3_us": round(q3 / 1e3, 2)}


def setup(seed: int = 42):
    """The substitute, generator, training rows and spoof target of the
    spoof grid's first cell at the spoof-grid workload's sizes."""
    with tempfile.TemporaryDirectory() as out_dir:
        cfg = ExperimentConfig(seed=seed, target_kinds=("neural_net",), n_classes=8,
                               rows_per_class=150, spoof_grid=False, run_defense=False,
                               out_dir=out_dir)
        results = run_experiment(cfg)
    profiles, train_pool = results["profiles"], results["train_pool"]
    sub = results["substitutes"]["neural_net"]
    src, dst = next((a, b) for a in synth.DEVICE_TYPES for b in synth.DEVICE_TYPES if a != b
                    and synth.classes_of_type(profiles, a) and synth.classes_of_type(profiles, b))
    src_train = train_pool.take(np.flatnonzero(np.isin(train_pool.y,
                                                       synth.classes_of_type(profiles, src))))
    dst_id = synth.classes_of_type(profiles, dst)[0]
    target = DeviceClass(dst_id, profiles[dst_id].label)
    g = build_generator(src_train.schema, train_pool.X, seed=seed + 600)
    return sub, g, src_train.X, train_pool.X, target


def time_step(sub, g, X, anchor_X, target, repeats: int, rng):
    """Nanoseconds of ``repeats`` spoof batch steps, each with its gather,
    and the network input ``Z`` of the rows ``X``."""
    n, k = X.shape
    objective = attack_objective(spoof(target), g, sub, X, anchor_X)
    ce_weight = RECIPES["spoof"][1]
    Z = g._input_buffer(X)
    np.divide(sample_multipliers(g.schema, n, rng) * X, g.scaler.scale, out=Z[:, k:])
    clock = time.perf_counter_ns
    ns = []
    for _ in range(repeats):
        idx = rng.permutation(n)[:BATCH_SIZE]
        t0 = clock()
        generator_step(g, sub, X[idx], Z[idx], idx, objective, ce_weight, 0.0)
        ns.append(clock() - t0)
    return ns, Z


def products(g, sub, X, Z):
    """Every matrix product of one step, in step order, as (name, a, b),
    with the operands of one forward pass over a batch of ``X``."""
    Hp, (gen_cache, *_) = g._manipulate(X[:BATCH_SIZE], Z[:BATCH_SIZE], want_grad_cache=True)
    z, sub_cache = sub.net.forward_logits(sub.scaler.transform(Hp), want_cache=True)
    gW, sW = g.net.weights, sub.net.weights
    out = [(f"generator_forward.h{i}@W{i}", gen_cache[i], gW[i]) for i in range(3)]
    out += [(f"substitute_forward.h{i}@W{i}", sub_cache[i], sW[i]) for i in range(3)]
    d = z  # the shape of d(loss)/d(logits)
    for i in (2, 1, 0):
        out.append((f"input_gradient.d@W{i}.T", d, sW[i].T))
        d = d @ sW[i].T
    dU = np.ones((z.shape[0], gW[-1].shape[1]))  # the shape of d(loss)/d(h')
    for i in (2, 1, 0):
        out.append((f"generator_backward.h{i}.T@d (dW{i})", gen_cache[i].T, dU))
        if i > 0:
            out.append((f"generator_backward.d@W{i}.T", dU, gW[i].T))
            dU = dU @ gW[i].T
    return out


def time_alone(fn, repeats: int):
    clock = time.perf_counter_ns
    ns = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        ns.append(clock() - t0)
    return ns


def main(repeats: int = 3000) -> int:
    sub, g, X, anchor_X, target = setup()
    rng = np.random.default_rng(0)
    time_step(sub, g, X, anchor_X, target, 200, rng)  # warm-up
    step, Z = time_step(sub, g, X, anchor_X, target, repeats, rng)
    alone = {}
    for name, a, b in products(g, sub, X, Z):
        alone[f"{name} ({a.shape[0]}x{a.shape[1]} @ {b.shape[0]}x{b.shape[1]})"] = stats_us(
            time_alone(lambda: a @ b, repeats))
    for i, width in enumerate(g.net.layer_sizes[1:]):
        col, db = np.ones((BATCH_SIZE, width)), np.empty(width)
        alone[f"generator_backward.add.reduce(d, axis=0) (db{i}, {BATCH_SIZE}x{width})"] = (
            stats_us(time_alone(lambda: np.add.reduce(col, axis=0, out=db), repeats)))
    report = {
        "batch_rows": BATCH_SIZE,
        "generator_sizes": list(g.net.layer_sizes),
        "substitute_sizes": list(sub.net.layer_sizes),
        "repeats": repeats,
        "step": stats_us(step),
        "products_alone": alone,
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
