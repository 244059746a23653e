"""Acceptance criteria as predicates over ``run_experiment``'s results.

Each predicate returns a ``Verdict``: the measured value, the threshold it
is held against, PASS/FAIL, and a detail line that prints the margin. The
slow acceptance tests call them on the default run; the fast negative
controls in ``test_criteria.py`` call them on doctored results.
"""
from __future__ import annotations

import math
import os
import pathlib
from dataclasses import dataclass

import numpy as np

from flowcamo.camouflage import sample_multipliers
from flowcamo.learners import Net, bce_dlogits, one_hot
from flowcamo.substitute import (
    SCAN_EPOCHS,
    PerformanceGainPoint,
    feature_weights,
    performance_gain,
    performance_gain_scan,
)

from finite_diff import bce_loss, central_diff, rel_err, relu_kink_margin


@dataclass(frozen=True)
class Verdict:
    value: float
    threshold: float
    ok: bool
    detail: str


def target_identification(results) -> Verdict:
    """Criterion 01: every target kind identifies at least 0.90 of the
    held-out test rows."""
    rates = {kind: float(te) for kind, (_tr, te) in results["target_rates"].items()}
    worst, threshold = min(rates.values()), 0.90
    detail = (
        "target test identification "
        + ", ".join(f"{k}={r:.4f}" for k, r in rates.items())
        + f"; worst {worst:.4f} >= {threshold} (margin {worst - threshold:+.4f})"
    )
    return Verdict(worst, threshold, worst >= threshold, detail)


def substitute_agreement(results) -> Verdict:
    """Criterion 02: each substitute's held-out oracle agreement is within
    0.05 of its target's own test rate, reached in at most 60 extraction
    epochs.

    The epoch half holds by construction: ``training_curve`` has one entry
    per epoch and extraction never stops early, so it reads the configured
    ``substitute_epochs`` (60 by default) and no control can fail it. Only
    the gap half can show a defect."""
    gaps = {kind: abs(results["sub_rates"][kind][2] - te)
            for kind, (_tr, te) in results["target_rates"].items()}
    epochs = max(len(sub.training_curve) for sub in results["substitutes"].values())
    worst, threshold = max(gaps.values()), 0.05
    detail = (
        "substitute vs target ("
        + ", ".join(f"{k} gap={g:.4f}" for k, g in gaps.items())
        + f"); worst {worst:.4f} <= {threshold} (margin {threshold - worst:+.4f}), "
        f"{epochs} <= 60 epochs"
    )
    return Verdict(worst, threshold, worst <= threshold and epochs <= 60, detail)


def misidentification(results) -> Verdict:
    """Criterion 04: every true target identifies at most 0.10 of the
    attacked test rows; each kind's substitute-to-victim transfer gap is
    reported."""
    rows = {kind: (float(te), float(gap)) for kind, _tr, te, _s, _v, gap
            in results["attack_rows"]}
    worst, threshold = max(te for te, _gap in rows.values()), 0.10
    detail = (
        "post-attack identification "
        + ", ".join(f"{k}={te:.4f} (transfer gap {gap:+.4f})" for k, (te, gap) in rows.items())
        + f"; worst {worst:.4f} <= {threshold} (margin {threshold - worst:+.4f})"
    )
    return Verdict(worst, threshold, worst <= threshold, detail)


# Criterion 05's pairs: (source type, destination type), in both directions.
REQUIRED_SPOOF_PAIRS = (
    ("camera", "hub"), ("hub", "camera"),
    ("camera", "health"), ("health", "camera"),
    ("hub", "health"), ("health", "hub"),
    ("switch", "health"), ("health", "switch"),
)
REPORTED_SPOOF_PAIRS = (("camera", "switch"), ("switch", "camera"))


def spoof_pairs(results) -> Verdict:
    """Criterion 05: every required (source, destination) type pair is
    spoofed at 0.80 or more by every target kind; camera/switch is only
    reported. A pair's rate is its lowest over the kinds. A cell with no
    rate, whose target the substitute assigns no row to, spoofs nothing
    and reads 0."""
    rates = results["spoof_rates"]
    kinds = results["config"].target_kinds
    threshold = 0.80

    def pair_rate(src, dst):
        return min(rates.get((kind, src, dst), 0.0) for kind in kinds)

    required = {pair: pair_rate(*pair) for pair in REQUIRED_SPOOF_PAIRS}
    reported = {pair: pair_rate(*pair) for pair in REPORTED_SPOOF_PAIRS}
    (w_src, w_dst), worst = min(required.items(), key=lambda kv: kv[1])

    def margins(pairs):
        return ", ".join(f"{s}>{d}:{r:.4f} ({r - threshold:+.4f})" for (s, d), r in pairs.items())

    detail = (f"min spoofing rate per pair over kinds, required {margins(required)}; "
              f"reported {margins(reported)}; worst required {w_src}>{w_dst} {worst:.4f} "
              f">= {threshold} (margin {worst - threshold:+.4f})")
    return Verdict(worst, threshold, worst >= threshold, detail)


def contract_holds(results, n_rows: int = 100_000) -> Verdict:
    """Criterion 06: no contract violation over ``n_rows`` manipulated test
    rows of the first attack generator, fresh noise per row. A violation is
    an immutable value whose bits changed or a value outside its schema
    range."""
    g = next(iter(results["attack_generators"].values()))
    schema = g.schema
    base = results["test_pool"].X
    X = np.tile(base, (int(np.ceil(n_rows / base.shape[0])), 1))[:n_rows]
    rng = np.random.default_rng(606)
    Hp = g.manipulate_batch(X, sample_multipliers(schema, n_rows, rng) * X)
    imm = ~schema.mutable_mask
    violations = int(np.sum(Hp[:, imm].view(np.uint64) != X[:, imm].view(np.uint64)))
    violations += int(np.sum((Hp < schema.lows) | (Hp > schema.highs)))
    detail = (f"{violations} violations over {n_rows:,} manipulated vectors "
              f"(bound 0, margin {-violations:+d})")
    return Verdict(violations, 0, violations == 0, detail)


def retrained_agreement(results) -> float:
    """Held-out agreement of one substitute retrained at the selected L, with
    the feature weights, seed and epochs of the scan (``experiment._scan``)."""
    cfg = results["config"]
    kind = cfg.target_kinds[0]
    corpus, sub = results["corpora"][kind], results["substitutes"][kind]
    weights = feature_weights(corpus, sub, seed=cfg.seed + 500)
    (point,) = performance_gain_scan(corpus, weights, [results["selected_L"]],
                                     epochs=SCAN_EPOCHS, seed=cfg.seed + 501)
    return point.agreement


def feature_subset_selection(results) -> Verdict:
    """Criterion 07: the selected L is at most half the pool, its agreement
    within 0.02 of the full-pool substitute's, and every undefined gain is
    flagged rather than computed. The selected row must also be the scan's
    own: retraining that L reproduces its agreement bit for bit, so a scan
    whose agreements sit at the wrong sizes fails."""
    sub = results["substitutes"][results["config"].target_kinds[0]]
    scan, chosen = results["scan"], results["selected_L"]
    flags_consistent = all(p.undefined == (not math.isfinite(p.gain)) for p in scan)
    chosen_agree = next(p.agreement for p in scan if p.L == chosen)
    retrained = retrained_agreement(results)
    threshold = sub.agreement - 0.02
    half = len(sub.schema) // 2
    ok = (flags_consistent and chosen <= half and chosen_agree >= threshold
          and retrained == chosen_agree)
    detail = (
        f"selected L={chosen} (<= {half}), agreement {chosen_agree:.4f} vs full-pool "
        f"{sub.agreement:.4f} - 0.02 (margin {chosen_agree - threshold:+.4f}), "
        f"retrained at L={chosen} {retrained:.4f} (reproduced={retrained == chosen_agree}), "
        f"gain flags consistent={flags_consistent}"
    )
    return Verdict(chosen_agree, threshold, ok, detail)


def gradients_and_predictions(results) -> Verdict:
    """Criterion 09: on 20 random networks, ``Net.backward`` and
    ``Net.input_grad`` over the training path's logit gradient match central
    finite differences within 1e-4 relative; and on 1,000 uniform vectors
    over the target schema, every target's ``predict_ids`` is the argmax of
    its ``predict_scores`` (0 mismatches)."""
    rng = np.random.default_rng(99)
    worst_param, worst_input = 0.0, 0.0
    for trial in range(20):
        sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)) + 1)]
        net = Net(sizes, seed=trial)
        n = int(rng.integers(1, 5))
        X = rng.normal(0, 1, size=(n, sizes[0]))
        while relu_kink_margin(net, X) < 1e-4:
            X = rng.normal(0, 1, size=(n, sizes[0]))
        T = one_hot(rng.integers(0, sizes[-1], size=n), sizes[-1])

        # The path training runs: logits, BCE logit gradient, backprop.
        z, cache = net.forward_logits(X, want_cache=True)
        dz = bce_dlogits(z, T)
        analytic, dX = net.backward(cache, dz), net.input_grad(cache, dz)
        # Perturbs net.params in place, entry by entry.
        fd = central_diff(lambda _: bce_loss(net.forward_logits(X), T), net.params)
        worst_param = max(worst_param, rel_err(analytic, fd))
        fdX = central_diff(lambda XX: bce_loss(net.forward_logits(XX), T), X.copy())
        worst_input = max(worst_input, rel_err(dX, fdX))

    schema = results["targets"][results["config"].target_kinds[0]].schema
    mism = {}
    for kind, model in results["targets"].items():
        V = rng.uniform(schema.lows, schema.highs, (1000, len(schema)))
        ids = np.argmax(model.predict_scores(V), axis=1)
        mism[kind] = int(np.sum(model.predict_ids(V) != ids))
    worst, threshold = max(worst_param, worst_input), 1e-4
    worst_mism = max(mism.values())
    detail = (
        f"worst FD rel err: params {worst_param:.2e}, inputs {worst_input:.2e} < {threshold:.0e} "
        f"(margin {threshold - worst:+.2e}); predict/argmax mismatches per kind {mism}, "
        f"bound 0 (margin {-worst_mism:+d})"
    )
    return Verdict(worst, threshold, worst < threshold and worst_mism == 0, detail)


def bit_identical_reruns(dir_a: str, dir_b: str) -> Verdict:
    """Criterion 10: two runs from one manifest, written to ``dir_a`` and
    ``dir_b``, hold the same report CSVs byte for byte. A report only one
    run wrote counts as differing. At least three reports, ``scan.csv``
    among them, must be compared, so a run that wrote almost nothing fails."""
    names = sorted({n for d in (dir_a, dir_b) for n in os.listdir(d) if n.endswith(".csv")})

    def read(d, n):
        path = pathlib.Path(d, n)
        return path.read_bytes() if path.exists() else None

    diffs = [n for n in names if read(dir_a, n) != read(dir_b, n)]
    ok = not diffs and len(names) >= 3 and "scan.csv" in names
    detail = (f"two runs from one manifest: {len(names)} report CSVs compared, "
              f"differing: {diffs or 'none'} (bound 0, margin {-len(diffs):+d})")
    return Verdict(len(diffs), 0, ok, detail)


def scan_of(points, n_classes: int) -> list:
    """A scan over ``(L, agreement)`` pairs as ``performance_gain_scan``
    builds it: each cost a 64-64 net's multiply-adds, each gain
    ``performance_gain`` against the point before, the first undefined."""
    scan = []
    for L, agree in points:
        cost = 64 * L + 64 * 64 + 64 * n_classes
        gain, undefined = (float("nan"), True) if not scan else performance_gain(
            agree, scan[-1].agreement, cost, scan[-1].multiply_adds)
        scan.append(PerformanceGainPoint(L, agree, cost, gain, undefined))
    return scan
