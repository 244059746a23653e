"""Acceptance criteria as predicates over ``run_experiment``'s results.

Each predicate returns a ``Verdict``: the measured value, the threshold it
is held against, PASS/FAIL, and a detail line that prints the margin. The
slow acceptance tests call them on the default run; the fast negative
controls in ``test_criteria.py`` call them on doctored results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from flowcamo.substitute import PerformanceGainPoint, performance_gain


@dataclass(frozen=True)
class Verdict:
    value: float
    threshold: float
    ok: bool
    detail: str


def feature_subset_selection(results) -> Verdict:
    """Criterion 07: the selected L is at most half the pool, its agreement
    within 0.02 of the full-pool substitute's, and every undefined gain is
    flagged rather than computed."""
    sub = results["substitutes"][results["config"].target_kinds[0]]
    scan, chosen = results["scan"], results["selected_L"]
    flags_consistent = all(p.undefined == (not math.isfinite(p.gain)) for p in scan)
    chosen_agree = next(p.agreement for p in scan if p.L == chosen)
    threshold = sub.agreement - 0.02
    half = len(sub.schema) // 2
    ok = flags_consistent and chosen <= half and chosen_agree >= threshold
    detail = (
        f"selected L={chosen} (<= {half}), agreement {chosen_agree:.4f} vs full-pool "
        f"{sub.agreement:.4f} - 0.02 (margin {chosen_agree - threshold:+.4f}), "
        f"gain flags consistent={flags_consistent}"
    )
    return Verdict(chosen_agree, threshold, ok, detail)


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
