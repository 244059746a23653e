"""Fast controls for the acceptance predicates in ``criteria.py``: doctored
results with one known defect must read FAIL, and the default run's own
numbers must read PASS."""
from types import SimpleNamespace

import pytest

from flowcamo.harness import synth
from flowcamo.substitute import select_subset

from criteria import feature_subset_selection, scan_of

# The default run's scan at seed 42 (scan.csv, 28 classes): each agreement
# is a count of the 2,241 held-out corpus rows, as is the full-pool
# substitute's agreement (table1's knn oracle_agreement, 0.979920).
SEED42_L = (2, 4, 6, 8, 12, 16, 20, 28)
SEED42_HITS = (554, 1954, 2197, 2196, 2198, 2196, 2195, 2197)
HOLDOUT, FULL_HITS, N_CLASSES = 2241, 2196, 28


def results_of(L_values, hits, full_hits=FULL_HITS):
    """Run results holding the scan over ``L_values`` and its knee."""
    scan = scan_of([(L, h / HOLDOUT) for L, h in zip(L_values, hits)], N_CLASSES)
    sub = SimpleNamespace(agreement=full_hits / HOLDOUT, schema=synth.attacker_pool_schema())
    return {"config": SimpleNamespace(target_kinds=("knn",)), "substitutes": {"knn": sub},
            "scan": scan, "selected_L": select_subset(scan)}


class TestFeatureSubsetSelection:
    def test_default_seed42_scan_passes(self):
        """[DERIVED] the knee is L=6: margin 2197/2241 - (2196/2241 - 0.02)."""
        verdict = feature_subset_selection(results_of(SEED42_L, SEED42_HITS))
        assert verdict.ok
        assert verdict.value - verdict.threshold == pytest.approx(1 / HOLDOUT + 0.02)
        assert "selected L=6" in verdict.detail and "margin +0.0204" in verdict.detail

    def test_knee_far_below_the_full_pool_fails(self):
        """The gain from L=4 to 6 is non-positive, so the knee is L=4, at
        0.80 against a 0.98 full pool."""
        results = results_of((2, 4, 6, 8), (1345, 1793, 1800, 2196))
        assert results["selected_L"] == 4
        verdict = feature_subset_selection(results)
        assert not verdict.ok
        assert verdict.value < verdict.threshold

    def test_agreements_shuffled_across_sizes_fail(self):
        """The seed-42 agreements in a shuffled order, gains recomputed. A
        shuffle shows only where the knee lands on a low agreement: of the
        8! orders, the 720 that put 0.872 at L=2 and 0.247 at L=4 fail; in
        every other order the knee's agreement is within 0.02 of the full
        pool, a selection the criterion rightly passes."""
        shuffled = [SEED42_HITS[i] for i in (1, 0, 5, 2, 7, 3, 6, 4)]
        results = results_of(SEED42_L, shuffled)
        assert results["selected_L"] == 2
        verdict = feature_subset_selection(results)
        assert not verdict.ok and verdict.value < verdict.threshold

    def test_knee_past_half_the_pool_fails(self):
        """Agreement keeps growing faster than cost up to L=20 > 28 // 2."""
        results = results_of((2, 8, 20, 28), (1000, 1600, 2196, 2196))
        assert results["selected_L"] == 20
        verdict = feature_subset_selection(results)
        assert not verdict.ok and verdict.value >= verdict.threshold
