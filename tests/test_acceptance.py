"""End-to-end acceptance checks for the camouflage lab.

Criteria, one test each, one printed PASS/FAIL line each:
 1. every target kind identifies held-out devices at >= 0.90
 2. substitute/oracle agreement within 0.05 of the target's own test
    rate, reached in <= 60 extraction epochs
 3. agreement curve changes < 0.01 over the last 10 of 60 epochs
 4. post-attack identification <= 0.10 on every true target; the
    substitute-to-victim transfer gap is reported
 5. identity spoofing >= 0.80 for the camera/hub, camera/health,
    hub/health and switch/health pairs (both directions); camera/switch
    is reported without a threshold
 6. zero contract violations over 100,000 manipulated vectors
    (immutable features bit-equal, all values in schema range)
 7. the feature-selection scan picks a subset of at most half the pool
    whose agreement is within 0.02 of the full pool, with no undefined
    divisions in the gain metric
 8. the signature-based defense identifies >= 0.95 clean, stays within
    0.05 of that under attack, and the signature-stream hashes match
 9. analytic MLP gradients match central finite differences within 1e-4
    relative on 20 random networks; predict/argmax agree on 1,000
    random vectors per classifier kind
10. rerunning the pipeline from the same manifest reproduces every
    report CSV byte-for-byte
"""
import json

import pytest

from flowcamo.harness.experiment import ExperimentConfig, run_experiment

from criteria import (
    bit_identical_reruns,
    contract_holds,
    feature_subset_selection,
    gradients_and_predictions,
    misidentification,
    spoof_pairs,
    substitute_agreement,
    target_identification,
)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One default-benchmark pipeline run, with the report-only scan on,
    shared by criteria 1-9; every criterion that takes it is marked ``slow``."""
    out_dir = str(tmp_path_factory.mktemp("bench"))
    cfg = ExperimentConfig(out_dir=out_dir, run_scan=True)
    return run_experiment(cfg)


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


class TestAcceptance:
    @pytest.mark.slow
    def test_c01_target_identification(self, full_run, capsys):
        verdict = target_identification(full_run)
        announce(capsys, 1, verdict.ok, verdict.detail)
        assert verdict.ok

    @pytest.mark.slow
    def test_c02_substitute_agreement(self, full_run, capsys):
        verdict = substitute_agreement(full_run)
        announce(capsys, 2, verdict.ok, verdict.detail)
        assert verdict.ok

    @pytest.mark.slow
    def test_c03_agreement_converged(self, full_run, capsys):
        drifts = {}
        for kind, sub in full_run["substitutes"].items():
            tail = sub.training_curve[-10:]
            drifts[kind] = max(tail) - min(tail)
        ok = all(d < 0.01 for d in drifts.values())
        detail = ", ".join(f"{k}={d:.4f}" for k, d in drifts.items())
        announce(capsys, 3, ok, f"agreement drift over last 10 epochs ({detail})")
        assert ok

    @pytest.mark.slow
    def test_c04_misidentification(self, full_run, capsys):
        verdict = misidentification(full_run)
        announce(capsys, 4, verdict.ok, verdict.detail)
        assert verdict.ok

    @pytest.mark.slow
    def test_c05_spoofing(self, full_run, capsys):
        verdict = spoof_pairs(full_run)
        announce(capsys, 5, verdict.ok, verdict.detail)
        assert verdict.ok

    @pytest.mark.slow
    def test_c06_contract_holds_at_scale(self, full_run, capsys):
        verdict = contract_holds(full_run)
        announce(capsys, 6, verdict.ok, verdict.detail)
        assert verdict.ok

    @pytest.mark.slow
    def test_c07_feature_subset_selection(self, full_run, capsys):
        verdict = feature_subset_selection(full_run)
        announce(capsys, 7, verdict.ok, verdict.detail)
        assert verdict.ok

    @pytest.mark.slow
    def test_c08_defense(self, full_run, capsys):
        rep = full_run["defense_report"]
        clean = min(rep.clean_rates)
        gap = max(abs(a - c) for a, c in zip(rep.attacked_rates, rep.clean_rates))
        hashes_equal = rep.clean_hash == rep.attacked_hash
        ok = clean >= 0.95 and gap <= 0.05 and hashes_equal
        announce(
            capsys, 8, ok,
            f"defense clean rate >= {clean:.4f}, max attack gap {gap:.4f}, "
            f"signature stream hashes equal={hashes_equal}",
        )
        assert ok

    @pytest.mark.slow
    def test_c09_gradients_and_prediction_consistency(self, full_run, capsys):
        verdict = gradients_and_predictions(full_run)
        announce(capsys, 9, verdict.ok, verdict.detail)
        assert verdict.ok

    def test_c10_bit_identical_reruns(self, tmp_path, capsys):
        base = {
            "seed": 11,
            "n_classes": 8,
            "rows_per_class": 60,
            "substitute_epochs": 10,
            "generator_epochs": 10,
            "spoof_grid": False,
            "run_scan": True,
        }
        manifest = tmp_path / "config.json"
        manifest.write_text(json.dumps(base))
        dirs = [str(tmp_path / "run_a"), str(tmp_path / "run_b")]
        for d in dirs:
            run_experiment(ExperimentConfig.from_file(str(manifest), {"out_dir": d}))
        verdict = bit_identical_reruns(*dirs)
        announce(capsys, 10, verdict.ok, verdict.detail)
        assert verdict.ok

