"""Fast controls for the acceptance predicates in ``criteria.py``: results
with one known defect must read FAIL, and the same results without it (or
the default run's own numbers) must read PASS."""
from types import SimpleNamespace

import numpy as np
import pytest

from flowcamo.blackbox import Oracle
from flowcamo.camouflage import Generator, build_generator, spoof
from flowcamo.core import Dataset, DeviceClass
from flowcamo.harness import experiment, synth
from flowcamo.harness.experiment import ExperimentConfig, run_experiment
from flowcamo.learners import Net
from flowcamo.substitute import select_subset

import criteria
from criteria import (
    bit_identical_reruns,
    contract_holds,
    feature_subset_selection,
    gradients_and_predictions,
    misidentification,
    scan_of,
    spoof_pairs,
    substitute_agreement,
    target_identification,
)

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
    """The knee and threshold half, on doctored seed-42 scans that carry no
    corpus to retrain on: here the retrain reproduces the selected row."""

    @pytest.fixture(autouse=True)
    def scan_rows_reproduce(self, monkeypatch):
        monkeypatch.setattr(criteria, "retrained_agreement", lambda results: next(
            p.agreement for p in results["scan"] if p.L == results["selected_L"]))

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
        """The seed-42 agreements in a shuffled order, gains recomputed. The
        knee half alone fails only where the knee lands on a low agreement:
        of the 8! orders, the 720 that put 0.872 at L=2 and 0.247 at L=4.
        In the other orders the retrain is what fails (``TestScanReproduced``)."""
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


# A decision_tree-only run small enough for the fast suite. A knn run at this
# size reads 0.76-0.85 on its own test rows, below criterion 01's 0.90.
TINY_TREE = dict(seed=4, n_classes=8, rows_per_class=60, target_kinds=("decision_tree",),
                 spoof_grid=False, run_defense=False)


def permuted(ds: Dataset) -> Dataset:
    """``ds`` with its labels shuffled across rows."""
    return Dataset(ds.schema, ds.X, np.random.default_rng(0).permutation(ds.y),
                   ds.class_labels)


@pytest.fixture(scope="module")
def honest_tree_run(tmp_path_factory):
    return run_experiment(ExperimentConfig(out_dir=str(tmp_path_factory.mktemp("tree")),
                                           run_scan=True, **TINY_TREE))


def _unseeded_noise(cfg, results, out):
    """A stage whose report draws from a generator that no seed fixes."""
    out("noise.csv", ["value"], [[f"{v:.17g}"] for v in np.random.default_rng().random(4)])


class TestBitIdenticalReruns:
    def reruns(self, tmp_path):
        dirs = [str(tmp_path / d) for d in ("run_a", "run_b")]
        for d in dirs:
            run_experiment(ExperimentConfig(out_dir=d, run_scan=True, **TINY_TREE))
        return dirs

    def test_honest_reruns_pass_and_a_report_one_run_lacks_fails(self, tmp_path):
        dirs = self.reruns(tmp_path)
        verdict = bit_identical_reruns(*dirs)
        assert verdict.ok and "4 report CSVs compared, differing: none" in verdict.detail
        (tmp_path / "run_b" / "table2.csv").unlink()
        verdict = bit_identical_reruns(*dirs)
        assert not verdict.ok and "differing: ['table2.csv']" in verdict.detail

    def test_a_stage_that_draws_unseeded_noise_fails(self, tmp_path, monkeypatch):
        """Every report but the noise stage's is equal across the runs."""
        stages = experiment.STAGES
        monkeypatch.setattr(experiment, "STAGES",
                            stages[:-1] + (("noise", _unseeded_noise, None),) + stages[-1:])
        verdict = bit_identical_reruns(*self.reruns(tmp_path))
        assert not verdict.ok and verdict.value == 1
        assert "differing: ['noise.csv'] (bound 0, margin -1)" in verdict.detail


class TestScanReproduced:
    """The retrain half of criterion 07, on a real scan: 80 held-out rows,
    agreements 0.7125 at L=2 and 1.0 at L=4-12, knee L=4."""

    def test_honest_scan_passes(self, honest_tree_run):
        verdict = feature_subset_selection(honest_tree_run)
        assert verdict.ok and honest_tree_run["selected_L"] == 4
        assert "retrained at L=4 1.0000 (reproduced=True)" in verdict.detail

    def test_agreements_shuffled_so_the_selected_row_moves_fail(self, honest_tree_run):
        """L=2 and L=4 trade agreements, so the knee moves to L=2 and reads
        1.0, within 0.02 of the full pool: only the retrain, 0.7125, sees it."""
        scan = honest_tree_run["scan"]
        agreements = [p.agreement for p in scan]
        agreements[0], agreements[1] = agreements[1], agreements[0]
        shuffled = scan_of([(p.L, a) for p, a in zip(scan, agreements)],
                           TINY_TREE["n_classes"])
        results = {**honest_tree_run, "scan": shuffled, "selected_L": select_subset(shuffled)}
        verdict = feature_subset_selection(results)
        assert results["selected_L"] == 2 and verdict.value >= verdict.threshold
        assert not verdict.ok
        assert "retrained at L=2 0.7125 (reproduced=False)" in verdict.detail


class TestTargetIdentification:
    def test_honest_run_passes(self, honest_tree_run):
        verdict = target_identification(honest_tree_run)
        assert verdict.ok and verdict.value == pytest.approx(0.9896, abs=5e-5)
        assert f"margin {verdict.value - 0.90:+.4f}" in verdict.detail

    def test_target_fit_to_permuted_labels_fails(self, tmp_path, monkeypatch):
        """The target learns no relation between rows and labels, so it
        identifies its test rows at about chance."""
        fit = experiment.fit
        monkeypatch.setattr(experiment, "fit",
                            lambda kind, train, seed: fit(kind, permuted(train), seed=seed))
        verdict = target_identification(run_experiment(ExperimentConfig(
            out_dir=str(tmp_path), **TINY_TREE)))
        assert not verdict.ok and verdict.value < 0.5
        assert f"margin {verdict.value - 0.90:+.4f}" in verdict.detail


class TestSubstituteAgreement:
    def test_honest_run_passes(self, honest_tree_run):
        verdict = substitute_agreement(honest_tree_run)
        assert verdict.ok and verdict.value == pytest.approx(0.0146, abs=5e-5)
        assert "60 <= 60 epochs" in verdict.detail

    def test_substitute_fit_to_permuted_oracle_labels_fails(self, tmp_path, monkeypatch):
        """The substitute agrees with the shuffled oracle labels at about
        chance, far from the target's own test rate; the target is honest."""
        train = experiment.train_substitute
        monkeypatch.setattr(experiment, "train_substitute",
                            lambda corpus, **kwargs: train(permuted(corpus), **kwargs))
        results = run_experiment(ExperimentConfig(out_dir=str(tmp_path), **TINY_TREE))
        assert target_identification(results).ok
        verdict = substitute_agreement(results)
        assert not verdict.ok and verdict.value > 0.5
        assert f"margin {0.05 - verdict.value:+.4f}" in verdict.detail


class TestGradientsAndPredictions:
    def test_honest_run_passes(self, honest_tree_run):
        verdict = gradients_and_predictions(honest_tree_run)
        assert verdict.ok and verdict.value < 1e-6
        assert "mismatches per kind {'decision_tree': 0}" in verdict.detail

    def test_one_bias_gradient_scaled_fails(self, honest_tree_run, monkeypatch):
        """``Net.backward`` returns the first layer's bias gradient 0.1 % too
        large; the finite differences see it on the parameter side."""
        backward = Net.backward

        def scaled(self, cache, d_logits):
            grad = backward(self, cache, d_logits)
            self._views(grad)[1][0] *= 1.001
            return grad

        monkeypatch.setattr(Net, "backward", scaled)
        verdict = gradients_and_predictions(honest_tree_run)
        assert not verdict.ok and verdict.value > verdict.threshold
        assert f"margin {verdict.threshold - verdict.value:+.2e}" in verdict.detail

    def test_ids_that_are_not_the_argmax_of_the_scores_fail(self, honest_tree_run,
                                                            monkeypatch):
        """The target's ids are its argmax class shifted by one, as from a
        label table off by one, so all 1,000 vectors disagree."""
        model = honest_tree_run["targets"]["decision_tree"]
        monkeypatch.setattr(type(model), "predict_ids", lambda self, X: (
            np.argmax(self.predict_scores(X), axis=1) + 1) % self.n_classes)
        verdict = gradients_and_predictions(honest_tree_run)
        assert not verdict.ok and verdict.value < verdict.threshold
        assert "{'decision_tree': 1000}, bound 0 (margin -1000)" in verdict.detail


# A knn-only run small enough for the fast suite. At 8 classes x 40 rows the
# trained generator leaves 0.125-0.141 of the test rows identified (seeds
# 0-7), above the 0.10 bound; at 60 rows and seed 4 it leaves none.
TINY_ATTACK = dict(seed=4, n_classes=8, rows_per_class=60, target_kinds=("knn",),
                   spoof_grid=False, run_defense=False)


class TestMisidentification:
    def test_trained_generator_passes(self, tmp_path):
        verdict = misidentification(run_experiment(ExperimentConfig(
            out_dir=str(tmp_path), **TINY_ATTACK)))
        assert verdict.ok and verdict.value == 0.0
        assert "knn=0.0000" in verdict.detail and "margin +0.1000" in verdict.detail

    def test_generator_left_at_the_identity_map_fails(self, tmp_path, monkeypatch):
        """Step size 0: the zero-initialised last layer never moves, so every
        attacked row is the clean row, and the target identifies most."""
        train = experiment.train_generator

        def at_step_size_zero(*args, **kwargs):
            return train(*args, **{**kwargs, "lr": 0.0})

        monkeypatch.setattr(experiment, "train_generator", at_step_size_zero)
        results = run_experiment(ExperimentConfig(out_dir=str(tmp_path), **TINY_ATTACK))
        g = results["attack_generators"]["knn"]
        assert not g.net.weights[-1].any() and not g.net.biases[-1].any()
        verdict = misidentification(results)
        assert not verdict.ok and verdict.value > 0.5
        assert f"margin {0.10 - verdict.value:+.4f}" in verdict.detail


# A neural_net-only spoof grid small enough for the fast suite: 8 classes, two
# of each device type, so every type pair is one cell.
TINY_GRID = dict(seed=0, n_classes=8, rows_per_class=100, target_kinds=("neural_net",),
                 run_defense=False)


class TestSpoofPairs:
    def test_honest_grid_passes(self, tmp_path):
        verdict = spoof_pairs(run_experiment(ExperimentConfig(out_dir=str(tmp_path),
                                                               **TINY_GRID)))
        assert verdict.ok and verdict.value == pytest.approx(0.975)
        assert "margin +0.1750" in verdict.detail and "camera>switch:" in verdict.detail

    def test_rates_read_against_the_wrong_target_class_fail(self, tmp_path, monkeypatch):
        """Each cell trains and is accepted as before, but its reported rate
        counts the rows the target assigns to the destination type's other
        class, not to the class the generator was trained toward."""
        evaluate = experiment.evaluate_attack

        def against_the_next_class(g, victim, test, mode, seed):
            if mode.mode == "spoof" and not isinstance(victim, Oracle):
                wrong = (mode.target.id + 1) % len(test.class_labels)
                mode = spoof(DeviceClass(wrong, test.class_labels[wrong]))
            return evaluate(g, victim, test, mode, seed=seed)

        monkeypatch.setattr(experiment, "evaluate_attack", against_the_next_class)
        verdict = spoof_pairs(run_experiment(ExperimentConfig(out_dir=str(tmp_path),
                                                              **TINY_GRID)))
        assert not verdict.ok and verdict.value < 0.5
        assert f"margin {verdict.value - 0.80:+.4f}" in verdict.detail


class SkipsRestore(Generator):
    """A generator whose output keeps ``H + amp * T`` on immutable columns
    too: the bit-exact restore is left out."""

    def _manipulate(self, H, Z, want_grad_cache=False):
        T = np.tanh(self.net.forward_logits(Z))
        return np.clip(H + self.amp * T, self.schema.lows, self.schema.highs)


def generator_results(ds, cls=Generator, immutable_amp=0.0):
    """Results holding one generator over ``ds`` whose every layer is random,
    so rows really move, with ``immutable_amp`` on the first immutable column."""
    g = build_generator(ds.schema, ds.X, seed=5)
    rng = np.random.default_rng(6)
    for W in g.net.weights:
        W[:] = rng.normal(size=W.shape)
    amp = g.amp.copy()
    amp[np.flatnonzero(~ds.schema.mutable_mask)[0]] = immutable_amp
    return {"attack_generators": {"knn": cls(g.schema, g.scaler, g.net, amp)},
            "test_pool": ds}


class TestContractHolds:
    def test_restore_kept_passes(self, small_dataset):
        verdict = contract_holds(generator_results(small_dataset, immutable_amp=1.0), 10_000)
        assert verdict.ok and verdict.value == 0
        assert "0 violations over 10,000" in verdict.detail

    def test_restore_skipped_with_an_immutable_amplitude_fails(self, small_dataset):
        verdict = contract_holds(
            generator_results(small_dataset, SkipsRestore, immutable_amp=1.0), 10_000)
        assert not verdict.ok and verdict.value > 0
        assert f"margin {-verdict.value:+d}" in verdict.detail

    def test_restore_skipped_alone_cannot_fail(self, small_dataset):
        """``amp`` is 0.0 on every immutable column, so ``H + amp * T``
        already keeps their bits: skipping the restore alone shows no defect."""
        verdict = contract_holds(generator_results(small_dataset, SkipsRestore), 10_000)
        assert verdict.ok
