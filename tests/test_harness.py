"""Data exchange, experiment configuration, synthesis, and the CLI."""
import json
import warnings

import numpy as np
import pytest

from flowcamo.core import ValidationError
from flowcamo.harness import experiment, synth
from flowcamo.harness.cli import main
from flowcamo.harness.csvio import CsvParseError, dataset_to_csv, ingest_csv
from flowcamo.harness.experiment import ExperimentConfig, StageFailure, run_experiment
from flowcamo.learners import load_model


class TestDatasetCsv:
    def test_round_trip_bit_identical(self, small_dataset, tmp_path):
        path = str(tmp_path / "ds.csv")
        dataset_to_csv(small_dataset, path)
        back = ingest_csv(path, small_dataset.schema, small_dataset.class_labels)
        np.testing.assert_array_equal(back.X, small_dataset.X)
        np.testing.assert_array_equal(back.y, small_dataset.y)
        assert back.class_labels == small_dataset.class_labels

    def test_label_inference_sorted(self, small_dataset, tmp_path):
        path = str(tmp_path / "ds.csv")
        dataset_to_csv(small_dataset, path)
        back = ingest_csv(path, small_dataset.schema)
        assert back.class_labels == tuple(sorted(small_dataset.class_labels))

    def test_bad_header_reports_line(self, pool_schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# a comment\nwrong,header\n")
        with pytest.raises(CsvParseError) as err:
            ingest_csv(str(path), pool_schema)
        assert err.value.line == 2

    def test_non_numeric_cell_reports_line_and_column(self, small_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        dataset_to_csv(small_dataset, str(path))
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "oops"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError) as err:
            ingest_csv(str(path), small_dataset.schema)
        assert err.value.line == 4
        assert err.value.column == small_dataset.schema.names[1]

    def test_out_of_range_cell_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        dataset_to_csv(small_dataset, str(path))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[0] = repr(float(small_dataset.schema.highs[0]) * 10)
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError) as err:
            ingest_csv(str(path), small_dataset.schema)
        assert err.value.column == small_dataset.schema.names[0]

    def test_unknown_label_rejected(self, small_dataset, tmp_path):
        path = str(tmp_path / "ds.csv")
        dataset_to_csv(small_dataset, path)
        with pytest.raises(ValidationError):
            ingest_csv(path, small_dataset.schema, class_labels=("only_one",))

    def test_empty_file_rejected(self, pool_schema, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(CsvParseError):
            ingest_csv(str(path), pool_schema)


class TestExperimentConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"seed": 1, "not_a_field": 2})

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "n_classes": 12}))
        cfg = ExperimentConfig.from_file(str(path), {"seed": 9})
        assert cfg.seed == 9  # override wins
        assert cfg.n_classes == 12

    def test_round_trip_preserves_hash(self):
        cfg = ExperimentConfig(seed=7, rows_per_class=50)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("key", ["attack_mode", "spoof_target_label"])
    def test_removed_keys_rejected(self, key, tmp_path, capsys):
        with pytest.raises(ValidationError, match="unknown config keys"):
            ExperimentConfig.from_dict({key: None})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: "x"}))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_hash_sensitive_to_fields(self):
        assert (
            ExperimentConfig(seed=1).config_hash()
            != ExperimentConfig(seed=2).config_hash()
        )


class TestSynthesis:
    def test_generation_deterministic(self, profiles, pool_schema):
        a = synth.generate_dataset(profiles, rows_per_class=20, seed=3, schema=pool_schema)
        b = synth.generate_dataset(profiles, rows_per_class=20, seed=3, schema=pool_schema)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_data(self, profiles, pool_schema):
        a = synth.generate_dataset(profiles, rows_per_class=20, seed=3, schema=pool_schema)
        b = synth.generate_dataset(profiles, rows_per_class=20, seed=4, schema=pool_schema)
        assert not np.array_equal(a.X, b.X)

    def test_rows_in_schema_range(self, small_dataset, pool_schema):
        assert np.all(small_dataset.X >= pool_schema.lows)
        assert np.all(small_dataset.X <= pool_schema.highs)

    def test_default_profiles_separable(self, profiles):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert synth.check_separability(profiles)

    def test_collapsed_profiles_warn(self, pool_schema):
        p = synth.default_profiles(pool_schema, n_classes=4, separability=0.01)
        with pytest.warns(UserWarning):
            assert not synth.check_separability(p)

    def test_type_helpers(self, profiles):
        cams = synth.classes_of_type(profiles, "camera")
        assert cams
        assert all(profiles[c].device_type == "camera" for c in cams)


def _explode(*_args, **_kwargs):
    raise RuntimeError("generator exploded")


TINY_RUN = dict(seed=3, n_classes=4, rows_per_class=20, substitute_epochs=4,
                generator_epochs=2, spoof_grid=False, run_defense=False)


class TestPipeline:
    def test_all_stages(self, tmp_path):
        """Every optional stage on: each report lands, scan.csv records the
        chosen subset size, and the manifest names every output."""
        cfg = ExperimentConfig(
            seed=5, n_classes=8, rows_per_class=80, substitute_epochs=30,
            generator_epochs=6, run_scan=True, scan_L=(2, 4, 8), scan_epochs=3,
            defense_rounds=3, defense_per_device=5, defense_train_per_device=12,
            out_dir=str(tmp_path),
        )
        results = run_experiment(cfg)
        names = {"table1.csv", "fig3.csv", "scan.csv", "table2.csv", "table3.csv",
                 "fig4.csv", "manifest.txt"}
        assert set(results["outputs"]) == names
        assert {p.name for p in tmp_path.iterdir()} == names
        scan_meta = [line for line in (tmp_path / "scan.csv").read_text().splitlines()
                     if line.startswith("# selected_L=")]
        assert scan_meta == [f"# selected_L={results['selected_L']}"]
        assert results["selected_L"] in cfg.scan_L
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        for name in names - {"manifest.txt"}:
            assert f"output.{name}={tmp_path / name}" in manifest
        assert not any(line.startswith("failed_stage=") for line in manifest)

    def test_unreachable_spoof_cell_is_reported_not_fatal(self, tmp_path):
        """Seed 5 with an 8-epoch substitute leaves some spoof targets with no
        anchor row: those cells get an empty rate and the run reaches fig4."""
        cfg = ExperimentConfig(
            seed=5, n_classes=8, rows_per_class=80, substitute_epochs=8,
            generator_epochs=6, defense_rounds=3, defense_per_device=5,
            defense_train_per_device=12, out_dir=str(tmp_path),
        )
        results = run_experiment(cfg)
        assert (tmp_path / "fig4.csv").is_file()
        lines = (tmp_path / "table3.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        empty = {tuple(r[:3]) for r in rows if r[4] == ""}
        rated = {tuple(r[:3]) for r in rows if r[4] != ""}
        assert empty and rated
        assert set(results["spoof_rates"]) == rated
        assert "failed_stage" not in (tmp_path / "manifest.txt").read_text()

    def test_stage_failure_writes_partial_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "train_generator", _explode)
        cfg = ExperimentConfig(out_dir=str(tmp_path), **TINY_RUN)
        with pytest.raises(StageFailure) as err:
            run_experiment(cfg)
        assert err.value.stage == "attack"
        assert "generator exploded" in str(err.value.cause)
        assert (tmp_path / "table1.csv").is_file()
        assert (tmp_path / "fig3.csv").is_file()
        assert not (tmp_path / "table2.csv").exists()
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[-1] == "failed_stage=attack"
        assert f"output.table1.csv={tmp_path / 'table1.csv'}" in manifest
        assert not any(line.startswith("output.table2.csv") for line in manifest)

    def test_cli_run_stage_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "train_generator", _explode)
        out_dir = tmp_path / "out"
        rc = main([
            "run", "--out-dir", str(out_dir), "--n-classes", "4",
            "--rows-per-class", "20", "--substitute-epochs", "4",
            "--generator-epochs", "2", "--no-defense", "--no-spoof", "--seed", "3",
        ])
        assert rc == 2
        assert "stage 'attack' failed" in capsys.readouterr().err
        assert "failed_stage=attack" in (out_dir / "manifest.txt").read_text()


class TestCli:
    def test_gen_data_and_ingest(self, tmp_path, capsys):
        out = str(tmp_path / "d.csv")
        rc = main([
            "gen-data", "--out", out, "--n-classes", "4",
            "--rows-per-class", "10", "--seed", "3",
        ])
        assert rc == 0
        rc = main(["ingest", out])
        assert rc == 0
        assert "4 classes" in capsys.readouterr().out

    def test_train_target_and_substitute(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        main(["gen-data", "--out", data, "--n-classes", "4",
              "--rows-per-class", "30", "--seed", "3"])
        model = str(tmp_path / "tree.npz")
        rc = main(["train-target", "--data", data, "--kind", "decision_tree",
                   "--out", model, "--seed", "3"])
        assert rc == 0
        sub = str(tmp_path / "sub.npz")
        rc = main(["train-substitute", "--data", data, "--target", model,
                   "--out", sub, "--epochs", "5", "--seed", "3"])
        assert rc == 0
        assert "oracle agreement" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, schema", [
        ([], synth.target_schema()),
        (["--project-target"], synth.target_schema()),
        (["--no-project-target"], synth.attacker_pool_schema()),
    ])
    def test_train_target_projection_flag(self, flag, schema, tmp_path):
        data = str(tmp_path / "d.csv")
        main(["gen-data", "--out", data, "--n-classes", "3",
              "--rows-per-class", "10", "--seed", "3"])
        model = str(tmp_path / "m.npz")
        rc = main(["train-target", "--data", data, "--kind", "knn",
                   "--out", model, "--seed", "3", *flag])
        assert rc == 0
        assert load_model(model).schema == schema

    def test_tampered_knn_target_is_a_validation_exit(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        main(["gen-data", "--out", data, "--n-classes", "3",
              "--rows-per-class", "10", "--seed", "3"])
        model = str(tmp_path / "knn.npz")
        assert main(["train-target", "--data", data, "--kind", "knn",
                     "--out", model, "--seed", "3"]) == 0
        with np.load(model) as archive:
            arrays = dict(archive)
        arrays["k"] = np.asarray(0)
        np.savez(model, **arrays)
        capsys.readouterr()
        rc = main(["train-substitute", "--data", data, "--target", model,
                   "--out", str(tmp_path / "sub.npz"), "--epochs", "2"])
        assert rc == 1
        assert "k=0" in capsys.readouterr().err

    def test_run_tiny_pipeline(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        rc = main([
            "run", "--out-dir", out_dir, "--n-classes", "4",
            "--rows-per-class", "20", "--substitute-epochs", "4",
            "--generator-epochs", "4", "--no-defense", "--no-spoof",
            "--seed", "3",
        ])
        assert rc == 0
        txt = capsys.readouterr().out
        for name in ("table1.csv", "table2.csv", "manifest.txt"):
            assert name in txt

    def test_bad_input_is_an_error_exit(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        rc = main(["train-target", "--data", missing, "--kind", "svm",
                   "--out", str(tmp_path / "m.npz")])
        assert rc != 0
