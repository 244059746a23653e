"""Data exchange, experiment configuration, synthesis, and the CLI."""
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcamo import profiler, substitute
from flowcamo.blackbox import make_oracle
from flowcamo.camouflage import load_generator, spoof_anchors
from flowcamo.core import (
    Dataset,
    DeviceClass,
    Feature,
    FeatureSchema,
    ValidationError,
    split_dataset,
)
from flowcamo.harness import cli, experiment, synth
from flowcamo.harness.cli import build_parser, main
from flowcamo.harness.csvio import CsvParseError, dataset_to_csv, ingest_csv
from flowcamo.harness.experiment import (
    ExperimentConfig,
    StageFailure,
    run_experiment,
    spoof_cell,
)
from flowcamo.learners import load_model, save_model
from flowcamo.substitute import feature_weights, load_substitute, top_l_indices


POOL = synth.attacker_pool_schema()


def _in_range(lo, hi):
    bounds = [lo, hi] + ([-0.0] if lo <= 0.0 <= hi else [])
    return st.one_of(st.sampled_from(bounds), st.floats(lo, hi))


POOL_ROW = st.tuples(*(_in_range(lo, hi) for lo, hi in zip(POOL.lows, POOL.highs)))


WIDE = FeatureSchema(tuple(Feature(f"w{i}", "u", -1e300, 1e300, True) for i in range(3)))
# -0.0, subnormals, the smallest normal, and both sides of repr's switch to
# exponent notation (at 1e16 and below 1e-4).
EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               9999999999999998.0, 1e16, -1e16, 1.0000000000000002e16, 1e22, 0.0001, 9.9e-05)
WIDE_CELL = st.one_of(st.sampled_from(EDGE_VALUES),
                      st.floats(-1e300, 1e300, allow_subnormal=True))


def _reference_fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _reference_dataset_csv(ds, meta) -> str:
    """The per-cell dataset writer that dataset_to_csv replaced, kept verbatim."""
    header = [f"f_{n}" for n in ds.schema.names] + ["class"]
    rows = (list(ds.X[i]) + [ds.class_labels[ds.y[i]]] for i in range(len(ds)))
    lines = [f"# {k}={v}" for k, v in (meta or {}).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_reference_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


class TestDatasetCsv:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(POOL_ROW, st.integers(0, 2)), min_size=1, max_size=4))
    def test_round_trip_of_any_in_range_doubles(self, rows):
        """Bit-exact, including both range bounds and -0.0."""
        X, y = zip(*rows)
        ds = Dataset(POOL, np.array(X), np.array(y), ("a", "b", "c"))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ds.csv")
            dataset_to_csv(ds, path)
            back = ingest_csv(path, POOL)
        assert back.X.tobytes() == ds.X.tobytes()
        assert ([back.class_labels[c] for c in back.y.tolist()]
                == [ds.class_labels[c] for c in ds.y.tolist()])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.tuples(WIDE_CELL, WIDE_CELL, WIDE_CELL), st.integers(0, 1)),
                    min_size=1, max_size=5),
           st.lists(st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1,
                            max_size=4), min_size=2, max_size=2, unique=True))
    def test_writer_bytes_match_the_per_cell_writer(self, rows, labels):
        X, y = zip(*rows)
        ds = Dataset(WIDE, np.array(X), np.array(y), tuple(labels))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ds.csv")
            dataset_to_csv(ds, path, {"seed": "3"})
            with open(path, "rb") as fh:
                written = fh.read()
        assert written == _reference_dataset_csv(ds, {"seed": "3"}).encode("utf-8")

    def test_round_trip_bit_identical(self, small_dataset, tmp_path):
        path = str(tmp_path / "ds.csv")
        dataset_to_csv(small_dataset, path)
        back = ingest_csv(path, small_dataset.schema)
        np.testing.assert_array_equal(back.X, small_dataset.X)
        np.testing.assert_array_equal(np.array(back.class_labels)[back.y],
                                      np.array(small_dataset.class_labels)[small_dataset.y])

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

    @staticmethod
    def _edit_cells(path, edits):
        """Rewrite ``{(line index, cell index): text}`` in a written dataset CSV."""
        lines = path.read_text().splitlines()
        for (li, ci), text in edits.items():
            cells = lines[li].split(",")
            cells[ci] = text
            lines[li] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edits, line, column, message", [
        # range error on an earlier line than the parse error
        ({(3, 2): "1e9", (5, 0): "oops"}, 4, 2, "out of range"),
        # parse error on an earlier line than the range error
        ({(3, 2): "oops", (5, 0): "1e9"}, 4, 2, "is not a number"),
        # same line: the earlier column wins either way
        ({(4, 1): "1e9", (4, 3): "oops"}, 5, 1, "out of range"),
        ({(4, 1): "oops", (4, 3): "1e9"}, 5, 1, "is not a number"),
        # a range error comes before a later line's wrong field count
        ({(3, 0): "-1e9", (6, -1): "a,b"}, 4, 0, "out of range"),
    ])
    def test_first_bad_cell_in_file_order_is_reported(self, small_dataset, tmp_path,
                                                      edits, line, column, message):
        path = tmp_path / "ds.csv"
        dataset_to_csv(small_dataset, str(path))
        self._edit_cells(path, edits)
        with pytest.raises(CsvParseError, match=message) as err:
            ingest_csv(str(path), small_dataset.schema)
        assert err.value.line == line
        assert err.value.column == small_dataset.schema.names[column]

    def test_wrong_field_count_reports_line(self, small_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        dataset_to_csv(small_dataset, str(path))
        self._edit_cells(path, {(2, 0): "1.0,2.0"})
        with pytest.raises(CsvParseError, match=r"expected \d+ fields, got \d+ \(line 3\)"):
            ingest_csv(str(path), small_dataset.schema)

    @pytest.mark.parametrize("cell, shown", [
        ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("NaN", "nan"),
    ])
    def test_non_finite_cell_is_out_of_range(self, small_dataset, tmp_path, cell, shown):
        path = tmp_path / "ds.csv"
        dataset_to_csv(small_dataset, str(path))
        self._edit_cells(path, {(2, 1): cell})
        schema = small_dataset.schema
        with pytest.raises(CsvParseError) as err:
            ingest_csv(str(path), schema)
        assert str(err.value) == (
            f"value {shown} out of range [{schema.lows[1]}, {schema.highs[1]}]"
            f" (line 3, column {schema.names[1]})")

    def test_quoted_label_with_a_comma_parses(self, small_dataset, tmp_path):
        ds = Dataset(small_dataset.schema, small_dataset.X[:4], np.array([0, 1, 0, 1]),
                     ("iot, cam", 'say "hi"'))
        path = tmp_path / "ds.csv"
        path.write_text("\n".join(
            [",".join(f"f_{n}" for n in ds.schema.names) + ",class"]
            + [",".join(map(repr, x)) + ',"iot, cam"' if c == 0
               else ",".join(f'"{v!r}"' for v in x) + ',"say ""hi"""'
               for x, c in zip(ds.X.tolist(), ds.y.tolist())]) + "\n")
        back = ingest_csv(str(path), ds.schema)
        assert back.X.tobytes() == ds.X.tobytes()
        assert back.class_labels == ds.class_labels
        assert back.y.tolist() == [0, 1, 0, 1]

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

    @pytest.mark.parametrize("key", [
        "attack_mode", "spoof_target_label", "schema_path", "substitute_hidden",
        "generator_hidden", "delta_scale", "generator_lr", "spoof_lr_decay",
        "spoof_anchor_weight", "spoof_bce_weight", "query_augment", "spoof_trial_lrs",
        "scan_L", "scan_epochs", "defense_rounds", "defense_per_device",
        "defense_train_per_device", "separability", "n_decoys", "train_fraction",
        "spoof_accept",
    ])
    def test_removed_keys_rejected(self, key, tmp_path, capsys):
        with pytest.raises(ValidationError, match="unknown config keys"):
            ExperimentConfig.from_dict({key: None})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: "x"}))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "unknown config keys" in err and repr(key) in err

    def test_default_config_round_trips(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key, value", [
        ("n_classes", "4"), ("target_kinds", "knn"), ("seed", True),
    ])
    def test_wrong_value_type_rejected(self, key, value, tmp_path, capsys):
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig.from_dict({key: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]

    @pytest.mark.parametrize("cfg, key", [
        ({"target_kinds": ["knnx"], "n_classes": 4, "rows_per_class": 30}, "target_kinds"),
        ({"n_classes": -3}, "n_classes"),
        ({"rows_per_class": 1}, "rows_per_class"),
        ({"substitute_epochs": 0}, "substitute_epochs"),
        ({"target_kinds": ["knn", "knn"]}, "target_kinds"),
    ])
    def test_unusable_value_is_a_validation_exit(self, cfg, key, tmp_path, capsys):
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig.from_dict(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config key {key!r} must be")
        assert not os.path.exists(tmp_path / "manifest.txt")  # no stage ran

    def test_scan_sizes_fit_the_attacker_pool(self):
        """The scan's largest size is the whole attacker pool, so every size
        it trains has the features to select."""
        assert substitute.SCAN_L[-1] == len(synth.attacker_pool_schema())

    def test_values_are_checked_on_construction(self):
        with pytest.raises(ValidationError, match="n_classes"):
            ExperimentConfig(n_classes=-3)
        with pytest.raises(ValidationError, match="target_kinds"):
            ExperimentConfig(target_kinds=("knnx",))

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

    def test_type_helpers(self, profiles):
        cams = synth.classes_of_type(profiles, "camera")
        assert cams
        assert all(profiles[c].device_type == "camera" for c in cams)


def _explode(*_args, **_kwargs):
    raise RuntimeError("generator exploded")


TINY_RUN = dict(seed=3, n_classes=4, rows_per_class=20, substitute_epochs=4,
                generator_epochs=2, spoof_grid=False, run_defense=False)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cfg = ExperimentConfig(out_dir=str(tmp_path_factory.mktemp("tiny_run")), **TINY_RUN)
    return cfg, run_experiment(cfg)


class TestPipeline:
    def test_table1_records_one_query_per_eavesdropped_row(self, tiny_run):
        """Each substitute's oracle budget is the training traffic it was fit
        to, one query per row: no probe rows are drawn."""
        cfg, results = tiny_run
        _meta, header, rows = _report(pathlib.Path(results["outputs"]["table1.csv"]))
        assert header[-1] == "oracle_queries"
        assert [r[0] for r in rows] == list(cfg.target_kinds)
        assert [int(r[-1]) for r in rows] == [len(results["train_pool"])] * len(rows)

    def test_train_substitute_is_the_pipeline_substitute(self, tiny_run, tmp_path):
        """``flowcamo train-substitute`` on the run's training traffic and
        target, with the run's seed offset and epochs, saves each run's
        substitute bit for bit."""
        cfg, results = tiny_run
        data = str(tmp_path / "train_pool.csv")
        dataset_to_csv(results["train_pool"], data)
        for i, kind in enumerate(cfg.target_kinds):
            target, sub = str(tmp_path / f"{kind}.npz"), str(tmp_path / f"{kind}_sub.npz")
            save_model(results["targets"][kind], target)
            assert main(["train-substitute", "--data", data, "--target", target, "--out", sub,
                         "--seed", str(cfg.seed + 100 + i),
                         "--epochs", str(cfg.substitute_epochs)]) == 0
            saved, ran = load_substitute(sub), results["substitutes"][kind]
            assert saved.training_curve == ran.training_curve
            for a, b in zip(
                    [saved.scaler.mean, saved.scaler.scale, *saved.net.weights, *saved.net.biases],
                    [ran.scaler.mean, ran.scaler.scale, *ran.net.weights, *ran.net.biases]):
                np.testing.assert_array_equal(a, b)

    def test_all_stages(self, tmp_path):
        """Every optional stage on: each report lands, scan.csv records the
        chosen subset size, and the manifest names every output."""
        cfg = ExperimentConfig(
            seed=5, n_classes=8, rows_per_class=80, substitute_epochs=30,
            generator_epochs=6, run_scan=True, out_dir=str(tmp_path),
        )
        results = run_experiment(cfg)
        names = {"table1.csv", "fig3.csv", "scan.csv", "table2.csv", "table3.csv",
                 "fig4.csv", "manifest.txt"}
        assert set(results["outputs"]) == names
        assert {p.name for p in tmp_path.iterdir()} == names
        scan_meta = [line for line in (tmp_path / "scan.csv").read_text().splitlines()
                     if line.startswith("# selected_L=")]
        assert scan_meta == [f"# selected_L={results['selected_L']}"]
        assert results["selected_L"] in substitute.SCAN_L
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        for name in names - {"manifest.txt"}:
            assert f"output.{name}={tmp_path / name}" in manifest
        assert not any(line.startswith("failed_stage=") for line in manifest)

    def test_scan_over_an_all_immutable_top_l(self, tmp_path):
        """At this seed the two heaviest features are both immutable. The
        scan trains a substitute on them like on any other subset; only a
        generator needs a mutable feature."""
        cfg = ExperimentConfig(seed=4, n_classes=8, rows_per_class=20, target_kinds=("knn",),
                               run_scan=True, spoof_grid=False, run_defense=False,
                               out_dir=str(tmp_path))
        results = run_experiment(cfg)
        weights = feature_weights(results["corpora"]["knn"], results["substitutes"]["knn"],
                                  seed=cfg.seed + 500)
        assert not POOL.mutable_mask[list(top_l_indices(weights, 2))].any()
        assert [p.L for p in results["scan"]] == list(substitute.SCAN_L)
        assert "scan.csv" in results["outputs"]

    @pytest.mark.parametrize("seed", [42, 11, 23])
    def test_default_defense_meets_the_acceptance_threshold(self, seed):
        """The default config's defense stage (28 devices, 30 rounds, seed
        offsets 900-903) identifies every round at >= 0.95 clean, the
        threshold of acceptance criterion 08, at the benchmark seed and two
        others."""
        results = {}
        experiment._defense(ExperimentConfig(seed=seed), results, lambda *args: None)
        assert min(results["defense_report"].clean_rates) >= 0.95

    def test_unreachable_spoof_cell_is_reported_not_fatal(self, tmp_path):
        """Seed 5 with an 8-epoch substitute leaves some spoof targets with no
        anchor row: those cells get an empty rate and the run reaches fig4."""
        cfg = ExperimentConfig(
            seed=5, n_classes=8, rows_per_class=80, substitute_epochs=8,
            generator_epochs=6, out_dir=str(tmp_path),
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
    def test_flag_defaults_are_the_config_defaults(self):
        """The single-step commands restate no default of the pipeline run:
        each is a config default or a constant of the scan or defense stage."""
        cfg = ExperimentConfig()
        files = ["--data", "d", "--target", "t", "--out", "o"]
        expected = {
            ("gen-data", "--out", "o"): dict(
                n_classes=cfg.n_classes, rows_per_class=cfg.rows_per_class, seed=cfg.seed),
            ("train-target", "--data", "d", "--kind", "knn", "--out", "o"): dict(seed=cfg.seed),
            ("train-substitute", *files): dict(epochs=cfg.substitute_epochs, seed=cfg.seed),
            ("scan-features", *files, "--sub", "s"): dict(
                L=",".join(map(str, substitute.SCAN_L)), epochs=substitute.SCAN_EPOCHS,
                seed=cfg.seed),
            ("attack", *files, "--sub", "s"): dict(epochs=cfg.generator_epochs, seed=cfg.seed),
            ("spoof", *files, "--sub", "s", "--target-class", "c"): dict(
                epochs=cfg.generator_epochs, seed=cfg.seed),
            ("defend", "--out", "o"): dict(
                n_devices=cfg.n_classes, rounds=profiler.DEFENSE_ROUNDS,
                train_per_device=profiler.TRAIN_PER_DEVICE, seed=cfg.seed),
            ("report",): dict(dir=cfg.out_dir),
        }
        parser = build_parser()
        for argv, defaults in expected.items():
            args = vars(parser.parse_args(list(argv)))
            assert {k: args[k] for k in defaults} == defaults, argv[0]

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
        assert load_model(model).schema == synth.target_schema()
        sub = str(tmp_path / "sub.npz")
        rc = main(["train-substitute", "--data", data, "--target", model,
                   "--out", sub, "--epochs", "5", "--seed", "3"])
        assert rc == 0
        assert "oracle agreement" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, schema", [([], synth.target_schema())])
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

    def test_report_of_empty_csv_prints_only_its_heading(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("")
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["", "== empty.csv =="]

    def test_report_of_ragged_csv_is_a_validation_exit(self, tmp_path, capsys):
        (tmp_path / "ragged.csv").write_text("a,b\n1\n")
        assert main(["report", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "ragged.csv" in err[0]

    def test_report_of_a_missing_directory_is_an_io_exit(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["report", "--dir", str(missing)]) == 3
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == "" and len(err) == 1 and err[0].startswith("error: ")
        assert str(missing) in err[0]
        missing.mkdir()
        assert main(["report", "--dir", str(missing)]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("body", ["[1, 2]", "3", '"seed"', "null"])
    def test_config_that_is_not_an_object_is_a_validation_exit(self, body, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(body)
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0], err
        assert "JSON object" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["defend", "--out", "x", "--bogus"], "unrecognized arguments: --bogus"),
        (["train-target", "--data", "d.csv", "--kind", "knn"],
         "the following arguments are required: --out"),
        (["ingest", "d.csv", "--schema", "pool"], "unrecognized arguments: --schema pool"),
        (["train-target", "--data", "d.csv", "--kind", "knn", "--out", "m.npz",
          "--no-project-target"], "unrecognized arguments: --no-project-target"),
        (["train-target", "--data", "d.csv", "--kind", "boosted", "--out", "m.npz"],
         "argument --kind: invalid choice: 'boosted'"),
    ], ids=["unknown_flag", "missing_out", "removed_schema", "removed_project_target",
            "bad_choice"])
    def test_usage_error_is_a_validation_exit(self, argv, message, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == "" and len(err) == 1, err
        assert err[0].startswith("error: flowcamo") and message in err[0], err
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["defend", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: flowcamo defend")

    def test_bad_input_is_an_error_exit(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        rc = main(["train-target", "--data", missing, "--kind", "svm",
                   "--out", str(tmp_path / "m.npz")])
        assert rc != 0


class TestCliDefendBadInput:
    """Each bad ``defend`` size exits 1 with one error line and writes no file."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--rounds", "-1", "rounds must be >= 0"),
        ("--n-devices", "0", "at least one device"),
        ("--train-per-device", "0", "per_device must be >= 1"),
    ])
    def test_exit_1_and_no_report(self, flag, value, message, tmp_path, capsys):
        sizes = {"--n-devices": "3", "--rounds": "1", "--train-per-device": "10"}
        sizes[flag] = value
        out = tmp_path / "defend.csv"
        argv = ["defend", *(x for kv in sizes.items() for x in kv), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert list(tmp_path.iterdir()) == []


def _report(path):
    """``(meta lines, header, data rows)`` of a report CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return meta, body[0], body[1:]


class TestCliSuccess:
    """Each analysis command on a 4-class, 30-row-per-class dataset."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli_inputs")
        f = {n: str(d / n) for n in ("data.csv", "target.npz", "sub.npz")}
        assert main(["gen-data", "--out", f["data.csv"], "--n-classes", "4",
                     "--rows-per-class", "30", "--seed", "3"]) == 0
        assert main(["train-target", "--data", f["data.csv"], "--kind", "decision_tree",
                     "--out", f["target.npz"], "--seed", "3"]) == 0
        assert main(["train-substitute", "--data", f["data.csv"], "--target", f["target.npz"],
                     "--out", f["sub.npz"], "--epochs", "5", "--seed", "3"]) == 0
        return ["--data", f["data.csv"], "--target", f["target.npz"], "--sub", f["sub.npz"]]

    def test_scan_features_over_an_all_immutable_top_l(self, tmp_path):
        """At seed 7 the substitute ranks two immutable features first; the
        scan still writes every size."""
        f = {n: str(tmp_path / n) for n in ("data.csv", "target.npz", "sub.npz", "scan.csv")}
        seed = ["--seed", "7"]
        assert main(["gen-data", "--out", f["data.csv"], "--n-classes", "8",
                     "--rows-per-class", "40", *seed]) == 0
        assert main(["train-target", "--data", f["data.csv"], "--kind", "knn",
                     "--out", f["target.npz"], *seed]) == 0
        assert main(["train-substitute", "--data", f["data.csv"], "--target", f["target.npz"],
                     "--out", f["sub.npz"], "--epochs", "5", *seed]) == 0
        assert main(["scan-features", "--data", f["data.csv"], "--target", f["target.npz"],
                     "--sub", f["sub.npz"], "--L", "2,8,28", "--out", f["scan.csv"], *seed]) == 0
        _meta, _header, rows = _report(pathlib.Path(f["scan.csv"]))
        assert [r[0] for r in rows] == ["2", "8", "28"]
        ds = ingest_csv(f["data.csv"], POOL)
        corpus = make_oracle(load_model(f["target.npz"]), POOL).collect(ds.X)
        weights = feature_weights(corpus, load_substitute(f["sub.npz"]), seed=7)
        assert not POOL.mutable_mask[list(top_l_indices(weights, 2))].any()

    def test_scan_features(self, inputs, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan-features", *inputs, "--L", "2,8", "--epochs", "2",
                     "--out", str(out)]) == 0
        meta, header, rows = _report(out)
        assert header == ["L", "agreement", "multiply_adds", "gain", "undefined_flag"]
        assert [r[0] for r in rows] == ["2", "8"]
        chosen = meta[0].removeprefix("# selected_L=")
        assert chosen in ("2", "8")
        assert f"selected L={chosen}" in capsys.readouterr().out

    @pytest.mark.parametrize("sizes", ["4,4", "8,4"])
    def test_scan_sizes_not_strictly_ascending(self, sizes, inputs, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan-features", *inputs, "--L", sizes, "--epochs", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--L" in err[0] and "strictly ascending" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, mode", [
        ("attack", [], "misidentify"),
        ("spoof", ["--target-class", "hub_00", "--source-type", "camera"], "spoof"),
    ])
    def test_attack_and_spoof(self, command, extra, mode, inputs, tmp_path, capsys):
        out, gen = tmp_path / f"{command}.csv", tmp_path / "g.npz"
        assert main([command, *inputs, "--epochs", "2", "--out", str(out),
                     "--save-generator", str(gen), "--seed", "3", *extra]) == 0
        meta, header, rows = _report(out)
        assert meta == ["# seed=3"]
        assert header == ["mode", "clean_rate", "attacked_rate", "success_rate", "rows"]
        assert len(rows) == 1 and rows[0][0] == mode
        assert gen.is_file()
        assert capsys.readouterr().out.startswith(f"{mode}: clean ")

    def test_spoof_runs_the_pipeline_cell(self, inputs, tmp_path):
        """``flowcamo spoof`` is the spoof grid's cell 0 anchored on the 0.8
        split's training rows: it keeps that cell's best trial and reaches
        the acceptance level on pairs the unanchored recipe left at 0."""
        cfg = ExperimentConfig(seed=3, generator_epochs=10)
        ds = ingest_csv(inputs[1], POOL)
        train, test = split_dataset(ds, cfg.train_fraction, 3)
        target, sub = load_model(inputs[3]), load_substitute(inputs[5])
        anchors = spoof_anchors(sub, train.X)
        for src, dst in (("camera", "hub_00"), ("switch", "camera_00")):
            out, gen = tmp_path / f"{src}.csv", tmp_path / f"{src}.npz"
            assert main(["spoof", *inputs, "--epochs", "10", "--out", str(out),
                         "--save-generator", str(gen), "--seed", "3",
                         "--source-type", src, "--target-class", dst]) == 0
            rows = _report(out)[2]
            assert float(rows[0][3]) >= cfg.spoof_accept
            keep = [i for i, lab in enumerate(ds.class_labels) if lab.startswith(src)]
            tid = ds.class_labels.index(dst)
            g, rep = spoof_cell(
                cfg, sub, make_oracle(target, POOL), target, train.X, anchors[tid],
                train.take(np.flatnonzero(np.isin(train.y, keep))),
                test.take(np.flatnonzero(np.isin(test.y, keep))),
                DeviceClass(tid, dst), 0)
            assert rows[0][2:] == [f"{rep.attacked_rate:.6f}", f"{rep.success_rate:.6f}",
                                   str(rep.n_rows)]
            saved = load_generator(str(gen))
            assert saved.training_curve == g.training_curve
            for a, b in zip(saved.net.weights + saved.net.biases, g.net.weights + g.net.biases):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("extra, message", [
        (["--source-type", "printer"], "'printer'"),
        (["--target-class", "printer_00"], "'printer_00'"),
    ])
    def test_bad_spoof_input_is_a_validation_exit(self, extra, message, inputs, tmp_path,
                                                  capsys):
        """Checked before any training: exit 1, one error line, no file."""
        args = {"--source-type": "camera", "--target-class": "hub_00"}
        args.update(zip(extra[::2], extra[1::2]))
        rc = main(["spoof", *inputs, "--out", str(tmp_path / "s.csv"),
                   "--save-generator", str(tmp_path / "g.npz"),
                   *(x for kv in args.items() for x in kv)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert list(tmp_path.iterdir()) == []

    def test_spoof_target_with_no_anchor_is_a_validation_exit(self, monkeypatch, inputs,
                                                               tmp_path, capsys):
        """A target the substitute assigns no training row to is bad input,
        decided before any training: exit 1, one error line, no file."""
        monkeypatch.setattr(cli, "spoof_anchors", lambda sub, anchor_X: {})
        monkeypatch.setattr(cli, "spoof_cell", _explode)
        rc = main(["spoof", *inputs, "--out", str(tmp_path / "s.csv"),
                   "--save-generator", str(tmp_path / "g.npz"),
                   "--source-type", "camera", "--target-class", "hub_00"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the substitute assigns no training row to 'hub_00'"]
        assert list(tmp_path.iterdir()) == []

    def test_defend(self, inputs, tmp_path, capsys):
        gen, out = tmp_path / "g.npz", tmp_path / "defend.csv"
        assert main(["attack", *inputs, "--epochs", "2", "--out", str(tmp_path / "a.csv"),
                     "--save-generator", str(gen)]) == 0
        assert main(["defend", "--generator", str(gen), "--data", inputs[1],
                     "--n-devices", "4", "--rounds", "2", "--train-per-device", "10",
                     "--out", str(out)]) == 0
        meta, header, rows = _report(out)
        assert [m.split("=")[0] for m in meta] == ["# clean_hash", "# attacked_hash"]
        assert header == ["round", "clean_rate", "under_attack_rate"]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert "streams identical: True" in capsys.readouterr().out

    def test_report(self, inputs, tmp_path, capsys):
        assert main(["attack", *inputs, "--epochs", "2",
                     "--out", str(tmp_path / "attack.csv")]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "== attack.csv =="
        assert lines[2].split() == ["mode", "clean_rate", "attacked_rate", "success_rate",
                                    "rows"]
        assert lines[3].split()[0] == "misidentify"
