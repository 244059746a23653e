"""The saved-model archives: key sets, bit-exact round trips, the kind
table, and typed errors for a wrong or newer archive."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import flowcamo
from flowcamo.blackbox import make_oracle
from flowcamo.camouflage import (
    build_generator,
    load_generator,
    misidentify,
    save_generator,
    train_generator,
)
from flowcamo.core import ValidationError
from flowcamo.harness.cli import main
from flowcamo.harness.csvio import dataset_to_csv
from flowcamo.learners import KINDS, load_model, save_model
from flowcamo.learners.kinds import MODELS
from flowcamo.substitute import load_substitute, save_substitute, train_substitute

HYPERPARAMS = {
    "knn": {},
    "decision_tree": {"max_depth": 4},
    "random_forest": {"n_trees": 2, "max_depth": 4},
    "svm": {"epochs": 20},
    "neural_net": {},
}

_MODEL_HEADER = ["format_version:i", "kind:U", "schema_json:U", "class_labels:U"]
_SCALER = ["scaler_mean:f", "scaler_scale:f"]


def _net(n_hidden):
    return ["net_sizes:i"] + [f"net_{p}{i}:f" for i in range(n_hidden + 1) for p in "Wb"]


def _tree(prefix):
    return [f"{prefix}feature:i", f"{prefix}threshold:f", f"{prefix}left:i",
            f"{prefix}right:i", f"{prefix}dist:f"]


# ``key:dtype kind`` of every array, in the order the writer puts them.
ARCHIVE_KEYS = {
    "knn": _MODEL_HEADER + _SCALER + ["train_X:f", "train_y:i", "k:i"],
    "decision_tree": _MODEL_HEADER + _tree("t_"),
    "random_forest": _MODEL_HEADER + ["n_trees:i"] + _tree("t0_") + _tree("t1_"),
    "svm": _MODEL_HEADER + _SCALER + ["W:f", "b:f"],
    "neural_net": _MODEL_HEADER + _SCALER + _net(2),
    "substitute": _MODEL_HEADER + _SCALER + _net(2)
    + ["pool_schema_json:U", "subset:i", "training_curve:f", "holdout_idx:i"],
    "generator": ["format_version:i", "schema_json:U"] + _SCALER
    + ["amp:f", "trained:i", "training_curve:f"] + _net(1),
}
LOADERS = {"substitute": load_substitute, "generator": load_generator}
SAVERS = {"substitute": save_substitute, "generator": save_generator}
SRC = os.path.dirname(os.path.dirname(os.path.abspath(flowcamo.__file__)))


@pytest.fixture(scope="module")
def saved(small_split, tmp_path_factory):
    """``{name: (object, path)}`` for the seven archive types."""
    train, _ = small_split
    d = tmp_path_factory.mktemp("archives")
    objs = {k: MODELS[k].fit(train, seed=1, **HYPERPARAMS[k]) for k in KINDS}
    corpus = make_oracle(objs["decision_tree"], train.schema).collect(train.X)
    objs["substitute"] = train_substitute(corpus, epochs=3, seed=2)
    g = build_generator(train.schema, train.X, hidden=(8,), seed=4)
    objs["generator"] = train_generator(g, objs["substitute"], train, misidentify(),
                                        epochs=2, seed=4)
    out = {}
    for name, obj in objs.items():
        path = str(d / f"{name}.npz")
        SAVERS.get(name, save_model)(obj, path)
        out[name] = (obj, path)
    return out


def _load(name, path):
    return LOADERS.get(name, load_model)(path)


def _outputs(name, obj, X):
    if name == "substitute":
        return obj.predict_scores(X[:, obj.subset])
    if name == "generator":
        return obj.manipulate_batch(X, np.random.default_rng(0).uniform(0, 0.1, X.shape) * X)
    return obj.predict_scores(X)


def _rewrite(src, dst, **changes):
    with np.load(src) as data:
        arrays = dict(data)
    arrays.update(changes)
    np.savez(dst, **arrays)


def test_kind_order_is_pinned():
    # The default target list, the per-target seed offsets, the report row
    # order and the config hash all follow this order.
    assert KINDS == ("knn", "decision_tree", "random_forest", "svm", "neural_net")
    assert all(MODELS[k].kind == k for k in KINDS)


@pytest.mark.parametrize("name", list(ARCHIVE_KEYS))
class TestArchive:
    def test_key_set(self, name, saved):
        with np.load(saved[name][1]) as data:
            got = [f"{k}:{data[k].dtype.kind}" for k in data.files]
        assert got == ARCHIVE_KEYS[name]

    def test_bit_exact_round_trip(self, name, saved, small_split):
        obj, path = saved[name]
        again = _load(name, path)
        want, got = obj.to_arrays(), again.to_arrays()
        assert list(got) == list(want)
        for key in want:
            w, g = np.asarray(want[key]), np.asarray(got[key])
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), key
        X = small_split[1].X
        assert _outputs(name, again, X).tobytes() == _outputs(name, obj, X).tobytes()

    def test_newer_format_version_rejected(self, name, saved, tmp_path):
        path = str(tmp_path / "v2.npz")
        _rewrite(saved[name][1], path, format_version=np.asarray(2))
        with pytest.raises(ValidationError, match="unsupported format version 2"):
            _load(name, path)

    def test_non_scalar_format_version_rejected(self, name, saved, tmp_path):
        path = str(tmp_path / "v11.npz")
        _rewrite(saved[name][1], path, format_version=np.asarray([1, 1]))
        with pytest.raises(ValidationError, match="format_version has shape"):
            _load(name, path)

    def test_other_loaders_reject_it(self, name, saved):
        path = saved[name][1]
        own = "model" if name in KINDS else name
        for other, loader in (("model", load_model), *LOADERS.items()):
            if other != own:
                with pytest.raises(ValidationError, match=f"not a {other} archive"):
                    loader(path)


def _set_first_split(key, value):
    """Rewrite ``key`` of the tree ``t_``/``t0_`` at the first split node."""
    def edit(a):
        prefix = key[: key.index("_") + 1]
        arr = a[key].copy()
        arr[np.flatnonzero(a[f"{prefix}feature"] >= 0)[0]] = value
        return {key: arr}
    return edit


def _grow_last_layer(a):
    """A consistent net with one output more than the archive's labels need."""
    last = len(a["net_sizes"]) - 2
    W, b = a[f"net_W{last}"], a[f"net_b{last}"]
    return {"net_sizes": a["net_sizes"] + np.eye(len(a["net_sizes"]), dtype=int)[-1],
            f"net_W{last}": np.hstack([W, W[:, :1]]), f"net_b{last}": np.append(b, 0.0)}


def _set_entry(key, value):
    """Rewrite the first entry of array ``key``."""
    def edit(a):
        arr = a[key].copy()
        arr.flat[0] = value
        return {key: arr}
    return edit


# (kind, arrays to overwrite given the saved arrays, error the loader names)
TAMPERED = {
    "tree_child_loops_back": ("decision_tree", _set_first_split("t_left", 0), "child index"),
    "tree_child_past_end": ("decision_tree", _set_first_split("t_right", 10**6), "child index"),
    "tree_feature_past_schema": ("decision_tree", _set_first_split("t_feature", 10**6),
                                 "feature outside"),
    "tree_dist_misses_a_class": ("decision_tree", lambda a: {"t_dist": a["t_dist"][:, :-1]},
                                 "dist has shape"),
    "tree_threshold_short": ("decision_tree",
                             lambda a: {"t_threshold": a["t_threshold"][:-1]},
                             "threshold has shape"),
    "forest_no_trees": ("random_forest", lambda a: {"n_trees": np.asarray(0)}, "n_trees >= 1"),
    "forest_float_children": ("random_forest",
                              lambda a: {"t1_left": a["t1_left"].astype(float)},
                              "tree 1 feature, left and right must be integer"),
    "svm_W_cut_to_3_columns": ("svm", lambda a: {"W": a["W"][:, :3]}, "svm W has shape"),
    "svm_b_short": ("svm", lambda a: {"b": a["b"][:-1]}, "svm b has shape"),
    "svm_scaler_short": ("svm", lambda a: {"scaler_scale": a["scaler_scale"][:-1]},
                         "svm scaler_scale has shape"),
    "mlp_W0_short": ("neural_net", lambda a: {"net_W0": a["net_W0"][:-1]}, "net_W0/net_b0"),
    "mlp_extra_class": ("neural_net", _grow_last_layer, "do not map"),
    "mlp_scaler_short": ("neural_net", lambda a: {"scaler_mean": a["scaler_mean"][:-1]},
                         "neural_net scaler_mean has shape"),
    "mlp_scaler_zero_scale": ("neural_net", _set_entry("scaler_scale", 0.0),
                              "neural_net scaler_scale must be finite and positive"),
    "mlp_scaler_negative_scale": ("neural_net", _set_entry("scaler_scale", -1.0),
                                  "neural_net scaler_scale must be finite and positive"),
    "mlp_scaler_nan_mean": ("neural_net", _set_entry("scaler_mean", np.nan),
                            "neural_net scaler_mean holds non-finite"),
    "mlp_W1_inf": ("neural_net", _set_entry("net_W1", np.inf), "net_W1/net_b1 hold non-finite"),
    "mlp_b0_nan": ("neural_net", _set_entry("net_b0", np.nan), "net_W0/net_b0 hold non-finite"),
    "svm_scaler_inf_scale": ("svm", _set_entry("scaler_scale", np.inf),
                             "svm scaler_scale must be finite and positive"),
    "knn_train_X_nan": ("knn", _set_entry("train_X", np.nan), "knn train_X holds non-finite"),
    "knn_scaler_nan_mean": ("knn", _set_entry("scaler_mean", np.nan),
                            "knn scaler_mean holds non-finite"),
    "svm_class_labels_0d": ("svm", lambda a: {"class_labels": np.asarray("a")},
                            "class_labels has shape"),
    "knn_k_not_scalar": ("knn", lambda a: {"k": np.asarray([1, 2])}, "k has shape"),
    "forest_n_trees_not_scalar": ("random_forest", lambda a: {"n_trees": np.asarray([2, 2])},
                                  "n_trees has shape"),
}


@pytest.mark.parametrize("case", list(TAMPERED))
def test_tampered_classifier_archive_rejected(case, saved, tmp_path):
    kind, edit, message = TAMPERED[case]
    src = saved[kind][1]
    with np.load(src) as data:
        changes = edit(dict(data))
    path = str(tmp_path / f"{case}.npz")
    _rewrite(src, path, **changes)
    with pytest.raises(ValidationError, match=message):
        load_model(path)


def test_tampered_forest_target_is_a_validation_exit(saved, small_split, tmp_path, capsys):
    data = str(tmp_path / "train.csv")
    dataset_to_csv(small_split[0], data)
    target = str(tmp_path / "forest.npz")
    _rewrite(saved["random_forest"][1], target, n_trees=np.asarray(0))
    rc = main(["train-substitute", "--data", data, "--target", target,
               "--out", str(tmp_path / "sub.npz"), "--epochs", "2"])
    assert rc == 1
    assert "n_trees >= 1" in capsys.readouterr().err


def _reverse_schema(a):
    return {"schema_json": np.asarray(json.dumps(json.loads(str(a["schema_json"]))[::-1]))}


# (archive type, arrays to overwrite given the saved arrays, error the loader names)
TAMPERED_OTHER = {
    "substitute_zero_scale": ("substitute", _set_entry("scaler_scale", 0.0),
                              "substitute scaler_scale must be finite and positive"),
    "substitute_nan_mean": ("substitute", _set_entry("scaler_mean", np.nan),
                            "substitute scaler_mean holds non-finite"),
    "substitute_nan_weight": ("substitute", _set_entry("net_W0", np.nan),
                              "net_W0/net_b0 hold non-finite"),
    "substitute_subset_past_pool": ("substitute", _set_entry("subset", 10**6),
                                    "subset indices must be 1-D integers in 0..27"),
    "substitute_subset_2d": ("substitute", lambda a: {"subset": a["subset"][None, :]},
                             "subset indices must be 1-D integers"),
    "substitute_fewer_labels": ("substitute", lambda a: {"class_labels": a["class_labels"][:-1]},
                                "substitute sizes .* do not map"),
    "substitute_schema_not_the_subset": ("substitute", _reverse_schema,
                                         "schema_json is not the pool schema's subset"),
    "substitute_empty_curve": ("substitute", lambda a: {"training_curve": np.zeros(0)},
                               "training_curve must be non-empty, 1-D and finite"),
    "substitute_nan_curve": ("substitute", _set_entry("training_curve", np.nan),
                             "training_curve must be non-empty, 1-D and finite"),
    "substitute_negative_holdout": ("substitute", _set_entry("holdout_idx", -1),
                                    "holdout_idx must be a non-empty 1-D array"),
    "substitute_2d_holdout": ("substitute", lambda a: {"holdout_idx": a["holdout_idx"][None, :]},
                              "holdout_idx must be a non-empty 1-D array"),
    "substitute_empty_holdout": ("substitute",
                                 lambda a: {"holdout_idx": np.zeros(0, dtype=int)},
                                 "holdout_idx must be a non-empty 1-D array"),
    "generator_inf_bias": ("generator", _set_entry("net_b1", -np.inf),
                           "net_W1/net_b1 hold non-finite"),
    "generator_3_entry_mean": ("generator", lambda a: {"scaler_mean": a["scaler_mean"][:3]},
                               "generator scaler_mean has shape"),
    "generator_zero_scale": ("generator", _set_entry("scaler_scale", 0.0),
                             "generator scaler_scale must be finite and positive"),
    "generator_nan_amp": ("generator", _set_entry("amp", np.nan),
                          "generator amp holds non-finite"),
    "generator_amp_short": ("generator", lambda a: {"amp": a["amp"][:-1]},
                            "generator amp has shape"),
    "generator_extra_output": ("generator", _grow_last_layer, "generator sizes .* do not map"),
    "generator_trained_not_scalar": ("generator", lambda a: {"trained": np.asarray([1, 1])},
                                     "trained has shape"),
    "generator_2d_curve": ("generator", lambda a: {"training_curve": np.zeros((2, 2))},
                           "generator training_curve has shape"),
}


@pytest.mark.parametrize("case", list(TAMPERED_OTHER))
def test_tampered_substitute_or_generator_archive_rejected(case, saved, tmp_path):
    name, edit, message = TAMPERED_OTHER[case]
    src = saved[name][1]
    with np.load(src) as data:
        changes = edit(dict(data))
    path = str(tmp_path / f"{name}.npz")
    _rewrite(src, path, **changes)
    with pytest.raises(ValidationError, match=message):
        _load(name, path)


@pytest.mark.parametrize("edit, message", [
    (_set_entry("scaler_scale", 0.0), "scaler_scale must be finite and positive"),
    (_set_entry("scaler_mean", np.nan), "scaler_mean holds non-finite"),
], ids=["zero_scale", "nan_mean"])
def test_non_finite_neural_net_target_is_a_validation_exit(edit, message, saved, small_split,
                                                            tmp_path, capsys):
    """Such a target used to load and then fail training with a NumericError."""
    data = str(tmp_path / "train.csv")
    dataset_to_csv(small_split[0], data)
    target = str(tmp_path / "bad.npz")
    with np.load(saved["neural_net"][1]) as archive:
        changes = edit(dict(archive))
    _rewrite(saved["neural_net"][1], target, **changes)
    capsys.readouterr()
    rc = main(["train-substitute", "--data", data, "--target", target,
               "--out", str(tmp_path / "sub.npz"), "--epochs", "2"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def test_unknown_kind_in_archive_rejected(saved, tmp_path):
    path = str(tmp_path / "odd.npz")
    _rewrite(saved["svm"][1], path, kind=np.asarray("lstm"))
    with pytest.raises(ValidationError, match="unknown classifier kind"):
        load_model(path)


class TestCliWrongArchive:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli")
        f = {n: str(d / n) for n in ("data", "target", "sub", "out")}
        assert main(["gen-data", "--out", f["data"], "--n-classes", "3",
                     "--rows-per-class", "10", "--seed", "3"]) == 0
        assert main(["train-target", "--data", f["data"], "--kind", "svm",
                     "--out", f["target"], "--seed", "3"]) == 0
        assert main(["train-substitute", "--data", f["data"], "--target", f["target"],
                     "--out", f["sub"], "--epochs", "2"]) == 0
        for name, edit in (("sub_subset_past_pool", _set_entry("subset", 10**6)),
                           ("sub_empty_curve", lambda a: {"training_curve": np.zeros(0)})):
            f[name] = str(d / f"{name}.npz")
            with np.load(f["sub"]) as data:
                changes = edit(dict(data))
            _rewrite(f["sub"], f[name], **changes)
        return f

    @pytest.mark.parametrize("argv, message", [
        (lambda f: ["attack", "--data", f["data"], "--target", f["sub"], "--sub", f["sub"]],
         "archive"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["target"],
                    "--sub", f["target"]], "archive"),
        (lambda f: ["defend", "--generator", f["sub"], "--n-devices", "2",
                    "--train-per-device", "10", "--rounds", "1"], "archive"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["target"],
                    "--sub", f["sub_subset_past_pool"], "--epochs", "1"],
         "subset indices must be 1-D integers"),
        (lambda f: ["scan-features", "--data", f["data"], "--target", f["target"],
                    "--sub", f["sub_empty_curve"], "--L", "2", "--epochs", "1"],
         "training_curve must be non-empty"),
    ], ids=["target_is_substitute", "sub_is_target", "generator_is_substitute",
            "attack_sub_subset_past_pool", "scan_sub_empty_curve"])
    def test_exit_1_with_one_error_line(self, argv, message, files):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "flowcamo.harness.cli", *argv(files), "--out", files["out"]],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert message in lines[0]
