"""The saved-model archives: key sets, bit-exact round trips, the kind
table, and typed errors for a wrong or newer archive."""
import json
import os
import struct
import subprocess
import sys
import zipfile

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
from flowcamo.harness import synth
from flowcamo.harness.csvio import dataset_to_csv, ingest_csv
from flowcamo.learners import KINDS, load_model, save_model
from flowcamo.learners.kinds import MODELS
from flowcamo.substitute import load_substitute, save_substitute, train_substitute

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
    "random_forest": _MODEL_HEADER + ["n_trees:i"]
    + [key for i in range(20) for key in _tree(f"t{i}_")],
    "svm": _MODEL_HEADER + _SCALER + ["W:f", "b:f"],
    "neural_net": _MODEL_HEADER + _SCALER + _net(2),
    "substitute": _MODEL_HEADER + _SCALER + _net(2) + ["training_curve:f", "holdout_idx:i"],
    "generator": ["format_version:i", "schema_json:U"] + _SCALER
    + ["amp:f", "training_curve:f"] + _net(2),
}
LOADERS = {"substitute": load_substitute, "generator": load_generator}
SAVERS = {"substitute": save_substitute, "generator": save_generator}
SRC = os.path.dirname(os.path.dirname(os.path.abspath(flowcamo.__file__)))


@pytest.fixture(scope="module")
def saved(small_split, tmp_path_factory):
    """``{name: (object, path)}`` for the seven archive types."""
    train, _ = small_split
    d = tmp_path_factory.mktemp("archives")
    objs = {k: MODELS[k].fit(train, seed=1) for k in KINDS}
    corpus = make_oracle(objs["decision_tree"], train.schema).collect(train.X)
    objs["substitute"] = train_substitute(corpus, epochs=3, seed=2)
    g = build_generator(train.schema, train.X, seed=4)
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
    if name == "generator":
        return obj.manipulate_batch(X, np.random.default_rng(0).uniform(0, 0.1, X.shape) * X)
    return obj.predict_scores(X)


def _rewrite(src, dst, **changes):
    with np.load(src) as data:
        arrays = dict(data)
    arrays.update(changes)
    np.savez(dst, **arrays)


def _corrupt_member(src, dst, member, offset):
    """A copy of the archive at ``src`` with byte ``offset`` of ``member``'s
    stored bytes inverted (a negative offset counts from the end)."""
    with open(src, "rb") as fh:
        raw = bytearray(fh.read())
    with zipfile.ZipFile(src) as z:
        info = z.getinfo(member)
    h = info.header_offset
    name_len, extra_len = struct.unpack("<HH", raw[h + 26:h + 30])
    raw[h + 30 + name_len + extra_len + offset % info.compress_size] ^= 0xFF
    with open(dst, "wb") as fh:
        fh.write(raw)


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


def _widen_to_32_features(a):
    """A knn archive padded with zero features to 32, the width from which
    its scores can depend on the batch."""
    schema = json.loads(str(a["schema_json"]))
    extra = 32 - len(schema)
    schema += [dict(schema[0], name=f"pad{i}") for i in range(extra)]
    return {"schema_json": np.asarray(json.dumps(schema)),
            "scaler_mean": np.append(a["scaler_mean"], np.zeros(extra)),
            "scaler_scale": np.append(a["scaler_scale"], np.ones(extra)),
            "train_X": np.hstack([a["train_X"], np.zeros((len(a["train_X"]), extra))])}


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
    "knn_32_features": ("knn", _widen_to_32_features, "knn takes at most 31 features, got 32"),
    "forest_n_trees_not_scalar": ("random_forest", lambda a: {"n_trees": np.asarray([2, 2])},
                                  "n_trees has shape"),
    "mlp_sizes_2d": ("neural_net", lambda a: {"net_sizes": np.asarray([[28, 64], [64, 8]])},
                     "layer sizes must be two or more positive integers"),
    "mlp_sizes_scalar": ("neural_net", lambda a: {"net_sizes": np.asarray(28)},
                         "layer sizes must be two or more positive integers"),
    "mlp_sizes_zero_width": ("neural_net", lambda a: {"net_sizes": np.asarray([28, 0, 8])},
                             "layer sizes must be two or more positive integers"),
    # Sizes of a 7.28 TiB net: the shapes must be checked before allocating.
    "mlp_sizes_past_memory": ("neural_net", lambda a: {"net_sizes": np.asarray(
        [a["net_sizes"][0], 10**6, 10**6, a["net_sizes"][-1]])}, "net_W0/net_b0 have shapes"),
    "mlp_W0_strings": ("neural_net", lambda a: {"net_W0": a["net_W0"].astype(str)},
                       "net_W0/net_b0 have dtypes <U"),
    "mlp_b1_complex": ("neural_net", lambda a: {"net_b1": a["net_b1"] + 1j},
                       "net_W1/net_b1 have dtypes float64/complex128"),
    "svm_W_nan": ("svm", _set_entry("W", np.nan), "svm W/b hold non-finite"),
    # Complex arrays used to load (svm predicted after a ComplexWarning), and
    # strings raised a TypeError.
    "svm_W_complex": ("svm", lambda a: {"W": a["W"].astype(complex)},
                      "svm W/b have dtypes complex128/float64"),
    "svm_scaler_mean_complex": ("svm", lambda a: {"scaler_mean": a["scaler_mean"].astype(complex)},
                                "svm scaler_mean/scaler_scale have dtypes complex128/float64"),
    "knn_train_X_strings": ("knn", lambda a: {"train_X": a["train_X"].astype(str)},
                            "knn train_X has dtype <U"),
    "tree_threshold_strings": ("decision_tree",
                               lambda a: {"t_threshold": a["t_threshold"].astype(str)},
                               "decision_tree threshold/dist have dtypes <U"),
    "mlp_scaler_scale_strings": ("neural_net",
                                 lambda a: {"scaler_scale": a["scaler_scale"].astype(str)},
                                 "neural_net scaler_mean/scaler_scale have dtypes float64/<U"),
    "svm_b_inf": ("svm", _set_entry("b", np.inf), "svm W/b hold non-finite"),
    "tree_threshold_nan": ("decision_tree", _set_first_split("t_threshold", np.nan),
                           "decision_tree threshold/dist hold non-finite"),
    "tree_dist_nan": ("decision_tree", _set_entry("t_dist", np.nan),
                      "decision_tree threshold/dist hold non-finite"),
    "forest_threshold_inf": ("random_forest", _set_first_split("t0_threshold", -np.inf),
                             "random_forest tree 0 threshold/dist hold non-finite"),
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
    "substitute_fewer_labels": ("substitute", lambda a: {"class_labels": a["class_labels"][:-1]},
                                "substitute sizes .* do not map"),
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
    # A complex amp used to load and manipulate rows into complex values.
    "generator_complex_amp": ("generator", lambda a: {"amp": a["amp"].astype(complex)},
                              "generator amp has dtype complex128"),
    "generator_string_amp": ("generator", lambda a: {"amp": a["amp"].astype(str)},
                             "generator amp has dtype <U"),
    "generator_extra_output": ("generator", _grow_last_layer, "generator sizes .* do not map"),
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


def test_archives_with_retired_keys_still_load(saved, small_split, tmp_path):
    """Archives that still hold a substitute's pool schema and column subset,
    or a generator's trained flag, load: extra keys are ignored."""
    X = small_split[1].X
    sub, src = saved["substitute"]
    path = str(tmp_path / "old_sub.npz")
    _rewrite(src, path, pool_schema_json=np.asarray(sub.schema.to_json()),
             subset=np.arange(len(sub.schema)))
    assert _outputs("substitute", load_substitute(path), X).tobytes() == \
        _outputs("substitute", sub, X).tobytes()
    g, src = saved["generator"]
    path = str(tmp_path / "old_gen.npz")
    _rewrite(src, path, trained=np.asarray(1))
    assert _outputs("generator", load_generator(path), X).tobytes() == \
        _outputs("generator", g, X).tobytes()


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
        for name, edit in (("sub_schema_reversed", _reverse_schema),
                           ("sub_empty_curve", lambda a: {"training_curve": np.zeros(0)}),
                           ("sub_zero_width", lambda a: {"net_sizes": np.asarray([28, 0, 8])}),
                           # Sizes of a 7.28 TiB net that the arrays do not match.
                           ("sub_huge_sizes", lambda a: {"net_sizes": np.asarray(
                               [28, 10**6, 10**6, a["net_sizes"][-1]])}),
                           # Finite, so they load, but the network output overflows.
                           ("sub_huge_weights", lambda a: {"net_W0": a["net_W0"] * 1e200,
                                                           "net_W1": a["net_W1"] * 1e200})):
            f[name] = str(d / f"{name}.npz")
            with np.load(f["sub"]) as data:
                changes = edit(dict(data))
            _rewrite(f["sub"], f[name], **changes)
        ds = ingest_csv(f["data"], synth.attacker_pool_schema())
        corpus = make_oracle(load_model(f["target"]), ds.schema).collect(ds.X)
        f["sub_narrow"] = str(d / "sub_narrow.npz")
        save_substitute(train_substitute(corpus.project(ds.schema.subset((0, 1, 2))), epochs=2),
                        f["sub_narrow"])
        # Files that np.load does not open as an npz archive.
        for name, content in (("empty", b""), ("zip_magic", b"PK\x03\x04" + bytes(96)),
                              ("random_bytes", np.random.default_rng(0).bytes(100))):
            f[name] = str(d / f"{name}.npz")
            (d / f"{name}.npz").write_bytes(content)
        # The zip directory is intact; one member's bytes are not: its last
        # payload byte, or its npy header's opening brace, which numpy parses
        # before the member's checksum is checked.
        for name, member, offset in (("target_bad_crc", "format_version.npy", -1),
                                     ("target_bad_header", "schema_json.npy", 10)):
            f[name] = str(d / f"{name}.npz")
            _corrupt_member(f["target"], f[name], member, offset)
        f["bare_npy"] = str(d / "bare_npy.npz")
        with open(f["bare_npy"], "wb") as fh:
            np.save(fh, np.arange(3.0))
        return f

    @pytest.mark.parametrize("argv, message", [
        (lambda f: ["attack", "--data", f["data"], "--target", f["sub"], "--sub", f["sub"]],
         "archive"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["target"],
                    "--sub", f["target"]], "archive"),
        (lambda f: ["defend", "--generator", f["sub"], "--n-devices", "2",
                    "--train-per-device", "10", "--rounds", "1"], "archive"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["target"],
                    "--sub", f["sub_schema_reversed"], "--epochs", "1"],
         "schemas differ"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["target"],
                    "--sub", f["sub_narrow"], "--epochs", "1"], "schemas differ"),
        (lambda f: ["scan-features", "--data", f["data"], "--target", f["target"],
                    "--sub", f["sub_empty_curve"], "--L", "2", "--epochs", "1"],
         "training_curve must be non-empty"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["target"],
                    "--sub", f["sub_zero_width"], "--epochs", "1"],
         "sub_zero_width.npz: layer sizes must be two or more positive integers"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["target"],
                    "--sub", f["sub_huge_sizes"], "--epochs", "1"],
         "sub_huge_sizes.npz: net_W0/net_b0 have shapes (28, 64)/(64,)"),
        (lambda f: ["train-substitute", "--data", f["data"], "--target", f["empty"]],
         "empty.npz is not a model archive"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["target"],
                    "--sub", f["zip_magic"]], "zip_magic.npz is not a substitute archive"),
        (lambda f: ["defend", "--generator", f["bare_npy"]],
         "bare_npy.npz is not a generator archive"),
        (lambda f: ["attack", "--data", f["data"], "--target", f["random_bytes"],
                    "--sub", f["sub"]], "random_bytes.npz is not a model archive"),
        (lambda f: ["train-substitute", "--data", f["data"], "--target", f["target_bad_crc"]],
         "target_bad_crc.npz is a corrupt model archive (format_version.npy fails its checksum)"),
        (lambda f: ["train-substitute", "--data", f["data"], "--target",
                    f["target_bad_header"]],
         "target_bad_header.npz is a corrupt model archive (schema_json.npy fails its checksum)"),
    ], ids=["target_is_substitute", "sub_is_target", "generator_is_substitute",
            "attack_sub_schema_reversed", "attack_sub_on_a_feature_subset",
            "scan_sub_empty_curve", "attack_sub_zero_width_layer",
            "attack_sub_sizes_past_memory", "target_is_empty", "sub_is_a_broken_zip",
            "generator_is_a_bare_npy", "target_is_random_bytes", "target_member_bad_crc",
            "target_member_bad_header"])
    def test_exit_1_with_one_error_line(self, argv, message, files):
        proc = _run_cli([*argv(files), "--out", files["out"]])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert message in lines[0]

    def test_numeric_failure_exits_2_with_one_error_line(self, files):
        proc = _run_cli(["attack", "--data", files["data"], "--target", files["target"],
                         "--sub", files["sub_huge_weights"], "--epochs", "1",
                         "--out", files["out"]])
        assert proc.returncode == 2, proc.stderr
        # One error line, with no numpy overflow warnings before it.
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "non-finite network output" in lines[0]


def _run_cli(argv):
    """``python -m flowcamo.harness.cli`` in a child process, as a user runs it."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "flowcamo.harness.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
