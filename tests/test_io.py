"""The saved-model archives: key sets, bit-exact round trips, the kind
table, and typed errors for a wrong or newer archive."""
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
from flowcamo.learners import KINDS, fit, load_model, save_model
from flowcamo.learners.kinds import MODELS
from flowcamo.substitute import load_substitute, save_substitute, train_substitute

HYPERPARAMS = {
    "knn": {},
    "decision_tree": {"max_depth": 4},
    "random_forest": {"n_trees": 2, "max_depth": 4},
    "svm": {"epochs": 20},
    "neural_net": {"hidden": (8,), "epochs": 2},
}

_MODEL_HEADER = ["format_version:i", "kind:U", "schema_json:U", "class_labels:U"]
_SCALER = ["scaler_mean:f", "scaler_scale:f"]
_NET = ["net_sizes:i", "net_W0:f", "net_b0:f", "net_W1:f", "net_b1:f"]  # one hidden layer


def _tree(prefix):
    return [f"{prefix}feature:i", f"{prefix}threshold:f", f"{prefix}left:i",
            f"{prefix}right:i", f"{prefix}dist:f"]


# ``key:dtype kind`` of every array, in the order the writer puts them.
ARCHIVE_KEYS = {
    "knn": _MODEL_HEADER + _SCALER + ["train_X:f", "train_y:i", "k:i"],
    "decision_tree": _MODEL_HEADER + _tree("t_"),
    "random_forest": _MODEL_HEADER + ["n_trees:i"] + _tree("t0_") + _tree("t1_"),
    "svm": _MODEL_HEADER + _SCALER + ["W:f", "b:f"],
    "neural_net": _MODEL_HEADER + _SCALER + _NET,
    "substitute": ["format_version:i", "pool_schema_json:U", "subset:i"] + _SCALER
    + ["class_labels:U", "training_curve:f", "holdout_idx:i", "seed:i"] + _NET,
    "generator": ["format_version:i", "schema_json:U", "mu:f", "sd:f", "amp:f",
                  "trained:i", "training_curve:f"] + _NET,
}
LOADERS = {"substitute": load_substitute, "generator": load_generator}
SAVERS = {"substitute": save_substitute, "generator": save_generator}
SRC = os.path.dirname(os.path.dirname(os.path.abspath(flowcamo.__file__)))


@pytest.fixture(scope="module")
def saved(small_split, tmp_path_factory):
    """``{name: (object, path)}`` for the seven archive types."""
    train, _ = small_split
    d = tmp_path_factory.mktemp("archives")
    objs = {k: fit(k, train, HYPERPARAMS[k], seed=1) for k in KINDS}
    corpus = make_oracle(objs["decision_tree"], train.schema).collect(train.X)
    objs["substitute"] = train_substitute(corpus, epochs=3, seed=2, hidden=(8,))
    g = build_generator(train.schema, train.X, hidden=(8,), seed=4)
    objs["generator"] = train_generator(g, objs["substitute"], train, misidentify(),
                                        epochs=2, seed=4, plateau_min_epochs=2)
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
        return obj.predict_scores_pool(X)
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

    def test_other_loaders_reject_it(self, name, saved):
        path = saved[name][1]
        own = "model" if name in KINDS else name
        for other, loader in (("model", load_model), *LOADERS.items()):
            if other != own:
                with pytest.raises(ValidationError, match=f"not a {other} archive"):
                    loader(path)


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
        return f

    @pytest.mark.parametrize("argv", [
        lambda f: ["attack", "--data", f["data"], "--target", f["sub"], "--sub", f["sub"]],
        lambda f: ["attack", "--data", f["data"], "--target", f["target"], "--sub", f["target"]],
        lambda f: ["defend", "--generator", f["sub"], "--n-devices", "2",
                   "--train-per-device", "10", "--rounds", "1"],
    ], ids=["target_is_substitute", "sub_is_target", "generator_is_substitute"])
    def test_exit_1_with_one_error_line(self, argv, files):
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
        assert "archive" in lines[0]
