"""Model serialization: a single ``.npz`` per model, format version 1.

Layout (all files): ``format_version``, ``kind``, ``schema_json``,
``class_labels`` plus kind-specific arrays. Arrays round-trip
bit-exactly through ``np.savez``; the schema rides along as JSON.
"""
from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import List

import numpy as np

from ..core import Feature, FeatureSchema, ValidationError
from .base import ClassifierModel, Scaler
from .knn import KnnClassifier
from .mlp import Net
from .mlp_classifier import MlpClassifier
from .svm import LinearSvmClassifier
from .trees import DecisionTreeClassifier, RandomForestClassifier, _TreeArrays

FORMAT_VERSION = 1


def schema_to_json(schema: FeatureSchema) -> str:
    return json.dumps(
        [
            {"name": f.name, "unit": f.unit, "lo": f.lo, "hi": f.hi, "mutable": f.mutable}
            for f in schema.features
        ]
    )


def schema_from_json(text: str) -> FeatureSchema:
    return FeatureSchema(
        tuple(
            Feature(d["name"], d["unit"], float(d["lo"]), float(d["hi"]), bool(d["mutable"]))
            for d in json.loads(text)
        )
    )


def net_to_arrays(net: Net, prefix: str) -> dict:
    out = {f"{prefix}sizes": np.asarray(net.layer_sizes, dtype=int)}
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        out[f"{prefix}W{i}"] = W
        out[f"{prefix}b{i}"] = b
    return out


def net_from_arrays(data, prefix: str) -> Net:
    sizes = data[f"{prefix}sizes"].tolist()
    net = Net(sizes, seed=0)
    for i in range(len(sizes) - 1):
        net.weights[i] = np.array(data[f"{prefix}W{i}"])
        net.biases[i] = np.array(data[f"{prefix}b{i}"])
    return net


def _tree_to_arrays(tree: _TreeArrays, prefix: str) -> dict:
    return {
        f"{prefix}feature": tree.feature,
        f"{prefix}threshold": tree.threshold,
        f"{prefix}left": tree.left,
        f"{prefix}right": tree.right,
        f"{prefix}dist": tree.dist,
    }


def _tree_from_arrays(data, prefix: str) -> _TreeArrays:
    tree = _TreeArrays()
    tree.feature = np.array(data[f"{prefix}feature"])
    tree.threshold = np.array(data[f"{prefix}threshold"])
    tree.left = np.array(data[f"{prefix}left"])
    tree.right = np.array(data[f"{prefix}right"])
    tree.dist = np.array(data[f"{prefix}dist"])
    return tree


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Write-temp-then-rename so partial files never appear.

    Yields a file object on a temp file beside ``path``; on a clean exit
    the temp file replaces ``path``, on any error it is removed.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_savez(path: str, **arrays) -> None:
    with atomic_open(path) as fh:
        np.savez(fh, **arrays)


def save_model(model: ClassifierModel, path: str) -> None:
    arrays = {
        "format_version": np.asarray(FORMAT_VERSION),
        "kind": np.asarray(model.kind),
        "schema_json": np.asarray(schema_to_json(model.schema)),
        "class_labels": np.asarray(model.class_labels),
    }
    if isinstance(model, KnnClassifier):
        arrays.update(
            scaler_mean=model.scaler.mean,
            scaler_scale=model.scaler.scale,
            train_X=model.train_X,
            train_y=model.train_y,
            k=np.asarray(model.k),
        )
    elif isinstance(model, DecisionTreeClassifier):
        arrays.update(_tree_to_arrays(model.tree, "t_"))
    elif isinstance(model, RandomForestClassifier):
        arrays["n_trees"] = np.asarray(len(model.trees))
        for i, tree in enumerate(model.trees):
            arrays.update(_tree_to_arrays(tree, f"t{i}_"))
    elif isinstance(model, LinearSvmClassifier):
        arrays.update(
            scaler_mean=model.scaler.mean,
            scaler_scale=model.scaler.scale,
            W=model.W,
            b=model.b,
        )
    elif isinstance(model, MlpClassifier):
        arrays.update(
            scaler_mean=model.scaler.mean,
            scaler_scale=model.scaler.scale,
            **net_to_arrays(model.net, "net_"),
        )
    else:
        raise ValidationError(f"cannot serialize model of type {type(model).__name__}")
    atomic_savez(path, **arrays)


def load_model(path: str) -> ClassifierModel:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValidationError(f"unsupported model format version {version}")
        kind = str(data["kind"])
        schema = schema_from_json(str(data["schema_json"]))
        labels = tuple(str(s) for s in data["class_labels"])
        if kind == "knn":
            scaler = Scaler(np.array(data["scaler_mean"]), np.array(data["scaler_scale"]))
            return KnnClassifier(
                schema, labels, scaler,
                np.array(data["train_X"]), np.array(data["train_y"]), int(data["k"]),
            )
        if kind == "decision_tree":
            return DecisionTreeClassifier(schema, labels, _tree_from_arrays(data, "t_"))
        if kind == "random_forest":
            trees: List[_TreeArrays] = [
                _tree_from_arrays(data, f"t{i}_") for i in range(int(data["n_trees"]))
            ]
            return RandomForestClassifier(schema, labels, trees)
        if kind == "svm":
            scaler = Scaler(np.array(data["scaler_mean"]), np.array(data["scaler_scale"]))
            return LinearSvmClassifier(schema, labels, scaler, np.array(data["W"]), np.array(data["b"]))
        if kind == "neural_net":
            scaler = Scaler(np.array(data["scaler_mean"]), np.array(data["scaler_scale"]))
            return MlpClassifier(schema, labels, scaler, net_from_arrays(data, "net_"))
        raise ValidationError(f"unknown model kind {kind!r} in {path}")
