from .base import ClassifierModel, Scaler
from .knn import KnnClassifier
from .mlp import (
    Net,
    bce_dlogits,
    bce_loss_and_dlogits,
    mlp_input_gradient,
    mlp_loss_and_gradients,
    one_hot,
    sigmoid,
    stable_scores,
    train_net,
)
from .mlp_classifier import MlpClassifier
from .svm import LinearSvmClassifier
from .trees import DecisionTreeClassifier, RandomForestClassifier, build_tree, tree_apply
from .kinds import KINDS, fit
from .io import load_model, save_model

__all__ = [
    "KINDS",
    "ClassifierModel",
    "Scaler",
    "fit",
    "KnnClassifier",
    "Net",
    "bce_dlogits",
    "bce_loss_and_dlogits",
    "mlp_input_gradient",
    "mlp_loss_and_gradients",
    "one_hot",
    "sigmoid",
    "stable_scores",
    "train_net",
    "MlpClassifier",
    "LinearSvmClassifier",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "build_tree",
    "tree_apply",
    "load_model",
    "save_model",
]
