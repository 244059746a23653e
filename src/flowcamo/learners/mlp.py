"""Fully-connected network with ReLU hidden layers and a sigmoid head.

The same ``Net`` is reused for the substitute classifier, the traffic
generator trunk (linear head) and the profiler's stage-2 scorers. All
math is plain numpy; gradients are analytic and checked against finite
differences in the test suite.
"""
from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core import NumericError, ValidationError
from .base import check_real

# Keeps sigmoid outputs strictly inside (0, 1) in float64.
_LOGIT_CLIP = 30.0
# ``train_net`` multiplies its step size by this after every epoch.
LR_DECAY = 0.97


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, so exp never overflows."""
    z = np.asarray(z, dtype=float)
    pos = z >= 0
    # -z where z >= 0, else z, as a sign-bit flip of the uint64 view: a NaN
    # is never flipped, so it keeps its bits (-|z| would not). Faster than
    # np.where on large arrays.
    bits = pos.astype(np.uint64)
    bits <<= 63
    bits ^= z.view(np.uint64)
    e = np.exp(bits.view(np.float64), out=bits.view(np.float64))
    out = pos.astype(float)
    np.maximum(e, out, out=out)  # 1.0 where z >= 0 (e <= 1 there), else e
    e += 1.0
    out /= e
    return out


def stable_scores(z: np.ndarray) -> np.ndarray:
    """Sigmoid with logits clipped so every score lies in the open (0,1)."""
    return sigmoid(np.clip(z, -_LOGIT_CLIP, _LOGIT_CLIP))


class Net:
    """Stack of linear layers; ReLU between them, head handled by callers.

    ``params`` holds every weight matrix, then every bias, in one float64
    vector; ``weights`` and ``biases`` are per-layer views of it."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        seed: int = 0,
        zero_init_last: bool = False,
    ):
        self._set_layout(layer_sizes)
        self.params = np.zeros(self._layout[-1][0].stop)
        self.weights, self.biases = self._views(self.params)
        rng = np.random.default_rng(seed)
        for W in self.weights[:-1] if zero_init_last else self.weights:
            bound = 1.0 / np.sqrt(W.shape[0])
            W[:] = rng.uniform(-bound, bound, size=W.shape)

    def _set_layout(self, layer_sizes) -> None:
        """Check ``layer_sizes`` and set them, with ``_layout``: each weight's,
        then each bias's (slice, shape) in ``params``, which ``backward`` reuses."""
        sizes = np.asarray(layer_sizes)
        if (sizes.ndim != 1 or sizes.size < 2 or sizes.dtype.kind not in "iu"
                or (sizes < 1).any()):
            raise ValidationError(
                f"layer sizes must be two or more positive integers, got {sizes.tolist()!r}"
            )
        sizes = self.layer_sizes = tuple(int(s) for s in sizes)
        shapes = [*zip(sizes, sizes[1:]), *((s,) for s in sizes[1:])]
        stops = list(accumulate(math.prod(shape) for shape in shapes))
        self._layout = [(slice(a, b), shape) for a, b, shape in zip([0, *stops], stops, shapes)]

    def _views(self, vec: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-layer (weights, biases) views of a vector in the ``params`` layout."""
        views = [vec[s].reshape(shape) for s, shape in self._layout]
        return views[: len(views) // 2], views[len(views) // 2 :]

    # --- forward / backward -------------------------------------------------

    def forward_logits(self, X: np.ndarray, want_cache: bool = False):
        """Pre-head outputs of an ``(n, in)`` batch. With ``want_cache`` also
        returns layer inputs."""
        X = np.asarray(X, dtype=float)
        acts = [X]
        h = X
        last = len(self.weights) - 1
        # An overflow surfaces once, as the NumericError below, not first as
        # numpy's RuntimeWarnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (W, b) in enumerate(zip(self.weights, self.biases)):
                h = h @ W
                h += b
                if i != last:
                    np.maximum(h, 0.0, out=h)
                    acts.append(h)
        if not np.isfinite(h).all():
            raise NumericError("non-finite network output")
        if want_cache:
            return h, acts
        return h

    def backward(self, cache: List[np.ndarray], d_logits: np.ndarray) -> np.ndarray:
        """Parameter gradient from d(loss)/d(logits): one vector in the
        ``params`` layout."""
        d = d_logits
        grad = np.empty(self.params.size)
        dWs, dbs = self._views(grad)
        for i in range(len(dWs) - 1, -1, -1):
            np.matmul(cache[i].T, d, out=dWs[i])
            np.add.reduce(d, axis=0, out=dbs[i])
            if i > 0:
                d = d @ self.weights[i].T
                d *= cache[i] > 0
        return grad

    def input_grad(self, cache: List[np.ndarray], d_logits: np.ndarray) -> np.ndarray:
        """d(loss)/d(input) from d(loss)/d(logits); no parameter gradients."""
        d = d_logits
        for i in range(len(self.weights) - 1, -1, -1):
            d = d @ self.weights[i].T
            if i > 0:
                d *= cache[i] > 0
        return d

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class sigmoid scores, each strictly in (0, 1)."""
        return stable_scores(self.forward_logits(X))

    # --- parameter plumbing -------------------------------------------------

    def sgd_step(self, grad: np.ndarray, lr: float) -> None:
        """One descent step on every parameter, ``grad`` in the ``params`` layout."""
        self.params -= lr * grad

    def to_arrays(self, prefix: str) -> dict:
        out = {f"{prefix}sizes": np.asarray(self.layer_sizes, dtype=int)}
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}W{i}"] = W
            out[f"{prefix}b{i}"] = b
        return out

    @classmethod
    def from_arrays(cls, data, prefix: str) -> "Net":
        net = cls.__new__(cls)  # no random init: the archive sets every parameter
        net._set_layout(data[f"{prefix}sizes"])
        n = len(net.layer_sizes) - 1
        arrays = [np.asarray(data[f"{prefix}{p}{i}"]) for p in "Wb" for i in range(n)]
        # Checked before ``params`` is allocated: sizes the arrays miss ask for no memory.
        for i in range(n):
            Wi, bi = arrays[i], arrays[n + i]
            W_shape, b_shape = net._layout[i][1], net._layout[n + i][1]
            if (Wi.shape, bi.shape) != (W_shape, b_shape):
                raise ValidationError(
                    f"{prefix}W{i}/{prefix}b{i} have shapes {Wi.shape}/{bi.shape}, "
                    f"expected {W_shape}/{b_shape} from the sizes"
                )
            check_real(f"{prefix}W{i}/{prefix}b{i}", Wi, bi)
            if not (np.isfinite(Wi).all() and np.isfinite(bi).all()):
                raise ValidationError(f"{prefix}W{i}/{prefix}b{i} hold non-finite values")
        net.params = np.concatenate([a.ravel() for a in arrays], dtype=float)
        net.weights, net.biases = net._views(net.params)
        return net


def bce_dlogits(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Logit gradient of the per-class binary cross-entropy against sigmoid(z),
    summed over classes and averaged over rows. Unchecked: ``targets`` (built
    once by the caller) and ``z`` (from ``Net.forward_logits``, which rejects
    non-finite logits) are 2-D float arrays of one shape."""
    dz = sigmoid(z)
    dz -= targets
    dz /= z.shape[0]
    return dz


def train_net(
    net: Net,
    X: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
    eval_fn: Optional[Callable[[int], float]] = None,
) -> List[float]:
    """Minibatch SGD on the BCE loss, with the step size decayed by
    ``LR_DECAY`` after each epoch; deterministic for a fixed seed. Returns
    ``eval_fn``'s value after each epoch (empty without one)."""
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    # Targets are checked once here, not per batch.
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (n, net.layer_sizes[-1]):
        raise ValidationError(
            f"targets have shape {targets.shape}, expected {(n, net.layer_sizes[-1])}"
        )
    if not np.isfinite(targets).all():
        raise NumericError("non-finite loss inputs")
    eval_curve = []
    cur_lr = lr
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            z, cache = net.forward_logits(X[idx], want_cache=True)
            net.sgd_step(net.backward(cache, bce_dlogits(z, targets[idx])), cur_lr)
        if eval_fn is not None:
            eval_curve.append(eval_fn(epoch))
        cur_lr *= LR_DECAY
    return eval_curve


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y, dtype=int)
    T = np.zeros((y.size, n_classes))
    T[np.arange(y.size), y] = 1.0
    return T
