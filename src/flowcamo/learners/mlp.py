"""Fully-connected network with ReLU hidden layers and a sigmoid head.

The same ``Net`` is reused for the substitute classifier, the traffic
generator trunk (linear head) and the profiler's stage-2 scorers. All
math is plain numpy; gradients are analytic and checked against finite
differences in the test suite.
"""
from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core import NumericError, ValidationError

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
    """Stack of linear layers; ReLU between them, head handled by callers."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        seed: int = 0,
        zero_init_last: bool = False,
    ):
        if len(layer_sizes) < 2:
            raise ValidationError("need at least input and output sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        rng = np.random.default_rng(seed)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        if zero_init_last:
            self.weights[-1][:] = 0.0
            self.biases[-1][:] = 0.0

    # --- forward / backward -------------------------------------------------

    def forward_logits(self, X: np.ndarray, want_cache: bool = False):
        """Pre-head outputs. With ``want_cache`` also returns layer inputs."""
        X = np.asarray(X, dtype=float)
        squeeze = X.ndim == 1
        if squeeze:
            X = X[None, :]
        acts = [X]
        h = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
                acts.append(h)
        if not np.isfinite(h).all():
            raise NumericError("non-finite network output")
        z = h[0] if squeeze else h
        if want_cache:
            return z, acts
        return z

    def backward(self, cache: List[np.ndarray], d_logits: np.ndarray):
        """Parameter gradients from d(loss)/d(logits); returns (dWs, dbs)."""
        d = np.atleast_2d(np.asarray(d_logits, dtype=float))
        dWs = [None] * len(self.weights)
        dbs = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            dWs[i] = cache[i].T @ d
            dbs[i] = d.sum(axis=0)
            if i > 0:
                d = d @ self.weights[i].T
                d *= cache[i] > 0
        return dWs, dbs

    def input_grad(self, cache: List[np.ndarray], d_logits: np.ndarray) -> np.ndarray:
        """d(loss)/d(input) from d(loss)/d(logits); no parameter gradients."""
        d = np.atleast_2d(np.asarray(d_logits, dtype=float))
        for i in range(len(self.weights) - 1, -1, -1):
            d = d @ self.weights[i].T
            if i > 0:
                d *= cache[i] > 0
        return d

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class sigmoid scores, each strictly in (0, 1)."""
        return stable_scores(self.forward_logits(X))

    # --- parameter plumbing -------------------------------------------------

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate(
            [W.ravel() for W in self.weights] + [b.ravel() for b in self.biases]
        )

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        expected = sum(W.size for W in self.weights) + sum(b.size for b in self.biases)
        if flat.size != expected:
            raise ValidationError(
                f"flat parameter vector has {flat.size} entries, expected {expected}"
            )
        pos = 0
        for W in self.weights:
            W[:] = flat[pos : pos + W.size].reshape(W.shape)
            pos += W.size
        for b in self.biases:
            b[:] = flat[pos : pos + b.size]
            pos += b.size
        if pos != flat.size:
            raise ValidationError("flat parameter vector has wrong length")

    def sgd_step(self, dWs, dbs, lr: float) -> None:
        for W, dW in zip(self.weights, dWs):
            W -= lr * dW
        for b, db in zip(self.biases, dbs):
            b -= lr * db

    def to_arrays(self, prefix: str) -> dict:
        out = {f"{prefix}sizes": np.asarray(self.layer_sizes, dtype=int)}
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}W{i}"] = W
            out[f"{prefix}b{i}"] = b
        return out

    @classmethod
    def from_arrays(cls, data, prefix: str) -> "Net":
        net = cls(data[f"{prefix}sizes"].tolist(), seed=0)
        for i, (W, b) in enumerate(zip(net.weights, net.biases)):
            Wi, bi = np.array(data[f"{prefix}W{i}"]), np.array(data[f"{prefix}b{i}"])
            if (Wi.shape, bi.shape) != (W.shape, b.shape):
                raise ValidationError(
                    f"{prefix}W{i}/{prefix}b{i} have shapes {Wi.shape}/{bi.shape}, "
                    f"expected {W.shape}/{b.shape} from the sizes"
                )
            if not (np.isfinite(Wi).all() and np.isfinite(bi).all()):
                raise ValidationError(f"{prefix}W{i}/{prefix}b{i} hold non-finite values")
            net.weights[i], net.biases[i] = Wi, bi
        return net


def bce_dlogits(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of ``bce_loss_and_dlogits``'s loss w.r.t. the logits only."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    if z.shape != t.shape:
        raise ValidationError(f"logit/target shape mismatch {z.shape} vs {t.shape}")
    if not np.isfinite(z).all() or not np.isfinite(t).all():
        raise NumericError("non-finite loss inputs")
    return bce_dlogits_unchecked(z, t)


def bce_dlogits_unchecked(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``bce_dlogits`` of 2-D float arrays, without its shape and finiteness
    checks: for training loops whose targets are checked or built once and
    whose ``z`` comes from ``Net.forward_logits``, which rejects non-finite
    logits."""
    dz = sigmoid(z)
    dz -= targets
    dz /= z.shape[0]
    return dz


def bce_loss_and_dlogits(z: np.ndarray, targets: np.ndarray):
    """Per-class binary cross-entropy against sigmoid(z).

    Summed over output classes and averaged over rows, so the gradient
    magnitude is independent of both batch size and class count. Uses the
    log-sum-exp form so the loss and gradient stay finite for any finite
    logits. Gradient is w.r.t. the logits.
    """
    dz = bce_dlogits(z, targets)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    # softplus(z) - t*z  ==  -t*log(s) - (1-t)*log(1-s)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    loss = float(np.sum(softplus - t * z) / z.shape[0])
    return loss, dz


def mlp_loss_and_gradients(net: Net, X: np.ndarray, targets: np.ndarray):
    """Loss plus analytic parameter gradients for one batch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValidationError("empty batch")
    z, cache = net.forward_logits(X, want_cache=True)
    loss, dz = bce_loss_and_dlogits(z, targets)
    return loss, net.backward(cache, dz)


def mlp_input_gradient(
    net: Net,
    x: np.ndarray,
    objective: Callable[[np.ndarray], Tuple[float, np.ndarray]],
) -> np.ndarray:
    """Gradient of a scalar objective of the sigmoid scores w.r.t. the input.

    ``objective(scores) -> (value, d_value/d_scores)``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    z, cache = net.forward_logits(X, want_cache=True)
    s = sigmoid(z)
    _, ds = objective(s[0] if single else s)
    ds = np.atleast_2d(np.asarray(ds, dtype=float))
    dz = ds * s * (1.0 - s)
    dX = net.input_grad(cache, dz)
    if not np.isfinite(dX).all():
        raise NumericError("non-finite input gradient")
    return dX[0] if single else dX


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
            dWs, dbs = net.backward(cache, bce_dlogits_unchecked(z, targets[idx]))
            net.sgd_step(dWs, dbs, cur_lr)
        if eval_fn is not None:
            eval_curve.append(eval_fn(epoch))
        cur_lr *= LR_DECAY
    return eval_curve


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y, dtype=int)
    T = np.zeros((y.size, n_classes))
    T[np.arange(y.size), y] = 1.0
    return T
