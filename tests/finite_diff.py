"""[DERIVED] finite-difference oracles shared by the gradient checks."""
import numpy as np


def bce_loss(z, targets):
    """Per-class binary cross-entropy against sigmoid(z), summed over classes
    and averaged over rows: the loss whose logit gradient ``bce_dlogits``
    returns. softplus(z) - t*z == -t*log(s) - (1-t)*log(1-s)."""
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(np.sum(softplus - targets * z) / z.shape[0])


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def central_diff(f, x, eps=1e-6):
    """Central differences of ``f(x)`` over every entry of the C-contiguous
    float array ``x``, perturbed in place and restored."""
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def relu_kink_margin(net, X):
    """Smallest |pre-activation| over hidden units; finite differences are
    only valid away from the ReLU kinks."""
    h = X
    margin = np.inf
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        pre = h @ W + b
        if i < len(net.weights) - 1:
            margin = min(margin, float(np.abs(pre).min()))
            h = np.maximum(pre, 0.0)
    return margin
