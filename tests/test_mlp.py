"""Finite-difference verification of every analytic gradient in the package."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcamo.core import NumericError, ValidationError
from flowcamo.learners import (
    Net,
    bce_dlogits,
    one_hot,
    sigmoid,
    train_net,
)

from finite_diff import bce_loss, central_diff, rel_err, relu_kink_margin


class TestBceOracle:
    def test_dlogits_hand_computed(self):
        # [DERIVED] logits 0 and 2 against targets 1 and 0 over two rows:
        # (sigmoid(z) - t) / 2.
        dz = bce_dlogits(np.array([[0.0], [2.0]]), np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(dz, [[-0.25], [0.5 / (1.0 + np.exp(-2.0))]], rtol=1e-15)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[800.0, -800.0]])
        t = np.array([[0.0, 1.0]])
        np.testing.assert_array_equal(bce_dlogits(z, t), [[1.0, -1.0]])

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        z = rng.normal(0, 2, size=(4, 3))
        t = one_hot(rng.integers(0, 3, size=4), 3)
        dz = bce_dlogits(z, t)
        fd = central_diff(lambda zz: bce_loss(zz, t), z.copy())
        assert rel_err(dz, fd) < 1e-6


class TestParameterGradients:
    """The path training runs: ``forward_logits(..., want_cache=True)``, then
    ``bce_dlogits``, then ``Net.backward`` or ``Net.input_grad``."""

    def test_twenty_random_small_networks(self):
        """Parameter gradients match central differences (<1e-4 relative)."""
        rng = np.random.default_rng(42)
        for trial in range(20):
            sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))]
            sizes = [int(rng.integers(2, 6))] + sizes
            net = Net(sizes, seed=trial)
            n = int(rng.integers(1, 5))
            X = rng.normal(0, 1, size=(n, sizes[0]))
            while relu_kink_margin(net, X) < 1e-4:
                net.params += rng.normal(0, 1e-3, net.params.size)
            T = one_hot(rng.integers(0, sizes[-1], size=n), sizes[-1])
            z, cache = net.forward_logits(X, want_cache=True)
            analytic = net.backward(cache, bce_dlogits(z, T))
            # Perturbs net.params in place, entry by entry.
            fd = central_diff(lambda _: bce_loss(net.forward_logits(X), T), net.params)
            assert rel_err(analytic, fd) < 1e-4, f"trial {trial}"

    def test_input_gradients_twenty_networks(self):
        """Input gradients of the loss match central differences."""
        rng = np.random.default_rng(7)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            out = int(rng.integers(2, 5))
            n = int(rng.integers(1, 5))
            net = Net([k, int(rng.integers(3, 7)), out], seed=100 + trial)
            X = rng.normal(0, 1, size=(n, k))
            while relu_kink_margin(net, X) < 1e-4:
                X = rng.normal(0, 1, size=(n, k))
            T = one_hot(rng.integers(0, out, size=n), out)
            z, cache = net.forward_logits(X, want_cache=True)
            analytic = net.input_grad(cache, bce_dlogits(z, T))
            fd = central_diff(lambda XX: bce_loss(net.forward_logits(XX), T), X.copy())
            assert rel_err(analytic, fd) < 1e-4, f"trial {trial}"


class TestNetPlumbing:
    def test_flat_params_round_trip(self):
        net = Net([3, 5, 2], seed=0)
        other = Net([3, 5, 2], seed=99)
        other.params[:] = net.params
        X = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_array_equal(net.forward_logits(X), other.forward_logits(X))

    @pytest.mark.parametrize("sizes", [[5], [[3, 5], [5, 2]], 3, [3, 0, 2], [3, -1, 2],
                                       [3.0, 2.0], [True, True]],
                             ids=["one_size", "2d", "scalar", "zero_width", "negative",
                                  "float", "bool"])
    def test_malformed_layer_sizes_rejected(self, sizes):
        with pytest.raises(ValidationError, match="two or more positive integers"):
            Net(sizes, seed=0)

    def test_overflowing_forward_raises_numeric_error(self):
        """Only the typed error: no RuntimeWarning comes first (the suite
        turns those into errors)."""
        net = Net([4, 8, 3], seed=0)
        net.params *= 1e200
        with pytest.raises(NumericError, match="non-finite network output"):
            net.forward_logits(np.full((2, 4), 1e200))

    def test_zero_init_last_starts_at_zero_output(self):
        net = Net([4, 8, 3], seed=0, zero_init_last=True)
        X = np.random.default_rng(1).normal(size=(6, 4))
        np.testing.assert_array_equal(net.forward_logits(X), np.zeros((6, 3)))

    @pytest.mark.parametrize("targets, error", [
        (np.zeros((6, 2)), ValidationError),  # one class short
        (np.zeros((5, 3)), ValidationError),  # one row short
        (np.where(np.eye(6, 3) > 0, np.nan, 0.0), NumericError),
    ])
    def test_train_net_checks_targets_once_up_front(self, targets, error):
        net = Net([4, 5, 3], seed=0)
        before = net.params.copy()
        X = np.random.default_rng(0).normal(size=(6, 4))
        with pytest.raises(error):
            train_net(net, X, targets, epochs=2, lr=0.1, batch_size=4, seed=0)
        np.testing.assert_array_equal(net.params, before)

    def test_one_hot(self):
        T = one_hot(np.array([1, 0, 2]), 3)
        np.testing.assert_array_equal(
            T, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )


def masked_sigmoid(z):
    """[DERIVED] the earlier masked-index sigmoid, kept as the reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def where_sigmoid(z):
    """[DERIVED] the np.where sigmoid the sign-bit form replaced, kept as the
    reference."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    out = np.where(pos, 1.0, e)
    e += 1.0
    out /= e
    return out


def full_forward(net, X):
    """[DERIVED] the earlier out-of-place forward: (logits, layer inputs)."""
    h = np.asarray(X, dtype=float)
    acts = [h]
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ W + b
        if i != len(net.weights) - 1:
            h = np.maximum(h, 0.0)
            acts.append(h)
    return h, acts


def full_backward(net, cache, d_logits):
    """[DERIVED] the earlier single backward pass: (dWs, dbs, dX)."""
    d = np.asarray(d_logits, dtype=float)
    dWs = [None] * len(net.weights)
    dbs = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        dWs[i] = cache[i].T @ d
        dbs[i] = d.sum(axis=0)
        d = d @ net.weights[i].T
        if i > 0:
            d = d * (cache[i] > 0)
    return dWs, dbs, d


def flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@st.composite
def net_cases(draw):
    """A net (one linear layer up to four), an (n, in) input batch and a
    logit gradient. Biases are random so the ReLU masks cut through every
    hidden layer.
    """
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=5))
    rows = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    net = Net(sizes, seed=seed)
    for b in net.biases:
        b[:] = rng.normal(0, 0.5, size=b.shape)
    X = rng.normal(0, 1, size=(rows, sizes[0]))
    d = rng.normal(0, 1, size=(rows, sizes[-1]))
    return net, X, d


class TestAgainstEarlierAlgorithms:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(
            lambda f: int(np.float64(f).view(np.uint64))),
        st.integers(0, 2**52 - 1).map(lambda m: 0xFFF0000000000000 | max(m, 1)),
    ), min_size=1, max_size=40))
    def test_sigmoid_bits_match_masked_reference(self, bits):
        """Any float64 bit pattern: +-0, +-inf, NaN payloads of either sign,
        subnormals."""
        z = np.array(bits, dtype=np.uint64).view(np.float64)
        with np.errstate(all="ignore"):
            assert same_bits(sigmoid(z), masked_sigmoid(z))
            assert same_bits(sigmoid(z.reshape(1, -1)), masked_sigmoid(z.reshape(1, -1)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(
            lambda f: int(np.float64(f).view(np.uint64))),
        st.integers(0, 2**52 - 1).map(lambda m: 0xFFF0000000000000 | max(m, 1)),
        st.integers(0, 2**52 - 1).map(lambda m: 0x7FF0000000000000 | max(m, 1)),
        st.sampled_from([0, 2**63, 1, 2**63 + 1]),  # +-0 and the smallest subnormals
    ), min_size=1, max_size=64), st.integers(1, 4), st.booleans())
    def test_sigmoid_bits_match_where_reference(self, bits, reps, strided):
        """Any float64 bit pattern, 1-D and tiled 2-D (long enough for the
        vector loops), contiguous or a strided view."""
        z = np.array(bits, dtype=np.uint64).view(np.float64)
        Z = np.tile(z, (reps, 3))
        if strided:
            Z = Z[:, ::2]
        with np.errstate(all="ignore"):
            assert same_bits(sigmoid(z), where_sigmoid(z))
            assert same_bits(sigmoid(Z), where_sigmoid(Z))

    def test_sigmoid_leaves_its_input_alone(self):
        z = np.array([[-3.0, 0.0, -0.0, 2.5, np.nan]])
        before = z.copy()
        sigmoid(z)
        assert same_bits(z, before)

    def test_sigmoid_special_values(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 30.0, -30.0,
                      5e-324, -5e-324, 1e300, -1e300])
        with np.errstate(all="ignore"):
            assert same_bits(sigmoid(z), masked_sigmoid(z))
            assert same_bits(sigmoid(z), where_sigmoid(z))

    @settings(max_examples=200, deadline=None)
    @given(net_cases())
    def test_split_backprop_matches_full_backward(self, case):
        net, X, d = case
        z, cache = net.forward_logits(X, want_cache=True)
        z_ref, cache_ref = full_forward(net, X)
        assert same_bits(z, z_ref)
        assert len(cache) == len(cache_ref)
        assert all(same_bits(a, b) for a, b in zip(cache, cache_ref))
        dWs_ref, dbs_ref, dX_ref = full_backward(net, cache_ref, d)
        assert same_bits(net.backward(cache, d), flat(dWs_ref + dbs_ref))
        assert same_bits(net.input_grad(cache, d), dX_ref)

    @settings(max_examples=200, deadline=None)
    @given(net_cases(), st.floats(1e-4, 1.0))
    def test_vector_step_matches_per_layer_steps(self, case, lr):
        """[DERIVED] the earlier per-layer step: the list-returning backward,
        then W -= lr*dW and b -= lr*db for each layer. A net loaded through
        from_arrays steps the same, so its views alias its params."""
        net, X, d = case
        _, cache = net.forward_logits(X, want_cache=True)
        dWs, dbs, _ = full_backward(net, cache, d)
        Ws, bs = [W.copy() for W in net.weights], [b.copy() for b in net.biases]
        for W, dW in zip(Ws, dWs):
            W -= lr * dW
        for b, db in zip(bs, dbs):
            b -= lr * db
        loaded = Net.from_arrays({k: np.array(v) for k, v in net.to_arrays("n_").items()}, "n_")
        for stepped in (net, loaded):
            stepped.sgd_step(stepped.backward(cache, d), lr)
            assert same_bits(stepped.params, flat(Ws + bs))
            assert all(same_bits(a, b) for a, b in zip(stepped.weights + stepped.biases, Ws + bs))
        assert same_bits(loaded.forward_logits(X), net.forward_logits(X))

    def test_bias_gradients_are_column_sums_bit_for_bit(self):
        """At batch heights from one row to a full 128-row batch, each bias
        gradient of a generator-shaped net has the bytes of ``np.sum(d,
        axis=0)`` over its layer's upstream gradient. A product with a ones
        vector sums in another order and differs in the last bits."""
        net = Net([56, 64, 64, 28], seed=0)
        rng = np.random.default_rng(1)
        for b in net.biases:
            b[:] = rng.normal(0, 0.5, size=b.shape)
        for rows in (1, 2, 3, 44, 112, 128):
            for _trial in range(5):
                X = rng.normal(0, 1, size=(rows, 56))
                d = rng.normal(0, 1, size=(rows, 28))
                _, cache = net.forward_logits(X, want_cache=True)
                _, dbs, _ = full_backward(net, cache, d)
                got = net._views(net.backward(cache, d))[1]
                assert all(same_bits(a, b) for a, b in zip(got, dbs)), rows

    def test_single_layer_net(self):
        """[in, out]: no hidden layer, so no ReLU mask anywhere."""
        net = Net([3, 2], seed=4)
        X = np.random.default_rng(5).normal(size=(4, 3))
        d = np.random.default_rng(6).normal(size=(4, 2))
        _, cache = net.forward_logits(X, want_cache=True)
        dWs, dbs, dX = full_backward(net, cache, d)
        assert same_bits(net.backward(cache, d), flat(dWs + dbs))
        assert same_bits(net.input_grad(cache, d), dX)
        assert same_bits(net.input_grad(cache, d), d @ net.weights[0].T)
