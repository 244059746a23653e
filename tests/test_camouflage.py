import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcamo import camouflage
from flowcamo.blackbox import make_oracle
from flowcamo.camouflage import (
    BATCH_SIZE,
    DELTA_SCALE,
    PLATEAU_MIN_EPOCHS,
    PLATEAU_WINDOW,
    RECIPES,
    AttackMode,
    AttackReport,
    Generator,
    build_generator,
    evaluate_attack,
    load_generator,
    misidentify,
    plateau_rows,
    sample_multipliers,
    save_generator,
    spoof,
    train_generator,
)
from flowcamo.core import (
    Dataset,
    DeviceClass,
    Feature,
    FeatureSchema,
    UnreachableTargetError,
    ValidationError,
)
from flowcamo.harness import experiment, synth
from flowcamo.harness.experiment import ExperimentConfig
from flowcamo.learners import bce_dlogits, fit, one_hot
from flowcamo.substitute import SubstituteModel, train_substitute


# ---- reference: the training loop before the shared network input -----------


def _reference_manipulate(g, H, S, want_grad_cache=False):
    Z = np.hstack([(H - g.scaler.mean) / g.scaler.scale, S / g.scaler.scale])
    U, cache = g.net.forward_logits(Z, want_cache=True)
    T = np.tanh(U)
    raw = H + g.amp * T
    lo, hi = g.schema.lows, g.schema.highs
    Hp = np.clip(raw, lo, hi)
    imm = ~g.schema.mutable_mask
    Hp[:, imm] = H[:, imm]
    if want_grad_cache:
        return Hp, (cache, T, raw <= lo, raw >= hi)
    return Hp


def reference_backward_to_params(g, grad_cache, dHp):
    cache, T, at_lo, at_hi = grad_cache
    blocked = (at_lo & (dHp >= 0)) | (at_hi & (dHp <= 0))
    dU = g.amp * (1.0 - T ** 2) * np.where(blocked, 0.0, dHp)
    return g.net.backward(cache, dU)


def _reference_success(g, sub, X, mode, orig_labels, rng):
    S = sample_multipliers(g.schema, X.shape[0], rng) * X
    pred = sub.predict_ids(_reference_manipulate(g, X, S))
    if mode.mode == "misidentify":
        return float(np.mean(pred != orig_labels))
    return float(np.mean(pred == mode.target.id))


def reference_train_generator(g, sub, train, mode, epochs, seed=0, lr=0.01, anchor_X=None):
    """Misidentify: constant LR, BCE weight 1, no gate, no anchor, plateau
    delta 1e-4 of the rows, at least 1 row. Spoof: LR decay 0.93, BCE weight
    0.1, gated BCE, anchor weight 1.0, plateau delta 2e-3 of the rows, at
    least 6 rows. Both: a stop after any epoch whose every row counted as a
    success, and plateau minimum 20 epochs. The curve is one fresh-noise
    probe, then per epoch the share of rows whose batch logits, before the
    batch's step, count as a success; the plateau reads those row counts."""
    if mode.mode == "misidentify":
        lr_decay, bce_weight, gate_success, anchor_weight = 1.0, 1.0, False, 0.0
        plateau_delta, plateau_min_rows = 1e-4, 1
    else:
        lr_decay, bce_weight, gate_success, anchor_weight = 0.93, 0.1, True, 1.0
        plateau_delta, plateau_min_rows = 2e-3, 6
    plateau_min_epochs = 20
    X = train.X
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    eval_rng = np.random.default_rng(seed + 1)
    orig_labels = sub.predict_ids(X)
    anchor = None
    if mode.mode == "misidentify":
        targets = one_hot(orig_labels, sub.n_classes)
    else:
        targets = one_hot(np.full(min(n, BATCH_SIZE), mode.target.id), sub.n_classes)
        if anchor_X is not None and anchor_weight > 0.0:
            rows = anchor_X[sub.predict_ids(anchor_X) == mode.target.id]
            if rows.shape[0] == 0:
                raise UnreachableTargetError("no anchor row is assigned to the target")
            anchor = rows.mean(axis=0)
            anchor_scale2 = g.scaler.scale**2
            mut = g.schema.mutable_mask
    g.training_curve = [_reference_success(g, sub, X, mode, orig_labels, eval_rng)]
    counts = []
    for _epoch in range(epochs):
        S = sample_multipliers(g.schema, n, rng) * X
        order = rng.permutation(n)
        successes = []
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            Hp, grad_cache = _reference_manipulate(g, X[idx], S[idx], want_grad_cache=True)
            z, sub_cache = sub.net.forward_logits(sub.scaler.transform(Hp), want_cache=True)
            if mode.mode == "misidentify":
                successes.append(np.argmax(z, axis=1) != orig_labels[idx])
                dz = -bce_dlogits(z, targets[idx])
            else:
                successes.append(np.argmax(z, axis=1) == mode.target.id)
                dz = bce_dlogits(z, targets[: idx.size])
                if gate_success:
                    dz[np.argmax(z, axis=1) == mode.target.id] = 0.0
            dHp = bce_weight * sub.net.input_grad(sub_cache, dz) / sub.scaler.scale
            if anchor is not None:
                dHp += anchor_weight * 2.0 * (Hp - anchor) * mut / anchor_scale2 / idx.size
            g.net.sgd_step(reference_backward_to_params(g, grad_cache, dHp), lr)
        lr *= lr_decay
        g.training_curve.append(float(np.mean(np.concatenate(successes))))
        if g.training_curve[-1] == 1.0:
            break
        counts.append(int(np.count_nonzero(np.concatenate(successes))))
        recent = counts[-PLATEAU_WINDOW:]
        if (len(counts) >= plateau_min_epochs
                and max(recent) - min(recent) < max(plateau_delta * n, plateau_min_rows)):
            break
    return g


def _flat_bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.fixture(scope="module")
def gen(pool_schema, small_dataset):
    return build_generator(pool_schema, small_dataset.X, seed=1)


@pytest.fixture(scope="module")
def trained_sub(small_split, target_schema, pool_schema):
    train_pool, _ = small_split
    model = fit("decision_tree", train_pool.project(target_schema), seed=0)
    oracle = make_oracle(model, pool_schema)
    sub = train_substitute(oracle.collect(train_pool.X), epochs=8, seed=3)
    return sub, model, oracle


class TestMultipliers:
    def test_bounds_and_mask(self, pool_schema):
        """r is in [0, 0.1) and exactly zero on immutable coordinates, so
        for h_i = 100 the perturbation s_i = r_i * h_i stays in [0, 10]."""
        rng = np.random.default_rng(0)
        R = sample_multipliers(pool_schema, 10_000, rng)
        assert R.min() >= 0.0 and R.max() < 0.1
        assert np.all(R[:, ~pool_schema.mutable_mask] == 0.0)
        S = R * 100.0
        assert S.max() <= 10.0 and S.min() >= 0.0


@st.composite
def generator_cases(draw):
    """A 1-8 feature schema (some with ``lo == hi``, at least one mutable),
    rows that include values exactly on the bounds, and weight settings."""
    k = draw(st.integers(1, 8))
    features = []
    for i in range(k):
        lo = draw(st.floats(-1e3, 1e3))
        width = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
        features.append(Feature(f"f{i}", "u", lo, lo + width, draw(st.booleans())))
    keep = draw(st.integers(0, k - 1))
    features[keep] = Feature(features[keep].name, "u", features[keep].lo,
                             features[keep].hi, True)
    schema = FeatureSchema(tuple(features))
    n = draw(st.integers(1, 6))
    X = np.array([[draw(st.one_of(st.sampled_from([f.lo, f.hi]), st.floats(f.lo, f.hi)))
                   for f in features] for _ in range(n)])
    return schema, X, draw(st.integers(0, 2**16)), draw(st.sampled_from([0.5, 3.0, 1e3]))


class TestFunctionalityPreservation:
    @settings(max_examples=150, deadline=None)
    @given(generator_cases())
    def test_contract_on_arbitrary_schemas(self, case):
        """Immutable columns stay bit-equal and every value stays in range."""
        schema, X, seed, scale = case
        g = build_generator(schema, X, seed=seed)
        rng = np.random.default_rng(seed)
        for W in g.net.weights:  # leave the identity map, so rows really move
            W[:] = scale * rng.normal(size=W.shape)
        S = sample_multipliers(schema, X.shape[0], rng) * X
        Hp = g.manipulate_batch(X, S)
        imm = ~schema.mutable_mask
        assert Hp[:, imm].view(np.uint64).tolist() == X[:, imm].view(np.uint64).tolist()
        assert np.all(Hp >= schema.lows) and np.all(Hp <= schema.highs)

    def test_immutables_bit_equal_and_in_range(self, pool_schema, small_dataset):
        """Even with wrecked weights the output respects the contract."""
        g = build_generator(pool_schema, small_dataset.X, seed=2)
        # Stress: huge weights force the tanh to rail at +-1 everywhere.
        for W in g.net.weights:
            W[:] = 1e3
        rng = np.random.default_rng(3)
        X = small_dataset.X[rng.integers(0, len(small_dataset), size=5000)]
        S = sample_multipliers(pool_schema, X.shape[0], rng) * X
        Hp = g.manipulate_batch(X, S)
        imm = ~pool_schema.mutable_mask
        assert np.array_equal(Hp[:, imm], X[:, imm])  # bit-exact
        assert np.all(Hp >= pool_schema.lows) and np.all(Hp <= pool_schema.highs)

    def test_all_immutable_schema_rejected(self):
        """A schema may hold no mutable feature (a scan's top-L can), but a
        generator over it would have nothing to rewrite."""
        schema = FeatureSchema((Feature("a", "u", 0.0, 1.0, False),
                                Feature("b", "u", 0.0, 1.0, False)))
        with pytest.raises(ValidationError, match="generator needs at least one mutable"):
            build_generator(schema, np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(28,), (2, 64, 28), (64, 27)])
    def test_rows_that_are_not_a_batch_rejected(self, gen, small_dataset, shape):
        """A bare row or a stack of batches would broadcast against the
        per-feature arrays instead of failing."""
        X = np.resize(small_dataset.X, shape)
        with pytest.raises(ValidationError, match="must both be \\(n, 28\\) row batches"):
            gen.manipulate_batch(X, np.zeros_like(X))

    def test_untrained_generator_is_identity(self, gen, small_dataset, pool_schema):
        """Zero-initialised head: before training, manipulation is a no-op."""
        X = small_dataset.X[:64]
        S = np.zeros_like(X)
        np.testing.assert_array_equal(gen.manipulate_batch(X, S), X)


class TestGeneratorGradients:
    def test_backward_matches_finite_difference(self, pool_schema, small_dataset):
        """[DERIVED] parameter gradients of sum(W * Hp) vs central diff.
        Clipped coordinates are masked out of the objective so the check
        exercises the smooth part of the map (clip handling is covered by
        the pass-through test below)."""
        g = build_generator(pool_schema, small_dataset.X, seed=4)
        g.amp *= 0.5 / DELTA_SCALE  # a small amplitude keeps most coordinates unclipped
        rng = np.random.default_rng(5)
        # Small random head so the residual is non-trivial but unclipped.
        g.net.weights[-1][:] = rng.normal(0, 0.05, size=g.net.weights[-1].shape)
        X = small_dataset.X[:16]
        S = sample_multipliers(pool_schema, 16, rng) * X
        Hp, cache = g.manipulate_batch(X, S, want_grad_cache=True)
        _, _, at_lo, at_hi = cache
        mut = pool_schema.mutable_mask
        unclipped = ~(at_lo | at_hi)
        Wmat = rng.normal(0, 1, size=Hp.shape) * mut * unclipped
        assert Wmat[:, mut].any(), "need some unclipped mutable coordinates"
        analytic = g.backward_to_params(cache, Wmat)

        p0 = g.net.params.copy()

        def value(flat):
            g.net.params[:] = flat
            return float(np.sum(Wmat * g.manipulate_batch(X, S)))

        eps = 1e-6
        fd = np.zeros_like(p0)
        for i in range(p0.size):
            p = p0.copy()
            p[i] = p0[i] + eps
            vp = value(p)
            p[i] = p0[i] - eps
            vm = value(p)
            fd[i] = (vp - vm) / (2 * eps)
        g.net.params[:] = p0
        denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
        assert np.abs(analytic - fd).max() / denom < 1e-4

    def test_inward_gradient_passes_through_clip(self, pool_schema, small_dataset):
        """A coordinate pinned at its bound still gets gradient when the
        pull points back in range, and none when it pushes further out."""
        g = build_generator(pool_schema, small_dataset.X, seed=6)
        for W in g.net.weights:
            W[:] = 1e3  # rail everything at the high bound
        X = small_dataset.X[:4]
        S = np.zeros_like(X)
        Hp, cache = g.manipulate_batch(X, S, want_grad_cache=True)
        _, _, _, at_hi = cache
        j = int(np.argmax(at_hi[0]))
        assert at_hi[0, j]
        outward = np.zeros_like(Hp)
        outward[:, j] = -1.0  # descent direction pushes higher: blocked
        assert np.all(g.backward_to_params(cache, outward) == 0.0)
        inward = np.zeros_like(Hp)
        inward[:, j] = 1.0  # descent direction pulls back inside: passes
        # tanh is saturated so upstream gradient vanished anyway; unrail it.
        g2 = build_generator(pool_schema, small_dataset.X, seed=6)
        Hp2, cache2 = g2.manipulate_batch(X, S, want_grad_cache=True)
        assert np.any(g2.backward_to_params(cache2, inward) != 0.0)


class TestTraining:
    def test_unfrozen_substitute_rejected(self, gen, small_split):
        """A neural_net target has the substitute's network and schema but
        is not a SubstituteModel."""
        train_pool, _ = small_split
        target = fit("neural_net", train_pool, seed=0)
        with pytest.raises(ValidationError,
                           match="train_generator needs a SubstituteModel, got MlpClassifier"):
            train_generator(gen, target, train_pool, misidentify(), epochs=1)
        assert gen.training_curve == []

    def test_substitute_on_a_feature_subset_rejected(self, pool_schema, trained_sub,
                                                     small_split):
        _, _, oracle = trained_sub
        train_pool, _ = small_split
        narrow = oracle.collect(train_pool.X).project(pool_schema.subset((7, 2, 11, 0, 5)))
        sub = train_substitute(narrow, epochs=3, seed=4)
        g = build_generator(pool_schema, train_pool.X, seed=4)
        with pytest.raises(ValidationError, match="schemas differ"):
            train_generator(g, sub, train_pool, misidentify(), epochs=1)
        assert g.training_curve == []

    def test_substitute_with_a_reordered_schema_rejected(self, pool_schema, trained_sub,
                                                         small_split):
        """Same names, same width, other column order: the substitute would
        read every row's columns shuffled."""
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        reordered = SubstituteModel(FeatureSchema(pool_schema.features[::-1]), sub.class_labels,
                                    sub.scaler, sub.net, sub.training_curve, sub.holdout_idx)
        g = build_generator(pool_schema, train_pool.X, seed=4)
        with pytest.raises(ValidationError, match="schemas differ"):
            train_generator(g, reordered, train_pool, misidentify(), epochs=1)
        assert g.training_curve == []

    def test_zero_lr_is_null_update(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=7)
        before = g.net.params.copy()
        train_generator(g, sub, train_pool, misidentify(), epochs=2, lr=0.0)
        np.testing.assert_array_equal(before, g.net.params)
        assert len(g.training_curve) > 1

    def test_spoof_target_out_of_range_rejected(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=8)
        bad = spoof(DeviceClass(99, "nope"))
        with pytest.raises(ValidationError):
            train_generator(g, sub, train_pool, bad, epochs=1)

    def test_empty_training_set_rejected(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=9)
        before = g.net.params.copy()
        with pytest.raises(ValidationError, match="empty"):
            train_generator(g, sub, train_pool.take(np.arange(0)), misidentify(), epochs=3)
        assert g.training_curve == []
        np.testing.assert_array_equal(before, g.net.params)

    @pytest.mark.parametrize("spoofing", [False, True])
    def test_curve_is_the_success_under_each_epochs_training_noise(
            self, pool_schema, trained_sub, small_split, spoofing):
        """At lr 0 the weights never move, so epoch e's entry is the
        substitute's success on every training row under the noise that
        epoch drew: the hits of all batches over the row count."""
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        # 300 rows: batches of 128, 128 and 44.
        train = train_pool.take(np.arange(300))
        X, n = train.X, 300
        clean = sub.predict_ids(X)
        mode, anchor_X = misidentify(), None
        if spoofing:
            tid = int(np.bincount(clean).argmax())
            mode, anchor_X = spoof(DeviceClass(tid, "t")), X
        g = build_generator(pool_schema, X, seed=14)
        g.net.weights[-1][:] = np.random.default_rng(14).normal(0, 0.5,
                                                                size=g.net.weights[-1].shape)
        epochs = 6
        train_generator(g, sub, train, mode, epochs=epochs, seed=3, lr=0.0, anchor_X=anchor_X)
        rng = np.random.default_rng(3)
        want = []
        for _epoch in range(epochs):
            S = sample_multipliers(pool_schema, n, rng) * X
            rng.permutation(n)
            pred = sub.predict_ids(g.manipulate_batch(X, S))
            want.append(float(np.mean(pred == tid if spoofing else pred != clean)))
        assert g.training_curve[1:] == want
        assert len(set(want)) > 1  # the noise really moves the rate

    def test_training_curve_recorded(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=9)
        train_generator(g, sub, train_pool, misidentify(), epochs=3, lr=0.01)
        assert len(g.training_curve) == 4  # initial point + one per epoch

    @pytest.mark.parametrize("spoofing", [False, True])
    def test_plateau_stops_after_the_minimum_epochs(self, pool_schema, trained_sub,
                                                    small_split, spoofing):
        """At lr 0 the rate never moves, so either mode stops as soon as the
        minimum number of epochs has run."""
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        mode, anchor_X = misidentify(), None
        if spoofing:
            tid = int(sub.predict_ids(train_pool.X)[0])
            mode, anchor_X = spoof(DeviceClass(tid, "t")), train_pool.X
        g = build_generator(pool_schema, train_pool.X, seed=9)
        train_generator(g, sub, train_pool, mode, epochs=60, lr=0.0, anchor_X=anchor_X)
        assert PLATEAU_MIN_EPOCHS == 20
        assert len(g.training_curve) == PLATEAU_MIN_EPOCHS + 1
        assert len(set(g.training_curve)) == 1

    @staticmethod
    def success_fixed_by_row(pool_schema, sub, train_pool, mode_name):
        """An lr-0 set-up in which each row's substitute id does not depend
        on the noise: ``(g, succeeds, mode, anchor_X)``, where ``succeeds``
        marks the rows that count as a success in every epoch, and the rest
        never do. Spoof keeps the identity map and targets the first row's
        class. Misidentify gets a last layer with zero weights and large
        biases, and a row succeeds if its clean id differs from its output's."""
        g = build_generator(pool_schema, train_pool.X, seed=9)
        clean = sub.predict_ids(train_pool.X)
        if mode_name == "spoof":
            tid = int(clean[0])
            return g, clean == tid, spoof(DeviceClass(tid, "t")), train_pool.X
        g.net.biases[-1][:] = 10.0
        moved = sub.predict_ids(g.manipulate_batch(train_pool.X, np.zeros_like(train_pool.X)))
        return g, clean != moved, misidentify(), None

    @pytest.mark.parametrize("mode_name", ["misidentify", "spoof"])
    def test_stops_after_the_first_epoch_that_succeeds_on_every_row(
            self, pool_schema, trained_sub, small_split, mode_name):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g, succeeds, mode, anchor_X = self.success_fixed_by_row(pool_schema, sub, train_pool,
                                                                 mode_name)
        train = train_pool.take(np.flatnonzero(succeeds))
        assert len(train) > BATCH_SIZE
        train_generator(g, sub, train, mode, epochs=60, lr=0.0, anchor_X=anchor_X)
        assert g.training_curve == [1.0, 1.0]

    @pytest.mark.parametrize("mode_name", ["misidentify", "spoof"])
    def test_one_row_that_never_succeeds_runs_to_the_plateau(
            self, pool_schema, trained_sub, small_split, mode_name):
        """The same set-up plus one row that fails in every epoch: the curve
        never reads 1.0, so only the plateau ends the training."""
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g, succeeds, mode, anchor_X = self.success_fixed_by_row(pool_schema, sub, train_pool,
                                                                 mode_name)
        rows = np.append(np.flatnonzero(succeeds), np.flatnonzero(~succeeds)[0])
        train = train_pool.take(rows)
        n = len(train)
        train_generator(g, sub, train, mode, epochs=60, lr=0.0, anchor_X=anchor_X)
        assert g.training_curve == [(n - 1) / n] * (PLATEAU_MIN_EPOCHS + 1)

    @pytest.mark.parametrize("mode_name, offsets, stops", [
        ("spoof", (0, 3, 5, 1, 4), True),
        ("spoof", (0, 3, 6, 1, 4), False),
        ("misidentify", (0, 1, 1, 0, 0), False),
    ])
    def test_plateau_band_in_rows(self, monkeypatch, pool_schema, trained_sub, small_split,
                                  mode_name, offsets, stops):
        """On 240 rows (batches of 128 and 112) each epoch's first batch
        scores 100 plus the next offset in turn and the second none, so every
        window of 5 epochs spans the offsets' range. Spoof's 2e-3 share of
        240 rows is 0.48 rows, but its band is at least 6 rows: a window that
        moves by 5 rows stops at the plateau minimum, one that moves by 6
        runs the whole budget. Misidentify's band of 1 row asks for a flat
        window."""
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        train = train_pool.take(np.arange(240))
        mode, anchor_X = misidentify(), None
        if mode_name == "spoof":
            tid = int(sub.predict_ids(train.X)[0])
            mode, anchor_X = spoof(DeviceClass(tid, "t")), train_pool.X
        calls = []

        def scripted_step(*args):
            calls.append(1)
            epoch, batch = divmod(len(calls) - 1, 2)
            return 100 + offsets[epoch % len(offsets)] if batch == 0 else 0

        monkeypatch.setattr(camouflage, "generator_step", scripted_step)
        g = build_generator(pool_schema, train.X, seed=9)
        train_generator(g, sub, train, mode, epochs=60, anchor_X=anchor_X)
        epochs_run = PLATEAU_MIN_EPOCHS if stops else 60
        assert g.training_curve[1:] == [(100 + offsets[e % len(offsets)]) / 240
                                        for e in range(epochs_run)]

    def test_anchor_rows_are_needed_for_spoof_only(self, gen, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        with pytest.raises(ValidationError, match="anchor_X"):
            train_generator(gen, sub, train_pool, spoof(DeviceClass(0, "t")), epochs=1)
        with pytest.raises(ValidationError, match="anchor_X"):
            train_generator(gen, sub, train_pool, misidentify(), epochs=1,
                            anchor_X=train_pool.X)
        assert gen.training_curve == []

    def test_anchor_requires_matching_rows(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=10)
        # Identical anchor rows get one label; target any other class.
        far = np.tile(pool_schema.highs, (8, 1))
        tid = min(set(range(sub.n_classes)) - set(sub.predict_ids(far).tolist()))
        tgt = spoof(DeviceClass(tid, train_pool.class_labels[tid]))
        with pytest.raises(UnreachableTargetError):
            train_generator(g, sub, train_pool, tgt, epochs=1,
                            anchor_X=far)

    def test_attack_mode_validation(self):
        with pytest.raises(ValidationError):
            AttackMode("spoof", None)
        with pytest.raises(ValidationError):
            AttackMode("nonsense", None)


def float_plateau(lo, r, n, band):
    """The plateau test on the training curve's shares: a window whose
    epochs scored between ``lo`` and ``lo + r`` of ``n`` rows."""
    return (lo + r) / n - lo / n < band


class TestPlateauRows:
    """The plateau test on success counts against ``plateau_rows`` gives the
    answer the test on the curve's shares against the mode's band gave,
    wherever the floor does not widen the band."""

    @pytest.mark.parametrize("mode_name, n", [("spoof", 2800), ("misidentify", 11200)])
    def test_the_default_runs_cells_keep_the_share_test(self, mode_name, n):
        """Every window range r in 0..n at every position: the default
        run's spoof cells and its misidentify training pool."""
        band = RECIPES[mode_name][2]
        rows = plateau_rows(mode_name, n)
        for r in range(n + 1):
            lo = np.arange(n - r + 1, dtype=float)
            assert (float_plateau(lo, r, n, band) == (r < rows)).all(), r
        assert math.ceil(rows) - 1 == {"spoof": 5, "misidentify": 1}[mode_name]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200_000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n)).flatmap(
            lambda nr: st.tuples(st.just(nr), st.integers(0, nr[0] - nr[1])))))
    @example(((240, 0), 17))
    @example(((240, 1), 17))
    @example(((9_999, 1), 0))
    @example(((10_000, 1), 0))
    @example(((11_200, 1), 5_000))
    @example(((11_200, 2), 5_000))
    def test_misidentify_keeps_the_share_test_at_any_size(self, case):
        """Below 10,000 rows the 1e-4 share is less than one row, so both
        tests ask for a flat window. Where 1e-4 of n is a whole number of
        rows, a window spanning exactly that many was a plateau at some
        positions and not at others; the row test says it is not one."""
        (n, r), lo = case
        if n % 10_000 == 0 and r == n // 10_000:
            assert not r < plateau_rows("misidentify", n)
            return
        assert float_plateau(lo, r, n, RECIPES["misidentify"][2]) == \
            (r < plateau_rows("misidentify", n))


class TestTrainingMatchesReference:
    """train_generator gives the reference loop's weights and curve, bit for
    bit, and changes none of its inputs."""

    def check(self, schema, sub, train, mode, **kw):
        X_before = train.X.tobytes()
        anchor_X = kw.get("anchor_X")
        anchor_before = None if anchor_X is None else anchor_X.tobytes()
        got = build_generator(schema, train.X, seed=21)
        want = build_generator(schema, train.X, seed=21)
        train_generator(got, sub, train, mode, seed=5, **kw)
        reference_train_generator(want, sub, train, mode, seed=5, **kw)
        assert got.training_curve == want.training_curve
        assert _flat_bits(got.net.weights + got.net.biases) == \
            _flat_bits(want.net.weights + want.net.biases)
        assert train.X.tobytes() == X_before
        if anchor_X is not None:
            assert anchor_X.tobytes() == anchor_before
        return got

    def test_misidentify(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = self.check(pool_schema, sub, train_pool, misidentify(), epochs=4, lr=0.05)
        assert len(g.training_curve) == 5

    def test_misidentify_stops_once_every_row_evades(self, pool_schema, trained_sub,
                                                      small_split):
        """The rows of the substitute's largest clean class all evade it
        within a few epochs, well before the plateau minimum."""
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        clean = sub.predict_ids(train_pool.X)
        train = train_pool.take(np.flatnonzero(clean == np.bincount(clean).argmax()))
        g = self.check(pool_schema, sub, train, misidentify(), epochs=40, lr=0.05)
        c = g.training_curve
        assert c[-1] == 1.0 and 1.0 not in c[:-1] and len(c) <= PLATEAU_MIN_EPOCHS

    def test_misidentify_stops_inside_its_narrower_band(self, pool_schema, trained_sub,
                                                        small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        train = train_pool.take(np.tile(np.arange(300), 4))
        g = self.check(pool_schema, sub, train, misidentify(), epochs=40, lr=0.0025)
        c = g.training_curve
        last, before = (max(c[i - PLATEAU_WINDOW:i]) - min(c[i - PLATEAU_WINDOW:i])
                        for i in (len(c), len(c) - 1))
        # The window before the stop lay inside spoof's 2e-3 band, not 1e-4.
        assert len(c) < 41 and last < 1e-4 < before < 2e-3

    def test_spoof_with_anchor_and_gate(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, test_pool = small_split
        # 1,200 rows: the last batch of 48 is not a power of two, so per-row
        # divisions by the batch size are not exact.
        train = train_pool.take(np.tile(np.arange(300), 4))
        anchor_X = test_pool.X.copy()
        tid = int(np.bincount(sub.predict_ids(anchor_X)).argmax())
        mode = spoof(DeviceClass(tid, train_pool.class_labels[tid]))
        g = self.check(pool_schema, sub, train, mode, epochs=40, lr=0.05, anchor_X=anchor_X)
        # 1,200 rows rate in steps of 1/1,200: training stops on a plateau
        # inside spoof's 2e-3 band that misidentify's 1e-4 band would not end.
        recent = g.training_curve[-PLATEAU_WINDOW:]
        assert len(g.training_curve) < 41
        assert 1e-4 < max(recent) - min(recent) < 2e-3

    def test_schema_with_a_fixed_value_feature(self, pool_schema, small_split):
        train_pool, _ = small_split
        j = int(np.flatnonzero(pool_schema.mutable_mask)[0])
        f = pool_schema.features[j]
        features = list(pool_schema.features)
        features[j] = Feature(f.name, f.unit, f.lo, f.lo, True)
        schema = FeatureSchema(tuple(features))
        X = train_pool.X.copy()
        X[:, j] = f.lo
        train = Dataset(schema, X, train_pool.y, train_pool.class_labels)
        sub = train_substitute(train, epochs=3, seed=6)
        self.check(schema, sub, train, misidentify(), epochs=3, lr=0.5)

    def test_backward_to_params_matches_reference_and_keeps_inputs(
            self, pool_schema, small_dataset):
        g = build_generator(pool_schema, small_dataset.X, seed=13)
        rng = np.random.default_rng(13)
        for W in g.net.weights:
            W[:] = rng.normal(0, 0.5, size=W.shape)
        X = small_dataset.X[:40]
        S = sample_multipliers(pool_schema, 40, rng) * X
        Hp, cache = g.manipulate_batch(X, S, want_grad_cache=True)
        ref_Hp, ref_cache = _reference_manipulate(g, X, S, want_grad_cache=True)
        assert Hp.tobytes() == ref_Hp.tobytes()
        layer_acts, T, at_lo, at_hi = cache
        assert at_lo.any() or at_hi.any(), "need some clipped coordinates"
        dHp = rng.normal(size=Hp.shape)
        before = _flat_bits([dHp, T, at_lo, at_hi, *layer_acts])
        got = g.backward_to_params(cache, dHp)
        assert _flat_bits([dHp, T, at_lo, at_hi, *layer_acts]) == before
        want = reference_backward_to_params(g, ref_cache, dHp)
        assert got.tobytes() == want.tobytes()


class TestOneBatchStep:
    """``train_generator`` runs every batch through ``generator_step``, the
    function ``bench/generator_step.py`` times."""

    @pytest.mark.parametrize("spoofing", [False, True])
    def test_train_generator_runs_one_step_per_batch(self, monkeypatch, pool_schema,
                                                     trained_sub, small_split, spoofing):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        train = train_pool.take(np.arange(300))  # batches of 128, 128 and 44
        mode, anchor_X = misidentify(), None
        if spoofing:
            tid = int(np.bincount(sub.predict_ids(train.X)).argmax())
            mode, anchor_X = spoof(DeviceClass(tid, "t")), train_pool.X
        calls = []
        step = camouflage.generator_step

        def counting_step(*args):
            calls.append(args[4].size)
            return step(*args)

        monkeypatch.setattr(camouflage, "generator_step", counting_step)
        g = build_generator(pool_schema, train.X, seed=15)
        train_generator(g, sub, train, mode, epochs=4, seed=2, lr=0.05, anchor_X=anchor_X)
        epochs_run = len(g.training_curve) - 1
        assert epochs_run >= 1
        assert len(calls) == epochs_run * math.ceil(300 / BATCH_SIZE)
        assert sum(calls) == epochs_run * 300

    def test_the_bench_binds_the_same_function(self):
        path = pathlib.Path(__file__).parents[1] / "bench" / "generator_step.py"
        spec = importlib.util.spec_from_file_location("generator_step_bench", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        assert bench.generator_step is camouflage.generator_step
        assert bench.attack_objective is camouflage.attack_objective


class TestEvaluateAndIo:
    def test_evaluate_attack_reports_rates(self, pool_schema, trained_sub, small_split):
        sub, model, _ = trained_sub
        train_pool, test_pool = small_split
        g = build_generator(pool_schema, train_pool.X, seed=11)
        train_generator(g, sub, train_pool, misidentify(), epochs=3, lr=0.05)
        rep = evaluate_attack(g, model, test_pool, misidentify(), seed=1)
        assert 0.0 <= rep.attacked_rate <= 1.0
        assert rep.n_rows == len(test_pool)
        assert rep.success_rate == pytest.approx(1.0 - rep.attacked_rate)

    def test_oracle_victim_labels_only_the_manipulated_rows(
            self, pool_schema, trained_sub, small_split):
        """One oracle query per test row, and the rate is the one the target
        itself gives the manipulated rows."""
        sub, model, _ = trained_sub
        train_pool, test_pool = small_split
        g = build_generator(pool_schema, train_pool.X, seed=11)
        train_generator(g, sub, train_pool, misidentify(), epochs=3, lr=0.05)
        oracle = make_oracle(model, pool_schema)
        via_oracle = evaluate_attack(g, oracle, test_pool, misidentify(), seed=1)
        assert oracle.query_log == len(test_pool)
        direct = evaluate_attack(g, model, test_pool, misidentify(), seed=1)
        assert via_oracle == direct

    def test_save_load_round_trip(self, pool_schema, trained_sub, small_split, tmp_path):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=12)
        train_generator(g, sub, train_pool, misidentify(), epochs=2, lr=0.05)
        path = str(tmp_path / "gen.npz")
        save_generator(g, path)
        g2 = load_generator(path)
        X = train_pool.X[:32]
        S = np.zeros_like(X)
        np.testing.assert_array_equal(
            g.manipulate_batch(X, S), g2.manipulate_batch(X, S)
        )
        assert g2.training_curve == g.training_curve


# ---- spoof cell: the restart loop of the spoof grid and of ``flowcamo spoof`` ----


def reference_spoof_cell(cfg, sub, oracle, target, train_pool, src_train, src_test,
                         target_cls, i, j):
    """The spoof grid's per-cell loop before it became ``spoof_cell``, with
    ``reference_train_generator`` in place of the trainer; returns the kept
    generator and its rate on the target, or None for an unreachable cell."""
    best_g, best_rate = None, -1.0
    for t, trial_lr in enumerate(experiment.SPOOF_TRIAL_LRS):
        g = build_generator(
            train_pool.schema, train_pool.X,
            seed=cfg.seed + 600 + i * 20 + j + 5000 * t,
        )
        try:
            reference_train_generator(
                g, sub, src_train, spoof(target_cls),
                epochs=cfg.generator_epochs,
                seed=cfg.seed + 700 + i * 20 + j + 5000 * t,
                lr=trial_lr, anchor_X=train_pool.X,
            )
        except UnreachableTargetError:
            break
        check = evaluate_attack(
            g, oracle, src_train, spoof(target_cls),
            seed=cfg.seed + 750 + i * 20 + j,
        )
        if check.attacked_rate > best_rate:
            best_g, best_rate = g, check.attacked_rate
        if best_rate >= cfg.spoof_accept:
            break
    if best_g is None:
        return None
    rep = evaluate_attack(
        best_g, target, src_test, spoof(target_cls),
        seed=cfg.seed + 800 + i * 20 + j,
    )
    return best_g, rep.attacked_rate


class TestSpoofCell:
    def test_matches_the_reference_loop(self, monkeypatch):
        """Every cell of the seed-5 grid's knn row (8 classes, 8-epoch
        substitute): equal kept weights, curves and rates, and the row has
        restarts, a cell that ran every trial, and unreachable cells."""
        cfg = ExperimentConfig(seed=5, n_classes=8, rows_per_class=80, substitute_epochs=8,
                               generator_epochs=6, target_kinds=("knn",))
        res = {}
        for stage in (experiment._generate, experiment._train_targets, experiment._substitute):
            stage(cfg, res, lambda *args: None)
        trainings = []
        monkeypatch.setattr(experiment, "train_generator",
                            lambda *a, **kw: trainings.append(1) or train_generator(*a, **kw))
        profiles, train_pool, test_pool = res["profiles"], res["train_pool"], res["test_pool"]
        sub, oracle, target = (res[k]["knn"] for k in ("substitutes", "oracles", "targets"))
        pairs = [(a, b) for a in synth.DEVICE_TYPES for b in synth.DEVICE_TYPES if a != b]
        trials, unreachable = [], 0
        for j, (src, dst) in enumerate(pairs):
            src_classes = synth.classes_of_type(profiles, src)
            dst_class = synth.classes_of_type(profiles, dst)[0]
            target_cls = DeviceClass(dst_class, profiles[dst_class].label)
            src_train = train_pool.take(np.flatnonzero(np.isin(train_pool.y, src_classes)))
            src_test = test_pool.take(np.flatnonzero(np.isin(test_pool.y, src_classes)))
            want = reference_spoof_cell(cfg, sub, oracle, target, train_pool, src_train,
                                        src_test, target_cls, 0, j)
            trainings.clear()
            got = experiment.spoof_cell(cfg, sub, oracle, target, train_pool.X, src_train,
                                        src_test, target_cls, j)
            trials.append(len(trainings))
            if want is None:
                assert got is None
                unreachable += 1
                continue
            (g, rep), (want_g, want_rate) = got, want
            assert rep.attacked_rate == want_rate
            assert g.training_curve == want_g.training_curve
            assert _flat_bits(g.net.weights + g.net.biases) == \
                _flat_bits(want_g.net.weights + want_g.net.biases)
        assert unreachable and len(experiment.SPOOF_TRIAL_LRS) in trials
        assert set(trials) - {1, len(experiment.SPOOF_TRIAL_LRS)}


class TestSpoofCellRestarts:
    """The restart policy, with the trainer stubbed and the oracle check
    replaced by a script of rates."""

    CFG = ExperimentConfig(seed=10)
    LRS = (0.5, 0.4, 0.3, 0.2)
    CLS = DeviceClass(2, "hub_00")
    ANCHOR = np.zeros((3, 2))
    SRC = Dataset(FeatureSchema((Feature("a", "u", 0, 1, True),)), np.zeros((2, 1)),
                  np.array([0, 1]), ("x", "y"))

    def run(self, monkeypatch, rates, unreachable=False):
        log = []

        def build(schema, reference_X, seed):
            log.append(("build", seed))
            return {"seed": seed}

        def train(g, sub, train, mode, epochs, seed, lr, anchor_X):
            if unreachable:
                raise UnreachableTargetError("no anchor row")
            assert mode == spoof(self.CLS) and anchor_X is self.ANCHOR
            log.append(("train", g["seed"], seed, lr))

        def evaluate(g, victim, test, mode, seed):
            if victim == "oracle":
                rate = rates[sum(e[0] == "check" for e in log)]
                log.append(("check", g["seed"], seed))
                return AttackReport("spoof", rate, len(test))
            log.append(("test", g["seed"], seed))
            return AttackReport("spoof", 0.5, len(test))

        monkeypatch.setattr(experiment, "SPOOF_TRIAL_LRS", self.LRS)
        monkeypatch.setattr(experiment, "build_generator", build)
        monkeypatch.setattr(experiment, "train_generator", train)
        monkeypatch.setattr(experiment, "evaluate_attack", evaluate)
        found = experiment.spoof_cell(self.CFG, "sub", "oracle", "target", self.ANCHOR,
                                      self.SRC, self.SRC, self.CLS, 7)
        return found, log

    def test_keeps_the_best_trial_when_none_is_accepted(self, monkeypatch):
        found, log = self.run(monkeypatch, [0.3, 0.7, 0.5, 0.2])
        g, rep = found
        assert g == {"seed": 10 + 600 + 7 + 5000}
        assert rep.attacked_rate == 0.5
        trials = [e for e in log if e[0] == "train"]
        assert trials == [("train", 617 + 5000 * t, 717 + 5000 * t, lr)
                          for t, lr in enumerate(self.LRS)]
        assert [e[2] for e in log if e[0] == "check"] == [767] * 4
        assert log[-1] == ("test", 5617, 817)

    def test_a_tie_keeps_the_earlier_trial(self, monkeypatch):
        found, _ = self.run(monkeypatch, [0.6, 0.6, 0.1, 0.1])
        assert found[0] == {"seed": 617}

    def test_stops_at_the_first_accepted_trial(self, monkeypatch):
        found, log = self.run(monkeypatch, [0.2, 0.85, 0.95, 0.99])
        assert found[0] == {"seed": 5617}
        assert [e[0] for e in log] == ["build", "train", "check"] * 2 + ["test"]

    def test_unreachable_target_stops_after_one_build(self, monkeypatch):
        found, log = self.run(monkeypatch, [], unreachable=True)
        assert found is None and log == [("build", 617)]
