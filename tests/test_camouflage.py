import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcamo.blackbox import make_oracle
from flowcamo.camouflage import (
    AttackMode,
    Generator,
    build_generator,
    evaluate_attack,
    load_generator,
    misidentify,
    sample_multipliers,
    save_generator,
    spoof,
    train_generator,
)
from flowcamo.core import (
    ContractViolationError,
    DeviceClass,
    Feature,
    FeatureSchema,
    UnreachableTargetError,
    ValidationError,
)
from flowcamo.learners import fit
from flowcamo.substitute import train_substitute


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
        g = build_generator(schema, X, hidden=(8,), seed=seed)
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
        g = build_generator(pool_schema, small_dataset.X, delta_scale=0.5, seed=4)
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
        dWs, dbs = g.backward_to_params(cache, Wmat)
        analytic = np.concatenate([d.ravel() for d in dWs] + [d.ravel() for d in dbs])

        p0 = g.net.get_flat_params()

        def value(flat):
            g.net.set_flat_params(flat)
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
        g.net.set_flat_params(p0)
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
        dWs, _ = g.backward_to_params(cache, outward)
        assert all(np.all(d == 0.0) for d in dWs)
        inward = np.zeros_like(Hp)
        inward[:, j] = 1.0  # descent direction pulls back inside: passes
        # tanh is saturated so upstream gradient vanished anyway; unrail it.
        g2 = build_generator(pool_schema, small_dataset.X, seed=6)
        Hp2, cache2 = g2.manipulate_batch(X, S, want_grad_cache=True)
        dWs2, _ = g2.backward_to_params(cache2, inward)
        assert any(np.any(d != 0.0) for d in dWs2)


class TestTraining:
    def test_unfrozen_substitute_rejected(self, gen, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        loose = copy.copy(sub)
        loose.frozen = False
        with pytest.raises(ContractViolationError):
            train_generator(gen, loose, train_pool, misidentify(), epochs=1)

    def test_zero_lr_is_null_update(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=7)
        before = g.net.get_flat_params()
        train_generator(g, sub, train_pool, misidentify(), epochs=2, lr=0.0)
        np.testing.assert_array_equal(before, g.net.get_flat_params())
        assert g.trained

    def test_spoof_target_out_of_range_rejected(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=8)
        bad = spoof(DeviceClass(99, "nope"))
        with pytest.raises(ValidationError):
            train_generator(g, sub, train_pool, bad, epochs=1)

    def test_training_curve_recorded(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=9)
        train_generator(g, sub, train_pool, misidentify(), epochs=3, lr=0.01,
                        plateau_min_epochs=3)
        assert len(g.training_curve) == 4  # initial point + one per epoch

    def test_anchor_requires_matching_rows(self, pool_schema, trained_sub, small_split):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=10)
        # Identical anchor rows get one label; target any other class.
        far = np.tile(pool_schema.highs, (8, 1))
        tid = min(set(range(sub.n_classes)) - set(sub.predict_ids_pool(far).tolist()))
        tgt = spoof(DeviceClass(tid, train_pool.class_labels[tid]))
        with pytest.raises(UnreachableTargetError):
            train_generator(g, sub, train_pool, tgt, epochs=1,
                            anchor_X=far, anchor_weight=1.0)

    def test_attack_mode_validation(self):
        with pytest.raises(ValidationError):
            AttackMode("spoof", None)
        with pytest.raises(ValidationError):
            AttackMode("nonsense", None)


class TestEvaluateAndIo:
    def test_evaluate_attack_reports_rates(self, pool_schema, trained_sub, small_split):
        sub, model, _ = trained_sub
        train_pool, test_pool = small_split
        g = build_generator(pool_schema, train_pool.X, seed=11)
        train_generator(g, sub, train_pool, misidentify(), epochs=3, lr=0.05,
                        plateau_min_epochs=3)
        rep = evaluate_attack(g, model, test_pool, misidentify(), seed=1)
        assert 0.0 <= rep.attacked_rate <= 1.0
        assert rep.clean_rate > 0.9  # tree memorizes the small benchmark
        assert rep.n_rows == len(test_pool)
        assert rep.success_rate == pytest.approx(1.0 - rep.attacked_rate)

    def test_save_load_round_trip(self, pool_schema, trained_sub, small_split, tmp_path):
        sub, _, _ = trained_sub
        train_pool, _ = small_split
        g = build_generator(pool_schema, train_pool.X, seed=12)
        train_generator(g, sub, train_pool, misidentify(), epochs=2, lr=0.05,
                        plateau_min_epochs=2)
        path = str(tmp_path / "gen.npz")
        save_generator(g, path)
        g2 = load_generator(path)
        X = train_pool.X[:32]
        S = np.zeros_like(X)
        np.testing.assert_array_equal(
            g.manipulate_batch(X, S), g2.manipulate_batch(X, S)
        )
        assert g2.trained
        assert g2.training_curve == g.training_curve
