import math

import numpy as np
import pytest

from flowstate.dynamics import Normalization
from flowstate.encoders import EncoderConfig, build_encoder
from flowstate.flow import FlowConfig, FlowModel, perturb_parameters
from flowstate.inference import (
    ContextDimensionError,
    InsufficientSamplesError,
    Predictor,
    RolloutConfig,
    ZeroDenominatorError,
    kde_log_density,
    kl_knn,
    mape,
    mean_nll,
    per_dimension_nll,
)


class TestKlKnn:
    def test_same_distribution_near_zero(self):
        vals = []
        for trial in range(5):
            rng = np.random.default_rng(trial)
            a = rng.normal(size=(5000, 1))
            b = rng.normal(size=(5000, 1))
            vals.append(kl_knn(a, b, k=1))
        assert abs(np.mean(vals)) < 0.1

    def test_shifted_gaussian_matches_closed_form(self):
        # KL(N(0,1) || N(1,1)) = 1/2.
        vals = []
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            a = rng.normal(0.0, 1.0, size=(5000, 1))
            b = rng.normal(1.0, 1.0, size=(5000, 1))
            vals.append(kl_knn(a, b, k=1))
        assert abs(np.mean(vals) - 0.5) < 0.15

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(400, 2))
        b = rng.normal(0.5, 1.0, size=(500, 2))
        v1 = kl_knn(a, b)
        v2 = kl_knn(10.0 * a, 10.0 * b)
        assert abs(v1 - v2) < 1e-9

    def test_duplicate_points_jittered(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(50, 2))
        a[10] = a[20]  # exact duplicate inside p-hat
        b = rng.normal(size=(60, 2))
        assert np.isfinite(kl_knn(a, b))

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            kl_knn(np.zeros((1, 2)), np.ones((5, 2)), k=1)

    def test_k_larger_than_one(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2000, 1))
        b = rng.normal(size=(2000, 1))
        assert abs(kl_knn(a, b, k=5)) < 0.1


class TestMape:
    def test_exact_prediction_is_zero(self):
        assert mape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_ten_percent_over(self):
        actual = np.array([1.0, 2.0, 4.0])
        assert abs(mape(1.1 * actual, actual) - 10.0) < 1e-9

    def test_single_element(self):
        assert abs(mape([2.2], [2.0]) - 10.0) < 1e-9

    def test_zero_denominator_lists_indices(self):
        with pytest.raises(ZeroDenominatorError, match=r"\[1\]"):
            mape([1.0, 1.0], [1.0, 0.0])


class TestMeanNll:
    def test_identity_flow_closed_form_1d(self):
        flow = FlowModel(FlowConfig(data_dim=1, n_layers=0, context_features=0))
        val = mean_nll(flow, None, [(None, np.zeros(1))])
        assert abs(val - 0.5 * math.log(2 * math.pi)) < 1e-12
        assert abs(val - 0.9189) < 1e-4

    def test_log_std_correction_shifts_linearly(self):
        flow = FlowModel(FlowConfig(data_dim=2, n_layers=0, context_features=0))
        pairs = [(None, np.array([0.1, -0.2]))]
        v0 = mean_nll(flow, None, pairs, log_std_correction=0.0)
        v1 = mean_nll(flow, None, pairs, log_std_correction=0.7)
        assert abs((v1 - v0) - 0.7) < 1e-12

    def test_per_dimension_sums_to_joint_for_product_density(self):
        rng = np.random.default_rng(10)
        samples = rng.normal(size=(4000, 2))
        per_dim = per_dimension_nll(samples, np.zeros(2))
        joint_closed_form = math.log(2 * math.pi)
        assert abs(per_dim.sum() - joint_closed_form) < 0.1

    def test_kde_matches_gaussian_density(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=20_000)
        lp = kde_log_density(samples, np.array([0.0]))[0]
        assert abs(lp - (-0.5 * math.log(2 * math.pi))) < 0.05

    def test_empty_pairs_rejected(self):
        flow = FlowModel(FlowConfig(data_dim=1, n_layers=0, context_features=0))
        with pytest.raises(ValueError):
            mean_nll(flow, None, [])


def _predictor(d=2, m=2, R=3, include_params=False, seed=0, horizon=1):
    ctx_feats = 4
    flow = FlowModel(
        FlowConfig(data_dim=d, n_layers=2, hidden_features=4,
                   context_features=ctx_feats, seed=seed)
    )
    perturb_parameters(flow, 0.2, seed=seed + 5)
    enc = build_encoder(
        EncoderConfig(kind="mlp", input_dim=m, embed_dim=ctx_feats, mlp_hidden=8,
                      window_length=R, seed=seed)
    )
    norm = Normalization(
        obs_mean=np.zeros(m), obs_std=np.ones(m),
        target_mean=np.zeros(d), target_std=np.ones(d),
    )
    window = {
        "direction": "forward", "R": R, "horizon": horizon,
        "include_params": include_params, "context_noise_sigma": 0.0,
        "target_dims": list(range(min(d, m))),
    }
    return Predictor(flow=flow, encoder=enc, norm=norm, window_config=window)


class TestEstimateState:
    def test_report_mean_is_sample_mean(self):
        pred = _predictor()
        ctx = np.random.default_rng(12).normal(size=(3, 2))
        rep = pred.estimate_state(ctx, n_samples=200, seed=1)
        np.testing.assert_allclose(rep.mean, rep.samples.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(rep.std, rep.samples.std(axis=0), atol=1e-12)

    def test_sample_count_matches_request(self):
        pred = _predictor()
        ctx = np.zeros((3, 2))
        rep = pred.estimate_state(ctx, n_samples=1000, seed=2)
        assert rep.samples.shape == (1000, 2)

    def test_fixed_seed_bit_identical(self):
        pred = _predictor()
        ctx = np.random.default_rng(13).normal(size=(3, 2))
        a = pred.estimate_state(ctx, n_samples=64, seed=3)
        b = pred.estimate_state(ctx, n_samples=64, seed=3)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.log_probs.tobytes() == b.log_probs.tobytes()

    def test_kl_against_truth_samples(self):
        pred = _predictor()
        ctx = np.zeros((3, 2))
        truth = np.random.default_rng(14).normal(size=(500, 2))
        rep = pred.estimate_state(ctx, n_samples=400, seed=4, truth_samples=truth)
        assert rep.kl is not None and np.isfinite(rep.kl)

    def test_denormalization_applied(self):
        pred = _predictor()
        pred.norm = Normalization(
            obs_mean=np.zeros(2), obs_std=np.ones(2),
            target_mean=np.array([100.0, -50.0]), target_std=np.array([10.0, 5.0]),
        )
        rep = pred.estimate_state(np.zeros((3, 2)), n_samples=500, seed=5)
        assert abs(rep.mean[0] - 100.0) < 20.0
        assert abs(rep.mean[1] + 50.0) < 10.0


class TestRollout:
    def test_single_step_equals_estimate_state(self):
        pred = _predictor()
        ctx = np.random.default_rng(15).normal(size=(3, 2))
        cfg = RolloutConfig(n_steps=1, R=3, n_samples=128)
        rolled = pred.rollout(ctx, cfg, seed=6)[0]
        direct = pred.estimate_state(ctx, n_samples=128, seed=6, with_contours=False)
        assert rolled.samples.tobytes() == direct.samples.tobytes()

    def test_window_shift_rule(self):
        pred = _predictor()
        ctx = np.arange(6.0).reshape(3, 2)
        cfg = RolloutConfig(n_steps=2, R=3, n_samples=64)
        reports = pred.rollout(ctx, cfg, seed=7)
        w1 = np.asarray(reports[1].provenance["context"])
        np.testing.assert_array_equal(w1[:2], ctx[1:])
        np.testing.assert_allclose(w1[2], reports[0].mean[:2], atol=1e-12)

    def test_window_length_invariant(self):
        pred = _predictor()
        ctx = np.zeros((3, 2))
        cfg = RolloutConfig(n_steps=5, R=3, n_samples=32)
        for rep in pred.rollout(ctx, cfg, seed=8):
            assert np.asarray(rep.provenance["context"]).shape == (3, 2)

    def test_direction_mismatch_rejected(self):
        pred = _predictor()
        cfg = RolloutConfig(n_steps=1, R=3, direction="backward")
        with pytest.raises(ValueError, match="forward"):
            pred.rollout(np.zeros((3, 2)), cfg, seed=9)

    def test_horizon_other_than_one_rejected(self):
        pred = _predictor(horizon=30)
        cfg = RolloutConfig(n_steps=1, R=3)
        with pytest.raises(ValueError, match="horizon 30"):
            pred.rollout(np.zeros((3, 2)), cfg, seed=9)

    def test_sampled_aggregation_deterministic(self):
        pred = _predictor()
        ctx = np.zeros((3, 2))
        cfg = RolloutConfig(n_steps=3, R=3, n_samples=64, aggregation="sample")
        a = pred.rollout(ctx, cfg, seed=10)
        b = pred.rollout(ctx, cfg, seed=10)
        for ra, rb in zip(a, b):
            assert ra.samples.tobytes() == rb.samples.tobytes()


class TestJointEstimate:
    def test_requires_param_targets(self):
        pred = _predictor(include_params=False)
        with pytest.raises(ContextDimensionError):
            pred.joint_state_param_estimate(np.zeros((3, 2)))

    def test_param_split_and_overlay_conservation(self):
        pred = _predictor(d=5, m=3, include_params=True)
        ctx = np.random.default_rng(16).normal(size=(3, 3))
        rep, info = pred.joint_state_param_estimate(
            ctx, n_samples=200, seed=11, overlay_steps=50
        )
        assert rep.samples.shape == (200, 5)
        assert {"beta_mean", "beta_std", "gamma_mean", "gamma_std"} <= info.keys()
        overlay = info["overlay_states"]
        assert np.abs(overlay.sum(axis=1) - 1.0).max() < 1e-9
