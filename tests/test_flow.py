import math

import numpy as np
import pytest

from flowstate import diffcore as dc
from flowstate.diffcore import Tensor
from flowstate.flow import (
    FlowConfig,
    FlowModel,
    MadeConditioner,
    NonFiniteOutputError,
    perturb_parameters,
)

LOG_2PI = math.log(2.0 * math.pi)


def _flow(d=2, n_layers=2, context=0, seed=0, perturb=0.0, hidden=8):
    model = FlowModel(
        FlowConfig(
            data_dim=d,
            n_layers=n_layers,
            hidden_features=hidden,
            context_features=context,
            seed=seed,
        )
    )
    if perturb:
        perturb_parameters(model, perturb, seed=seed + 1)
    return model


def _set_pure_scale(model, log_scale):
    """Force every affine transform to a constant scale exp(-log_scale), no shift."""
    for layer in model.layers:
        b2 = layer.affine.conditioner.b2
        d = layer.affine.dim
        b2.data[d:] = log_scale


class TestForwardMap:
    def test_zero_layer_flow_is_identity(self):
        model = _flow(n_layers=0)
        x = np.random.default_rng(0).normal(size=(5, 2))
        z, log_det, outputs = model.forward_map(x)
        np.testing.assert_array_equal(z.data, x)
        np.testing.assert_array_equal(log_det.data, np.zeros(5))
        assert outputs == []

    def test_pure_scale_layer_log_det(self):
        # Forward z = 2x gives log|det| = 2 ln 2 per sample; the inverse
        # direction is the negation, -2 ln 2 = -1.3863.
        model = _flow(n_layers=1)
        _set_pure_scale(model, -math.log(2.0))
        x = np.array([[0.3, -1.2], [2.0, 0.5]])
        z, log_det, _ = model.forward_map(x)
        np.testing.assert_allclose(z.data, 2.0 * x[:, ::-1], atol=1e-12)
        np.testing.assert_allclose(log_det.data, 2.0 * math.log(2.0), atol=1e-12)
        assert abs(-log_det.data[0] - (-1.3863)) < 1e-4

    def test_identity_initialized_flow_is_permutation_only(self):
        model = _flow(n_layers=3)  # odd number of d=2 reversals
        x = np.random.default_rng(1).normal(size=(4, 2))
        z, log_det, outputs = model.forward_map(x)
        np.testing.assert_array_equal(z.data, x[:, ::-1])
        np.testing.assert_array_equal(log_det.data, np.zeros(4))
        assert len(outputs) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            _flow(d=2).forward_map(np.zeros((3, 5)))

    def test_non_finite_reports_layer(self):
        model = _flow(n_layers=2)
        _set_pure_scale(model, -800.0)  # exp(800) overflows float64
        with np.errstate(over="ignore"), pytest.raises(NonFiniteOutputError, match="layer 0"):
            model.forward_map(np.ones((1, 2)))


class TestInverseMap:
    def test_roundtrip_on_random_flows(self):
        rng = np.random.default_rng(2)
        model = _flow(n_layers=4, context=3, perturb=0.4)
        x = rng.normal(size=(1000, 2))
        ctx = rng.normal(size=(1000, 3))
        z, _, _ = model.forward_map(x, ctx)
        back = model.inverse_map(z.data, ctx)
        assert np.abs(back - x).max() < 1e-9

    def test_identity_initialized_flow_maps_z_to_z(self):
        model = _flow(n_layers=4)
        z = np.random.default_rng(3).normal(size=(10, 2))
        np.testing.assert_allclose(model.inverse_map(z), z, atol=1e-12)

    def test_two_layer_affine_matches_hand_composition(self):
        # Hand-composed closed form of two reversal+affine layers with
        # constant shifts/scales (identity linear maps).
        s = np.array([[0.3, -0.7], [0.2, 0.9]])   # shifts per layer
        a = np.array([[0.5, -0.4], [-0.2, 0.3]])  # log-scales per layer
        model = _flow(n_layers=2)
        for li, layer in enumerate(model.layers):
            layer.affine.conditioner.b2.data[:2] = s[li]
            layer.affine.conditioner.b2.data[2:] = a[li]

        def layer_forward(x, li):
            xr = x[:, ::-1]
            return (xr - s[li]) * np.exp(-a[li])

        def layer_inverse(u, li):
            xr = u * np.exp(a[li]) + s[li]
            return xr[:, ::-1]

        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 2))
        z_hand = layer_forward(layer_forward(x, 0), 1)
        z_model, _, _ = model.forward_map(x)
        np.testing.assert_allclose(z_model.data, z_hand, atol=1e-12)
        x_hand = layer_inverse(layer_inverse(z_hand, 1), 0)
        np.testing.assert_allclose(model.inverse_map(z_hand), x_hand, atol=1e-12)
        np.testing.assert_allclose(x_hand, x, atol=1e-12)

    def test_non_finite_reports_inverse_layer(self):
        model = _flow(n_layers=2)
        _set_pure_scale(model, 800.0)  # the inverse multiplies by exp(800)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteOutputError, match="inverse layer 1"
        ):
            model.sample(4, seed=0)


class TestLogProb:
    def test_zero_layer_standard_base_at_origin(self):
        model = _flow(n_layers=0)
        lp = model.log_prob(np.zeros((1, 2))).log_prob.data[0]
        assert abs(lp - (-LOG_2PI)) < 1e-12
        assert abs(lp - (-1.83788)) < 1e-5

    def test_pure_scaling_change_of_variables(self):
        # Flow realizes x = 3 z (up to an orthogonal reversal):
        # log p_X(x) = log p_Z(x/3) - 2 log 3.
        model = _flow(n_layers=1)
        _set_pure_scale(model, math.log(3.0))
        x = np.array([[1.5, -2.4], [0.0, 0.3]])
        lp = model.log_prob(x).log_prob.data
        u = x / 3.0
        expected = (-0.5 * (u**2).sum(axis=1) - LOG_2PI) - 2.0 * math.log(3.0)
        np.testing.assert_allclose(lp, expected, atol=1e-12)

    @pytest.mark.parametrize("perturb", [0.0, 0.15])
    def test_quadrature_normalization_untrained(self, perturb):
        model = _flow(n_layers=4, perturb=perturb)
        g = np.linspace(-6, 6, 400)
        cell = (g[1] - g[0]) ** 2
        xx, yy = np.meshgrid(g, g)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        lp = model.log_prob(pts).log_prob.data
        mass = np.exp(lp).sum() * cell
        assert abs(mass - 1.0) < 0.02

    def test_per_layer_outputs_shape(self):
        model = _flow(n_layers=5)
        dv = model.log_prob(np.zeros((7, 2)))
        assert len(dv.per_layer_outputs) == 5
        assert all(o.shape == (7, 2) for o in dv.per_layer_outputs)


class TestBaseParams:
    def test_zero_initialized_head_gives_standard_base(self):
        model = _flow(context=4)
        ctx = np.random.default_rng(5).normal(size=(3, 4))
        mu, log_sigma = model.base_params(ctx)
        np.testing.assert_array_equal(mu.data, np.zeros((3, 2)))
        np.testing.assert_array_equal(log_sigma.data, np.zeros((3, 2)))

    def test_log_sigma_clamped(self):
        model = _flow(context=4)
        model.base_head.b2.data[:] = 100.0
        _, log_sigma = model.base_params(np.zeros((1, 4)))
        assert np.all(np.exp(log_sigma.data) <= math.exp(7.0))
        model.base_head.b2.data[:] = -100.0
        _, log_sigma = model.base_params(np.zeros((1, 4)))
        assert np.all(np.exp(log_sigma.data) >= math.exp(-7.0))

    def test_distinct_contexts_distinct_mu(self):
        model = _flow(context=4)
        rng = np.random.default_rng(6)
        model.base_head.w2.data = rng.normal(size=model.base_head.w2.data.shape)
        mu1, _ = model.base_params(rng.normal(size=(1, 4)))
        mu2, _ = model.base_params(rng.normal(size=(1, 4)))
        assert np.abs(mu1.data - mu2.data).max() > 1e-8


class TestSample:
    def test_degenerate_base_concentrates_samples(self):
        # Identity flow pushes a near-point base mass through unchanged.
        model = _flow(n_layers=4)
        rng = np.random.default_rng(7)
        z = np.array([5.0, 5.0]) + 1e-8 * rng.standard_normal((100, 2))
        x = model.inverse_map(z)
        assert np.abs(x - 5.0).max() < 1e-6

    def test_sample_log_prob_consistency(self):
        model = _flow(n_layers=3, context=3, perturb=0.3)
        ctx = np.random.default_rng(8).normal(size=3)
        x, lp = model.sample(1000, context=ctx, seed=9)
        lp2 = model.log_prob(x, np.tile(ctx, (1000, 1))).log_prob.data
        assert np.abs(lp - lp2).max() < 1e-9

    def test_identity_flow_sample_mean_near_base_mu(self):
        model = _flow(n_layers=2)
        n = 4000
        x, _ = model.sample(n, seed=10)
        assert np.all(np.abs(x.mean(axis=0)) < 4.0 / math.sqrt(n))

    def test_fixed_seed_reproducible(self):
        model = _flow(n_layers=2, perturb=0.2)
        a, la = model.sample(50, seed=11)
        b, lb = model.sample(50, seed=11)
        assert a.tobytes() == b.tobytes() and la.tobytes() == lb.tobytes()


class TestContours:
    def test_identity_flow_unit_circle(self):
        model = _flow(n_layers=2)
        polys = model.confidence_contours(levels=(1,))
        r = np.linalg.norm(polys[1], axis=1)
        assert np.abs(r - 1.0).max() < 1e-9

    def test_pure_scale_flow_radius_2k(self):
        model = _flow(n_layers=1)
        _set_pure_scale(model, -math.log(2.0))  # forward x -> 2x, inverse z -> z/2
        polys = model.confidence_contours(levels=(1, 2, 3))
        for k, poly in polys.items():
            r = np.linalg.norm(poly, axis=1)
            np.testing.assert_allclose(r, k / 2.0, atol=1e-9)

    def test_polyline_closed(self):
        model = _flow(n_layers=2, perturb=0.2)
        polys = model.confidence_contours(levels=(1, 2, 3))
        for poly in polys.values():
            np.testing.assert_array_equal(poly[0], poly[-1])

    def test_dimension_error(self):
        with pytest.raises(dc.ShapeMismatchError):
            _flow(d=3, n_layers=1).confidence_contours()


class TestAutoregressiveStructure:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_perturbing_dim_j_changes_only_later_outputs(self, dim):
        rng = np.random.default_rng(12)
        cond = MadeConditioner(dim, hidden=16, context_dim=0, rng=rng)
        cond.w2.data = rng.normal(size=cond.w2.data.shape)
        x = rng.normal(size=(1, dim))
        base = np.concatenate(cond.outputs_np(x, None), axis=1)
        for j in range(dim):
            xp = x.copy()
            xp[0, j] += 0.5
            out = np.concatenate(cond.outputs_np(xp, None), axis=1)
            changed = np.abs(out - base)[0] > 1e-12
            for col in np.flatnonzero(changed):
                assert col % dim > j

    def test_context_reaches_all_but_first_dim_transform(self):
        rng = np.random.default_rng(13)
        cond = MadeConditioner(3, hidden=16, context_dim=4, rng=rng)
        cond.w2.data = rng.normal(size=cond.w2.data.shape)
        cond.w2c.data = rng.normal(size=cond.w2c.data.shape)
        x = rng.normal(size=(1, 3))
        a = np.concatenate(cond.outputs_np(x, np.zeros((1, 4))), axis=1)
        b = np.concatenate(cond.outputs_np(x, np.ones((1, 4))), axis=1)
        assert np.abs(a - b).max() > 1e-8


class TestLogDetConsistency:
    def test_analytic_log_det_matches_finite_difference_jacobian(self):
        model = _flow(n_layers=3, context=3, perturb=0.4)
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = rng.normal(size=(1, 2))
            ctx = rng.normal(size=(1, 3))
            _, log_det, _ = model.forward_map(x, ctx)
            h = 1e-5
            jac = np.zeros((2, 2))
            for j in range(2):
                xp, xm = x.copy(), x.copy()
                xp[0, j] += h
                xm[0, j] -= h
                zp, _, _ = model.forward_map(xp, ctx)
                zm, _, _ = model.forward_map(xm, ctx)
                jac[:, j] = (zp.data[0] - zm.data[0]) / (2 * h)
            fd = math.log(abs(np.linalg.det(jac)))
            assert abs(log_det.data[0] - fd) < 1e-4


class TestGradients:
    def test_log_prob_gradient_matches_finite_differences(self):
        model = _flow(n_layers=2, context=3, perturb=0.2, hidden=4)
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(6, 2)))
        ctx = Tensor(rng.normal(size=(6, 3)))
        params = list(model.parameters().values())

        def loss():
            return dc.scale(model.log_prob(x, ctx).log_prob.mean(), -1.0)

        assert dc.grad_check(loss, params, h=1e-4, n_samples=40, seed=0) < 1e-5
