"""Each correctness check passes on a right input and fails on a wrong one."""

import copy

import numpy as np
import pytest

import checks
import flowstate.diffcore.gradcheck as gradcheck
from flowstate import dynamics, training
from flowstate.diffcore import Tensor
from flowstate.dynamics.trajectory import Normalization
from flowstate.encoders import EncoderConfig, build_encoder
from flowstate.flow import FlowConfig, FlowModel
from flowstate.inference import Predictor, RolloutConfig


@pytest.fixture(scope="module")
def ensemble():
    return dynamics.sir_ensemble(
        (0.02, 0.04), (0.005, 0.025), 3, dynamics.SirState(0.99, 0.01, 0.0), 80, seed=5
    )


@pytest.fixture
def model():
    flow = FlowModel(FlowConfig(data_dim=3, n_layers=2, hidden_features=4, context_features=3, seed=1))
    encoder = build_encoder(EncoderConfig(kind="mlp", input_dim=3, embed_dim=3, mlp_hidden=5,
                                          window_length=4, seed=1))
    rng = np.random.default_rng(2)
    for p in {**flow.parameters(), **encoder.parameters()}.values():
        p.data = p.data + rng.normal(0.0, 0.1, p.data.shape)
    return flow, encoder


def test_round_trip(tmp_path, ensemble):
    path = tmp_path / "ens.csv"
    dynamics.write_dataset(ensemble, path)
    read = dynamics.read_dataset(path)
    checks.check_round_trip(ensemble, read)
    read.trajectories[1].obs[7, 2] += 1e-12
    with pytest.raises(checks.CheckFailed, match="round trip"):
        checks.check_round_trip(ensemble, read)


def test_sir_conservation(ensemble):
    checks.check_sir_conservation(ensemble, 1.0)
    broken = copy.deepcopy(ensemble)
    broken.trajectories[2].states[40, 1] += 1e-6
    with pytest.raises(checks.CheckFailed, match="trajectory 2 step 40"):
        checks.check_sir_conservation(broken, 1.0)


def _loss(model, weights):
    flow, encoder = model
    rng = np.random.default_rng(3)
    batch = (Tensor(rng.normal(size=(4, 4, 3))), Tensor(rng.normal(size=(4, 3))))
    return lambda: training.total_loss(flow, encoder, batch, weights)[0]


def test_gradient(model, monkeypatch):
    flow, encoder = model
    params = {**flow.parameters(), **encoder.parameters()}
    weights = training.LossWeights(1.0, 0.1, 0.01)
    checks.check_gradient(_loss(model, weights), params.values(), None, seed=0)

    real = gradcheck.backward
    first = next(iter(params.values()))

    def perturbed(loss, params=()):
        real(loss, params=params)
        first.grad.flat[3] += 1e-3

    monkeypatch.setattr(gradcheck, "backward", perturbed)
    with pytest.raises(checks.CheckFailed, match="gradient check"):
        checks.check_gradient(_loss(model, weights), params.values(), None, seed=0)


def test_flow_density(model):
    flow, _ = model
    emb = np.array([0.3, -0.2, 0.5])
    x, lp = flow.sample(12, context=emb, seed=4)
    checks.check_flow_density(flow, emb, x, lp)
    lp[5] += 1e-3
    with pytest.raises(checks.CheckFailed, match="sample 5"):
        checks.check_flow_density(flow, emb, x, lp)


def test_rollout_start(model):
    flow, encoder = model
    norm = Normalization(np.zeros(3), np.ones(3), np.zeros(3), np.ones(3))
    pred = Predictor(flow, encoder, norm, {"direction": "forward", "R": 4, "horizon": 1})
    ctx = np.random.default_rng(6).normal(size=(4, 3))
    cfg = RolloutConfig(n_steps=3, R=4, n_samples=50)
    start = pred.estimate_state(ctx, n_samples=50, seed=9, with_contours=False)
    checks.check_rollout_start(pred.rollout(ctx, cfg, seed=9)[0], start)
    with pytest.raises(checks.CheckFailed, match="step 0"):
        checks.check_rollout_start(pred.rollout(ctx, cfg, seed=10)[0], start)


def test_improvement_checks():
    checks.check_nll_improved(2.0, 1.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_nll_improved(1.5, 1.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_nll_improved(1.5, float("nan"))
    table = {"untrained": [3.0, 4.0], "trained": [1.0, 2.0]}
    checks.check_evaluate_improved(table, "untrained", "trained")
    with pytest.raises(checks.CheckFailed):
        checks.check_evaluate_improved(table, "trained", "untrained")


def test_losses_finite():
    log = training.TrainLog()
    log.append(0, {"total": 1.0, "nll": 1.0, "kinetic": 0.5, "prior": 2.0}, 1.0, 1.0)
    checks.check_losses_finite(log)
    log.append(1, {"total": 1.0, "nll": 1.0, "kinetic": float("inf"), "prior": 2.0}, 1.0, 1.0)
    with pytest.raises(checks.CheckFailed, match="kinetic loss at iteration 1"):
        checks.check_losses_finite(log)
