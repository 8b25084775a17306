"""The benchmark's three workloads: inputs, model sizes and work per run.

A workload fixes everything the pipeline needs except the seed.  The amount
of work a run does is fixed by ``--seconds`` through the per-second rates
below (measured on the reference machine, see README.md), never by the
clock during the run: two runs with the same seconds attempt exactly the
same operations, so their checks and their operation counts repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    system: str                    # "vehicle" | "sir-ensemble"
    n_traj: int                    # training trajectories
    heldout_traj: int              # held-out trajectories, seeded apart
    n_steps: int                   # records per trajectory
    encoder: str                   # "mlp" | "transformer" | "ssm"
    window: int                    # context length R
    horizon: int
    target_dims: tuple[int, ...] | None
    include_params: bool
    kinetic_lambda: float
    prior_lambda: float
    batch: int
    learning_rate: float
    eval_metric: str               # "kl" | "nll"
    flow: dict = field(default_factory=dict)      # FlowConfig fields
    encoder_cfg: dict = field(default_factory=dict)  # EncoderConfig fields
    # Work per second of --seconds: calls of each phase, sized so that each
    # phase takes its share of the run (train 0.35, estimate 0.15, rollout
    # and evaluate 0.25 each) at the reference throughput in README.md.
    train_chunk: int = 1                   # iterations per train call
    train_calls_per_run_s: float = 1.0
    estimate_calls_per_run_s: float = 1.0
    rollouts_per_run_s: float = 0.1
    evaluate_calls_per_run_s: float = 0.1
    estimate_samples: int = 4000
    rollout_steps: int = 28
    rollout_samples: int = 500
    eval_locations: int = 40               # locations per evaluate call
    eval_samples: int = 1000
    gradcheck_batch: int = 8
    gradcheck_entries: int = 12
    nll_pairs: int = 48
    compare_locations: int = 24

    def work(self, seconds: float) -> dict:
        """Calls of each phase in one run of ``seconds``."""
        return {
            "train_calls": max(3, round(seconds * self.train_calls_per_run_s)),
            "estimate_calls": max(2, round(seconds * self.estimate_calls_per_run_s)),
            "rollouts": max(1, round(seconds * self.rollouts_per_run_s)),
            "evaluate_calls": max(1, round(seconds * self.evaluate_calls_per_run_s)),
        }


WORKLOADS = {
    w.name: w
    for w in (
        # The bimodal vehicle with the model of repro/vehicle_bifurcation.sh
        # at a smaller trajectory count: the MLP encoder is a few matmuls, so
        # a train step is bound by the flow layers, the tape and the loss
        # terms.  Horizon 1, not 30: a rollout feeds each prediction back as
        # the next context row, which is only consistent for horizon 1.
        Workload(
            name="vehicle-mlp",
            system="vehicle",
            n_traj=200,
            heldout_traj=40,
            n_steps=150,
            encoder="mlp",
            window=5,
            horizon=1,
            target_dims=(0, 1),
            include_params=False,
            kinetic_lambda=0.0,
            prior_lambda=0.0,
            batch=512,
            learning_rate=1e-3,
            eval_metric="kl",
            flow={"n_layers": 10, "hidden_features": 16, "context_features": 8,
                  "base_hidden_features": 16},
            encoder_cfg={"mlp_hidden": 64},
            train_chunk=25,
            train_calls_per_run_s=1.5,
            estimate_calls_per_run_s=7.7,
            rollouts_per_run_s=2.5,
            evaluate_calls_per_run_s=0.75,
        ),
        # Joint (S, I, R, beta, gamma) targets from a two-week context through
        # the selective-SSM encoder: training is dominated by the dense
        # per-token scan tensors, and the 5-D autoregressive inverse is the
        # longest of the three.
        Workload(
            name="sir-ssm-joint",
            system="sir-ensemble",
            n_traj=100,
            heldout_traj=30,
            n_steps=300,
            encoder="ssm",
            window=14,
            horizon=1,
            target_dims=None,
            include_params=True,
            kinetic_lambda=0.0,
            prior_lambda=0.0,
            batch=256,
            learning_rate=2e-3,
            eval_metric="nll",
            flow={"n_layers": 10, "hidden_features": 16, "context_features": 8,
                  "base_hidden_features": 16},
            encoder_cfg={"model_dim": 32, "ssm_state_dim": 8, "expansion": 2,
                         "conv_kernel_width": 4},
            train_chunk=1,
            train_calls_per_run_s=0.95,
            estimate_calls_per_run_s=4.5,
            rollouts_per_run_s=1.25,
            evaluate_calls_per_run_s=0.5,
        ),
        # The seven-day COVID window through the transformer encoder with the
        # CLI-default kinetic and intermediate-prior weights, and a 28-step
        # rollout: training is bound by attention with all three loss terms
        # optimised; inference makes many batch-1 transformer calls.  It
        # trains 150 steps: after 90, 1 seed in 20 still scored worse in
        # evaluate than its untrained checkpoint.
        Workload(
            name="sir-transformer-kinetic",
            system="sir-ensemble",
            n_traj=100,
            heldout_traj=30,
            n_steps=300,
            encoder="transformer",
            window=7,
            horizon=1,
            target_dims=None,
            include_params=False,
            kinetic_lambda=0.1,
            prior_lambda=0.01,
            batch=256,
            learning_rate=1e-3,
            eval_metric="nll",
            flow={"n_layers": 10, "hidden_features": 16, "context_features": 4,
                  "base_hidden_features": 16},
            encoder_cfg={"model_dim": 16, "ff_dim": 32, "n_heads": 2,
                         "n_encoder_layers": 4, "n_decoder_layers": 4},
            train_chunk=5,
            train_calls_per_run_s=1.5,
            estimate_calls_per_run_s=6.0,
            rollouts_per_run_s=1.15,
            evaluate_calls_per_run_s=0.55,
        ),
    )
}
