"""Command-line front end tying the pipeline together.

Verbs: simulate, ingest, train, estimate, rollout, evaluate, show-config.
Flags may be seeded from a key=value config file via --config; explicit
flags win.  Exit codes: 0 success, 1 runtime failure, 2 configuration
error.  Relative output paths resolve under $FLOWSTATE_OUTPUT_ROOT when
set.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, save_checkpoint
from .dynamics import (
    SchemaError,
    SirParams,
    SirState,
    TrajectorySet,
    ingest_external_sir,
    make_windows,
    read_dataset,
    sir_ensemble,
    sir_simulate,
    two_moons,
    vehicle_simulate,
    write_dataset,
)
from .dynamics.trajectory import Trajectory
from .dynamics.vehicle import VehicleParams
from .encoders import EncoderConfig, build_encoder
from .flow import FlowConfig, FlowModel
from .inference import Predictor, RolloutConfig, kl_knn, mape, per_dimension_nll, write_rollout_bands
from .training import ArrayDataset, LossWeights, TrainConfig, train


def _defaults(fn, *names) -> dict:
    """The declared defaults of the named parameters of a function or dataclass."""
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in names}


# Sections that restate a dataclass or function read its declared defaults;
# the literals are values that exist only in the CLI.
DEFAULTS = {
    "flow": _defaults(
        FlowConfig, "n_layers", "hidden_features", "context_features", "base_hidden_features"
    ),
    "encoder": _defaults(
        EncoderConfig, "model_dim", "n_encoder_layers", "n_decoder_layers", "n_heads",
        "ff_dim", "ssm_state_dim", "conv_kernel_width", "expansion", "mlp_hidden",
    ),
    "train": {
        **_defaults(TrainConfig, "iterations", "batch_size", "learning_rate", "grad_clip"),
        **_defaults(LossWeights, "lambda1", "lambda2", "lambda3"),
    },
    "window": {"R": 5, "horizon": 1, "context_noise_sigma": 1.0},
    "vehicle": _defaults(VehicleParams, "dt", "switch_time", "sigma_v", "sigma_phi", "c1", "c2"),
    "sir": {**_defaults(SirParams, "beta", "gamma", "noise_sigma", "dt"),
            "s0": 0.99, "i0": 0.01, "r0": 0.0},
    "sir_ensemble": {"beta_range": [0.02, 0.04], "gamma_range": [0.005, 0.025]},
    "kl": _defaults(kl_knn, "k"),
    "estimate": _defaults(Predictor.estimate_state, "n_samples"),
    "rollout": {**_defaults(RolloutConfig, "aggregation", "n_samples"),
                "window_sizes_days": [7, 28]},
}


class ConfigError(ValueError):
    pass


def _out_path(p: str) -> Path:
    root = os.environ.get("FLOWSTATE_OUTPUT_ROOT")
    path = Path(p)
    if root and not path.is_absolute():
        path = Path(root) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand `--config FILE` into key=value flags placed before user flags."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config requires a path")
    path = Path(argv[i + 1])
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    injected: list[str] = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        injected += [f"--{key}", value]
    rest = argv[:i] + argv[i + 2:]
    # Config-file flags go first so explicit flags override them.
    return rest[:1] + injected + rest[1:]


def _parse_at(spec: str, t: np.ndarray) -> int:
    if spec.startswith("t="):
        return int(np.argmin(np.abs(t - float(spec[2:]))))
    if spec.startswith("idx="):
        return int(spec[4:])
    return int(spec)


class _Window:
    """A checkpoint's window settings laid on a dataset: the context at a
    trajectory step and the step it predicts."""

    def __init__(self, window_config: dict, ts, direction=None, R=None):
        self.ts = ts
        self.direction = direction or window_config.get("direction", "forward")
        self.R = R or window_config.get("R", DEFAULTS["window"]["R"])
        self.horizon = window_config.get("horizon", 1)
        self.dims = window_config.get("target_dims") or list(range(ts[0].states.shape[1]))

    def step_range(self, n: int) -> tuple[int, int]:
        """First and last step of an n-row trajectory with room for a context and its target."""
        if self.direction == "forward":
            return self.R - 1, n - self.horizon - 1
        return self.horizon, n - self.R

    def target_step(self, step, k=1):
        """The step predicted k horizons on from the context at ``step``."""
        sign = 1 if self.direction == "forward" else -1
        return step + sign * self.horizon * k

    def locate(self, traj: int, at) -> tuple[Trajectory, int, np.ndarray, int]:
        """(trajectory, step, context, target step); ``at`` is a step or a t=/idx= spec."""
        if not 0 <= traj < len(self.ts):
            raise ConfigError(f"--traj {traj} outside [0, {len(self.ts)})")
        tr = self.ts[traj]
        step = at if isinstance(at, int) else _parse_at(at, tr.t)
        if self.direction == "forward":
            lo = step - self.R + 1
            if lo < 0 or step >= len(tr):
                raise ConfigError(f"step {step} leaves no room for an R={self.R} forward context")
            ctx = tr.obs[lo : step + 1].copy()
        else:
            hi = step + self.R
            if step < 0 or hi > len(tr):
                raise ConfigError(f"step {step} leaves no room for an R={self.R} backward context")
            ctx = tr.obs[step:hi][::-1].copy()
        return tr, step, ctx, self.target_step(step)

    def rollout_config(self, n_steps: int, aggregation: str, n_samples: int) -> RolloutConfig:
        return RolloutConfig(
            n_steps=n_steps, direction=self.direction, R=self.R, horizon=self.horizon,
            aggregation=aggregation, n_samples=n_samples,
        )


# -- subcommands -------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.system == "vehicle":
        p = VehicleParams(
            c1=args.c1, c2=args.c2, sigma_v=args.sigma_v, sigma_phi=args.sigma_phi,
            dt=args.dt, switch_time=args.switch_time,
        )
        ts = vehicle_simulate(
            args.steps, p, seed=args.seed, n_traj=args.trajectories,
            v_schedule=args.velocity, psi_override=args.psi,
        )
    elif args.system == "sir":
        p = SirParams(beta=args.beta, gamma=args.gamma,
                      noise_sigma=args.noise_sigma, dt=args.dt)
        ts = sir_simulate(p, SirState(args.s0, args.i0, args.r0), args.steps, seed=args.seed)
    elif args.system == "sir-ensemble":
        ts = sir_ensemble(
            tuple(args.beta_range), tuple(args.gamma_range), args.trajectories,
            SirState(args.s0, args.i0, args.r0), args.steps,
            seed=args.seed, noise_sigma=args.noise_sigma, dt=args.dt,
        )
    else:  # two-moons
        pts = two_moons(args.count, noise_sigma=args.noise_sigma, seed=args.seed)
        tr = Trajectory(
            system="two-moons", t=np.arange(len(pts), dtype=float),
            obs=pts, states=pts.copy(), traj_id=0,
        )
        ts = TrajectorySet([tr], {
            "system": "two-moons", "seed": args.seed, "n_traj": 1,
            "n_steps": len(pts), "noise_sigma": args.noise_sigma,
            "obs_columns": ["obs_x", "obs_y"], "state_columns": ["x", "y"],
        })
    out = _out_path(args.out)
    write_dataset(ts, out)
    print(f"wrote {ts.n_records()} records to {out}")
    return 0


def cmd_ingest(args) -> int:
    out = _out_path(args.out)
    ts = ingest_external_sir(args.input, out)
    print(f"ingested {ts.n_records()} rows to {out}")
    return 0


def _windows_from_args(ts, args):
    target_dims = None
    if args.target_dims:
        target_dims = tuple(int(s) for s in args.target_dims.split(","))
    elif ts.system == "vehicle":
        target_dims = (0, 1)
    return make_windows(
        ts,
        R=args.window,
        direction=args.direction,
        horizon=args.horizon,
        include_params=args.include_params,
        context_noise_sigma=args.context_noise,
        seed=args.seed,
        target_dims=target_dims,
    )


def cmd_train(args) -> int:
    ts = read_dataset(args.dataset)
    if args.unconditional:
        # Fit the flow directly to the state rows (no windows, no encoder).
        data = ArrayDataset(np.concatenate([tr.states for tr in ts.trajectories], axis=0))
        data_dim, context_features, encoder = data.targets.shape[1], 0, None
    else:
        data = _windows_from_args(ts, args)
        data_dim, context_features = data.target_dim, args.context_features
        encoder = build_encoder(EncoderConfig(
            kind=args.encoder,
            input_dim=data.obs_dim,
            embed_dim=args.context_features,
            model_dim=args.model_dim,
            n_encoder_layers=args.encoder_layers,
            n_decoder_layers=args.decoder_layers,
            n_heads=args.heads,
            ff_dim=args.ff_dim,
            ssm_state_dim=args.ssm_state_dim,
            conv_kernel_width=args.conv_width,
            expansion=args.expansion,
            mlp_hidden=args.mlp_hidden,
            window_length=args.window,
            seed=args.seed,
        ))
    flow = FlowModel(FlowConfig(
        data_dim=data_dim,
        n_layers=args.flow_layers,
        hidden_features=args.flow_hidden,
        context_features=context_features,
        base_hidden_features=args.base_hidden,
        seed=args.seed,
    ))
    cfg = TrainConfig(
        iterations=args.iterations,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        weights=LossWeights(args.lambda1, args.kinetic_lambda, args.prior_lambda),
        grad_clip=args.grad_clip,
    )
    ckpt, log = train(data, flow, encoder, cfg)
    out = _out_path(args.out)
    save_checkpoint(out, ckpt)
    loss_path = _out_path(args.loss_log) if args.loss_log else out.with_suffix(".loss.csv")
    log.to_csv(loss_path)
    if log.iteration:
        print(
            f"final losses: total={log.total[-1]:.6f} nll={log.nll[-1]:.6f} "
            f"kinetic={log.kinetic[-1]:.6f} prior={log.prior[-1]:.6f}"
        )
    print(f"wrote checkpoint to {out}")
    return 0


def cmd_estimate(args) -> int:
    pred = Predictor.from_checkpoint(args.checkpoint)
    ts = read_dataset(args.dataset)
    win = _Window(pred.window_config, ts)
    tr, _, ctx, tstep = win.locate(args.traj, args.at)
    true_state = None
    if 0 <= tstep < len(tr):
        true_state = tr.states[tstep, win.dims]
        if pred.window_config.get("include_params") and tr.params:
            true_state = np.concatenate(
                [true_state, [tr.params["beta"], tr.params["gamma"]]]
            )
    rep = pred.estimate_state(
        ctx, n_samples=args.samples, seed=args.seed, true_state=true_state
    )
    paths = rep.write(_out_path(args.out))
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def cmd_rollout(args) -> int:
    pred = Predictor.from_checkpoint(args.checkpoint)
    ts = read_dataset(args.dataset)
    win = _Window(pred.window_config, ts, direction=args.direction, R=args.window)
    _, step, ctx, _ = win.locate(args.traj, args.start)
    cfg = win.rollout_config(args.steps, args.aggregation, args.samples)
    reports = pred.rollout(ctx, cfg, seed=args.seed)
    out = _out_path(args.out)
    write_rollout_bands(reports, out)
    summary = {
        "n_steps": len(reports),
        "direction": win.direction,
        "start_step": step,
        "mean_trajectory": [r.mean.tolist() for r in reports],
    }
    out.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_evaluate(args) -> int:
    ts = read_dataset(args.dataset)
    names, columns = [], []
    for ckpt_path in args.checkpoints:
        pred = Predictor.from_checkpoint(ckpt_path)
        win = _Window(pred.window_config, ts)
        dims = win.dims
        loc_rng = np.random.default_rng(args.seed)  # identical locations per checkpoint
        values = []
        if args.metric in ("kl", "nll"):
            noise = float(ts.meta.get("noise_sigma", 1e-3)) or 1e-3
            per_dim_acc = []
            for _ in range(args.locations):
                traj = int(loc_rng.integers(0, len(ts)))
                lo, hi = win.step_range(len(ts[traj]))
                tr, _, ctx, tstep = win.locate(traj, int(loc_rng.integers(lo, hi + 1)))
                truth_state = tr.states[tstep, dims]
                rep = pred.estimate_state(
                    ctx, n_samples=args.samples,
                    seed=int(loc_rng.integers(0, 2**31)), with_contours=False,
                )
                state_samples = rep.samples[:, : len(dims)]
                if args.metric == "kl":
                    truth = truth_state + noise * loc_rng.normal(
                        size=(args.samples, len(dims))
                    )
                    per_dim_acc.append([
                        kl_knn(state_samples[:, j : j + 1], truth[:, j : j + 1], k=args.k)
                        for j in range(len(dims))
                    ])
                else:
                    per_dim_acc.append(per_dimension_nll(state_samples, truth_state))
            values = np.mean(per_dim_acc, axis=0).tolist()
        else:  # mape via rollout against the dataset
            tr, step, ctx, _ = win.locate(args.traj, args.start or win.R - 1)
            cfg = win.rollout_config(args.steps, "mean", args.samples)
            reports = pred.rollout(ctx, cfg, seed=args.seed)
            preds = np.array([r.mean[: len(dims)] for r in reports])
            actual = tr.states[win.target_step(step, np.arange(len(reports)) + 1)][:, dims]
            values = [mape(preds[:, j], actual[:, j]) for j in range(len(dims))]
        names.append(Path(ckpt_path).stem)
        columns.append(values)

    dims_n = len(columns[0])
    lines = ["dim," + ",".join(names)]
    for j in range(dims_n):
        lines.append(f"{j}," + ",".join(repr(float(c[j])) for c in columns))
    out = _out_path(args.out)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_show_config(args) -> int:
    print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowstate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a dataset")
    sim.add_argument("--system", required=True,
                     choices=["vehicle", "sir", "sir-ensemble", "two-moons"])
    sim.add_argument("--steps", type=int, default=150)
    sim.add_argument("--trajectories", type=int, default=1)
    sim.add_argument("--count", type=int, default=2000)  # two-moons
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    v = DEFAULTS["vehicle"]
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--switch-time", type=float, default=v["switch_time"])
    sim.add_argument("--sigma-v", type=float, default=v["sigma_v"])
    sim.add_argument("--sigma-phi", type=float, default=v["sigma_phi"])
    sim.add_argument("--c1", type=float, default=v["c1"])
    sim.add_argument("--c2", type=float, default=v["c2"])
    sim.add_argument("--velocity", type=float, default=1.0)
    sim.add_argument("--psi", type=float, default=None)
    s = DEFAULTS["sir"]
    sim.add_argument("--beta", type=float, default=s["beta"])
    sim.add_argument("--gamma", type=float, default=s["gamma"])
    sim.add_argument("--noise-sigma", type=float, default=None)
    sim.add_argument("--s0", type=float, default=s["s0"])
    sim.add_argument("--i0", type=float, default=s["i0"])
    sim.add_argument("--r0", type=float, default=s["r0"])
    e = DEFAULTS["sir_ensemble"]
    sim.add_argument("--beta-range", type=float, nargs=2, default=e["beta_range"])
    sim.add_argument("--gamma-range", type=float, nargs=2, default=e["gamma_range"])

    ing = sub.add_parser("ingest", help="ingest external date,S,I,R fractions")
    ing.add_argument("--input", required=True)
    ing.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train a conditional flow")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--loss-log", default=None)
    tr.add_argument("--encoder", choices=["mlp", "transformer", "ssm"], default="mlp")
    tr.add_argument("--direction", choices=["forward", "backward"], default="forward")
    w = DEFAULTS["window"]
    tr.add_argument("--window", type=int, default=w["R"])
    tr.add_argument("--horizon", type=int, default=w["horizon"])
    tr.add_argument("--context-noise", type=float, default=w["context_noise_sigma"])
    tr.add_argument("--include-params", action="store_true")
    tr.add_argument("--unconditional", action="store_true",
                    help="fit the flow to state rows directly (no encoder)")
    tr.add_argument("--target-dims", default=None)
    t = DEFAULTS["train"]
    tr.add_argument("--iterations", type=int, default=t["iterations"])
    tr.add_argument("--batch-size", type=int, default=t["batch_size"])
    tr.add_argument("--learning-rate", type=float, default=t["learning_rate"])
    tr.add_argument("--lambda1", type=float, default=t["lambda1"])
    tr.add_argument("--kinetic-lambda", type=float, default=t["lambda2"])
    tr.add_argument("--prior-lambda", type=float, default=t["lambda3"])
    tr.add_argument("--grad-clip", type=float, default=t["grad_clip"])
    tr.add_argument("--seed", type=int, default=0)
    f = DEFAULTS["flow"]
    tr.add_argument("--flow-layers", type=int, default=f["n_layers"])
    tr.add_argument("--flow-hidden", type=int, default=f["hidden_features"])
    tr.add_argument("--context-features", type=int, default=f["context_features"])
    tr.add_argument("--base-hidden", type=int, default=f["base_hidden_features"])
    n = DEFAULTS["encoder"]
    tr.add_argument("--model-dim", type=int, default=n["model_dim"])
    tr.add_argument("--encoder-layers", type=int, default=n["n_encoder_layers"])
    tr.add_argument("--decoder-layers", type=int, default=n["n_decoder_layers"])
    tr.add_argument("--heads", type=int, default=n["n_heads"])
    tr.add_argument("--ff-dim", type=int, default=n["ff_dim"])
    tr.add_argument("--ssm-state-dim", type=int, default=n["ssm_state_dim"])
    tr.add_argument("--conv-width", type=int, default=n["conv_kernel_width"])
    tr.add_argument("--expansion", type=int, default=n["expansion"])
    tr.add_argument("--mlp-hidden", type=int, default=n["mlp_hidden"])

    est = sub.add_parser("estimate", help="density estimate at a trajectory location")
    est.add_argument("--checkpoint", required=True)
    est.add_argument("--dataset", required=True)
    est.add_argument("--at", required=True, help="t=<time>, idx=<step>, or <step>")
    est.add_argument("--traj", type=int, default=0)
    est.add_argument("--samples", type=int, default=DEFAULTS["estimate"]["n_samples"])
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out", required=True, help="output stem")

    ro = sub.add_parser("rollout", help="recursive forecasting")
    ro.add_argument("--checkpoint", required=True)
    ro.add_argument("--dataset", required=True)
    ro.add_argument("--start", required=True, help="t=<time>, idx=<step>, or <step>")
    ro.add_argument("--traj", type=int, default=0)
    ro.add_argument("--steps", type=int, required=True)
    ro.add_argument("--window", type=int, default=None)
    ro.add_argument("--direction", choices=["forward", "backward"], default=None)
    ro.add_argument("--aggregation", choices=["mean", "sample"],
                    default=DEFAULTS["rollout"]["aggregation"])
    ro.add_argument("--samples", type=int, default=DEFAULTS["rollout"]["n_samples"])
    ro.add_argument("--seed", type=int, default=0)
    ro.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="score checkpoints on a dataset")
    ev.add_argument("--checkpoints", nargs="+", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--metric", choices=["kl", "nll", "mape"], required=True)
    ev.add_argument("--locations", type=int, default=100)
    ev.add_argument("--samples", type=int, default=1000)
    ev.add_argument("--k", type=int, default=DEFAULTS["kl"]["k"])
    ev.add_argument("--steps", type=int, default=7)
    ev.add_argument("--start", default=None)
    ev.add_argument("--traj", type=int, default=0)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)

    sub.add_parser("show-config", help="print the defaults table")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "train": cmd_train,
    "estimate": cmd_estimate,
    "rollout": cmd_rollout,
    "evaluate": cmd_evaluate,
    "show-config": cmd_show_config,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    # Fill context-dependent defaults.
    if args.command == "simulate":
        if args.dt is None:
            args.dt = DEFAULTS["vehicle"]["dt"] if args.system == "vehicle" else DEFAULTS["sir"]["dt"]
        if args.noise_sigma is None:
            args.noise_sigma = (
                DEFAULTS["sir"]["noise_sigma"] if args.system.startswith("sir") else 0.1
            )
    try:
        return _HANDLERS[args.command](args)
    except (CheckpointError, SchemaError, FileNotFoundError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:  # bad configuration values (incl. ConfigError)
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
