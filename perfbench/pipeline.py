"""One workload's user pipeline, timed phase by phase from outside.

simulate -> dataset write/read -> windows -> train -> checkpoint save/load
-> Predictor.estimate_state -> Predictor.rollout -> ``flowstate evaluate``
(through flowstate.cli.main).  Closed loop: one caller in one process
issues each call after the previous one returned.  Library calls go through
module attributes so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from flowstate import checkpoint, cli, dynamics, training
from flowstate.diffcore import Tape, Tensor
from flowstate.encoders import EncoderConfig, build_encoder
from flowstate.flow import FlowConfig, FlowModel
from flowstate.inference import Predictor, RolloutConfig, mean_nll

import checks
import speed
from workloads import Workload


@dataclass
class Result:
    metrics: dict                  # end-to-end name -> value
    attempted: int
    failed: int
    failures: list[str]            # correctness checks that did not hold
    extras: dict = field(default_factory=dict)


def _seeds(seed: int) -> dict[str, int]:
    names = ("train_data", "heldout_data", "model", "contexts", "estimate", "evaluate")
    state = np.random.SeedSequence([seed, 0xF10]).generate_state(len(names))
    return {n: int(s) for n, s in zip(names, state)}


def _simulate(w: Workload, n_traj: int, seed: int):
    if w.system == "vehicle":
        return dynamics.vehicle_simulate(
            w.n_steps, dynamics.VehicleParams(), seed=seed, n_traj=n_traj
        )
    s = cli.DEFAULTS["sir"]
    e = cli.DEFAULTS["sir_ensemble"]
    return dynamics.sir_ensemble(
        tuple(e["beta_range"]), tuple(e["gamma_range"]), n_traj,
        dynamics.SirState(s["s0"], s["i0"], s["r0"]), w.n_steps,
        seed=seed, noise_sigma=s["noise_sigma"], dt=s["dt"],
    )


def _heldout(ts, w: Workload, norm, n: int, rng, room: int):
    """Forward (raw context, normalized context, normalized target) triples
    whose context ends at least ``room`` steps before its trajectory does."""
    out = []
    dims = list(w.target_dims) if w.target_dims else list(range(ts[0].states.shape[1]))
    for _ in range(n):
        tr = ts[int(rng.integers(0, len(ts)))]
        step = int(rng.integers(w.window - 1, len(tr) - room))
        raw = tr.obs[step - w.window + 1 : step + 1]
        target = tr.states[step + w.horizon, dims]
        if w.include_params:
            target = np.concatenate([target, [tr.params["beta"], tr.params["gamma"]]])
        out.append((raw, norm.normalize_obs(raw), norm.normalize_target(target[None, :])[0]))
    return out


def _read_table(path: Path) -> dict[str, list[float]]:
    lines = path.read_text().strip().split("\n")
    names = lines[0].split(",")[1:]
    rows = [[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]]
    return {n: [r[i] for r in rows] for i, n in enumerate(names)}


def _peak_embed_mb(encoder, contexts: np.ndarray) -> float:
    """tracemalloc peak of one training-batch embed recorded on a tape."""
    import tracemalloc

    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            encoder.embed(Tensor(contexts))
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def run(w: Workload, seed: int, seconds: float, workdir: Path, started: float, tracer=None) -> Result:
    """Run the pipeline once; ``started`` is the process start on perf_counter's clock."""
    phase = tracer.span if tracer is not None else (lambda name, **_: contextlib.nullcontext())
    seeds = _seeds(seed)
    work = w.work(seconds)
    failures: list[str] = []

    def check(fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed as e:
            failures.append(str(e))

    train_csv, hold_csv = workdir / "train.csv", workdir / "heldout.csv"

    # -- set-up: everything a user does before the first train step ----------
    probe = speed.Probe()
    before = probe.last
    with phase("bench.setup"):
        ts_sim = _simulate(w, w.n_traj, seeds["train_data"])
        dynamics.write_dataset(ts_sim, train_csv)
        ts = dynamics.read_dataset(train_csv)
        hold_sim = _simulate(w, w.heldout_traj, seeds["heldout_data"])
        dynamics.write_dataset(hold_sim, hold_csv)
        hold = dynamics.read_dataset(hold_csv)
        wd = dynamics.make_windows(
            ts, R=w.window, direction="forward", horizon=w.horizon,
            include_params=w.include_params, context_noise_sigma=0.0,
            seed=seeds["model"], target_dims=w.target_dims,
        )
        flow = FlowModel(FlowConfig(data_dim=wd.target_dim, seed=seeds["model"], **w.flow))
        encoder = build_encoder(EncoderConfig(
            kind=w.encoder, input_dim=wd.obs_dim, embed_dim=flow.config.context_features,
            window_length=w.window, seed=seeds["model"], **w.encoder_cfg,
        ))
    setup_raw = time.perf_counter() - started
    probe.last = probe.run()
    setup_slowdown = (before + probe.last) / 2

    # -- checks before training (untimed) ------------------------------------
    with phase("bench.checks"):
        check(checks.check_round_trip, ts_sim, ts)
        check(checks.check_round_trip, hold_sim, hold)
        if w.system == "sir-ensemble":
            s = cli.DEFAULTS["sir"]
            total = s["s0"] + s["i0"] + s["r0"]
            check(checks.check_sir_conservation, ts, total)
            check(checks.check_sir_conservation, hold, total)
        rng = np.random.default_rng(seeds["contexts"])
        weights = training.LossWeights(1.0, w.kinetic_lambda, w.prior_lambda)
        idx = rng.choice(len(wd), size=w.gradcheck_batch, replace=False)
        batch = (Tensor(wd.contexts[idx]), Tensor(wd.targets[idx]))
        params = {**flow.parameters(), **encoder.parameters()}
        check(
            checks.check_gradient,
            lambda: training.total_loss(flow, encoder, batch, weights)[0],
            params.values(), w.gradcheck_entries, seed,
        )
        pairs = _heldout(hold, w, wd.norm, w.nll_pairs, rng, room=w.horizon)
        nll_pairs = [(c, t) for _, c, t in pairs]
        nll_before = mean_nll(flow, encoder, nll_pairs)
        untrained = workdir / "untrained.json"
        checkpoint.save_checkpoint(untrained, checkpoint.checkpoint_dict(
            flow, encoder, norm=wd.norm, window_config=wd.window_config()))
        # Contexts from which a rollout stays inside the simulated span: a
        # trained vehicle flow sampled beyond it can overflow (CHANGES.md).
        room = w.rollout_steps * w.horizon
        contexts = [raw for raw, _, _ in _heldout(hold, w, wd.norm, 4, rng, room=room)]

    # -- train ---------------------------------------------------------------
    # Consecutive train calls of w.train_chunk iterations, each resuming from
    # the previous call's parameters with its own batch seed (Adam's moments
    # restart per call).  Timing each call lets a median ride out short
    # slow-downs of a shared machine.
    train_timer, logs = speed.Timer(probe), []
    with phase("bench.train"):
        for c in range(work["train_calls"]):
            cfg = training.TrainConfig(
                iterations=w.train_chunk, batch_size=w.batch, learning_rate=w.learning_rate,
                seed=seeds["model"] + c, weights=weights,
            )
            with train_timer:
                ckpt, log = training.train(wd, flow, encoder, cfg)
            logs.append(log)

    with phase("bench.checkpoint"):
        trained = workdir / "trained.json"
        checkpoint.save_checkpoint(trained, ckpt)
        pred = Predictor.from_checkpoint(trained)

    extras = {"work": work, "checkpoint_bytes": trained.stat().st_size}
    with phase("bench.checks"):
        for log in logs:
            check(checks.check_losses_finite, log)
        check(checks.check_nll_improved, nll_before, mean_nll(pred.flow, pred.encoder, nll_pairs))
        if tracer is not None:
            extras["embed_train_peak_mb"] = _peak_embed_mb(
                encoder, wd.contexts[rng.integers(0, len(wd), size=w.batch)])

    attempted = work["train_calls"] * w.train_chunk
    failed = 0

    # -- estimate ------------------------------------------------------------
    est_timer, first = speed.Timer(probe), None
    with phase("bench.estimate"):
        for i in range(work["estimate_calls"]):
            attempted += 1
            try:
                with est_timer:
                    rep = pred.estimate_state(
                        contexts[i % len(contexts)], n_samples=w.estimate_samples,
                        seed=seeds["estimate"] + i,
                    )
            except (RuntimeError, ValueError):
                failed += 1
                continue
            first = first or (i, rep)
    if first is not None:
        with phase("bench.checks"):
            i, rep = first
            emb = pred.embed_context(contexts[i % len(contexts)])
            k = 16
            x = pred.norm.normalize_target(rep.samples[:k])
            lp = rep.log_probs[:k] + np.log(pred.norm.target_std).sum()
            check(checks.check_flow_density, pred.flow, emb, x, lp)

    # -- rollout -------------------------------------------------------------
    roll_cfg = RolloutConfig(
        n_steps=w.rollout_steps, direction="forward", R=w.window, horizon=w.horizon,
        aggregation="mean", n_samples=w.rollout_samples,
    )
    roll_timer, step0 = speed.Timer(probe), None
    with phase("bench.rollout"):
        for i in range(work["rollouts"]):
            attempted += w.rollout_steps
            try:
                with roll_timer:
                    reports = pred.rollout(contexts[i % len(contexts)], roll_cfg, seed=seeds["estimate"] + i)
            except (RuntimeError, ValueError):
                failed += w.rollout_steps
                continue
            step0 = step0 or (i, reports[0])
    if step0 is not None:
        with phase("bench.checks"):
            i, rep0 = step0
            again = pred.estimate_state(
                contexts[i % len(contexts)], n_samples=w.rollout_samples,
                seed=seeds["estimate"] + i, with_contours=False,
            )
            check(checks.check_rollout_start, rep0, again)

    # -- evaluate ------------------------------------------------------------
    common = ["--dataset", str(hold_csv), "--samples", str(w.eval_samples)]
    eval_timer = speed.Timer(probe)
    with phase("bench.evaluate"):
        for i in range(work["evaluate_calls"]):
            attempted += w.eval_locations
            try:
                with eval_timer:
                    code = cli.main([
                        "evaluate", "--checkpoints", str(trained), *common, "--metric", w.eval_metric,
                        "--locations", str(w.eval_locations), "--seed", str(seeds["evaluate"] + i),
                        "--out", str(workdir / "eval.csv"),
                    ])
                    if code != 0:
                        raise RuntimeError(f"evaluate exited {code}")
            except RuntimeError:
                failed += w.eval_locations

    # The comparison scores with --metric nll on every workload: k-NN KL
    # against the CLI's near-point truth cloud reads about log(samples)
    # whatever the model's width, so it cannot tell trained from untrained.
    with phase("bench.checks"):
        cmp_code = cli.main([
            "evaluate", "--checkpoints", str(untrained), str(trained), *common, "--metric", "nll",
            "--locations", str(w.compare_locations), "--seed", str(seeds["evaluate"]),
            "--out", str(workdir / "compare.csv"),
        ])
        if cmp_code != 0:
            failures.append(f"evaluate of the untrained and trained checkpoints exited {cmp_code}")
        else:
            check(checks.check_evaluate_improved, _read_table(workdir / "compare.csv"),
                  "untrained", "trained")

    timers = {"train": train_timer, "estimate": est_timer, "rollout": roll_timer, "evaluate": eval_timer}
    if not all(t.raw for t in timers.values()):
        raise RuntimeError("a pipeline phase failed on every attempt")
    rates = {
        "train_steps_per_s": (w.train_chunk, train_timer),
        "estimate_samples_per_s": (w.estimate_samples, est_timer),
        "rollout_steps_per_s": (w.rollout_steps, roll_timer),
        "evaluate_locations_per_s": (w.eval_locations, eval_timer),
    }
    metrics = {
        "setup_s": setup_raw / setup_slowdown,
        **{k: n / t.median() for k, (n, t) in rates.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras["raw"] = {"setup_s": setup_raw, **{k: n / t.median_raw() for k, (n, t) in rates.items()}}
    extras["slowdown"] = {"setup": setup_slowdown, **{k: statistics.median(t.slowdown) for k, t in timers.items()}}
    extras["calls_ms"] = {k: speed.summarize([1e3 * x for x in t.corrected]) for k, t in timers.items()}
    return Result(metrics, attempted, failed, failures, extras)
