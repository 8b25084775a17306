"""Correctness checks of the pipeline's outputs.

Each check compares an output with an independent computation or with a
property the method must have, never with a stored copy of an earlier
output, and raises CheckFailed with the reason when it does not hold.
"""

from __future__ import annotations

import math

import numpy as np

from flowstate import diffcore as dc


class CheckFailed(Exception):
    pass


def check_round_trip(written, read) -> None:
    """The dataset read back holds exactly the simulated arrays."""
    if len(written) != len(read):
        raise CheckFailed(f"dataset round trip: {len(written)} trajectories written, {len(read)} read")
    for a, b in zip(written.trajectories, read.trajectories):
        for name in ("t", "obs", "states"):
            if not np.array_equal(getattr(a, name), getattr(b, name)):
                raise CheckFailed(f"dataset round trip: trajectory {a.traj_id} {name} differs")


def check_sir_conservation(ts, total: float, tol: float = 1e-9) -> None:
    """Every state row sums to s0 + i0 + r0, the SIR flow's conserved total."""
    for tr in ts.trajectories:
        err = np.abs(tr.states.sum(axis=1) - total)
        worst = int(np.argmax(err))
        if err[worst] > tol:
            raise CheckFailed(
                f"S+I+R not conserved: trajectory {tr.traj_id} step {worst} "
                f"sums to {tr.states[worst].sum()!r}, expected {total!r}"
            )


def check_gradient(loss_fn, params, n_entries: int | None, seed: int, tol: float = 1e-5) -> float:
    """Analytic gradient of ``loss_fn`` against central differences."""
    err = dc.grad_check(loss_fn, list(params), h=1e-5, n_samples=n_entries, seed=seed)
    if not err <= tol:
        raise CheckFailed(f"gradient check: max relative error {err:.3g} > {tol:g}")
    return err


def _gaussian_log_density(z, mu, log_sigma) -> np.ndarray:
    u = (z - mu) * np.exp(-log_sigma)
    d = z.shape[1]
    return -0.5 * (u * u).sum(axis=1) - np.broadcast_to(log_sigma, z.shape).sum(axis=1) \
        - 0.5 * d * math.log(2.0 * math.pi)


def check_flow_density(flow, emb, x, log_prob_norm, h: float = 1e-5, tol: float = 1e-5) -> None:
    """Reported log-probs against base density plus a finite-difference log|det|.

    ``x`` are samples in the flow's coordinates, ``log_prob_norm`` the
    log-probs reported for them in the same coordinates, ``emb`` the
    context embedding they were drawn under.
    """
    n, d = x.shape
    ctx = np.tile(np.asarray(emb, dtype=np.float64).reshape(1, -1), (n, 1))
    z = flow.forward_map(x, ctx)[0].data
    # Central differences: row block j holds x + h e_j, then x - h e_j.
    eye = np.eye(d) * h
    plus = (x[None, :, :] + eye[:, None, :]).reshape(d * n, d)
    minus = (x[None, :, :] - eye[:, None, :]).reshape(d * n, d)
    ctx_big = np.tile(ctx, (2 * d, 1))
    zz = flow.forward_map(np.concatenate([plus, minus]), ctx_big)[0].data
    zp = zz[: d * n].reshape(d, n, d)
    zm = zz[d * n:].reshape(d, n, d)
    jac = ((zp - zm) / (2.0 * h)).transpose(1, 2, 0)        # [n, out, in]
    sign, logdet = np.linalg.slogdet(jac)
    if np.any(sign == 0):
        raise CheckFailed("flow density: singular finite-difference Jacobian")
    mu, log_sigma = flow.base_params(ctx[:1])
    expected = _gaussian_log_density(z, mu.data, log_sigma.data) + logdet
    err = np.abs(expected - log_prob_norm) / np.maximum(1.0, np.abs(expected))
    if not np.all(err <= tol):
        i = int(np.argmax(err))
        raise CheckFailed(
            f"flow density: sample {i} reports log-prob {log_prob_norm[i]!r}, "
            f"base density + finite-difference log|det| gives {expected[i]!r}"
        )
    back = flow.inverse_map(z, ctx)
    err = np.abs(back - x) / np.maximum(1.0, np.abs(x))
    if not np.all(err <= 1e-7):
        raise CheckFailed(f"flow inverse: inverse_map(forward_map(x)) misses x by {err.max():.3g}")


def check_nll_improved(before: float, after: float) -> None:
    if not (math.isfinite(after) and after < before):
        raise CheckFailed(f"held-out mean NLL {after!r} after training, {before!r} before")


def check_losses_finite(log) -> None:
    for key in ("total", "nll", "kinetic", "prior"):
        values = np.asarray(getattr(log, key))
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise CheckFailed(f"training log: non-finite {key} loss at iteration {bad}")


def check_rollout_start(first_step, estimate) -> None:
    """Step 0 of a rollout is estimate_state under the same seed."""
    if not np.array_equal(first_step.samples, estimate.samples):
        raise CheckFailed("rollout step 0 differs from estimate_state with the same seed")


def check_evaluate_improved(table: dict[str, list[float]], untrained: str, trained: str) -> None:
    """The trained checkpoint scores a lower per-dimension NLL than the untrained one."""
    before = float(np.mean(table[untrained]))
    after = float(np.mean(table[trained]))
    if not (math.isfinite(after) and after < before):
        raise CheckFailed(f"evaluate --metric nll: trained {after!r}, untrained {before!r}")
