"""Deployment procedures: state estimation, recursive rollout, joint
state/parameter posteriors.

A Predictor bundles the trained flow, its conditioning encoder and the
dataset normalization constants; every user-facing number it emits is
de-normalized back to raw data units.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..checkpoint import load_checkpoint, restore_models
from ..diffcore import Tensor
from ..dynamics.sir import SirParams, SirState, sir_simulate
from ..dynamics.trajectory import Normalization
from ..dynamics.windows import Window
from .kl import kl_knn
from .metrics import per_dimension_nll


@dataclass
class RolloutConfig:
    n_steps: int
    direction: str = "forward"
    R: int = 5
    horizon: int = 1
    aggregation: str = "mean"      # "mean" | "sample"
    n_samples: int = 500

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.aggregation not in ("mean", "sample"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")


@dataclass
class EstimateReport:
    samples: np.ndarray                 # [n, d], raw units
    log_probs: np.ndarray               # [n], raw-unit density
    mean: np.ndarray
    std: np.ndarray
    seed: int
    contours: dict[int, np.ndarray] | None = None
    kl: float | None = None
    nll_per_dim: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = {
            "n_samples": int(self.samples.shape[0]),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "seed": self.seed,
            "provenance": self.provenance,
        }
        if self.kl is not None:
            out["kl"] = self.kl
        if self.nll_per_dim is not None:
            out["nll_per_dim"] = self.nll_per_dim.tolist()
        return out

    def write(self, stem) -> list[Path]:
        """JSON summary plus samples (and contours) CSVs; returns paths."""
        stem = Path(stem)
        paths = []
        j = stem.parent / (stem.name + ".json")
        j.write_text(json.dumps(self.summary(), indent=2, sort_keys=True) + "\n")
        paths.append(j)
        s = stem.parent / (stem.name + "_samples.csv")
        d = self.samples.shape[1]
        lines = [",".join([f"dim{i}" for i in range(d)] + ["log_prob"])]
        for row, lp in zip(self.samples, self.log_probs):
            lines.append(",".join([repr(float(v)) for v in row] + [repr(float(lp))]))
        s.write_text("\n".join(lines) + "\n")
        paths.append(s)
        if self.contours:
            c = stem.parent / (stem.name + "_contours.csv")
            lines = ["level,x,y"]
            for level, poly in sorted(self.contours.items()):
                for x, y in poly:
                    lines.append(f"{level},{float(x)!r},{float(y)!r}")
            c.write_text("\n".join(lines) + "\n")
            paths.append(c)
        return paths


def write_rollout_bands(reports: list[EstimateReport], path) -> Path:
    """Per-step 2-sigma band CSV: step, dim, mean, lo2sigma, hi2sigma."""
    lines = ["step,dim,mean,lo2sigma,hi2sigma"]
    for step, rep in enumerate(reports):
        for dim in range(rep.mean.shape[0]):
            mu = rep.mean[dim]
            sd = rep.std[dim]
            lines.append(
                f"{step},{dim},{float(mu)!r},{float(mu - 2 * sd)!r},{float(mu + 2 * sd)!r}"
            )
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


class ContextDimensionError(ValueError):
    pass


@dataclass
class Predictor:
    flow: object
    encoder: object
    norm: Normalization
    window_config: dict
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_checkpoint(cls, path) -> "Predictor":
        ckpt = load_checkpoint(path)
        flow, encoder, norm, window_config = restore_models(ckpt)
        if norm is None:
            d = flow.config.data_dim
            m = encoder.config.input_dim if encoder is not None else d
            norm = Normalization(np.zeros(m), np.ones(m), np.zeros(d), np.ones(d))
        return cls(
            flow=flow,
            encoder=encoder,
            norm=norm,
            window_config=window_config or {},
            provenance={"checkpoint": str(path), "extra": ckpt.get("extra", {})},
        )

    # -- helpers -----------------------------------------------------------

    @property
    def window(self) -> Window:
        return Window.from_dict(self.window_config)

    @property
    def state_dim(self) -> int:
        """Raw state dimension (parameters excluded when jointly modeled)."""
        d = self.flow.config.data_dim
        return d - 2 if self.window.include_params else d

    def embed_context(self, context_raw: np.ndarray) -> np.ndarray | None:
        """Encoder embedding of one raw [R, m] window; None for an unconditional flow."""
        ctx = np.asarray(context_raw, dtype=np.float64)
        if ctx.ndim != 2:
            raise ContextDimensionError(f"context must be [R, m], got {ctx.shape}")
        if self.encoder is None:
            return None
        normed = self.norm.normalize_obs(ctx)
        emb = self.encoder.embed(Tensor(normed[None, :, :]))
        return emb.data[0]

    def _log_std_sum(self) -> float:
        return float(np.log(self.norm.target_std).sum())

    # -- operations ----------------------------------------------------------

    def estimate_state(
        self,
        context_raw: np.ndarray,
        n_samples: int = 1000,
        seed: int = 0,
        truth_samples: np.ndarray | None = None,
        kl_k: int = 1,
        true_state: np.ndarray | None = None,
        with_contours: bool = True,
    ) -> EstimateReport:
        """Sample the conditional density for one context window (raw units)."""
        emb = self.embed_context(context_raw)
        x_norm, lp = self.flow.sample(n_samples, context=emb, seed=seed)
        samples = self.norm.denormalize_target(x_norm)
        log_probs = lp - self._log_std_sum()
        contours = None
        if with_contours and self.flow.config.data_dim == 2:
            polys = self.flow.confidence_contours(context=emb)
            contours = {
                k: self.norm.denormalize_target(poly) for k, poly in polys.items()
            }
        kl = None
        if truth_samples is not None:
            kl = kl_knn(samples, np.asarray(truth_samples, dtype=np.float64), k=kl_k)
        nll_dim = None
        if true_state is not None:
            nll_dim = per_dimension_nll(samples, true_state)
        return EstimateReport(
            samples=samples,
            log_probs=log_probs,
            mean=samples.mean(axis=0),
            std=samples.std(axis=0),
            seed=seed,
            contours=contours,
            kl=kl,
            nll_per_dim=nll_dim,
            provenance={**self.provenance, "window": self.window_config},
        )

    def rollout(
        self,
        initial_context_raw: np.ndarray,
        config: RolloutConfig,
        seed: int = 0,
    ) -> list[EstimateReport]:
        """Recursive estimation: predict, aggregate, feed back, repeat.

        The context window keeps its length; each step drops the oldest
        stored row (for backward-trained models the rows are already in
        reversed time order, so the mechanics are identical) and appends the
        aggregated prediction as a pseudo-observation.
        """
        window = np.asarray(initial_context_raw, dtype=np.float64).copy()
        if window.ndim != 2 or window.shape[0] != config.R:
            raise ContextDimensionError(
                f"initial context must be [{config.R}, m], got {window.shape}"
            )
        trained = self.window
        if trained.direction != config.direction:
            raise ValueError(
                f"model was trained for {trained.direction} estimation, not {config.direction}"
            )
        # A prediction fed back as the next row is one step on; a model trained
        # further ahead would leave the window with mixed row spacings.
        if trained.horizon != 1:
            raise ValueError(
                f"rollout needs a model trained for horizon 1, not horizon {trained.horizon}"
            )
        m = window.shape[1]
        # Step 0 reuses the caller's seed so a 1-step rollout reproduces
        # estimate_state exactly; later steps draw derived seeds.
        extra = np.random.default_rng(seed).integers(0, 2**63 - 1, size=config.n_steps)
        step_seeds = [seed] + [int(s) for s in extra[1:]]
        reports = []
        for step in range(config.n_steps):
            rep = self.estimate_state(
                window, n_samples=config.n_samples, seed=int(step_seeds[step]),
                with_contours=False,
            )
            rep.provenance = {**rep.provenance, "context": window.tolist(), "step": step}
            if config.aggregation == "mean":
                agg = rep.mean
            else:
                pick = np.random.default_rng(int(step_seeds[step]) ^ 0x5EED).integers(
                    0, rep.samples.shape[0]
                )
                agg = rep.samples[pick]
            if not np.all(np.isfinite(agg)):
                raise RuntimeError(f"rollout step {step}: non-finite aggregate")
            reports.append(rep)
            window = np.concatenate([window[1:], agg[None, :m]], axis=0)
        return reports

    def joint_state_param_estimate(
        self,
        context_raw: np.ndarray,
        n_samples: int = 1000,
        seed: int = 0,
        overlay_initial: SirState | None = None,
        overlay_steps: int = 0,
    ) -> tuple[EstimateReport, dict]:
        """Joint (state, beta, gamma) posterior plus parameter marginals.

        When ``overlay_steps`` > 0 the mean-parameter trajectory is
        re-simulated for plotting against the data.
        """
        if not self.window.include_params:
            raise ContextDimensionError(
                "checkpoint was not trained with joint parameter targets"
            )
        rep = self.estimate_state(
            context_raw, n_samples=n_samples, seed=seed, with_contours=False
        )
        d = self.state_dim
        params = rep.samples[:, d:]
        info = {
            "beta_mean": float(params[:, 0].mean()),
            "beta_std": float(params[:, 0].std()),
            "gamma_mean": float(params[:, 1].mean()),
            "gamma_std": float(params[:, 1].std()),
        }
        if overlay_steps > 0:
            init = overlay_initial or SirState(0.99, 0.01, 0.0)
            overlay = sir_simulate(
                SirParams(
                    beta=max(info["beta_mean"], 1e-9),
                    gamma=max(info["gamma_mean"], 1e-9),
                    noise_sigma=0.0,
                ),
                init,
                overlay_steps,
                seed=0,
            )
            info["overlay_states"] = overlay[0].states
        return rep, info
