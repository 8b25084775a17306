"""Conditional masked autoregressive flow over a context-parameterized base.

The forward map runs data -> latent through the layer stack, accumulating
per-layer log-determinants and recording every intermediate output (the
kinetic and intermediate-prior loss terms need them).  The inverse runs in
plain numpy with the usual dimension-by-dimension autoregressive solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from .layers import FlowLayer

LOG_SIGMA_CLAMP = 7.0
_LOG_2PI = math.log(2.0 * math.pi)


class NonFiniteOutputError(RuntimeError):
    pass


@dataclass
class FlowConfig:
    data_dim: int
    n_layers: int = 10
    hidden_features: int = 4
    context_features: int = 4
    base_hidden_features: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.data_dim < 1 or self.n_layers < 0:
            raise ValueError("data_dim >= 1 and n_layers >= 0 required")

    def to_dict(self) -> dict:
        return {
            "data_dim": self.data_dim,
            "n_layers": self.n_layers,
            "hidden_features": self.hidden_features,
            "context_features": self.context_features,
            "base_hidden_features": self.base_hidden_features,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FlowConfig":
        return cls(**d)


@dataclass
class DensityValue:
    """log p(x | context) plus the per-layer forward outputs f_1(x)..f_L(x)."""

    log_prob: Tensor                   # [B]
    per_layer_outputs: list[Tensor]    # n_layers entries, each [B, d]
    z: Tensor                          # final latent, [B, d]
    base_mu: Tensor                    # [B, d] (or broadcastable)
    base_log_sigma: Tensor


class BaseHead:
    """2-layer MLP mapping the context embedding to base (mu, log sigma).

    The output layer starts at zero so an untrained head yields the standard
    normal for any context; log sigma is clamped to +-LOG_SIGMA_CLAMP.
    """

    def __init__(self, context_dim: int, data_dim: int, hidden: int, rng):
        self.data_dim = data_dim
        s = 1.0 / np.sqrt(context_dim)
        self.w1 = Tensor(rng.uniform(-s, s, (context_dim, hidden)), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(np.zeros((hidden, 2 * data_dim)), requires_grad=True)
        self.b2 = Tensor(np.zeros(2 * data_dim), requires_grad=True)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
        }

    def __call__(self, context: Tensor) -> tuple[Tensor, Tensor]:
        h = dc.tanh(dc.add(dc.matmul(context, self.w1), self.b1))
        out = dc.add(dc.matmul(h, self.w2), self.b2)
        mu = dc.narrow(out, 1, 0, self.data_dim)
        log_sigma = dc.clamp(
            dc.narrow(out, 1, self.data_dim, self.data_dim),
            -LOG_SIGMA_CLAMP,
            LOG_SIGMA_CLAMP,
        )
        return mu, log_sigma


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def base_log_prob(z: Tensor, mu: Tensor, log_sigma: Tensor) -> Tensor:
    """Row-wise log N(z; mu, diag(exp(log_sigma))^2) of a [B, d] batch."""
    u = dc.mul(dc.sub(z, mu), dc.exp(dc.neg(log_sigma)))
    quad = dc.scale(dc.mul(u, u).sum(axis=1), -0.5)
    # Broadcast-safe sum of log sigma per row.
    sig_sum = dc.mul(log_sigma, Tensor(np.ones_like(z.data))).sum(axis=1)
    const = -0.5 * z.shape[1] * _LOG_2PI
    return dc.add(dc.sub(quad, sig_sum), Tensor(const))


class FlowModel:
    def __init__(self, config: FlowConfig):
        self.config = config
        d = config.data_dim
        rng = np.random.default_rng(config.seed)
        perms = []
        for _ in range(config.n_layers):
            if d == 2:
                perms.append(np.array([1, 0]))
            elif d == 1:
                perms.append(np.array([0]))
            else:
                perms.append(rng.permutation(d))
        self.layers = [
            FlowLayer(d, config.hidden_features, config.context_features, perm, rng)
            for perm in perms
        ]
        if config.context_features > 0:
            self.base_head = BaseHead(
                config.context_features, d, config.base_hidden_features, rng
            )
        else:
            self.base_head = None

    @property
    def data_dim(self) -> int:
        return self.config.data_dim

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.parameters(f"flow.layer{i}"))
        if self.base_head is not None:
            out.update(self.base_head.parameters("flow.base_head"))
        return out

    # -- base distribution ------------------------------------------------

    def base_params(self, context) -> tuple[Tensor, Tensor]:
        """(mu, log sigma) of the base Gaussian for a context embedding batch."""
        if self.base_head is None or context is None:
            zeros = Tensor(np.zeros((1, self.data_dim)))
            return zeros, zeros
        return self.base_head(_as_tensor(context))

    # -- maps --------------------------------------------------------------

    def forward_map(self, x, context=None) -> tuple[Tensor, Tensor, list[Tensor]]:
        """Run x through all layers; returns (z, log|det dz/dx|, per-layer outputs)."""
        x = _as_tensor(x)
        if x.data.ndim != 2 or x.shape[1] != self.data_dim:
            raise dc.ShapeMismatchError(
                f"expected [batch, {self.data_dim}] input, got {x.shape}"
            )
        ctx = _as_tensor(context) if context is not None else None
        log_det = Tensor(np.zeros(x.shape[0]))
        outputs: list[Tensor] = []
        h = x
        for i, layer in enumerate(self.layers):
            h, ld = layer.forward_t(h, ctx)
            if not np.all(np.isfinite(h.data)):
                raise NonFiniteOutputError(f"non-finite output at layer {i}")
            log_det = dc.add(log_det, ld)
            outputs.append(h)
        return h, log_det, outputs

    def inverse_map(self, z: np.ndarray, context: np.ndarray | None = None) -> np.ndarray:
        """Invert layer by layer in reverse order (numpy, no recording)."""
        z = np.asarray(z, dtype=np.float64)
        ctx = self._tile_context(context, z.shape[0])
        h = z
        for i in reversed(range(len(self.layers))):
            h = self.layers[i].inverse_np(h, ctx)
            if not np.all(np.isfinite(h)):
                raise NonFiniteOutputError(f"non-finite output at inverse layer {i}")
        return h

    def _tile_context(self, context, n: int) -> np.ndarray | None:
        if context is None:
            return None
        ctx = np.asarray(context, dtype=np.float64)
        if ctx.ndim == 1:
            ctx = np.tile(ctx, (n, 1))
        elif ctx.shape[0] == 1 and n > 1:
            ctx = np.tile(ctx, (n, 1))
        return ctx

    # -- densities and sampling --------------------------------------------

    def log_prob(self, x, context=None) -> DensityValue:
        z, log_det, outputs = self.forward_map(x, context)
        mu, log_sigma = self.base_params(context)
        lp = dc.add(base_log_prob(z, mu, log_sigma), log_det)
        return DensityValue(lp, outputs, z, mu, log_sigma)

    def sample(self, n: int, context=None, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Draw n samples and their log-probabilities (raw flow coordinates)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        ctx1 = None
        if context is not None:
            ctx1 = np.asarray(context, dtype=np.float64).reshape(1, -1)
        mu, log_sigma = self.base_params(ctx1)
        mu = np.broadcast_to(mu.data, (1, self.data_dim))
        sigma = np.exp(np.broadcast_to(log_sigma.data, (1, self.data_dim)))
        rng = np.random.default_rng(seed)
        z = mu + sigma * rng.standard_normal((n, self.data_dim))
        ctx_n = self._tile_context(ctx1, n)
        x = self.inverse_map(z, ctx_n)
        lp = self.log_prob(x, ctx_n).log_prob.data
        return x, lp

    def confidence_contours(self, context=None, levels=(1, 2, 3), n_points: int = 256) -> dict[int, np.ndarray]:
        """Closed polylines: base-sigma circles mapped into data space (d = 2)."""
        if self.data_dim != 2:
            raise dc.ShapeMismatchError(
                f"contours need data_dim == 2, have {self.data_dim}"
            )
        ctx1 = None
        if context is not None:
            ctx1 = np.asarray(context, dtype=np.float64).reshape(1, -1)
        mu, log_sigma = self.base_params(ctx1)
        mu = np.broadcast_to(mu.data, (1, 2))
        sigma = np.exp(np.broadcast_to(log_sigma.data, (1, 2)))
        ang = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        out = {}
        for k in levels:
            z = mu + sigma * (k * circle)
            ctx_n = self._tile_context(ctx1, z.shape[0])
            poly = self.inverse_map(z, ctx_n)
            out[int(k)] = np.concatenate([poly, poly[:1]], axis=0)
        return out


def perturb_parameters(model: FlowModel, scale: float, seed: int) -> None:
    """Add seeded uniform noise to every parameter (used to build 'random' flows)."""
    rng = np.random.default_rng(seed)
    for name in sorted(model.parameters()):
        p = model.parameters()[name]
        p.data = p.data + rng.uniform(-scale, scale, p.data.shape)
