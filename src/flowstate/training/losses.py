"""Kinetic-energy-augmented maximum-likelihood objective.

total = l1 * NLL + l2 * kinetic + l3 * intermediate-prior, where the kinetic
term averages the Euclidean displacement between consecutive layer outputs
and the prior term averages the base negative log-density of the
intermediate outputs f_1 .. f_{L-1}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from ..flow.model import DensityValue, base_log_prob


class NonFiniteLossError(RuntimeError):
    def __init__(self, message: str, batch_indices=None):
        super().__init__(message)
        self.batch_indices = list(batch_indices) if batch_indices is not None else []


@dataclass
class LossWeights:
    lambda1: float = 1.0
    lambda2: float = 0.1
    lambda3: float = 0.01

    def __post_init__(self):
        if self.lambda1 <= 0:
            raise ValueError("lambda1 must be positive")
        if self.lambda2 < 0 or self.lambda3 < 0:
            raise ValueError("lambda2 and lambda3 must be nonnegative")


def _embed(encoder, contexts):
    if encoder is None or contexts is None:
        return None
    return encoder.embed(contexts)


def _nll(flow, encoder, batch) -> tuple[Tensor, DensityValue]:
    """Batch mean of -log p(target | embed(context)), and the density it came from."""
    contexts, targets = batch
    dv = flow.log_prob(targets, _embed(encoder, contexts))
    lp = dv.log_prob
    bad = np.flatnonzero(~np.isfinite(lp.data))
    if bad.size:
        raise NonFiniteLossError(
            f"non-finite log-likelihood at batch indices {bad[:10].tolist()}", bad
        )
    return dc.neg(lp.mean()), dv


def nll_term(flow, encoder, batch) -> Tensor:
    """Batch mean of -log p(target | embed(context))."""
    return _nll(flow, encoder, batch)[0]


def kinetic_term(per_layer_outputs) -> Tensor:
    """Batch mean of 1/(L-1) * sum_l ||f_{l+1}(x) - f_l(x)||_2."""
    L = len(per_layer_outputs)
    if L < 2:
        warnings.warn("kinetic term needs at least 2 layers; returning 0")
        return Tensor(0.0)
    acc = None
    for a, b in zip(per_layer_outputs[:-1], per_layer_outputs[1:]):
        diff = dc.sub(b, a)
        norm = dc.sqrt(dc.mul(diff, diff).sum(axis=1))
        acc = norm if acc is None else dc.add(acc, norm)
    return dc.scale(acc.mean(), 1.0 / (L - 1))


def prior_term(per_layer_outputs, base: tuple[Tensor, Tensor]) -> Tensor:
    """Batch mean of 1/(L-1) * sum_{l<L} -log p_Z(f_l(x)) under the base."""
    L = len(per_layer_outputs)
    if L < 2:
        warnings.warn("prior term needs at least 2 layers; returning 0")
        return Tensor(0.0)
    mu, log_sigma = base
    acc = None
    for out in per_layer_outputs[:-1]:
        neg_lp = dc.neg(base_log_prob(out, mu, log_sigma).mean())
        acc = neg_lp if acc is None else dc.add(acc, neg_lp)
    return dc.scale(acc, 1.0 / (L - 1))


def total_loss(flow, encoder, batch, weights: LossWeights) -> tuple[Tensor, dict]:
    """Weighted objective and its per-term breakdown.

    All three terms are evaluated (they are logged even at zero weight) but
    zero-weight terms stay out of the optimized total.
    """
    nll, dv = _nll(flow, encoder, batch)
    n_layers = len(dv.per_layer_outputs)
    if n_layers >= 2:
        kin = kinetic_term(dv.per_layer_outputs)
        pri = prior_term(dv.per_layer_outputs, (dv.base_mu, dv.base_log_sigma))
    else:
        kin = Tensor(0.0)
        pri = Tensor(0.0)

    total = dc.scale(nll, weights.lambda1)
    if weights.lambda2 > 0 and n_layers >= 2:
        total = dc.add(total, dc.scale(kin, weights.lambda2))
    if weights.lambda3 > 0 and n_layers >= 2:
        total = dc.add(total, dc.scale(pri, weights.lambda3))
    parts = {
        "total": float(total.data),
        "nll": float(nll.data),
        "kinetic": float(kin.data),
        "prior": float(pri.data),
    }
    return total, parts
