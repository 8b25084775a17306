"""Flow layer pieces: permutation, LU-parameterized linear map, masked affine."""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from .made import MadeConditioner


class Permutation:
    """Fixed bijection on dimensions; orthogonal, so log|det| = 0."""

    def __init__(self, perm: np.ndarray):
        self.perm = np.asarray(perm, dtype=int)
        d = self.perm.shape[0]
        if sorted(self.perm.tolist()) != list(range(d)):
            raise ValueError(f"not a permutation of 0..{d - 1}: {perm}")
        self.inv_perm = np.argsort(self.perm)
        # y = x @ P with P[i, j] = 1 iff perm[j] == i, i.e. y[:, j] = x[:, perm[j]].
        self._p = Tensor(np.eye(d)[self.perm].T)

    def forward_t(self, x: Tensor) -> Tensor:
        return dc.matmul(x, self._p)

    def inverse_np(self, y: np.ndarray) -> np.ndarray:
        return y[:, self.inv_perm]


class LuLinear:
    """Invertible linear map W = L U with unit-diagonal L and positive diag(U).

    The factors are the invertibility witness: det W = prod(exp(log_diag)) > 0
    always, and log|det| is the O(d) sum of the diagonal log-magnitudes.
    Initialized at the identity.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.lower = Tensor(np.zeros((dim, dim)), requires_grad=True)
        self.upper = Tensor(np.zeros((dim, dim)), requires_grad=True)
        self.log_diag = Tensor(np.zeros(dim), requires_grad=True)
        self._mask_l = np.tril(np.ones((dim, dim)), k=-1)
        self._mask_u = np.triu(np.ones((dim, dim)), k=1)
        self._eye = np.eye(dim)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.lower": self.lower,
            f"{prefix}.upper": self.upper,
            f"{prefix}.log_diag": self.log_diag,
        }

    def _weight_t(self) -> Tensor:
        eye = Tensor(self._eye)
        l_mat = dc.add(eye, dc.mul(self.lower, Tensor(self._mask_l)))
        u_mat = dc.add(
            dc.mul(eye, dc.exp(self.log_diag)),
            dc.mul(self.upper, Tensor(self._mask_u)),
        )
        return dc.matmul(l_mat, u_mat)

    def weight_np(self) -> np.ndarray:
        l_mat = self._eye + self.lower.data * self._mask_l
        u_mat = self._eye * np.exp(self.log_diag.data) + self.upper.data * self._mask_u
        return l_mat @ u_mat

    def forward_t(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (x @ W, scalar log|det W|)."""
        return dc.matmul(x, self._weight_t()), self.log_diag.sum()

    def inverse_np(self, y: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.weight_np().T, y.T).T


class AffineAutoregressive:
    """Masked affine transform u_i = (x_i - shift_i(x_<i, c)) exp(-a_i(x_<i, c))."""

    def __init__(self, dim: int, hidden: int, context_dim: int, rng: np.random.Generator):
        self.dim = dim
        self.conditioner = MadeConditioner(dim, hidden, context_dim, rng)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return self.conditioner.parameters(f"{prefix}.made")

    def forward_t(self, x: Tensor, context: Tensor | None) -> tuple[Tensor, Tensor]:
        """Returns (u, per-sample log|det| = -sum a)."""
        shift, log_scale = self.conditioner.outputs_t(x, context)
        u = dc.mul(dc.sub(x, shift), dc.exp(dc.neg(log_scale)))
        return u, dc.neg(log_scale.sum(axis=1))

    def inverse_np(self, u: np.ndarray, context: np.ndarray | None) -> np.ndarray:
        # Dimension-by-dimension solve: the conditioner for dim i only sees
        # dims < i, which are already filled in.
        x = np.zeros_like(u)
        for i in range(self.dim):
            shift, log_scale = self.conditioner.outputs_np(x, context)
            x[:, i] = u[:, i] * np.exp(log_scale[:, i]) + shift[:, i]
        return x


class FlowLayer:
    """One stacked unit: permutation, then linear map, then masked affine."""

    def __init__(self, dim: int, hidden: int, context_dim: int, perm: np.ndarray, rng):
        self.permutation = Permutation(perm)
        self.linear = LuLinear(dim)
        self.affine = AffineAutoregressive(dim, hidden, context_dim, rng)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        out.update(self.linear.parameters(f"{prefix}.linear"))
        out.update(self.affine.parameters(f"{prefix}.affine"))
        return out

    def forward_t(self, x: Tensor, context: Tensor | None) -> tuple[Tensor, Tensor]:
        h = self.permutation.forward_t(x)
        h, ld_linear = self.linear.forward_t(h)
        u, ld_affine = self.affine.forward_t(h, context)
        return u, dc.add(ld_affine, ld_linear)

    def inverse_np(self, u: np.ndarray, context: np.ndarray | None) -> np.ndarray:
        h = self.affine.inverse_np(u, context)
        h = self.linear.inverse_np(h)
        return self.permutation.inverse_np(h)
