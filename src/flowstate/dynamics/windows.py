"""Windowed (context, target) training pairs for forward and backward estimation.

Contexts and targets are z-score-normalized with constants computed over the
source trajectory set; context noise is added in those normalized units on
top of whatever observation noise the simulator already applied.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .trajectory import Normalization, Trajectory, TrajectorySet


class TrajectoryTooShortError(ValueError):
    pass


@dataclass(frozen=True)
class Window:
    """Where a context and its target sit on a trajectory.

    A window is keyed by its anchor, the step of its last stored row.
    Forward windows store (o_{a-R+1} .. o_a) and target the state at
    a + horizon; backward windows store rows in reversed time order,
    (o_{a+R-1} .. o_a), and target the state at a - horizon.
    """

    R: int = 5
    direction: str = "forward"      # "forward" | "backward"
    horizon: int = 1
    include_params: bool = False
    context_noise_sigma: float = 0.0
    target_dims: tuple[int, ...] | None = None  # None: every state dimension

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.R < 1 or self.horizon < 1:
            raise ValueError("R and horizon must be >= 1")
        dims = tuple(int(i) for i in self.target_dims or ()) or None
        object.__setattr__(self, "target_dims", dims)

    @property
    def sign(self) -> int:
        return 1 if self.direction == "forward" else -1

    def anchor_range(self, n: int) -> tuple[int, int]:
        """First and last anchor of an n-row trajectory whose context rows and
        target step all lie on it (last < first when there is none)."""
        offsets = (-self.sign * (self.R - 1), self.sign * self.horizon)
        return -min(offsets), n - 1 - max(offsets)

    def rows(self, anchors) -> np.ndarray:
        """Context row indices of each anchor, in stored order: [..., R]."""
        return np.asarray(anchors)[..., None] - self.sign * np.arange(self.R - 1, -1, -1)

    def target_step(self, anchors, k=1):
        """The step predicted k horizons on from the context at ``anchors``."""
        return anchors + self.sign * self.horizon * k

    def dims(self, n_state: int) -> list[int]:
        return list(self.target_dims or range(n_state))

    def target(self, tr: Trajectory, steps) -> np.ndarray:
        """Raw target rows at ``steps``: the target dims of the state, then
        (beta, gamma) when parameters are targets too."""
        tgt = tr.states[:, self.dims(tr.states.shape[1])][steps]
        if not self.include_params:
            return tgt
        if not tr.params or "beta" not in tr.params:
            raise ValueError(f"include_params: trajectory {tr.traj_id} carries no (beta, gamma)")
        pv = np.broadcast_to([tr.params["beta"], tr.params["gamma"]], tgt.shape[:-1] + (2,))
        return np.concatenate([tgt, pv], axis=-1)

    def to_dict(self) -> dict:
        return {**asdict(self), "target_dims": list(self.target_dims or ())}

    @classmethod
    def from_dict(cls, d: dict) -> "Window":
        """A checkpoint's ``window_config``; missing keys take the defaults."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass
class WindowedDataset:
    contexts: np.ndarray            # [N, R, m], normalized (+ context noise)
    targets: np.ndarray             # [N, d], normalized
    window: Window
    norm: Normalization
    traj_index: np.ndarray          # [N] source trajectory
    anchor: np.ndarray              # [N] step index of the last context row
    target_step: np.ndarray         # [N] step index of the target
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.contexts.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.contexts.shape[2]

    @property
    def target_dim(self) -> int:
        return self.targets.shape[1]

    def window_config(self) -> dict:
        return self.window.to_dict()


def make_windows(
    ts: TrajectorySet,
    R: int,
    direction: str = "forward",
    horizon: int = 1,
    include_params: bool = False,
    context_noise_sigma: float = 0.0,
    seed: int = 0,
    target_dims: tuple[int, ...] | None = None,
) -> WindowedDataset:
    """Slice every trajectory into the (context, target) pairs of a Window.

    Each trajectory yields len - R - horizon + 1 windows.
    """
    if target_dims is None:
        target_dims = range(ts.trajectories[0].states.shape[1])
    win = Window(R, direction, horizon, include_params, context_noise_sigma, target_dims)

    anchors = []
    for tr in ts.trajectories:
        lo, hi = win.anchor_range(len(tr))
        if hi < lo:
            raise TrajectoryTooShortError(
                f"trajectory {tr.traj_id}: length {len(tr)} yields no windows "
                f"for R={R}, horizon={horizon}"
            )
        anchors.append(np.arange(lo, hi + 1))
    target_steps = [win.target_step(a) for a in anchors]
    targets = np.concatenate([win.target(tr, s) for tr, s in zip(ts.trajectories, target_steps)])
    norm = Normalization.compute(ts, win.target_dims, include_params)
    contexts = np.concatenate([
        norm.normalize_obs(tr.obs)[win.rows(a)] for tr, a in zip(ts.trajectories, anchors)
    ])
    if context_noise_sigma > 0:
        rng = np.random.default_rng(seed)
        contexts = contexts + rng.normal(0.0, context_noise_sigma, contexts.shape)

    return WindowedDataset(
        contexts=contexts,
        targets=norm.normalize_target(targets),
        window=win,
        norm=norm,
        traj_index=np.concatenate([np.full(len(a), ti) for ti, a in enumerate(anchors)]),
        anchor=np.concatenate(anchors),
        target_step=np.concatenate(target_steps),
        meta={"source": dict(ts.meta), "seed": seed},
    )
