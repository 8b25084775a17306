"""Dataset persistence: CSV with a JSON metadata sidecar.

Columns are `traj_id, step, t, <obs dims...>, <state dims...>[, beta, gamma]`.
Floats are written with shortest round-trip repr so re-reading reproduces
values exactly and re-running a seeded generation is byte-identical.
"""

from __future__ import annotations

import datetime as _dt
import json
from pathlib import Path

import numpy as np

from .trajectory import Trajectory, TrajectorySet


class SchemaError(ValueError):
    pass


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def _fmt(x: float) -> str:
    return repr(float(x))


def write_dataset(ts: TrajectorySet, path) -> None:
    path = Path(path)
    meta = dict(ts.meta)
    obs_cols = meta.get("obs_columns") or [f"obs_{i}" for i in range(ts[0].obs.shape[1])]
    state_cols = meta.get("state_columns") or [f"s_{i}" for i in range(ts[0].states.shape[1])]
    tagged = all(
        tr.params is not None and "beta" in tr.params and "gamma" in tr.params
        for tr in ts.trajectories
    )
    header = ["traj_id", "step", "t"] + list(obs_cols) + list(state_cols)
    if tagged:
        header += ["beta", "gamma"]

    obs_all = np.concatenate([tr.obs for tr in ts.trajectories], axis=0)
    st_all = np.concatenate([tr.states for tr in ts.trajectories], axis=0)
    meta["obs_columns"] = list(obs_cols)
    meta["state_columns"] = list(state_cols)
    meta["has_params"] = tagged
    meta["normalization_hint"] = {
        "obs_mean": obs_all.mean(axis=0).tolist(),
        "obs_std": obs_all.std(axis=0).tolist(),
        "state_mean": st_all.mean(axis=0).tolist(),
        "state_std": st_all.std(axis=0).tolist(),
    }

    lines = [",".join(header)]
    for tr in ts.trajectories:
        for k in range(len(tr)):
            row = [str(tr.traj_id), str(k), _fmt(tr.t[k])]
            row += [_fmt(v) for v in tr.obs[k]]
            row += [_fmt(v) for v in tr.states[k]]
            if tagged:
                row += [_fmt(tr.params["beta"]), _fmt(tr.params["gamma"])]
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    sidecar_path(path).write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


def read_dataset(path) -> TrajectorySet:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    meta = {}
    sc = sidecar_path(path)
    if sc.exists():
        try:
            meta = json.loads(sc.read_text())
        except ValueError as e:
            raise SchemaError(f"{sc}: not a JSON sidecar ({e})") from None
    text = path.read_text().strip().split("\n")
    header = text[0].split(",")
    if header[:3] != ["traj_id", "step", "t"]:
        raise SchemaError(f"{path}:1: unexpected header {header[:3]}, want traj_id,step,t")
    if len(text) < 2:
        raise SchemaError(f"{path}:1: a header and no data rows")
    obs_cols = meta.get("obs_columns") or [c for c in header if c.startswith("obs_")]
    has_params = header[-2:] == ["beta", "gamma"]
    n_obs = len(obs_cols)
    state_start = 3 + n_obs
    state_end = len(header) - (2 if has_params else 0)
    state_cols = header[state_start:state_end]

    try:
        data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    except ValueError:
        data = None  # a ragged or non-numeric row; _bad_row names it
    if data is None or data.shape[1] != len(header):
        raise SchemaError(_bad_row(path, header, text))
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise SchemaError(f"{path}:{row + 2}: non-finite {header[col]} value")
    system = meta.get("system", "unknown")
    trajectories = []
    for tid in np.unique(data[:, 0]).astype(int):
        rows = data[data[:, 0] == tid]
        rows = rows[np.argsort(rows[:, 1])]
        params = None
        if has_params:
            params = {"beta": float(rows[0, -2]), "gamma": float(rows[0, -1])}
        trajectories.append(
            Trajectory(
                system=system,
                t=rows[:, 2].copy(),
                obs=rows[:, 3 : 3 + n_obs].copy(),
                states=rows[:, state_start:state_end].copy(),
                traj_id=int(tid),
                params=params,
            )
        )
    meta.setdefault("obs_columns", obs_cols)
    meta.setdefault("state_columns", state_cols)
    return TrajectorySet(trajectories, meta)


def _bad_row(path, header: list[str], text: list[str]) -> str:
    """Where the first row that does not parse into the header's columns is."""
    for ln, line in enumerate(text[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            return f"{path}:{ln}: {len(fields)} fields, the header has {len(header)}"
        for name, v in zip(header, fields):
            try:
                float(v)
            except ValueError:
                return f"{path}:{ln}: {name} value {v!r} is not a number"
    return f"{path}: rows do not match the header"


def ingest_external_sir(src_path, out_path=None) -> TrajectorySet:
    """Validate and convert an external `date,S,I,R` fraction CSV.

    Dates must be ISO format and strictly increasing; S+I+R must stay in
    [0.98, 1.02] per row (tolerance for reporting noise).  Writes the
    standard dataset format when ``out_path`` is given.
    """
    src_path = Path(src_path)
    if not src_path.exists():
        raise FileNotFoundError(src_path)
    lines = src_path.read_text().strip().split("\n")
    header = [c.strip() for c in lines[0].split(",")]
    if header != ["date", "S", "I", "R"]:
        raise SchemaError(f"expected header date,S,I,R, got {header}")
    dates, values = [], []
    prev = None
    for ln, line in enumerate(lines[1:], start=2):
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != 4:
            raise SchemaError(f"row {ln}: expected 4 fields, got {len(parts)}")
        try:
            day = _dt.date.fromisoformat(parts[0])
            s, i, r = (float(v) for v in parts[1:])
        except ValueError as e:
            raise SchemaError(f"row {ln}: {e}") from None
        if prev is not None and day <= prev:
            raise SchemaError(f"row {ln}: dates not strictly increasing")
        prev = day
        total = s + i + r
        if not 0.98 <= total <= 1.02:
            raise SchemaError(f"row {ln}: S+I+R = {total!r} outside [0.98, 1.02]")
        dates.append(day)
        values.append([s, i, r])

    values = np.array(values)
    t = np.array([(d - dates[0]).days for d in dates], dtype=np.float64)
    tr = Trajectory(
        system="sir", t=t, obs=values, states=values.copy(), traj_id=0, params=None
    )
    meta = {
        "system": "sir",
        "source": str(src_path),
        "first_date": dates[0].isoformat(),
        "n_traj": 1,
        "n_steps": len(dates),
        "dt": 1.0,
        "obs_columns": ["obs_S", "obs_I", "obs_R"],
        "state_columns": ["S", "I", "R"],
        "external": True,
    }
    ts = TrajectorySet([tr], meta)
    if out_path is not None:
        write_dataset(ts, out_path)
    return ts
