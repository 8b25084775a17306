"""Versioned checkpoint container.

One JSON document holds every named parameter as shape plus base64-encoded
little-endian float64 bytes, alongside the flow config, encoder config,
dataset normalization constants and window settings.  Keys are sorted and
floats round-trip exactly, so identical parameters serialize byte-for-byte
identically.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .dynamics.trajectory import Normalization
from .encoders import EncoderConfig, build_encoder
from .flow import FlowConfig, FlowModel

FORMAT = "flowstate-checkpoint"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _encode_array(a: np.ndarray) -> dict:
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8")
    return raw.reshape(d["shape"]).astype(np.float64)


def model_parameters(flow, encoder=None) -> dict:
    """Every named parameter of the flow, then of the encoder when there is one."""
    params = dict(flow.parameters())
    if encoder is not None:
        params.update(encoder.parameters())
    return params


def checkpoint_dict(flow, encoder=None, norm=None, window_config=None, extra=None) -> dict:
    params = model_parameters(flow, encoder)
    return {
        "format": FORMAT,
        "version": VERSION,
        "flow_config": flow.config.to_dict(),
        "encoder_config": encoder.config.to_dict() if encoder is not None else None,
        "normalization": norm.to_dict() if norm is not None else None,
        "window_config": window_config,
        "extra": extra or {},
        "params": {name: _encode_array(p.data) for name, p in sorted(params.items())},
    }


def save_checkpoint(path, checkpoint: dict) -> None:
    Path(path).write_text(json.dumps(checkpoint, indent=1, sort_keys=True) + "\n")


def load_checkpoint(path) -> dict:
    ckpt = json.loads(Path(path).read_text())
    if ckpt.get("format") != FORMAT:
        raise CheckpointError(f"{path}: not a {FORMAT} file")
    if ckpt.get("version") != VERSION:
        raise CheckpointError(f"{path}: unsupported version {ckpt.get('version')}")
    return ckpt


def restore_models(ckpt: dict):
    """Rebuild (flow, encoder, norm, window_config) from a checkpoint dict."""
    flow = FlowModel(FlowConfig.from_dict(ckpt["flow_config"]))
    encoder = None
    if ckpt.get("encoder_config"):
        encoder = build_encoder(EncoderConfig.from_dict(ckpt["encoder_config"]))
    params = model_parameters(flow, encoder)
    stored = ckpt["params"]
    missing = set(params) - set(stored)
    unexpected = set(stored) - set(params)
    if missing or unexpected:
        raise CheckpointError(
            f"parameter names disagree; missing={sorted(missing)[:4]} "
            f"unexpected={sorted(unexpected)[:4]}"
        )
    for name, p in params.items():
        arr = _decode_array(stored[name])
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"{name}: stored shape {arr.shape} vs model shape {p.data.shape}"
            )
        p.data = arr
    norm = Normalization.from_dict(ckpt["normalization"]) if ckpt.get("normalization") else None
    return flow, encoder, norm, ckpt.get("window_config")
