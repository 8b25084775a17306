"""The three workloads end to end at tiny sizes, untraced and traced."""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pipeline
import speed
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def tiny(w):
    return dataclasses.replace(
        w, n_traj=6, heldout_traj=4, n_steps=60, batch=16, train_chunk=10,
        estimate_samples=300, rollout_steps=3, rollout_samples=50, eval_locations=4,
        eval_samples=200, nll_pairs=12, compare_locations=8,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload(tmp_path, name, traced):
    w = tiny(WORKLOADS[name])
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        res = pipeline.run(w, seed=3, seconds=0.1, workdir=tmp_path, started=time.perf_counter(), tracer=tracer)
    finally:
        if tracer:
            tracer.uninstall()
    assert res.failures == []
    assert res.failed == 0
    work = res.extras["work"]
    assert res.attempted == (work["train_calls"] * w.train_chunk + work["estimate_calls"]
                             + work["rollouts"] * w.rollout_steps + work["evaluate_calls"] * w.eval_locations)
    assert set(res.metrics) == {"setup_s", "train_steps_per_s", "estimate_samples_per_s",
                                "rollout_steps_per_s", "evaluate_locations_per_s", "peak_rss_mb"}
    assert all(v > 0 for v in res.metrics.values())
    if traced:
        layers = tracing.layer_metrics(tracer, w, res.extras)
        assert set(PER_LAYER) <= set(layers)
        assert all(layers[k]["value"] > 0 for k in PER_LAYER)
        assert ("flow.contours_ms" in layers) == (w.target_dims == (0, 1))
        assert layers["diffcore.tape_ops_loss_terms"]["value"] < layers["diffcore.tape_ops_per_step"]["value"]


def test_summarize_tail():
    out = speed.summarize([float(i) for i in range(1, 101)])
    assert out["value"] == 50.5 and out["count"] == 100 and "p90" in out
    assert set(speed.summarize([1.0] * 39)) == {"value", "count"}


def test_fails_without_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vehicle-mlp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert "correct" not in p.stdout
