import json
from pathlib import Path

import numpy as np
import pytest

from flowstate.cli import main
from flowstate.dynamics import read_dataset


def run(*argv):
    return main(list(argv))


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.fixture
def sir_dataset(tmp_path):
    out = tmp_path / "sir.csv"
    assert run(
        "simulate", "--system", "sir", "--steps", "120", "--seed", "7",
        "--out", str(out),
    ) == 0
    return out


@pytest.fixture
def tiny_checkpoint(tmp_path, sir_dataset):
    ckpt = tmp_path / "model.json"
    assert run(
        "train", "--dataset", str(sir_dataset), "--out", str(ckpt),
        "--iterations", "20", "--batch-size", "16", "--window", "5",
        "--context-noise", "0", "--flow-layers", "2", "--flow-hidden", "4",
        "--mlp-hidden", "8", "--seed", "1",
    ) == 0
    return ckpt


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(
                "simulate", "--system", "sir", "--steps", "50", "--seed", "7",
                "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (
            Path(str(a) + ".meta.json").read_bytes()
            == Path(str(b) + ".meta.json").read_bytes()
        )

    def test_vehicle_row_count(self, tmp_path):
        out = tmp_path / "veh.csv"
        assert run(
            "simulate", "--system", "vehicle", "--trajectories", "20",
            "--steps", "150", "--seed", "3", "--out", str(out),
        ) == 0
        ts = read_dataset(out)
        assert ts.n_records() == 3000

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--system", "sir", "--sigma-vee", "1",
                "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert "--sigma-vee" in capsys.readouterr().err

    def test_two_moons(self, tmp_path):
        out = tmp_path / "moons.csv"
        assert run(
            "simulate", "--system", "two-moons", "--count", "100", "--seed", "2",
            "--out", str(out),
        ) == 0
        assert read_dataset(out).n_records() == 100


class TestIngest:
    def _write_csv(self, path, rows):
        path.write_text("date,S,I,R\n" + "\n".join(rows) + "\n")

    def test_well_formed_roundtrip(self, tmp_path):
        src = tmp_path / "ext.csv"
        self._write_csv(src, [
            "2020-03-01,0.99,0.01,0.0",
            "2020-03-02,0.985,0.012,0.003",
            "2020-03-03,0.98,0.013,0.007",
        ])
        out = tmp_path / "ingested.csv"
        assert run("ingest", "--input", str(src), "--out", str(out)) == 0
        ts = read_dataset(out)
        assert ts.n_records() == 3
        np.testing.assert_allclose(ts[0].obs[1], [0.985, 0.012, 0.003], atol=1e-12)

    def test_fraction_bound_violation_reports_row(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        self._write_csv(src, [
            "2020-03-01,0.99,0.01,0.0",
            "2020-03-02,1.0,0.5,0.0",
        ])
        assert run("ingest", "--input", str(src), "--out", str(tmp_path / "o.csv")) == 1
        assert "row 3" in capsys.readouterr().err

    def test_non_monotone_dates_rejected(self, tmp_path, capsys):
        src = tmp_path / "bad2.csv"
        self._write_csv(src, [
            "2020-03-02,0.99,0.01,0.0",
            "2020-03-01,0.99,0.01,0.0",
        ])
        assert run("ingest", "--input", str(src), "--out", str(tmp_path / "o.csv")) == 1
        assert "increasing" in capsys.readouterr().err


class TestTrain:
    def test_zero_iterations_emits_untrained_checkpoint(self, tmp_path, sir_dataset):
        ckpt = tmp_path / "untrained.json"
        assert run(
            "train", "--dataset", str(sir_dataset), "--out", str(ckpt),
            "--iterations", "0", "--context-noise", "0",
        ) == 0
        data = json.loads(ckpt.read_text())
        assert data["format"] == "flowstate-checkpoint"

    def test_kinetic_lambda_flag_wired(self, tmp_path, sir_dataset):
        ckpt = tmp_path / "kin.json"
        assert run(
            "train", "--dataset", str(sir_dataset), "--out", str(ckpt),
            "--iterations", "3", "--batch-size", "8", "--kinetic-lambda", "0.5",
            "--flow-layers", "2", "--flow-hidden", "4", "--mlp-hidden", "8",
            "--context-noise", "0",
        ) == 0
        extra = json.loads(ckpt.read_text())["extra"]["train_config"]
        assert extra["lambda2"] == 0.5

    def test_loss_log_written(self, tmp_path, sir_dataset, tiny_checkpoint):
        loss = Path(str(tiny_checkpoint)).with_suffix(".loss.csv")
        lines = loss.read_text().strip().split("\n")
        assert lines[0] == "iter,total,nll,kinetic,prior,wallclock_ms"
        assert len(lines) == 21

    def test_config_file_flags_lose_to_explicit(self, tmp_path, sir_dataset):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("iterations = 5\nbatch-size = 8\nflow-layers = 2\n"
                       "flow-hidden = 4\nmlp-hidden = 8\ncontext-noise = 0\n")
        ckpt = tmp_path / "cfg.json"
        assert run(
            "train", "--dataset", str(sir_dataset), "--out", str(ckpt),
            "--config", str(cfg), "--iterations", "2",
        ) == 0
        extra = json.loads(ckpt.read_text())["extra"]["train_config"]
        assert extra["iterations"] == 2
        assert extra["batch_size"] == 8

    def test_unconditional_checkpoint_estimates(self, tmp_path):
        moons, ckpt = tmp_path / "moons.csv", tmp_path / "moons.json"
        assert run(
            "simulate", "--system", "two-moons", "--count", "200", "--seed", "2",
            "--out", str(moons),
        ) == 0
        assert run(
            "train", "--dataset", str(moons), "--out", str(ckpt), "--unconditional",
            "--iterations", "5", "--batch-size", "32", "--flow-layers", "2",
        ) == 0
        assert run(
            "estimate", "--checkpoint", str(ckpt), "--dataset", str(moons),
            "--at", "10", "--samples", "50", "--out", str(tmp_path / "est"),
        ) == 0
        assert (tmp_path / "est_samples.csv").exists()

    def test_unknown_config_file_key_exits_2(self, tmp_path, sir_dataset, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma-vee = 1\n")
        with pytest.raises(SystemExit) as exc:
            run("train", "--dataset", str(sir_dataset),
                "--out", str(tmp_path / "x.json"), "--config", str(cfg))
        assert exc.value.code == 2
        assert "--sigma-vee" in capsys.readouterr().err


class TestEstimateRolloutEvaluate:
    def test_estimate_writes_reports(self, tmp_path, sir_dataset, tiny_checkpoint):
        stem = tmp_path / "est"
        assert run(
            "estimate", "--checkpoint", str(tiny_checkpoint),
            "--dataset", str(sir_dataset), "--at", "t=50", "--samples", "200",
            "--seed", "5", "--out", str(stem),
        ) == 0
        summary = json.loads((tmp_path / "est.json").read_text())
        assert summary["n_samples"] == 200
        assert (tmp_path / "est_samples.csv").exists()

    def test_estimate_deterministic(self, tmp_path, sir_dataset, tiny_checkpoint):
        outs = []
        for name in ("e1", "e2"):
            stem = tmp_path / name
            assert run(
                "estimate", "--checkpoint", str(tiny_checkpoint),
                "--dataset", str(sir_dataset), "--at", "30", "--samples", "100",
                "--seed", "9", "--out", str(stem),
            ) == 0
            outs.append((tmp_path / f"{name}_samples.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_rollout_bands(self, tmp_path, sir_dataset, tiny_checkpoint):
        out = tmp_path / "bands.csv"
        assert run(
            "rollout", "--checkpoint", str(tiny_checkpoint),
            "--dataset", str(sir_dataset), "--start", "20", "--steps", "4",
            "--samples", "64", "--seed", "3", "--out", str(out),
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,dim,mean,lo2sigma,hi2sigma"
        assert len(lines) == 1 + 4 * 3

    def test_evaluate_identical_checkpoints_zero_difference(
        self, tmp_path, sir_dataset, tiny_checkpoint
    ):
        out = tmp_path / "eval.csv"
        assert run(
            "evaluate", "--checkpoints", str(tiny_checkpoint), str(tiny_checkpoint),
            "--dataset", str(sir_dataset), "--metric", "nll",
            "--locations", "3", "--samples", "100", "--seed", "11",
            "--out", str(out),
        ) == 0
        rows = out.read_text().strip().split("\n")[1:]
        for row in rows:
            _, a, b = row.split(",")
            assert a == b

    def test_evaluate_mape(self, tmp_path, sir_dataset, tiny_checkpoint):
        out = tmp_path / "mape.csv"
        assert run(
            "evaluate", "--checkpoints", str(tiny_checkpoint),
            "--dataset", str(sir_dataset), "--metric", "mape",
            "--start", "20", "--steps", "3", "--samples", "64", "--seed", "2",
            "--out", str(out),
        ) == 0
        assert out.exists()

    def test_rollout_refuses_horizon_other_than_one(self, tmp_path, sir_dataset, capsys):
        ckpt = tmp_path / "h2.json"
        assert run(
            "train", "--dataset", str(sir_dataset), "--out", str(ckpt),
            "--iterations", "2", "--batch-size", "8", "--horizon", "2",
            "--flow-layers", "2", "--mlp-hidden", "8", "--context-noise", "0",
        ) == 0
        capsys.readouterr()
        assert run(
            "rollout", "--checkpoint", str(ckpt), "--dataset", str(sir_dataset),
            "--start", "20", "--steps", "2", "--samples", "16",
            "--out", str(tmp_path / "bands.csv"),
        ) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("traj", ["99", "-1"])
    @pytest.mark.parametrize("verb", [
        ["estimate", "--at", "20"],
        ["rollout", "--start", "20", "--steps", "2"],
        ["evaluate", "--metric", "mape", "--start", "20", "--steps", "2"],
    ], ids=["estimate", "rollout", "evaluate-mape"])
    def test_traj_out_of_range_exits_2(
        self, tmp_path, sir_dataset, tiny_checkpoint, capsys, verb, traj
    ):
        ckpt_flag = "--checkpoints" if verb[0] == "evaluate" else "--checkpoint"
        capsys.readouterr()
        assert run(
            *verb, ckpt_flag, str(tiny_checkpoint), "--dataset", str(sir_dataset),
            "--traj", traj, "--samples", "16", "--out", str(tmp_path / "out"),
        ) == 2
        assert_one_error_line(capsys)


class TestShowConfig:
    def test_prints_defaults_table(self, capsys):
        assert run("show-config") == 0
        table = json.loads(capsys.readouterr().out)
        assert table["train"]["batch_size"] == 2048
        assert table["train"]["iterations"] == 10000
        assert table["flow"]["n_layers"] == 10
        assert table["window"]["R"] == 5
