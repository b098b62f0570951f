"""Command-line contracts: config strictness, exit codes, reruns, round trips."""

import hashlib
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from ugcn import scenarios
from ugcn.caseio import load_checkpoint, save_checkpoint
from ugcn.cli import main, payload_to_params
from ugcn.errors import NoConvergence, OutsideSanityBand


def run_cli(args, env=None):
    """In-process invocation; returns (exit_code)."""
    return main(args)


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


GEN_ARGS = ["gen", "--task", "forecast", "--case", "ieee33", "--q", "2",
            "--seed", "7", "--t-total", "24",
            "--set", "ops_min=1", "--set", "ops_max=3"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "ds")
    assert run_cli(GEN_ARGS + ["--out", out]) == 0
    return out


class TestGen:
    def test_writes_expected_files(self, dataset):
        files = sorted(os.listdir(dataset))
        assert "manifest.json" in files
        assert sum(f.endswith(".ugcn.json") for f in files) == 2

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        out2 = str(tmp_path / "ds2")
        assert run_cli(GEN_ARGS + ["--out", out2]) == 0
        for name in sorted(os.listdir(dataset)):
            if name.endswith(".ugcn.json"):
                assert sha(os.path.join(dataset, name)) == sha(os.path.join(out2, name))

    def test_parallel_matches_serial(self, dataset, tmp_path):
        out2 = str(tmp_path / "dsj")
        assert run_cli(GEN_ARGS + ["--out", out2, "--jobs", "2"]) == 0
        for name in sorted(os.listdir(dataset)):
            if name.endswith(".ugcn.json"):
                assert sha(os.path.join(dataset, name)) == sha(os.path.join(out2, name))

    def test_unknown_config_key_exits_2(self, tmp_path):
        code = run_cli(GEN_ARGS + ["--out", str(tmp_path / "x"), "--set", "bogus_key=1"])
        assert code == 2

    def test_unknown_key_in_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"q": 1, "mistyped": True}))
        assert run_cli(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_generation_failure_exits_3(self, tmp_path):
        code = run_cli(["gen", "--task", "forecast", "--q", "1", "--t-total", "24",
                        "--set", "ops_min=1", "--set", "ops_max=2",
                        "--set", "node_min=500", "--set", "node_max=600",
                        "--out", str(tmp_path / "x")])
        assert code == 3

    def test_zero_systems_exits_2(self, tmp_path, capsys):
        assert run_cli(GEN_ARGS + ["--out", str(tmp_path / "x"), "--q", "0"]) == 2
        assert "q must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        (["--t-total", "0"], "t_total must be at least 1"),
        (["--set", "ops_min=5", "--set", "ops_max=2"], "bad ops_range (5, 2)"),
    ])
    def test_invalid_generation_config_exits_2(self, tmp_path, capsys, override, message):
        assert run_cli(GEN_ARGS + ["--out", str(tmp_path / "x")] + override) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1

    def test_sanity_band_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scenarios, "SANITY_BAND", (0.999, 1.001))
        assert run_cli(GEN_ARGS + ["--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "outside the sanity band (0.999, 1.001)" in err
        assert len(err.strip().splitlines()) == 1

    def test_generation_errors_survive_worker_pickling(self):
        # `gen --jobs N` sends a worker's exception back to the parent by pickle
        for exc in (NoConvergence(3, 0.5), OutsideSanityBand((0.5, 1.5), 0.4, 1.0)):
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc)
            assert str(back) == str(exc) and back.__dict__ == exc.__dict__

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        assert "epochs=280" in out
        assert "lr=0.002" in out

    def test_env_seed_is_last_resort(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UGCN_SEED", "7")
        out_env = str(tmp_path / "env")
        assert run_cli(["gen", "--task", "forecast", "--q", "1", "--t-total", "24",
                        "--set", "ops_min=1", "--set", "ops_max=2",
                        "--out", out_env]) == 0
        out_flag = str(tmp_path / "flag")
        assert run_cli(["gen", "--task", "forecast", "--q", "1", "--t-total", "24",
                        "--set", "ops_min=1", "--set", "ops_max=2",
                        "--seed", "7", "--out", out_flag]) == 0
        assert sha(os.path.join(out_env, "system_000.ugcn.json")) == \
            sha(os.path.join(out_flag, "system_000.ugcn.json"))


TRAIN_SETS = ["--set", "epochs=3", "--set", "batch_systems=2",
              "--set", "windows_per_system=2", "--set", "widths=[10,6,6]",
              "--set", "pooled_nodes=4", "--set", "hidden=12",
              "--set", "early_stop_patience=99"]


class TestTrainEval:
    def test_train_eval_report_round_trip(self, dataset, tmp_path):
        ckpt = str(tmp_path / "m.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", ckpt, "--seed", "1"] + TRAIN_SETS) == 0
        assert os.path.exists(ckpt)
        hist = ckpt.replace(".json", "") + ".history.csv"
        hist = str(tmp_path / "m.ckpt.history.csv")
        assert os.path.exists(hist)
        lines = open(hist).read().strip().splitlines()
        assert lines[0] == "epoch,loss,val_loss"
        assert len(lines) == 4

        report = str(tmp_path / "rep.json")
        csv_out = str(tmp_path / "rep.csv")
        assert run_cli(["eval", "--checkpoint", ckpt, "--data", dataset,
                        "--out", report, "--csv", csv_out,
                        "--set", "horizons=[0,1]", "--set", "stride=8"]) == 0
        doc = json.loads(open(report).read())
        assert doc["task"] == "forecast"
        assert set(doc["horizons"]) == {"0", "1"}
        rows = open(csv_out).read().strip().splitlines()
        assert rows[0] == "model,horizon,mse"
        assert len(rows) == 3

        assert run_cli(["report", report, report, "--csv",
                        str(tmp_path / "merged.csv")]) == 0

    def test_resume_matches_uninterrupted(self, dataset, tmp_path):
        full = str(tmp_path / "full.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", full, "--seed", "3", "--epochs", "4"]
                       + TRAIN_SETS[2:]) == 0
        part = str(tmp_path / "part.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", part, "--seed", "3", "--epochs", "2"]
                       + TRAIN_SETS[2:]) == 0
        resumed = str(tmp_path / "resumed.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", resumed, "--seed", "3", "--epochs", "4",
                        "--resume", part] + TRAIN_SETS[2:]) == 0
        a = load_checkpoint(full)["params"]
        b = load_checkpoint(resumed)["params"]
        assert a == b

    def test_resume_reads_checkpoint_with_best_params_copy(self, dataset, tmp_path):
        """Checkpoints that still store resume_state.best.params resume as before."""
        args = ["train", "--task", "forecast", "--data", dataset, "--seed", "3"] + TRAIN_SETS[2:]
        full = str(tmp_path / "full.ckpt.json")
        assert run_cli(args + ["--out", full, "--epochs", "4"]) == 0
        part = str(tmp_path / "part.ckpt.json")
        assert run_cli(args + ["--out", part, "--epochs", "2"]) == 0
        ck = load_checkpoint(part)
        ck["resume_state"]["best"]["params"] = ck["params"]
        save_checkpoint(part, ck)
        resumed = str(tmp_path / "resumed.ckpt.json")
        assert run_cli(args + ["--out", resumed, "--epochs", "4", "--resume", part]) == 0
        assert load_checkpoint(full)["params"] == load_checkpoint(resumed)["params"]

    def test_checkpoint_holds_four_parameter_copies(self, dataset, tmp_path):
        """Best (top-level), last, and the two Adam moments; no second best copy."""
        ckpt = str(tmp_path / "m.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", ckpt, "--seed", "1"] + TRAIN_SETS) == 0
        ck = load_checkpoint(ckpt)
        per_copy = sum(t.size * (2 if np.iscomplexobj(t) else 1)
                       for t in payload_to_params(ck["params"]).tensors().values())

        def stored(node):
            if isinstance(node, dict):
                if "shape" in node and "re" in node:
                    return len(node["re"]) + len(node.get("im", []))
                return sum(stored(v) for v in node.values())
            if isinstance(node, list):
                return sum(stored(v) for v in node)
            return 0

        assert "params" not in ck["resume_state"]["best"]
        assert stored(ck) == 4 * per_copy

    def test_dense_resume_exits_2(self, dataset, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", ckpt, "--seed", "1"] + TRAIN_SETS) == 0
        capsys.readouterr()
        assert run_cli(["train", "--task", "forecast", "--model", "dense",
                        "--data", dataset, "--out", str(tmp_path / "d.ckpt.json"),
                        "--resume", ckpt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "ugcn training only" in err
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "d.ckpt.json")

    def test_series_too_short_exits_2(self, tmp_path, capsys):
        data = str(tmp_path / "short")
        gen = list(GEN_ARGS)
        gen[gen.index("--t-total") + 1] = "5"
        assert run_cli(gen + ["--out", data]) == 0
        capsys.readouterr()
        assert run_cli(["train", "--task", "forecast", "--data", data,
                        "--out", str(tmp_path / "m.ckpt.json")] + TRAIN_SETS) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: system 0 has t_total 5")
        assert "at least 12" in err and err.count("\n") == 1

    def test_eval_series_too_short_exits_2(self, dataset, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", ckpt, "--seed", "1"] + TRAIN_SETS) == 0
        data = str(tmp_path / "short")
        gen = list(GEN_ARGS)
        gen[gen.index("--t-total") + 1] = "12"
        assert run_cli(gen + ["--out", data]) == 0
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert run_cli(["eval", "--checkpoint", ckpt, "--data", data,
                        "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: system 0 has t_total 12")
        assert "at least 15" in err and err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("model", ["ugcn", "dense"])
    def test_diverged_training_exits_4(self, dataset, tmp_path, capsys, model):
        ckpt = tmp_path / "m.ckpt.json"
        with np.errstate(all="ignore"):
            code = run_cli(["train", "--task", "forecast", "--model", model,
                            "--data", dataset, "--out", str(ckpt), "--seed", "1"]
                           + TRAIN_SETS + ["--set", "lr=1e300", "--set", "dense_hidden=16",
                                           "--set", "dense_depth=1"])
        assert code == 4
        assert capsys.readouterr().err.startswith("training diverged: loss diverged at epoch")
        # ugcn keeps the best finite parameters; the dense baseline writes nothing
        assert ckpt.exists() == (model == "ugcn")
        if model == "ugcn":
            assert "diverged_at" in load_checkpoint(str(ckpt))

    @pytest.mark.parametrize("override", [["--epochs", "0"], ["--set", "lr=0"]])
    def test_invalid_train_config_exits_2(self, dataset, tmp_path, capsys, override):
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", str(tmp_path / "m.ckpt.json")] + TRAIN_SETS + override) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_missing_checkpoint_exits_2(self, dataset, tmp_path, capsys):
        assert run_cli(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                        "--data", dataset, "--out", str(tmp_path / "r.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_resume_without_resume_state_exits_2(self, dataset, tmp_path, capsys):
        diverged = str(tmp_path / "diverged.ckpt.json")
        save_checkpoint(diverged, {"model": "ugcn", "task": "forecast", "diverged_at": 1})
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", str(tmp_path / "m.ckpt.json"),
                        "--resume", diverged] + TRAIN_SETS) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "no resume state" in err

    def test_missing_dataset_exits_2(self, tmp_path):
        assert run_cli(["train", "--data", str(tmp_path / "nope"),
                        "--out", str(tmp_path / "m.json")]) == 2

    def test_task_mismatch_exits_2(self, dataset, tmp_path):
        assert run_cli(["train", "--task", "fdi", "--data", dataset,
                        "--out", str(tmp_path / "m.json")] + TRAIN_SETS) == 2

    def test_model_flag_mismatch_exits_2(self, dataset, tmp_path):
        ckpt = str(tmp_path / "m.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", ckpt, "--seed", "1"] + TRAIN_SETS) == 0
        assert run_cli(["eval", "--checkpoint", ckpt, "--data", dataset,
                        "--out", str(tmp_path / "r.json"),
                        "--model", "dense"]) == 2

    def test_dense_baseline_path(self, dataset, tmp_path):
        ckpt = str(tmp_path / "d.ckpt.json")
        assert run_cli(["train", "--task", "forecast", "--model", "dense",
                        "--data", dataset, "--out", ckpt, "--seed", "1",
                        "--set", "epochs=3", "--set", "windows_per_system=2",
                        "--set", "dense_hidden=16", "--set", "dense_depth=1"]) == 0
        report = str(tmp_path / "d.json")
        assert run_cli(["eval", "--checkpoint", ckpt, "--data", dataset,
                        "--out", report, "--set", "horizons=[1]",
                        "--set", "stride=8"]) == 0
        assert json.loads(open(report).read())["model"] == "dense"


class TestReportCmd:
    def test_not_a_report_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli(["report", str(bad)]) == 2

    def test_entry_point_runs(self):
        # the child imports the package this process imported, installed or not
        root = os.path.dirname(os.path.dirname(scenarios.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "ugcn.cli", "--help"],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0
        assert "gen" in out.stdout
