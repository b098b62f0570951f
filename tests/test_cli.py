"""Command-line contracts: config strictness, exit codes, reruns, round trips."""

import hashlib
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from ugcn import cli, scenarios
from ugcn.caseio import (
    F64Block,
    encode_array,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from ugcn.cli import main, payload_to_params
from ugcn.errors import NoConvergence, OutsideSanityBand
from ugcn.training import MetricsReport


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

    def test_rerun_into_same_directory_drops_earlier_systems(self, tmp_path):
        out = str(tmp_path / "d")
        base = ["gen", "--task", "forecast", "--case", "ieee33", "--t-total", "24", "--out", out]
        assert run_cli(base + ["--q", "4", "--seed", "1"]) == 0
        assert run_cli(base + ["--q", "2", "--seed", "9"]) == 0
        systems, _ = cli.load_dataset_dir(out)
        assert [s.seed for s in systems] == [9, 9]
        assert sorted(os.listdir(out)) == ["manifest.json", "system_000.ugcn.json",
                                           "system_001.ugcn.json"]

    def test_parallel_matches_serial(self, dataset, tmp_path):
        out2 = str(tmp_path / "dsj")
        assert run_cli(GEN_ARGS + ["--out", out2, "--jobs", "2"]) == 0
        for name in sorted(os.listdir(dataset)):
            if name.endswith(".ugcn.json"):
                assert sha(os.path.join(dataset, name)) == sha(os.path.join(out2, name))

    @pytest.mark.parametrize("q, jobs, cpus, workers", [
        (2, 5000, 4, 2), (3, 5000, 2, 2), (3, 2, 8, 2), (3, 5000, None, None), (1, 4, 4, None),
    ])
    def test_worker_count_capped_at_q_and_cpu_count(self, tmp_path, monkeypatch,
                                                     q, jobs, cpus, workers):
        """The pool forks every worker up front, so `--jobs` is capped; the fake
        pool records its size and runs the systems in this process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out, serial = str(tmp_path / "d"), str(tmp_path / "s")
        assert run_cli(GEN_ARGS + ["--out", out, "--q", str(q), "--jobs", str(jobs)]) == 0
        assert sizes == ([] if workers is None else [workers])
        assert run_cli(GEN_ARGS + ["--out", serial, "--q", str(q)]) == 0
        written = sorted(f for f in os.listdir(out) if f.endswith(".ugcn.json"))
        assert len(written) == q
        for name in written:
            assert sha(os.path.join(serial, name)) == sha(os.path.join(out, name))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_before_work(self, tmp_path, capsys, jobs):
        out = tmp_path / "x"
        assert run_cli(GEN_ARGS + ["--out", str(out), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_ieee39_seed_2_failure_unchanged(self, tmp_path, capsys):
        """System 4 fails at every demand scale, from the predicted and from the
        flat start alike, and reports the flat start's last Newton run.  The
        systems before it are written as a run that stops short of it writes
        them, bit for bit apart from the echoed `q`, and the manifest names the
        failed one; the pool gives the same."""
        args = ["gen", "--task", "fdi", "--case", "ieee39", "--seed", "2", "--t-total", "96"]
        out, short = tmp_path / "x", tmp_path / "q4"
        assert run_cli(args + ["--q", "5", "--jobs", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "generation failed: system 4 failed at demand scales 0.55, 0.4675, 0.3974, "
            "0.3378; last power flow: no convergence after 9 iterations (mismatch 3.657e-02)\n")
        assert run_cli(args + ["--q", "4", "--out", str(short)]) == 0
        names = [f"system_{i:03d}.ugcn.json" for i in range(4)]
        assert sorted(os.listdir(out)) == ["manifest.json"] + names
        for name in names:
            want = load_dataset(str(short / name))
            assert load_dataset(str(out / name)) == {**want, "config": {**want["config"], "q": 5}}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == [4] and manifest["systems"] == 4
        assert json.loads((short / "manifest.json").read_text())["failed"] == []

    def test_unknown_config_key_exits_2(self, tmp_path):
        code = run_cli(GEN_ARGS + ["--out", str(tmp_path / "x"), "--set", "bogus_key=1"])
        assert code == 2

    def test_unknown_key_in_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"q": 1, "mistyped": True}))
        assert run_cli(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_case_file_warnings_go_to_stderr(self, tmp_path, capsys):
        from importlib import resources
        case = tmp_path / "feeder.case.json"
        doc = json.loads(resources.files("ugcn.cases").joinpath("ieee33.case.json").read_text())
        out = tmp_path / "d"
        args = ["gen", "--case", str(case), "--q", "1", "--seed", "7", "--t-total", "24",
                "--set", "ops_min=1", "--set", "ops_max=3", "--out", str(out)]
        case.write_text(json.dumps(doc))
        assert run_cli(args) == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        written = {name: sha(out / name) for name in os.listdir(out)}
        case.write_text(json.dumps({**doc, "color": "red"}))
        assert run_cli(args) == 0
        flagged = capsys.readouterr()
        assert flagged.err == "warning: ignored unknown case key 'color'\n"
        assert flagged.out == clean.out
        assert {name: sha(out / name) for name in os.listdir(out)} == written

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
        (["--set", "noise_sigma=-0.5"], "noise_sigma must be nonnegative, got -0.5"),
    ])
    def test_invalid_generation_config_exits_2(self, tmp_path, capsys, override, message):
        assert run_cli(GEN_ARGS + ["--out", str(tmp_path / "x")] + override) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("task", ["forecast", "fdi"])
    def test_explicit_kind_is_kept(self, tmp_path, capsys, task):
        """`kind=distribution` on a transmission case is refused alike for both
        tasks, not replaced by the case's kind, and before any output exists."""
        out = tmp_path / "x"
        assert run_cli(["gen", "--task", task, "--case", "ieee30", "--q", "1",
                        "--t-total", "24", "--set", "kind=distribution", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: case 'ieee30' does not make a distribution graph: "
            "distribution graph requires a root bus\n")
        assert not out.exists()

    def test_sanity_band_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scenarios, "SANITY_BAND", (0.999, 1.001))
        assert run_cli(GEN_ARGS + ["--out", str(tmp_path / "x")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            assert line.startswith(f"generation failed: system {i}: |v| spans ")
            assert line.endswith("outside the sanity band (0.999, 1.001)")

    def test_non_convergence_names_system_and_demand_scales(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli(["gen", "--case", "ieee33", "--q", "2", "--t-total", "12",
                        "--set", "demand_scale=20", "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            assert line.startswith(f"generation failed: system {i} failed at demand scales "
                                   "20, 17, 14.45, 12.28; last power flow: no convergence after")
        assert not any(f.endswith(".ugcn.json") for f in os.listdir(out))

    def test_generation_errors_survive_worker_pickling(self):
        # `gen --jobs N` sends a worker's exception back to the parent by pickle
        for exc in (NoConvergence(3, 0.5), NoConvergence(3, 0.5, "system 4"),
                    OutsideSanityBand((0.5, 1.5), 0.4, 1.0)):
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

    def test_resumed_checkpoint_is_byte_identical(self, dataset, tmp_path):
        """A 4 -> 7 resumed run writes the file of the 7-epoch run: the
        optimizer moments come back in parameter order, as a fresh run makes them."""
        args = ["train", "--task", "forecast", "--data", dataset, "--seed", "5"] + TRAIN_SETS[2:]
        full, part, resumed = (str(tmp_path / f"{name}.ckpt.json")
                               for name in ("full", "part", "resumed"))
        assert run_cli(args + ["--out", full, "--epochs", "7"]) == 0
        assert run_cli(args + ["--out", part, "--epochs", "4"]) == 0
        assert run_cli(args + ["--out", resumed, "--epochs", "7", "--resume", part]) == 0
        assert sha(resumed) == sha(full)

    def test_resume_reads_checkpoint_with_best_params_copy(self, dataset, tmp_path):
        """Checkpoints in older layouts resume as before: they may store
        resume_state.best.params, train_config.center and Adam's betas and eps."""
        args = ["train", "--task", "forecast", "--data", dataset, "--seed", "3"] + TRAIN_SETS[2:]
        full = str(tmp_path / "full.ckpt.json")
        assert run_cli(args + ["--out", full, "--epochs", "4"]) == 0
        part = str(tmp_path / "part.ckpt.json")
        assert run_cli(args + ["--out", part, "--epochs", "2"]) == 0
        ck = load_checkpoint(part)
        ck["resume_state"]["best"]["params"] = ck["params"]
        ck["train_config"]["center"] = True
        ck["resume_state"]["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-8)
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
                       for t in payload_to_params(ck["params"]).values())

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

    def test_diverged_checkpoint_keeps_the_epochs_that_ran(self, dataset, tmp_path):
        """A run that diverges at epoch k saves k history rows: those of the
        same run stopped after k epochs."""
        args = (["train", "--task", "forecast", "--data", dataset, "--seed", "1"] + TRAIN_SETS
                + ["--set", "lr=1e60", "--set", "lr_decay=1.0"])
        ckpt, short = str(tmp_path / "div.ckpt.json"), str(tmp_path / "short.ckpt.json")
        with np.errstate(all="ignore"):
            assert run_cli(args + ["--out", ckpt]) == 4
            ck = load_checkpoint(ckpt)
            k = ck["diverged_at"]
            assert k >= 1 and len(ck["history"]) == k
            assert run_cli(args + ["--out", short, "--epochs", str(k)]) == 0
        ref = load_checkpoint(short)
        assert ck["history"] == ref["history"]
        assert ck["layer_config"] == ref["layer_config"]
        assert "resume_state" not in ck

    def test_forecast_report_records_the_trained_horizon(self, dataset, tmp_path, capsys):
        """eval and report print the horizon the checkpoint was trained for,
        and eval still scores every horizon asked for."""
        ckpt, report = str(tmp_path / "m.ckpt.json"), str(tmp_path / "r.json")
        assert run_cli(["train", "--task", "forecast", "--data", dataset, "--out", ckpt,
                        "--seed", "1", "--horizon", "2"] + TRAIN_SETS) == 0
        capsys.readouterr()
        assert run_cli(eval_args(ckpt, dataset, report)) == 0
        doc = json.loads(open(report).read())
        assert doc["config"]["trained_horizon"] == 2
        assert set(doc["horizons"]) == {"0", "1"}
        assert capsys.readouterr().out.splitlines()[1] == "  ugcn trained at H=2"
        assert run_cli(["report", report]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "  ugcn trained at H=2"

    @pytest.mark.parametrize("override", [
        ["--epochs", "0"], ["--set", "lr=0"], ["--set", "widths=[10,48]"],
        ["--set", "pooling=foo"], ["--set", "pooled_nodes=0"], ["--set", "k_spatial=-1"],
    ])
    def test_invalid_train_config_exits_2(self, dataset, tmp_path, capsys, override):
        ckpt = tmp_path / "m.ckpt.json"
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", str(ckpt)] + TRAIN_SETS + override) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not ckpt.exists()

    def test_first_width_other_than_window_exits_2(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt.json"
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", str(ckpt)] + TRAIN_SETS + ["--set", "widths=[12,6,6]"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: widths[0] must equal the feature window of 10")
        assert err.count("\n") == 1
        assert not ckpt.exists()

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


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    ckpt = str(tmp_path_factory.mktemp("ckpt") / "m.ckpt.json")
    assert run_cli(["train", "--task", "forecast", "--data", dataset,
                    "--out", ckpt, "--seed", "1"] + TRAIN_SETS) == 0
    return ckpt


@pytest.mark.parametrize("command, override, message", [
    ("train", ["--set", "batch_systems=0"], "batch_systems must be at least 1, got 0"),
    ("train", ["--set", "windows_per_system=0"], "windows_per_system must be at least 1, got 0"),
    ("train", ["--horizon", "-1"], "horizon must be nonnegative, got -1"),
    ("eval", ["--set", "stride=0"], "stride must be at least 1, got 0"),
    ("eval", ["--set", "horizons=[-3]"], "horizons must be nonnegative integers, got [-3]"),
    ("eval", ["--set", "threshold=1.5"], "threshold must lie strictly between 0 and 1, got 1.5"),
    ("eval", ["--set", "threshold=0"], "threshold must lie strictly between 0 and 1, got 0.0"),
    ("eval", ["--set", "max_attacks=-1"],
     "max_attacks must be nonnegative (0 replays every attack), got -1"),
    ("train", ["--model", "dense", "--set", "dense_hidden=-5"],
     "dense_hidden must be at least 1, got -5"),
    ("train", ["--model", "dense", "--set", "dense_depth=-2"],
     "dense_depth must be nonnegative, got -2"),
    ("eval", ["--set", "horizons=[]"], "horizons must not be empty"),
    ("eval", ["--set", "omegas=[]"], "omegas must not be empty"),
    ("eval", ["--set", 'omegas=["a"]'], "omegas must be finite numbers, got ['a']"),
    ("train", ["--set", "lr_decay=0"], "lr_decay must be positive and finite, got 0.0"),
    ("train", ["--set", "attack_prob=1.5"], "attack_prob must lie between 0 and 1, got 1.5"),
    ("eval", ["--set", "omegas=[0.5, NaN]"], "omegas must be finite numbers, got [0.5, nan]"),
    ("train", ["--set", "lr=nan"], "lr must be positive and finite, got nan"),
    ("train", ["--set", "lr_decay=inf"], "lr_decay must be positive and finite, got inf"),
    ("train", ["--set", "early_stop_patience=0"], "early_stop_patience must be at least 1, got 0"),
    ("train", ["--set", "k_temporal=20"],
     "layers * k_temporal must stay below the feature window of 10 steps, got 2 * 20"),
    ("gen", ["--set", "noise_sigma=nan"], "noise_sigma must be finite, got nan"),
    ("gen", ["--set", "noise_sigma=inf"], "noise_sigma must be finite, got inf"),
    ("gen", ["--set", "demand_scale=-1"], "demand_scale must be positive and finite, got -1.0"),
    ("gen", ["--set", "demand_scale=nan"], "demand_scale must be positive and finite, got nan"),
    ("gen", ["--scenario", "pmu", "--set", "pmu_fraction=2"],
     "pmu_fraction must lie in (0, 1], got 2.0"),
    ("gen", ["--set", "pmu_fraction=-0.5"], "pmu_fraction must lie in (0, 1], got -0.5"),
    ("gen", ["--task", "fdi", "--case", "ieee30", "--set", "attacks_per_system=-2"],
     "attacks_per_system must be nonnegative, got -2"),
    ("gen", ["--set", "node_min=200"],
     "bad node_bounds (200, 38): need node_min <= node_max"),
    ("gen", ["--set", "ops_min=5", "--set", "ops_max=2"],
     "bad ops_range (5, 2): need 0 <= ops_min <= ops_max"),
    ("gen", ["--set", "node_min=1"], "node_min must be at least 2, got 1"),
])
def test_out_of_range_numbers_exit_2(dataset, checkpoint, tmp_path, capsys,
                                     command, override, message):
    out = tmp_path / "out.json"
    if command == "train":
        args = ["train", "--task", "forecast", "--data", dataset, "--out", str(out)] + TRAIN_SETS
    elif command == "gen":
        args = ["gen", "--q", "1", "--t-total", "12", "--out", str(tmp_path / "out")]
    else:
        args = ["eval", "--checkpoint", checkpoint, "--data", dataset, "--out", str(out)]
    capsys.readouterr()
    assert run_cli(args + override) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def dense_checkpoint(dataset, tmp_path_factory):
    ckpt = str(tmp_path_factory.mktemp("dense") / "d.ckpt.json")
    assert run_cli(["train", "--task", "forecast", "--model", "dense",
                    "--data", dataset, "--out", ckpt, "--seed", "1",
                    "--set", "epochs=3", "--set", "windows_per_system=2",
                    "--set", "dense_hidden=16", "--set", "dense_depth=1"]) == 0
    return ckpt


def relabelled_copy(src, dst, task, first_only=False):
    """Copy of dataset `src` whose files (or only the first) claim `task`."""
    os.makedirs(dst)
    names = sorted(n for n in os.listdir(src) if n.endswith(".ugcn.json"))
    for i, name in enumerate(names):
        payload = load_dataset(os.path.join(src, name))
        if i == 0 or not first_only:
            payload["task"] = task
        save_dataset(os.path.join(dst, name), payload)
    return dst


def eval_args(ckpt, data, out):
    return ["eval", "--checkpoint", ckpt, "--data", data, "--out", out,
            "--set", "horizons=[0,1]", "--set", "stride=8"]


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestInputChecks:
    def test_center_key_is_unknown(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.ckpt.json"
        assert run_cli(["train", "--task", "forecast", "--data", dataset, "--out", str(out)]
                       + TRAIN_SETS + ["--set", "center=false"]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'center'\n"
        assert os.listdir(tmp_path) == []

    def test_eval_refuses_dataset_of_other_task(self, dataset, checkpoint, tmp_path, capsys):
        data = relabelled_copy(dataset, str(tmp_path / "fdi"), "fdi")
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run_cli(eval_args(checkpoint, data, str(report))) == 2
        err = one_line_error(capsys, "config error: dataset was generated for task 'fdi'")
        assert "'forecast' model" in err
        assert not report.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mixed_task_directory_exits_2(self, dataset, checkpoint, tmp_path, capsys, command):
        data = relabelled_copy(dataset, str(tmp_path / "mixed"), "fdi", first_only=True)
        out = tmp_path / "out.json"
        if command == "train":
            args = ["train", "--task", "forecast", "--data", data, "--out", str(out)] + TRAIN_SETS
        else:
            args = eval_args(checkpoint, data, str(out))
        capsys.readouterr()
        assert run_cli(args) == 2
        err = one_line_error(capsys, f"config error: dataset {data!r} mixes tasks")
        assert "system_000.ugcn.json holds 'fdi'" in err
        assert "system_001.ugcn.json holds 'forecast'" in err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["train_config", "dense"])
    def test_uncentered_checkpoint_refused(self, dataset, checkpoint, dense_checkpoint,
                                           tmp_path, capsys, section):
        ck = load_checkpoint(checkpoint if section == "train_config" else dense_checkpoint)
        ck[section]["center"] = False
        old = str(tmp_path / "old.ckpt.json")
        save_checkpoint(old, ck)
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run_cli(eval_args(old, dataset, str(report))) == 2
        one_line_error(capsys, f"config error: checkpoint {old!r} was trained on uncentered")
        assert not report.exists()
        if section == "train_config":
            out = tmp_path / "m.ckpt.json"
            assert run_cli(["train", "--task", "forecast", "--data", dataset,
                            "--out", str(out), "--resume", old] + TRAIN_SETS) == 2
            one_line_error(capsys, "config error: checkpoint")
            assert not out.exists()

    def test_more_clusters_than_buses(self, dataset, tmp_path, capsys):
        """Clustered pooling into more clusters than the smallest system has
        buses: train refuses it, fresh or resumed, before any epoch, and eval
        of a checkpoint trained on larger systems exits 5."""
        systems, _ = cli.load_dataset_dir(dataset)
        small, big = min(systems, key=lambda s: s.n), max(systems, key=lambda s: s.n)
        k = small.n + 1
        args = (["train", "--task", "forecast", "--seed", "1"] + TRAIN_SETS
                + ["--set", "pooling=custom", "--set", f"pooled_nodes={k}"])
        refused = (f"config error: pooled_nodes {k} is more than the {small.n} buses "
                   f"of system {small.index}, the smallest\n")
        out = tmp_path / "m.ckpt.json"
        capsys.readouterr()
        assert run_cli(args + ["--data", dataset, "--out", str(out)]) == 2
        assert capsys.readouterr().err == refused
        assert not out.exists()

        one = tmp_path / "one"
        os.makedirs(one)
        name = f"system_{big.index:03d}.ugcn.json"
        (one / name).write_bytes(open(os.path.join(dataset, name), "rb").read())
        ckpt = str(tmp_path / "one.ckpt.json")
        assert run_cli(args + ["--data", str(one), "--out", ckpt]) == 0
        capsys.readouterr()
        assert run_cli(args + ["--data", dataset, "--out", str(out), "--epochs", "5",
                               "--resume", ckpt]) == 2
        assert capsys.readouterr().err == refused
        assert not out.exists()
        report = tmp_path / "r.json"
        assert run_cli(eval_args(ckpt, dataset, str(report))) == 5
        one_line_error(capsys, "checkpoint incompatible with dataset: "
                               f"cannot pool {small.n} nodes into {k} clusters")
        assert not report.exists()

    @pytest.mark.parametrize("model", ["ugcn", "dense"])
    def test_checkpoint_in_older_layout_evaluates_the_same(
            self, dataset, checkpoint, dense_checkpoint, tmp_path, model):
        """Checkpoints that still record center, the dense window and Adam's
        betas and eps evaluate as before."""
        path = checkpoint if model == "ugcn" else dense_checkpoint
        ck = load_checkpoint(path)
        if model == "ugcn":
            ck["train_config"]["center"] = True
            ck["resume_state"]["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-8)
        else:
            ck["dense"].update(window=10, center=True)
        old = str(tmp_path / "old.ckpt.json")
        save_checkpoint(old, ck)
        reports = []
        for i, ckpt in enumerate((path, old)):
            out = str(tmp_path / f"r{i}.json")
            assert run_cli(eval_args(ckpt, dataset, out)) == 0
            reports.append(json.loads(open(out).read()))
        assert reports[0] == reports[1]


    def test_dataset_with_op_log_pairs_in_the_blob_trains_and_evaluates(
            self, dataset, tmp_path):
        """Older datasets hold the op_log's float pairs in the blob; they train
        and evaluate as today's files, which keep them in the JSON head."""
        old = tmp_path / "old"
        os.makedirs(old)
        for name in sorted(n for n in os.listdir(dataset) if n.endswith(".ugcn.json")):
            payload = load_dataset(os.path.join(dataset, name))
            for op in payload["system"]["op_log"]:
                op.update((k, F64Block(np.array(op[k]))) for k in ("z", "delta", "tie_z") if k in op)
            save_dataset(str(old / name), payload)
        assert type(load_dataset(str(old / "system_000.ugcn.json"))
                    ["system"]["op_log"][1]["tie_z"]) is F64Block
        ckpts, reports = [], []
        for data in (dataset, str(old)):
            ckpt, out = str(tmp_path / f"{len(ckpts)}.ckpt.json"), str(tmp_path / "r.json")
            assert run_cli(["train", "--task", "forecast", "--data", data, "--out", ckpt,
                            "--seed", "1"] + TRAIN_SETS) == 0
            assert run_cli(eval_args(ckpt, data, out)) == 0
            ckpts.append(open(ckpt, "rb").read())
            reports.append(json.loads(open(out).read()))
        assert ckpts[0] == ckpts[1]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("edit, message", [
        ({"color": 1}, ": layer_config: unknown layer config key 'color'"),
        ({"hidden": 128}, ": tensor 'b_enc' is (12,) in the file but (128,) by its layer_config"),
        ({"k_spatial": 1},
         ": tensor 'conv.0' is (4, 3, 10, 6) in the file but (2, 3, 10, 6) by its layer_config"),
        ({"pooling": "custom"}, ": tensor 'assign' is (4, 6) in the file but absent by its "
                                "layer_config"),
        ({"layers": 3}, ": layer_config: widths (10, 6, 6) inconsistent with 3 layers"),
        ("no w_t", ": tensor 'w_t' is absent in the file but (12, 12) by its layer_config"),
        ("no layer_config", " has no layer_config"),
        ("b_out shape", ": unreadable parameters: tensor of shape [3] holds 2 values"),
    ], ids=["unknown-key", "hidden", "k_spatial", "pooling", "layers", "no-w_t",
            "no-layer_config", "b_out-shape"])
    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_checkpoint_layer_config_checked_against_tensors(
            self, dataset, checkpoint, tmp_path, capsys, edit, message, command):
        ck = load_checkpoint(checkpoint)
        if edit == "no w_t":
            del ck["params"]["head"]["w_t"]
            del ck["resume_state"]["last_params"]["head"]["w_t"]
        elif edit == "no layer_config":
            del ck["layer_config"]
        elif edit == "b_out shape":
            ck["params"]["head"]["b_out"]["shape"] = [3]
            ck["resume_state"]["last_params"]["head"]["b_out"]["shape"] = [3]
        else:
            ck["layer_config"].update(edit)
        bad = str(tmp_path / "bad.ckpt.json")
        save_checkpoint(bad, ck)
        out = tmp_path / "out.json"
        if command == "eval":
            args = eval_args(bad, dataset, str(out))
        else:
            args = (["train", "--task", "forecast", "--data", dataset, "--out", str(out),
                     "--resume", bad] + TRAIN_SETS)
        capsys.readouterr()
        assert run_cli(args) == 2
        one_line_error(capsys, f"config error: checkpoint {bad!r}{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "resume", "resume-moment"])
    def test_tensor_shape_disagreeing_with_its_values_exits_2(
            self, dataset, checkpoint, tmp_path, capsys, command):
        """A dataset tensor (train, eval) or an optimizer moment (resume) whose
        shape does not fit its values, or a well-formed moment whose shape
        does not fit its parameter (resume-moment), ends in one line naming
        the file."""
        out = tmp_path / "out.json"
        if command.startswith("resume"):
            ck = load_checkpoint(checkpoint)
            moments = ck["resume_state"]["optimizer"]["m"]
            if command == "resume":
                moments["b_out"]["shape"] = [moments["b_out"]["shape"][0] + 1]
                message = "unreadable optimizer state: tensor of shape [3] holds 2 values"
            else:
                moments["b_out"] = encode_array(np.zeros(3))
                message = ("tensor 'b_out' is (3,) in the file but (2,) by its parameters "
                           "(optimizer moment m)")
            bad = str(tmp_path / "bad.ckpt.json")
            save_checkpoint(bad, ck)
            # past the checkpoint's 3 epochs, so a moment left unchecked meets Adam
            args = (["train", "--task", "forecast", "--data", dataset, "--out", str(out),
                     "--resume", bad, "--epochs", "5"] + TRAIN_SETS)
            prefix = f"config error: checkpoint {bad!r}: {message}\n"
        else:
            data = relabelled_copy(dataset, str(tmp_path / "data"), "forecast")
            bad = os.path.join(data, "system_000.ugcn.json")
            payload = load_dataset(bad)
            shape = payload["system"]["estimates"]["shape"]
            values = shape[0] * shape[1]
            shape[0] += 1
            save_dataset(bad, payload)
            if command == "train":
                args = (["train", "--task", "forecast", "--data", data, "--out", str(out)]
                        + TRAIN_SETS)
            else:
                args = eval_args(checkpoint, data, str(out))
            prefix = f"bad input file: {bad}: tensor of shape {shape} holds {values} values\n"
        capsys.readouterr()
        assert run_cli(args) == 2
        one_line_error(capsys, prefix)
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ("no bus_slots", ": unreadable dense model: 'bus_slots'"),
        ("no weights", ": unreadable dense model: 'weights'"),
        ("no biases", ": unreadable dense model: 'biases'"),
        ("no task", ": unreadable dense model: 'task'"),
        ("3 bus_slots fewer", ": tensor 'b1' is (68,) in the file but (62,) by its 31 bus_slots, "
                              "dense_hidden 16 and dense_depth 1"),
        ("no last layer", ": tensor 'b1' is absent in the file but (68,) by its 34 bus_slots, "
                          "dense_hidden 16 and dense_depth 1"),
        ("bias shape", ": tensor 'b0' is (15,) in the file but (16,) by its 34 bus_slots, "
                       "dense_hidden 16 and dense_depth 1"),
        ("one bias fewer", ": tensor 'b1' is absent in the file but (68,) by its 34 bus_slots, "
                           "dense_hidden 16 and dense_depth 1"),
        ("task fdi", ": dense model of task 'fdi' in a 'forecast' checkpoint"),
        ("bias values", ": unreadable dense model: tensor of shape [16] holds 15 values"),
        ("dense_hidden 8", ": tensor 'b0' is (16,) in the file but (8,) by its 34 bus_slots, "
                           "dense_hidden 8 and dense_depth 1"),
        ("no dense_depth", ": unreadable dense model: 'dense_depth'"),
    ], ids=["no-bus_slots", "no-weights", "no-biases", "no-task", "bus_slots-3", "no-last-layer",
            "bias-shape", "one-bias-fewer", "task-fdi", "bias-values", "dense_hidden",
            "no-dense_depth"])
    def test_dense_checkpoint_checked(self, dataset, dense_checkpoint, tmp_path, capsys,
                                      edit, message):
        ck = load_checkpoint(dense_checkpoint)
        dense = ck["dense"]
        assert len(dense["bus_slots"]) == 34
        if edit == "no dense_depth":
            del ck["train_config"]["dense_depth"]
        elif edit.startswith("no ") and edit != "no last layer":
            del dense[edit[3:]]
        elif edit == "3 bus_slots fewer":
            dense["bus_slots"] = dense["bus_slots"][:-3]
        elif edit == "no last layer":
            del dense["weights"][-1], dense["biases"][-1]
        elif edit == "bias shape":
            dense["biases"][0] = encode_array(np.zeros(15))
        elif edit == "one bias fewer":
            del dense["biases"][-1]
        elif edit == "task fdi":
            dense["task"] = "fdi"
        elif edit == "dense_hidden 8":
            ck["train_config"]["dense_hidden"] = 8
        else:
            dense["biases"][0]["re"] = encode_array(np.zeros(15))["re"]
        bad = str(tmp_path / "bad.ckpt.json")
        save_checkpoint(bad, ck)
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run_cli(eval_args(bad, dataset, str(out))) == 2
        one_line_error(capsys, f"config error: checkpoint {bad!r}{message}\n")
        assert not out.exists()

    def test_checkpoint_layer_config_missing_keys_keep_defaults(
            self, dataset, checkpoint, tmp_path):
        """An older checkpoint without the `outputs` key evaluates the same."""
        ck = load_checkpoint(checkpoint)
        assert ck["layer_config"].pop("outputs") == 2
        old = str(tmp_path / "old.ckpt.json")
        save_checkpoint(old, ck)
        reports = []
        for i, ckpt in enumerate((checkpoint, old)):
            out = str(tmp_path / f"r{i}.json")
            assert run_cli(eval_args(ckpt, dataset, out)) == 0
            reports.append(json.loads(open(out).read()))
        assert reports[0] == reports[1]
        assert set(reports[0]["baselines"]) == {"flat", "carry_forward"}
        for table in reports[0]["baselines"].values():
            assert set(table) == {"0", "1"}


class TestOutputPaths:
    def test_missing_output_directories_are_created(self, dataset, checkpoint, tmp_path):
        ckpt = tmp_path / "a" / "b" / "m.ckpt.json"
        assert run_cli(["train", "--task", "forecast", "--data", dataset,
                        "--out", str(ckpt), "--seed", "1"] + TRAIN_SETS) == 0
        assert ckpt.exists() and (tmp_path / "a" / "b" / "m.ckpt.history.csv").exists()
        report, csv_out = tmp_path / "c" / "r.json", tmp_path / "d" / "r.csv"
        assert run_cli(eval_args(checkpoint, dataset, str(report))
                       + ["--csv", str(csv_out)]) == 0
        assert report.exists() and csv_out.exists()
        table, merged = tmp_path / "e" / "t.txt", tmp_path / "f" / "t.csv"
        assert run_cli(["report", str(report), "--out", str(table),
                        "--csv", str(merged)]) == 0
        assert table.exists() and merged.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "report"])
    def test_uncreatable_directory_exits_2_before_work(
            self, dataset, checkpoint, tmp_path, capsys, monkeypatch, command):
        report = tmp_path / "r.json"
        report.write_text(MetricsReport(model="ugcn", task="forecast",
                                        horizons={1: 0.5}).to_json())
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = str(blocker / "sub" / "out.json")

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        monkeypatch.setattr(cli, "load_dataset_dir", no_work)
        args = {
            "train": ["train", "--task", "forecast", "--data", dataset, "--out", out]
            + TRAIN_SETS,
            "eval": eval_args(checkpoint, dataset, out),
            "report": ["report", str(report), "--out", out],
        }[command]
        capsys.readouterr()
        assert run_cli(args) == 2
        err = one_line_error(capsys, "file error:")
        assert "blocker" in err
        assert sorted(os.listdir(tmp_path)) == ["blocker", "r.json"]
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["train", "eval", "report"])
    def test_failed_write_exits_2_and_leaves_no_partial_file(
            self, dataset, checkpoint, tmp_path, capsys, command):
        """The output path is a directory, so the final rename fails after the work."""
        report = tmp_path / "r.json"
        report.write_text(MetricsReport(model="ugcn", task="forecast",
                                        horizons={1: 0.5}).to_json())
        target = tmp_path / "taken"
        target.mkdir()
        args = {
            "train": ["train", "--task", "forecast", "--data", dataset,
                      "--out", str(target)] + TRAIN_SETS,
            "eval": eval_args(checkpoint, dataset, str(target)),
            "report": ["report", str(report), "--out", str(target)],
        }[command]
        capsys.readouterr()
        assert run_cli(args) == 2
        one_line_error(capsys, "file error:")
        assert sorted(os.listdir(tmp_path)) == ["r.json", "taken"]
        assert os.listdir(target) == []


class TestReportCmd:
    @pytest.mark.parametrize("doc", [
        {}, [1, 2], {"model": "u", "task": "forecast", "horizons": {"a": 1}},
        {"model": "u", "task": "forecast", "horizons": {"1": "x"}},
        {"model": "u", "task": "fdi", "omegas": {"0.5": {}}},
    ])
    def test_not_a_report_exits_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["report", str(bad)]) == 2
        one_line_error(capsys, f"not a metrics report: {bad} (")

    def test_no_report_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["report"])
        assert exc.value.code == 2
        assert "the following arguments are required: reports" in capsys.readouterr().err

    def test_baselines_printed_and_optional(self, tmp_path, capsys):
        """The baselines print after the model's lines; a report written
        without them still loads."""
        rep = MetricsReport(model="ugcn", task="forecast", horizons={1: 2e-4, 10: 1e-4},
                            baselines={"flat": {1: 3e-3, 10: 4e-3},
                                       "carry_forward": {1: 5e-5, 10: 6e-5}})
        full, bare = tmp_path / "full.json", tmp_path / "bare.json"
        full.write_text(rep.to_json())
        doc = rep.to_dict()
        del doc["baselines"]
        bare.write_text(json.dumps(doc))
        assert MetricsReport.from_dict(json.loads(full.read_text())).baselines == rep.baselines
        capsys.readouterr()
        assert run_cli(["report", str(full), str(bare)]) == 0
        model = ["  ugcn H=1: mse 2.000000e-04", "  ugcn H=10: mse 1.000000e-04"]
        assert capsys.readouterr().out.splitlines() == model + [
            "  baseline carry_forward H=1: mse 5.000000e-05",
            "  baseline carry_forward H=10: mse 6.000000e-05",
            "  baseline flat H=1: mse 3.000000e-03",
            "  baseline flat H=10: mse 4.000000e-03",
        ] + model

    def test_entry_point_runs(self):
        # the child imports the package this process imported, installed or not
        root = os.path.dirname(os.path.dirname(scenarios.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "ugcn.cli", "--help"],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0
        assert "gen" in out.stdout


def test_python_m_ugcn_exits_with_the_cli_code():
    """`python -m ugcn` is the `ugcn` command: --help exits 0, an unknown option 2."""
    src = os.path.dirname(os.path.dirname(scenarios.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    helped = subprocess.run([sys.executable, "-m", "ugcn", "--help"],
                            capture_output=True, text=True, env=env)
    assert helped.returncode == 0
    assert "gen" in helped.stdout
    refused = subprocess.run([sys.executable, "-m", "ugcn", "gen", "--no-such-option"],
                             capture_output=True, text=True, env=env)
    assert refused.returncode == 2
    assert "--no-such-option" in refused.stderr
