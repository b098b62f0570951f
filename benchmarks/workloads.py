"""The three workloads: how each sets up, what one timed pass runs, what it checks.

Every workload is a closed loop in one process: each generated system and
each CLI step starts when the previous one has finished.  Generation runs
serially, one system at a time, through the same calls `ugcn gen` makes for
one system, so a failure counts once for the system it hits.  Training and
evaluation run the real CLI (`ugcn.cli.main`) in-process on the generated
files.  Only generation and CLI calls are timed; the output checks between
them are not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time

from checks import (
    check_fdi_report,
    check_forecast_report,
    check_history,
    check_reload,
    check_system,
    digest,
    fdi_labels_scored,
)

# Sizes.  See README.md for why each was chosen.
FEEDER_T = 240                      # the `ugcn gen` default
FEEDER_NODES = (67, 71)             # ieee69 base size +-2 buses
FORECAST_T = 48
FORECAST_TRAIN, FORECAST_TEST = 16, 3
FORECAST_EPOCHS = 5
FDI_T = 96
FDI_CASES = ("ieee30", "ieee39")
FDI_TRAIN, FDI_TEST = 8, 2          # systems per case
FDI_EPOCHS = 6
TEST_SEED_OFFSET = 10_000           # unseen-seed test families


class Run:
    """One benchmark run: the package, its hooks, and the record of operations."""

    def __init__(self, ugcn, hooks, workdir: str, yardstick):
        self.ugcn = ugcn
        self.hooks = hooks
        self.workdir = workdir
        self.yardstick = yardstick
        self.regions: list[tuple[float, float]] = []    # every timed interval
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    @contextlib.contextmanager
    def timed(self):
        """Time the block.  Yields a list whose one item receives its wall
        seconds, less the probes taken inside it (see yardstick.py)."""
        yard = self.yardstick
        took = [0.0]
        inside = yard.inside_s
        start = time.perf_counter()
        try:
            yield took
        finally:
            end = time.perf_counter()
            took[0] = end - start - (yard.inside_s - inside)
            self.regions.append((start, end))
            yard.after(end - max(start, yard.last_end()))

    def nominal(self, first: int, last: int) -> float:
        """Nominal-speed seconds of the timed regions first..last-1."""
        return sum(self.yardstick.nominal(a, b) for a, b in self.regions[first:last])

    def operation(self, what: str, problems: list[str], wrong: bool = True) -> bool:
        """Count one operation; it failed if any problem is listed.

        `wrong` marks the problems as wrong output, which clears `correct`;
        a generation error the package raises on purpose is a failure only.
        """
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
            self.correct = self.correct and not wrong
        return not problems

    @contextlib.contextmanager
    def untraced(self):
        """Checks call into the package too; keep them out of the trace."""
        tracer = self.hooks.tracer
        was, tracer.enabled = tracer.enabled, False
        try:
            yield
        finally:
            tracer.enabled = was

    def cli(self, *argv) -> tuple[float, list[str]]:
        """One `ugcn` command in-process; returns (wall seconds, problems)."""
        out = io.StringIO()
        with self.timed() as took, contextlib.redirect_stdout(out):
            rc = self.hooks.tracer.call("cli.command", self.ugcn.cli.main,
                                        ([str(a) for a in argv],), {})
        return took[0], [] if rc == 0 else [f"exit code {rc}"]


class Family:
    """One `ugcn gen` configuration (the CLI defaults plus `overrides`)."""

    def __init__(self, ugcn, overrides: dict, seed: int):
        cli = ugcn.cli
        self.ugcn = ugcn
        self.cfg = {**cli.GEN_DEFAULTS, **overrides, "seed": seed}
        case = ugcn.caseio.load_case(self.cfg["case"])
        kind = case.kind or ugcn.grid.DISTRIBUTION
        self.base = ugcn.caseio.to_grid_graph(case, kind=kind)
        self.augment = cli._augment_config(self.base.n, kind, self.cfg)
        self.scenario = cli._scenario_config(kind, self.cfg)
        self.loads = case.loads_pu()
        self.echo = {k: v for k, v in self.cfg.items() if k != "out"}

    def system(self, run: Run, index: int, path: str, checked: bool = True, p=None):
        """Generate, serialize and write system `index`; returns (seconds, scenario).

        The scenario is None when generation raised.  With `checked` the
        system counts as an operation and its outputs are checked.  A Pass
        given as `p` accumulates the timings and counts.
        """
        ugcn = self.ugcn
        solves = run.hooks.capture.solves
        solves.clear()
        with run.timed() as took:
            try:
                member = ugcn.reconfig._generate_one(self.base, self.augment, index)
                scenario = ugcn.scenarios.build_scenario(
                    member.graph, self.scenario, index, self.loads, task=self.cfg["task"],
                    op_log=tuple(ugcn.reconfig.op_to_dict(op) for op in member.ops),
                )
                payload = {"task": self.cfg["task"], "config": self.echo,
                           "system": ugcn.scenarios.scenario_to_payload(scenario)}
                ugcn.caseio.save_dataset(path, payload)
            except ugcn.errors.UgcnError as exc:
                scenario, problems, wrong = None, [repr(exc)], False
        elapsed = took[0]
        if scenario is not None:
            with run.untraced():
                problems, wrong = check_system(ugcn, scenario, list(solves), payload, path), True
        if checked:
            run.operation(f"gen {self.cfg['case']} #{index}", problems, wrong)
        if p is not None:
            p.seconds += elapsed
            p.gen_s += elapsed
            p.systems += 1
            p.solves += len(solves)
            if scenario is not None:
                p.datasets += 1
                p.dataset_bytes += os.path.getsize(path)
                p.kept_solves += scenario.t_total
        return elapsed, scenario

    def generate(self, run: Run, count: int, directory: str, checked: bool = True, p=None):
        """Systems 0..count-1 into `directory`; returns (seconds, scenarios written)."""
        os.makedirs(directory, exist_ok=True)
        seconds = 0.0
        written = []
        for i in range(count):
            path = os.path.join(directory, f"system_{self.cfg['case']}_{i:03d}.ugcn.json")
            dt, scenario = self.system(run, i, path, checked, p)
            seconds += dt
            if scenario is not None:
                written.append(scenario)
        return seconds, written


def dataset_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory) if f.endswith(".ugcn.json"))


def same_files(a: str, b: str) -> list[str]:
    """Reruns of one set-up must write byte-identical datasets."""
    def tree(top):
        return sorted(os.path.relpath(os.path.join(d, f), top)
                      for d, _, files in os.walk(top) for f in files)

    names = tree(a)
    if names != tree(b):
        return [f"{b} holds other files than {a}"]
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return [f"{name} differs between set-up reruns"]
    return []


class Pass:
    """Timings and outputs of one timed pass."""

    def __init__(self):
        self.seconds = 0.0            # timed wall time of the pass
        self.gen_s = 0.0              # of which generation
        self.systems = 0              # systems attempted
        self.datasets = 0             # systems written
        self.dataset_bytes = 0
        self.solves = 0               # power-flow calls, back-offs included
        self.kept_solves = 0          # time steps of the systems written
        self.traced = False
        self.regions = (0, 0)         # its timed regions, as indices into Run.regions
        self.nominal = 0.0            # its nominal-speed seconds (see yardstick.py)
        self.stage: dict[str, float] = {}   # the stage metrics of the notes


def _train(run: Run, p: Pass, data: str, out: str, epochs: int, *flags):
    """`ugcn train`, checked; returns (seconds, checkpoint digest or None,
    last validation loss, seconds spent in the call to `ugcn.training.train`)."""
    cap = run.hooks.capture
    cap.clear()
    dt, problems = run.cli("train", "--data", data, "--out", out, "--epochs", epochs, *flags)
    p.seconds += dt
    saved, val_loss = None, math.nan
    train_call = cap.train_s[-1] if cap.train_s else math.nan
    if not problems:
        more, val_loss = check_history(os.path.splitext(out)[0] + ".history.csv", epochs)
        payloads = [payload for path, payload in cap.saved if path == out]
        if payloads:
            saved = digest({"kind": "checkpoint", **payloads[-1]})
        else:
            more.append("no checkpoint written")
        problems += more
    cap.clear()
    run.operation(f"ugcn train {os.path.basename(out)}", problems)
    return dt, saved, val_loss, train_call


def _eval(run: Run, p: Pass, ckpt: str, saved: str | None, data: str, report: str,
          check_report):
    """`ugcn eval` of a checkpoint `_train` wrote, checked; returns (seconds, report)."""
    what = f"ugcn eval {os.path.basename(ckpt)}"
    if saved is None:
        run.operation(what, ["skipped: training wrote no checkpoint"])
        return math.nan, None
    cap = run.hooks.capture
    cap.clear()
    dt, problems = run.cli("eval", "--checkpoint", ckpt, "--data", data, "--out", report)
    p.seconds += dt
    doc = None
    if not problems:
        problems += check_reload(saved, cap, ckpt)
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
        problems += check_report(doc)
    cap.clear()
    run.operation(what, problems)
    return dt, doc


class FeederAmi:
    """gen-feeder-ami: ieee69 AMI generation, one system per pass."""

    name = "gen-feeder-ami"
    setups = 5

    def sizes(self):
        return {"case": "ieee69", "t_total": FEEDER_T, "node_bounds": FEEDER_NODES,
                "systems": "one per pass, index = pass number"}

    def setup(self, run: Run, seed: int, directory: str, first: bool):
        with run.timed() as took:
            family = Family(run.ugcn, {"case": "ieee69", "t_total": FEEDER_T,
                                       "node_min": FEEDER_NODES[0], "node_max": FEEDER_NODES[1]},
                            seed)
            # Warm-up: first calls into numpy/LAPACK load code and size caches.
            warm = Family(run.ugcn, {"case": "ieee69", "t_total": 12, "ops_min": 0, "ops_max": 0},
                          seed)
        dt, _ = warm.system(run, 0, os.path.join(directory, "warmup.ugcn.json"), checked=False)
        return took[0] + dt, {"family": family, "dir": directory}

    def run_pass(self, run: Run, ctx: dict, index: int) -> Pass:
        p = Pass()
        path = os.path.join(run.workdir, f"system_{index:03d}.ugcn.json")
        ctx["family"].system(run, index, path, p=p)
        return p


class ForecastIeee33:
    """forecast-ieee33: train and zero-shot eval of ugcn plus the dense baseline."""

    name = "forecast-ieee33"
    setups = 3

    def sizes(self):
        return {"case": "ieee33", "scenario": "ami", "t_total": FORECAST_T,
                "train_systems": FORECAST_TRAIN, "test_systems": FORECAST_TEST,
                "base_systems": 1, "epochs": FORECAST_EPOCHS}

    def setup(self, run: Run, seed: int, directory: str, first: bool):
        ugcn = run.ugcn
        spec = {"task": "forecast", "case": "ieee33", "t_total": FORECAST_T}
        seconds = 0.0
        systems = []
        plan = (
            ("train", {**spec, "q": FORECAST_TRAIN}, seed, FORECAST_TRAIN),
            ("test", {**spec, "q": FORECAST_TEST}, seed + TEST_SEED_OFFSET, FORECAST_TEST),
            ("base", {**spec, "q": 1, "ops_min": 0, "ops_max": 0}, seed, 1),
        )
        for sub, overrides, fseed, count in plan:
            with run.timed() as took:
                family = Family(ugcn, overrides, fseed)
            seconds += took[0]
            dt, written = family.generate(run, count, os.path.join(directory, sub), first)
            seconds += dt
            systems += written
        ctx = {"dir": directory, "written": len(systems),
               "bytes": sum(dataset_bytes(os.path.join(directory, sub))
                            for sub in ("train", "test", "base"))}
        return seconds, ctx

    def run_pass(self, run: Run, ctx: dict, index: int) -> Pass:
        p = Pass()
        d = os.path.join(run.workdir, f"pass{index}")
        os.makedirs(d, exist_ok=True)
        data = {k: os.path.join(ctx["dir"], k) for k in ("train", "test", "base")}
        ugcn_ckpt = os.path.join(d, "ugcn.ckpt.json")
        dense_ckpt = os.path.join(d, "dense.ckpt.json")
        epochs = FORECAST_EPOCHS

        horizons = run.ugcn.cli.EVAL_DEFAULTS["horizons"]

        def check_report(doc):
            return check_forecast_report(doc, horizons)

        train_s, saved, val_loss, train_call = _train(
            run, p, data["train"], ugcn_ckpt, epochs, "--task", "forecast")
        ckpt_mb = os.path.getsize(ugcn_ckpt) / 1e6 if saved else math.nan
        eval_s, report = _eval(run, p, ugcn_ckpt, saved, data["test"],
                               os.path.join(d, "ugcn.report.json"), check_report)
        mse = float(report["horizons"]["1"]) if report else math.nan
        dense_train_s, dense_saved, _, _ = _train(
            run, p, data["base"], dense_ckpt, epochs, "--task", "forecast", "--model", "dense")
        dense_eval_s, _ = _eval(run, p, dense_ckpt, dense_saved, data["test"],
                                os.path.join(d, "dense.report.json"), check_report)
        shutil.rmtree(d, ignore_errors=True)
        p.stage.update(
            train_epoch_s=train_call / epochs, train_s=train_s, eval_s=eval_s,
            dense_s=dense_train_s + dense_eval_s, ckpt_mb=ckpt_mb,
            val_loss_final=val_loss, zero_shot_mse_h1=mse,
        )
        return p


class FdiTransmission:
    """fdi-transmission: FDI generation on ieee30 and ieee39, then train and eval."""

    name = "fdi-transmission"
    setups = 3

    def sizes(self):
        return {"cases": list(FDI_CASES), "t_total": FDI_T, "train_systems_per_case": FDI_TRAIN,
                "test_systems_per_case": FDI_TEST, "epochs": FDI_EPOCHS}

    def setup(self, run: Run, seed: int, directory: str, first: bool):
        ugcn = run.ugcn
        seconds = 0.0
        test = []
        for case in FDI_CASES:
            with run.timed() as took:
                family = Family(ugcn, {"task": "fdi", "case": case, "t_total": FDI_T,
                                       "q": FDI_TEST}, seed + TEST_SEED_OFFSET)
            seconds += took[0]
            dt, written = family.generate(run, FDI_TEST, os.path.join(directory, "test"), first)
            seconds += dt
            test += written
        with run.timed() as took:
            train = [Family(ugcn, {"task": "fdi", "case": case, "t_total": FDI_T,
                                   "q": FDI_TRAIN}, seed) for case in FDI_CASES]
        seconds += took[0]
        return seconds, {"dir": directory, "test": test, "train": train}

    def run_pass(self, run: Run, ctx: dict, index: int) -> Pass:
        p = Pass()
        d = os.path.join(run.workdir, f"pass{index}")
        data = os.path.join(d, "train")
        for family in ctx["train"]:
            family.generate(run, FDI_TRAIN, data, p=p)
        ckpt = os.path.join(d, "fdi.ckpt.json")
        epochs = FDI_EPOCHS
        defaults = run.ugcn.cli.EVAL_DEFAULTS
        scored = fdi_labels_scored(ctx["test"], run.ugcn.training.TrainConfig().window,
                                   defaults["fdi_stride"], defaults["max_attacks"])

        def check_report(doc):
            return check_fdi_report(doc, defaults["omegas"], scored)

        train_s, saved, val_loss, train_call = _train(run, p, data, ckpt, epochs, "--task", "fdi")
        ckpt_mb = os.path.getsize(ckpt) / 1e6 if saved else math.nan
        eval_s, report = _eval(run, p, ckpt, saved, os.path.join(ctx["dir"], "test"),
                               os.path.join(d, "fdi.report.json"), check_report)
        f1 = float(report["omegas"]["0.5"]["f1"]) if report else math.nan
        shutil.rmtree(d, ignore_errors=True)
        p.stage.update(train_epoch_s=train_call / epochs, train_s=train_s, eval_s=eval_s,
                       ckpt_mb=ckpt_mb, val_loss_final=val_loss, fdi_f1_w05=f1)
        return p


WORKLOADS = {w.name: w for w in (FeederAmi(), ForecastIeee33(), FdiTransmission())}
