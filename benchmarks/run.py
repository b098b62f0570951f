"""Benchmark of the ugcn `gen -> train -> eval` pipeline.

    python3 benchmarks/run.py --workload forecast-ieee33 --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

Runs one workload in this process against the sources in `src/` next to
this directory: sets it up several times (the median is `setup_s`), runs
timed passes until `--seconds` of timed work is spent, checks every output,
and prints a table, a machine and run record, and as the last line one JSON
result.  With `--trace 0` the result holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` every pass runs twice, untraced and then
traced, and the result holds the per-layer metrics of the traced passes.
`--workload all` runs every workload in its own process, one after another.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1        # at most nproc; one thread keeps small-matrix timings steady

# The stage metrics of the notes, printed by every run; the untraced values
# are in the table, the traced ones among the per-layer metrics.
STAGE_UNITS = {
    "gen_s_per_system": "s", "train_epoch_s": "s", "train_s": "s", "eval_s": "s", "dense_s": "s", "ckpt_mb": "MB",
    "val_loss_final": "loss", "zero_shot_mse_h1": "pu2", "fdi_f1_w05": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="timed work to spend on passes (default: run_seconds of "
                             "BENCHMARK.json; at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    src = os.path.join(ROOT, "src")
    if not (os.path.isfile(spec_path) and os.path.isfile(os.path.join(src, "ugcn", "__init__.py"))):
        print(f"benchmark: needs {spec_path} and the ugcn sources in {src}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    import numpy
    import ugcn
    import ugcn.cli
    if not os.path.abspath(ugcn.__file__).startswith(src + os.sep):
        print(f"benchmark: imported ugcn from {ugcn.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracer import Hooks
    from workloads import TEST_SEED_OFFSET, WORKLOADS, Run, same_files
    from yardstick import PROBE_EVERY_S, Yardstick

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    yardstick = Yardstick()
    hooks = Hooks(trace=bool(args.trace), yardstick=None if args.trace else yardstick)
    run = Run(ugcn, hooks, workdir, yardstick)
    try:
        # The first set-up feeds the passes, and only its systems count and
        # are checked.  The reruns run between the passes, so that their
        # median samples the whole run, and must write the same files.
        setups, setup_regions, reruns = [], [], []
        pending = list(range(1, workload.setups))

        def set_up(k):
            directory = os.path.join(workdir, f"setup{k}")
            os.makedirs(directory)
            first = len(run.regions)
            seconds, ctx = workload.setup(run, args.seed, directory, first=k == 0)
            setups.append((seconds, ctx))
            setup_regions.append((first, len(run.regions)))
            if k:
                reruns.extend(same_files(setups[0][1]["dir"], directory))
                shutil.rmtree(directory)

        def rerun():
            if pending:
                set_up(pending.pop(0))

        yardstick.probe(PROBE_EVERY_S)
        set_up(0)
        passes = run_passes(workload, run, setups[0][1], args.seconds, bool(args.trace), rerun)
        while pending:
            rerun()
        yardstick.flush()
        run.operation("set-up reruns", reruns)
        setup_nominal = [run.nominal(*r) for r in setup_regions]
        for p in passes:
            p.nominal = run.nominal(*p.regions)
    finally:
        hooks.remove()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))    # only when no other run uses it

    record = {
        "workload": args.workload, "seed": args.seed,
        "test_seed": args.seed + TEST_SEED_OFFSET, "seconds": args.seconds, "trace": args.trace,
        "sizes": workload.sizes(), "setups": len(setups),
        "pass_seconds": [round(p.seconds, 4) for p in passes],
        "pass_nominal_seconds": [round(p.nominal, 4) for p in passes],
        "setup_seconds": [round(seconds, 4) for seconds, _ in setups],
        "setup_nominal_seconds": [round(s, 4) for s in setup_nominal],
        "host_slowness": round(yardstick.slowness(), 4),
        "reference_probes": {"count": len(yardstick.probes()), "units": yardstick.units,
                             "seconds": round(yardstick.seconds, 4)},
        "pass_traced": [p.traced for p in passes],
        "machine": machine_record(numpy),
    }
    stage = stage_table(passes, traced=False)
    if args.trace:
        metrics = per_layer(hooks.tracer, passes, run)
        metrics["host.slowness"] = yardstick.slowness()
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(setups, setup_nominal, passes, run)
        wanted = spec["end_to_end"]
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": finite(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print_table(args.workload, result["metrics"], None if args.trace else stage, run)
    if args.trace:
        print_shares(hooks.tracer, passes)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_passes(workload, run, ctx, budget: float, trace: bool, between) -> list:
    """Timed passes until `budget` seconds of timed work; each pass is run
    untraced and, when tracing, a second time traced.  `between` runs after
    each pass, outside the timed work."""
    passes = []
    spent = 0.0
    index = 0
    while True:
        for traced in (False, True) if trace else (False,):
            run.hooks.tracer.enabled = traced
            first = len(run.regions)
            try:
                p = workload.run_pass(run, ctx, index)
            finally:
                run.hooks.tracer.enabled = False
            p.traced = traced
            p.regions = (first, len(run.regions))
            passes.append(p)
            spent += p.seconds
        index += 1
        if spent + spent / index > budget:
            return passes
        between()


def end_to_end(setups, setup_nominal, passes, run) -> dict:
    """The end-to-end metrics; times are in nominal-speed seconds (see yardstick.py)."""
    timed = [p for p in passes if not p.traced]
    written = sum(p.datasets for p in timed)
    size = sum(p.dataset_bytes for p in timed)
    if not written:     # this workload writes its datasets during set-up only
        written, size = setups[0][1].get("written", 0), setups[0][1].get("bytes", 0)
    return {
        "setup_s": statistics.median(setup_nominal),
        "pipeline_s": statistics.median(p.nominal for p in timed),
        "dataset_mb_per_system": size / 1e6 / written if written else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - run.failed / run.attempted,
    }


def per_layer(tracer, passes, run) -> dict:
    """Per-layer metrics per traced pass (a pass is one system on gen-feeder-ami)."""
    from tracer import SPAN_POINTS
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    names = {name for *_, name in SPAN_POINTS} | {
        "model.forward_taped", "training.validation", "cli.command"}
    out = {}
    for name in names:
        out[f"{name}.calls"] = tracer.calls[name] / n
        out[f"{name}.self_s"] = tracer.self_s[name] / n
        out[f"{name}.fail"] = tracer.fails[name] / n
        out[f"{name}.mb"] = tracer.mb[name] / n
    solves = tracer.calls["powerflow.solve"]
    out["powerflow.useful_ratio"] = sum(p.kept_solves for p in traced) / solves if solves else 0.0
    attacks = tracer.calls["fdi.attack"]
    out["fdi.attack.accept_ratio"] = (attacks - tracer.fails["fdi.attack"]) / attacks \
        if attacks else 0.0
    out["cli.other_s"] = out["cli.command.self_s"]
    out["trace.overhead"] = sum(p.seconds for p in traced) / sum(p.seconds for p in plain)
    out["fail_ratio"] = run.failed / run.attempted
    out.update(stage_table(passes, traced=True))
    return out


def stage_table(passes, traced: bool) -> dict:
    """Mean of each stage metric over the passes (0 where the workload has none)."""
    chosen = [p for p in passes if p.traced == traced]
    table = {}
    systems = sum(p.systems for p in chosen)
    table["gen_s_per_system"] = sum(p.gen_s for p in chosen) / systems if systems else 0.0
    for name in STAGE_UNITS:
        if name in table:
            continue
        values = [p.stage[name] for p in chosen if name in p.stage]
        table[name] = statistics.fmean(values) if values else 0.0
    return table


def finite(value) -> float:
    """JSON has no NaN; an unmeasurable value (its operation failed) reads 0."""
    return float(value) if math.isfinite(value) else 0.0


def print_table(workload, metrics, stage, run):
    print(f"== {workload}: {run.attempted} operations, {run.failed} failed, "
          f"correct={run.correct}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if stage is None:
        return
    print("  stage metrics of the untraced passes (0 = not part of this workload):")
    for name, unit in STAGE_UNITS.items():
        print(f"  {name:34s} {finite(stage[name]):14.6g} {unit}")
    print(f"  {'fail_ratio':34s} {run.failed / run.attempted:14.6g} ratio")


def print_shares(tracer, passes):
    """Self time of each span as a share of the traced passes' timed seconds."""
    from tracer import VIEWS
    total = sum(p.seconds for p in passes if p.traced)
    print("  self-time shares of the traced passes (cli.command = cli.other_s):")
    for name, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        if s > 0.0005 * total and name not in VIEWS.values():
            print(f"  {name:34s} {100 * s / total:6.1f} %  ({tracer.calls[name]} calls)")


def machine_record(numpy) -> dict:
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name, "blas_version": blas_version, "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_all(args, spec) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"benchmark: workload {w['name']} exited {done.returncode}", file=sys.stderr)
            return 1
        results[w["name"]] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
