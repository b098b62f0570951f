"""The package's public surface."""

import ugcn


def test_every_export_resolves():
    missing = [name for name in ugcn.__all__ if not hasattr(ugcn, name)]
    assert missing == []


def test_settable_values_are_pinned():
    """Every config field and CLI config key, by name: a new setting shows up here."""
    import dataclasses

    from ugcn.cli import EVAL_DEFAULTS, GEN_DEFAULTS, TRAIN_DEFAULTS
    from ugcn.model import LayerConfig
    from ugcn.reconfig import AugmentConfig
    from ugcn.scenarios import ScenarioConfig
    from ugcn.training import TrainConfig

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert fields(ScenarioConfig) == {
        "t_total", "scenario", "noise_sigma", "pmu_fraction", "demand_scale",
        "attacks_per_system", "seed",
    }
    assert fields(AugmentConfig) == {"q_count", "seed", "ops_range", "node_bounds"}
    assert fields(TrainConfig) == {
        "task", "horizon", "epochs", "batch_systems", "windows_per_system", "lr",
        "lr_decay", "seed", "attack_prob", "early_stop_patience",
    }
    assert fields(LayerConfig) == {
        "layers", "k_spatial", "k_temporal", "widths", "pooled_nodes", "hidden",
        "pooling", "outputs",
    }
    assert set(GEN_DEFAULTS) == {
        "task", "case", "kind", "scenario", "q", "t_total", "seed", "noise_sigma",
        "ops_min", "ops_max", "node_min", "node_max", "attacks_per_system",
        "demand_scale", "pmu_fraction", "out",
    }
    assert set(TRAIN_DEFAULTS) == {
        "task", "model", "data", "out", "resume", "seed", "epochs", "batch_systems",
        "windows_per_system", "lr", "lr_decay", "horizon", "attack_prob",
        "early_stop_patience", "layers", "k_spatial", "k_temporal", "widths",
        "pooled_nodes", "hidden", "pooling", "dense_hidden", "dense_depth",
    }
    assert set(EVAL_DEFAULTS) == {
        "checkpoint", "data", "out", "csv", "horizons", "omegas", "stride",
        "fdi_stride", "threshold", "max_attacks", "model",
    }


def test_readme_library_example_runs():
    """The python block under "Library entry points" in README.md runs as written."""
    import pathlib
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_numpy_is_the_only_runtime_dependency():
    """Every import in src/ugcn is the standard library, numpy or ugcn itself."""
    import ast
    import pathlib
    import sys

    allowed = set(sys.stdlib_module_names) | {"numpy", "ugcn"}
    found = {}
    for path in sorted(pathlib.Path(ugcn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in allowed:
                    found.setdefault(path.name, []).append(name)
    assert found == {}


def test_benchmark_hook_points_resolve(monkeypatch):
    """The benchmark's tracer patches these attributes by name; a renamed or
    module-qualified entry point would only show up as a crashed benchmark run."""
    import importlib
    import pathlib
    import sys

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")

    points = [(module, owner, attr) for module, owner, attr, _ in tracer.SPAN_POINTS]
    points += [(module, None, attr) for module, attr in tracer.PROBE_POINTS]
    assert any(owner == "Adam" for _, owner, _ in points)
    assert any(owner == "PmuOperator" for _, owner, _ in points)
    missing = []
    for module, owner, attr in points:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert missing == []


def test_benchmark_reload_check_sees_every_float(tmp_path, monkeypatch):
    """The benchmark's bit-exact reload check hashes a list float by float but
    any other object by its repr, which numpy abridges for large arrays; a
    bare array in a checkpoint payload would blind the check, while a block's
    repr is exact."""
    import copy
    import importlib
    import pathlib
    import sys

    import numpy as np

    from ugcn.caseio import F64Block, load_checkpoint, save_checkpoint
    from ugcn.cli import params_to_payload
    from ugcn.model import forecast_config, init_params
    from ugcn.training import Adam

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    checks = importlib.import_module("checks")

    params = init_params(forecast_config(), seed=0)
    optimizer = Adam()
    tensors = params
    optimizer.begin(tensors)
    for name, t in tensors.items():
        optimizer.step(name, t, np.full_like(t, 0.5))
    payload = {"params": params_to_payload(params), "optimizer": optimizer.state()}
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(path, payload)
    reloaded = load_checkpoint(path)
    assert checks.digest(reloaded) == checks.digest({"kind": "checkpoint", **payload})

    def nodes(parent):
        """(container, key, value) for every value below `parent`."""
        items = parent.items() if isinstance(parent, dict) else enumerate(parent)
        for key, value in items:
            yield parent, key, value
            if isinstance(value, (dict, list, tuple)):
                yield from nodes(value)

    for doc in (payload, reloaded):
        assert [key for _, key, value in nodes(doc) if isinstance(value, np.ndarray)] == []
        edited = copy.deepcopy(doc)
        parent, key, block = max(
            ((p, k, v) for p, k, v in nodes(edited) if isinstance(v, F64Block)),
            key=lambda n: len(n[2]))
        assert len(block) > 1000
        values = block.array.copy()
        values[len(values) // 2] = np.nextafter(values[len(values) // 2], np.inf)
        parent[key] = F64Block(values)
        assert checks.digest(edited) != checks.digest(doc)



def test_benchmark_system_check_passes_on_generated_systems(tmp_path, monkeypatch):
    """The benchmark checks each system it generates against the power flows its
    capture hook saw: one `scenarios.solve_powerflow` call per hour, ending in
    t_total solutions.  A solver that bypassed that name, or solved several
    hours per call, would fail every generated system.  One ieee30 FDI and one
    ieee33 AMI system go through the calls of the benchmark's `Family.system`."""
    import importlib
    import pathlib
    import sys

    import ugcn.cli
    import ugcn.estimation
    import ugcn.fdi
    import ugcn.powerflow
    import ugcn.reconfig
    import ugcn.scenarios

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    for name in ("tracer", "checks"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = importlib.import_module("tracer")
    checks = importlib.import_module("checks")

    for overrides in ({"task": "fdi", "case": "ieee30"}, {"task": "forecast", "case": "ieee33"}):
        cfg = {**ugcn.cli.GEN_DEFAULTS, **overrides, "q": 1, "t_total": 24, "seed": 3}
        case = ugcn.caseio.load_case(cfg["case"])
        kind = case.kind or ugcn.grid.DISTRIBUTION
        base = ugcn.caseio.to_grid_graph(case, kind=kind)
        path = str(tmp_path / f"{cfg['case']}.ugcn.json")
        hooks = tracer.Hooks(trace=False)
        try:
            member = ugcn.reconfig._generate_one(base, ugcn.cli._augment_config(base.n, kind, cfg), 0)
            scenario = ugcn.scenarios.build_scenario(
                member.graph, ugcn.cli._scenario_config(kind, cfg), 0, case.loads_pu(),
                task=cfg["task"], op_log=tuple(ugcn.reconfig.op_to_dict(op) for op in member.ops))
            payload = {"task": cfg["task"], "config": cfg,
                       "system": ugcn.scenarios.scenario_to_payload(scenario)}
            ugcn.caseio.save_dataset(path, payload)
            solves = list(hooks.capture.solves)
        finally:
            hooks.remove()
        assert ugcn.scenarios.solve_powerflow is ugcn.powerflow.solve_powerflow
        assert scenario.graph.kind == kind and scenario.t_total == 24
        assert bool(scenario.attacks) == (cfg["task"] == "fdi")
        assert checks.check_system(ugcn, scenario, solves, payload, path) == []


def test_ami_series_estimate_stays_within_its_memory_bound():
    """One 240-hour ieee69 `estimate_ami` call, the result included, peaks at
    1.0 MB of traced allocations: the blocks of hours stay small.  Measured
    with numpy 2.4: 0.80 MB, of which the [240, 69] result is 0.26 MB."""
    import tracemalloc

    import numpy as np

    from ugcn.caseio import load_case, to_grid_graph
    from ugcn.estimation import ami_placement, ami_setup, estimate_ami, measure_ami
    from ugcn.scenarios import ScenarioConfig, build_scenario

    graph = to_grid_graph(load_case("ieee69"))
    states = build_scenario(graph, ScenarioConfig(t_total=240, seed=0), 0,
                            load_case("ieee69").loads_pu()).true_states
    setup = ami_setup(graph, ami_placement(graph), load_case("ieee69").loads_pu())
    rng = np.random.default_rng(0)
    z = np.stack([measure_ami(setup, v, sigma=0.002, rng=rng) for v in states])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        estimates = estimate_ami(setup, z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert estimates.shape == (240, 69)
    assert peak <= 1.0e6, f"{peak / 1e6:.2f} MB"


def test_feeder_series_power_flow_stays_within_its_memory_bound():
    """One 240-hour ieee69 `_solve_series` call, the states included, peaks at
    1.1 MB of traced allocations: the block sweep runs in buffers allocated
    once, and the states are swept in place.  Measured with numpy 2.4: 1.01 MB,
    the sweep's three complex and one real [240, 69] buffers, one of them the
    states, and the graph's [69, 69] path matrix."""
    import tracemalloc

    from ugcn.caseio import load_case, to_grid_graph
    from ugcn.grid import build_admittance
    from ugcn.scenarios import ScenarioConfig, _series_profiles, _solve_series

    case = load_case("ieee69")
    graph = to_grid_graph(case)
    y = build_admittance(graph)
    s_inj = _series_profiles(graph, ScenarioConfig(t_total=240, seed=0), 0, case.loads_pu(),
                             1.0).injections()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        states = _solve_series(graph, y, s_inj)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert states.shape == (240, 69)
    assert peak <= 1.1e6, f"{peak / 1e6:.2f} MB"


def test_benchmark_spans_count_one_ami_estimate_per_system(monkeypatch):
    """The benchmark times AMI estimation through `ugcn.scenarios.estimate_ami`:
    one call per system, next to one `measure_ami` call for the whole series.
    A call that bypassed that name would leave the span empty."""
    import importlib
    import pathlib
    import sys

    from ugcn.caseio import load_case, to_grid_graph
    from ugcn.scenarios import ScenarioConfig, build_scenario

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    graph = to_grid_graph(load_case("ieee33"))
    hooks = tracer.Hooks(trace=True)
    hooks.tracer.enabled = True
    try:
        scenario = build_scenario(graph, ScenarioConfig(t_total=24, seed=3), 0,
                                  load_case("ieee33").loads_pu())
    finally:
        hooks.remove()
    assert scenario.scenario == "ami" and scenario.estimates.shape == (24, 33)
    assert hooks.tracer.calls["estimation.ami_estimate"] == 1
    assert hooks.tracer.calls["estimation.measure"] == 1
