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
    optimizer.step(tensors, {name: np.full_like(t, 0.5) for name, t in tensors.items()})
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
