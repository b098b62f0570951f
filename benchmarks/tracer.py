"""Outside-in instrumentation of the ugcn layers.

Every hook replaces a layer entry point at the module or class attribute
its callers look up, and `Hooks.remove` puts the original back; no source
file of the package changes.  Two kinds of hook share the mechanism:

* capture hooks keep what the program computed (the power-flow solutions
  and their injections, the checkpoint payloads written and read, the wall
  time of the training call) so the output checks can inspect it.  They
  run in every run and cost one extra Python call per hooked call.
* span hooks time each call.  Spans nest: the self time of a span is its
  duration minus the time of the spans opened inside it.  They run in the
  traced run only, and only while `Tracer.enabled` is set.
* probe hooks take a host-speed probe (see yardstick.py) before and after
  the steps inside generation and the CLI commands, so that no timed
  stretch goes unmeasured for long.  They run in untraced runs only, and
  the timed regions leave the probes out.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (module, class or None, attribute, span name).  Several attributes may feed
# one span name; `model_forward` is split by its `record=` argument.
SPAN_POINTS = (
    ("ugcn.reconfig", None, "_generate_one", "reconfig.generate"),
    ("ugcn.scenarios", None, "build_scenario", "scenarios.build"),
    ("ugcn.scenarios", None, "solve_powerflow", "powerflow.solve"),
    ("ugcn.scenarios", None, "estimate_ami", "estimation.ami_estimate"),
    ("ugcn.scenarios", None, "measure_ami", "estimation.measure"),
    ("ugcn.scenarios", None, "build_admittance", "grid.build"),
    ("ugcn.scenarios", None, "scenario_to_payload", "scenarios.serialize"),
    ("ugcn.cli", None, "scenario_from_payload", "scenarios.serialize"),
    ("ugcn.estimation", "PmuOperator", "build", "estimation.pmu_build"),
    ("ugcn.estimation", "PmuOperator", "measure", "estimation.measure"),
    ("ugcn.estimation", "PmuOperator", "estimate", "estimation.pmu_estimate"),
    ("ugcn.estimation", "PmuOperator", "estimate_shift", "estimation.pmu_shift"),
    ("ugcn.estimation", None, "build_gso", "grid.build"),
    ("ugcn.fdi", None, "sample_attacks_for_system", "fdi.sample"),
    ("ugcn.fdi", None, "build_stealth_attack", "fdi.attack"),
    ("ugcn.caseio", None, "save_dataset", "caseio.dataset_write"),
    ("ugcn.caseio", None, "load_dataset", "caseio.dataset_read"),
    ("ugcn.caseio", None, "save_checkpoint", "caseio.ckpt_write"),
    ("ugcn.caseio", None, "load_checkpoint", "caseio.ckpt_read"),
    ("ugcn.training", None, "model_forward", "model.forward"),
    ("ugcn.training", None, "model_backward", "model.backward"),
    ("ugcn.training", None, "feature_window", "scenarios.features"),
    ("ugcn.training", None, "build_features", "scenarios.features"),
    ("ugcn.training", None, "contexts_for", "training.contexts"),
    ("ugcn.training", None, "build_admittance", "grid.build"),
    ("ugcn.training", None, "build_gso", "grid.build"),
    ("ugcn.training", "Adam", "step", "training.adam"),
    ("ugcn.model", None, "pool_learnable", "model.pool"),
    ("ugcn.model", None, "pool_custom", "model.pool"),
    ("ugcn.cli", None, "train", "training.loop"),
    ("ugcn.cli", None, "train_dense", "training.dense_loop"),
    ("ugcn.cli", None, "eval_forecast", "training.eval"),
    ("ugcn.cli", None, "eval_fdi", "training.eval"),
)

# (module, attribute): the calls that the probe hooks bracket.  They are the
# steps of `ugcn train` and `ugcn eval`, the canonical JSON encoding inside
# every file write and read, and the per-time-step and per-window calls of
# generation, training and evaluation; `MIN_GAP_S` of yardstick.py thins
# the probes out.
PROBE_POINTS = (
    ("ugcn.cli", "train"), ("ugcn.cli", "train_dense"),
    ("ugcn.cli", "eval_forecast"), ("ugcn.cli", "eval_fdi"),
    ("ugcn.caseio", "save_checkpoint"), ("ugcn.caseio", "load_checkpoint"),
    ("ugcn.caseio", "_canonical_payload"),
    ("ugcn.scenarios", "estimate_ami"), ("ugcn.scenarios", "solve_powerflow"),
    ("ugcn.training", "model_forward"), ("ugcn.training", "model_backward"),
)

# Spans whose first argument is a file path; its size is added to `<span>.mb`.
SIZED_SPANS = ("caseio.dataset_write", "caseio.dataset_read",
               "caseio.ckpt_write", "caseio.ckpt_read")

# Self time of span A spent while span B is open also counts as span C.
VIEWS = {("model.forward", "training.loop"): "training.validation"}


class Tracer:
    """Span statistics keyed by span name: calls, failures, self time, file MB."""

    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.fails = defaultdict(int)
        self.self_s = defaultdict(float)
        self.mb = defaultdict(float)
        self._stack: list[float] = []         # per open span: seconds of enclosed spans
        self._open = defaultdict(int)

    def call(self, name, fn, args, kwargs):
        """fn(*args, **kwargs), inside a span named `name` while enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self._stack.append(0.0)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.fails[name] += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            own = elapsed - self._stack.pop()
            self._open[name] -= 1
            if self._stack:
                self._stack[-1] += elapsed
            self.calls[name] += 1
            self.self_s[name] += own
            for (inner, outer), view in VIEWS.items():
                if name == inner and self._open[outer]:
                    self.self_s[view] += own
            if name in SIZED_SPANS and os.path.exists(args[0]):
                self.mb[name] += os.path.getsize(args[0]) / 1e6


class Capture:
    """What the program computed, kept for the output checks."""

    def __init__(self):
        self.solves: list[tuple] = []         # (injections, voltages or None)
        self.saved: list[tuple] = []          # (path, checkpoint payload)
        self.loaded: list[tuple] = []         # (path, checkpoint payload)
        self.train_s: list[float] = []        # wall time of each training call

    def clear(self):
        self.solves.clear()
        self.saved.clear()
        self.loaded.clear()
        self.train_s.clear()


class Hooks:
    """Installs capture hooks, probe hooks when given a yardstick, and span
    hooks when tracing; `remove` restores."""

    def __init__(self, trace: bool, yardstick=None):
        self.tracer = Tracer()
        self.capture = Capture()
        self._undo: list[tuple] = []
        self._install_capture()
        if yardstick is not None:
            for module, attr in PROBE_POINTS:
                self._patch(module, None, attr, functools.partial(self._probe_wrapper, yardstick))
        if trace:
            for module, owner, attr, name in SPAN_POINTS:
                self._patch(module, owner, attr, functools.partial(self._span_wrapper, name))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, module, owner, attr, make_wrapper):
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
            original = target.__dict__[attr]
        else:
            original = getattr(target, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(original.__func__))
        else:
            replacement = make_wrapper(original)
        setattr(target, attr, replacement)
        self._undo.append((target, attr, original))

    @staticmethod
    def _probe_wrapper(yardstick, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            yardstick.inside()
            try:
                return fn(*args, **kwargs)
            finally:
                yardstick.inside()
        return wrapper

    def _span_wrapper(self, name, fn):
        tracer = self.tracer
        if name == "model.forward":
            @functools.wraps(fn)
            def forward(*args, **kwargs):
                span = "model.forward_taped" if kwargs.get("record") else "model.forward"
                return tracer.call(span, fn, args, kwargs)
            return forward

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    def _install_capture(self):
        cap = self.capture

        def solves(fn):
            @functools.wraps(fn)
            def wrapper(graph, s_inj, *args, **kwargs):
                try:
                    v = fn(graph, s_inj, *args, **kwargs)
                except Exception:
                    cap.solves.append((s_inj, None))
                    raise
                cap.solves.append((s_inj, v))
                return v
            return wrapper

        def saves(fn):
            @functools.wraps(fn)
            def wrapper(path, payload):
                fn(path, payload)
                cap.saved.append((path, payload))
            return wrapper

        def loads(fn):
            @functools.wraps(fn)
            def wrapper(path):
                payload = fn(path)
                cap.loaded.append((path, payload))
                return payload
            return wrapper

        def timed(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cap.train_s.append(time.perf_counter() - start)
            return wrapper

        self._patch("ugcn.scenarios", None, "solve_powerflow", solves)
        self._patch("ugcn.caseio", None, "save_checkpoint", saves)
        self._patch("ugcn.caseio", None, "load_checkpoint", loads)
        self._patch("ugcn.cli", None, "train", timed)
