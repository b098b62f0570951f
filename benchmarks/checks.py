"""Output checks, run outside the timed region.

Each function returns a list of problems; an empty list means the output
passed.  A failed check marks its operation as failed in the run record.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

STEALTH_TOL = 1e-10       # honest-sensor block times the attack, as criterion 7
RESIDUAL_TOL = 1e-8       # change of the bad-data residual under attack


def digest(obj) -> str:
    """Hash of a JSON-like payload in which numbers count by their exact bits.

    Tuples hash as lists, so a payload and its JSON round trip agree exactly
    when every number, key and string survived the trip unchanged.
    """
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        arr = None
        if obj and not isinstance(obj[0], (bool, str, dict)):
            try:
                arr = np.asarray(obj)
            except ValueError:
                arr = None
        if arr is not None and arr.dtype.kind in "if":
            h.update(f"[{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(b"[")
            for item in obj:
                _feed(h, item)
            h.update(b"]")
    elif isinstance(obj, float):
        h.update(b"f" + float(obj).hex().encode())
    else:
        h.update(repr(obj).encode())


def check_system(ugcn, scenario, solves, payload, path) -> list[str]:
    """A generated system: power balance, sanity band, finite estimates,
    stealthy attacks, and a bit-exact dataset reload."""
    problems = []
    graph = scenario.graph
    states = scenario.true_states
    t_total = states.shape[0]
    kept = solves[-t_total:]
    if len(kept) != t_total or any(v is None for _, v in kept):
        problems.append(f"{len(solves)} power-flow calls do not end in {t_total} solutions")
    else:
        y = ugcn.grid.build_admittance(graph)
        slack = graph.pos(graph.slack_bus())
        worst = 0.0
        for t, (s_inj, v) in enumerate(kept):
            if not np.array_equal(v, states[t]):
                problems.append(f"true state {t} is not the power-flow solution")
                break
            mism = ugcn.powerflow.nodal_mismatch(y, v, s_inj)
            mism[slack] = 0.0
            worst = max(worst, float(np.max(np.abs(mism))))
        if worst > ugcn.powerflow.MISMATCH_TOL:
            problems.append(f"nodal mismatch {worst:.3e} above tolerance")
    lo, hi = ugcn.scenarios.SANITY_BAND
    mags = np.abs(states)
    if not (mags.min() > lo and mags.max() < hi):
        problems.append(f"|v| range [{mags.min():.3f}, {mags.max():.3f}] outside the sanity band")
    if not np.all(np.isfinite(scenario.estimates.view(np.float64))):
        problems.append("non-finite estimates")
    if scenario.attacks:
        problems += _check_attacks(ugcn, scenario)
    reloaded = ugcn.caseio.load_dataset(path)
    if digest(reloaded) != digest({"kind": "dataset", **payload}):
        problems.append(f"{path} does not reload bit-exact")
    return problems


def _check_attacks(ugcn, scenario) -> list[str]:
    graph = scenario.graph
    y = ugcn.grid.build_admittance(graph)
    op = ugcn.estimation.PmuOperator.build(graph, scenario.pmu_buses, mu1=scenario.mu1, y=y)
    z = op.measure(scenario.true_states[0])
    base = op.residual(z)
    worst_stealth = worst_res = 0.0
    for attack in scenario.attacks:
        if attack.is_null:
            continue
        honest = [graph.pos(b) for b in scenario.pmu_buses if b not in set(attack.compromised)]
        c_pos = [graph.pos(b) for b in attack.compromised]
        if honest:
            block = y[np.ix_(honest, c_pos)] @ attack.delta_v[c_pos]
            worst_stealth = max(worst_stealth, float(np.max(np.abs(block))))
        z_att = ugcn.fdi.inject(z, op.h, attack.delta_v[op.perm], attack.omega)
        worst_res = max(worst_res, abs(op.residual(z_att) - base))
    problems = []
    if worst_stealth >= STEALTH_TOL:
        problems.append(f"attack moves honest sensors by {worst_stealth:.2e}")
    if worst_res >= RESIDUAL_TOL:
        problems.append(f"attack changes the bad-data residual by {worst_res:.2e}")
    return problems


def check_history(path: str, epochs: int) -> tuple[list[str], float]:
    """One finite (epoch, loss, val_loss) row per epoch; returns the last val_loss."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    problems = []
    if len(rows) != epochs:
        problems.append(f"history has {len(rows)} rows for {epochs} epochs")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        problems.append("history epochs are not 0, 1, 2, ...")
    values = [float(x) for r in rows for x in r[1:]]
    if not all(math.isfinite(x) for x in values):
        problems.append("non-finite loss in history")
    return problems, float(rows[-1][2]) if rows else math.nan


def check_reload(saved_digest: str, capture, path: str) -> list[str]:
    """The checkpoint eval read back equals, bit for bit, the one train wrote."""
    loaded = [payload for p, payload in capture.loaded if p == path]
    if not loaded:
        return [f"{path} was never read back"]
    if digest(loaded[-1]) != saved_digest:
        return [f"{path} does not reload bit-exact"]
    return []


def check_forecast_report(report: dict, horizons) -> list[str]:
    got = report.get("horizons", {})
    problems = []
    if sorted(int(h) for h in got) != sorted(horizons):
        problems.append(f"report covers horizons {sorted(got)}, expected {list(horizons)}")
    if not all(math.isfinite(v) for v in got.values()):
        problems.append("non-finite MSE in report")
    return problems


def check_fdi_report(report: dict, omegas, labels_scored: int) -> list[str]:
    got = report.get("omegas", {})
    problems = []
    if sorted(float(w) for w in got) != sorted(omegas):
        problems.append(f"report covers omegas {sorted(got)}, expected {list(omegas)}")
    for w, r in got.items():
        scored = r["tp"] + r["tn"] + r["fp"] + r["fn"]
        if scored != labels_scored:
            problems.append(f"omega {w}: confusion counts sum to {scored}, "
                            f"expected {labels_scored}")
    return problems


def fdi_labels_scored(systems, window: int, stride: int, max_attacks: int) -> int:
    """Bus labels `ugcn eval` scores per omega on these systems at its defaults."""
    total = 0
    for s in systems:
        live = [a for a in s.attacks if not a.is_null][:max_attacks]
        total += len(live) * s.n * len(range(window - 1, s.t_total, stride))
    return total
