"""Tracing from outside the package.

`Tracer.install` replaces each public function listed in `TARGETS` with a
timing wrapper at every place its name is bound: `from ... import` copies a
name into the importing module, so `pumpsim.cli`, `pumpsim.fitting` and
`pumpsim.heating` each hold their own reference to, for example,
`integrate_rk4`. Spans stay in memory as (name, start, end, parent, job);
`Tracer.restore` puts the originals back. A span's self time is its
duration minus the durations of its direct children.
"""

import importlib
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

from pumpsim.structure import Sublevel, state_index


def _rk4_steps(args, kwargs, result):
    dt = kwargs.get("dt", args[2] if len(args) > 2 else None)
    t_end = kwargs.get("t_end", args[3] if len(args) > 3 else None)
    # the same step count integrate_rk4 derives from its arguments
    return {"rk4_steps": max(1, int(math.ceil(t_end / dt - 1e-9)))}


def _line_grid_points(args, kwargs, result):
    populations = np.asarray(args[0], dtype=float)
    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    lines = sum(populations[state_index(Sublevel("g", 4, m))] != 0.0 for m in range(-3, 4))
    return {"line_grid_points": int(lines) * int(np.size(grid))}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.iterations)}


def _written_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _recoil_cycles(args, kwargs, result):
    r = result.result
    return {"recoil_cycles": int(round(r.samples * r.mean_cycles))}


# (defining module, function, counter computed from arguments and result)
TARGETS = (
    ("config", "load_config", None),
    ("kinetics", "assemble_rate_matrix", None),
    ("kinetics", "prune", None),
    ("kinetics", "integrate_rk4", _rk4_steps),
    ("kinetics", "pump_metrics", None),
    ("kinetics", "write_trajectory_csv", _written_bytes),
    ("raman", "lineshape_fwhm", None),
    ("raman", "synth_copropagating", None),
    ("raman", "synth_counterpropagating", _line_grid_points),
    ("raman", "fit_gaussian", _nfev),
    ("raman", "write_spectrum_csv", _written_bytes),
    ("heating", "expected_cycles", None),
    ("heating", "heating_summary", _recoil_cycles),
    ("heating", "write_heating_summary", None),
    ("fitting", "load_observations", None),
    ("fitting", "fit_depolarization", _nfev),
    ("fitting", "residual_report", None),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.counts = defaultdict(int)
        self._stack = []
        self._job = None
        self._saved = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self._job])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        importlib.import_module("pumpsim.cli")  # binds every name the CLI calls
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pumpsim" or n.startswith("pumpsim."))]
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[f"pumpsim.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._saved.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def restore(self):
        for module, func_name, original in reversed(self._saved):
            setattr(module, func_name, original)
        self._saved.clear()

    def job(self, job_id, fn, *args):
        """Run fn(*args) as the root span of job `job_id`."""
        self._job = job_id
        try:
            return self._wrap(ROOT, fn, None)(*args)
        finally:
            self._job = None

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[0]]
            row["calls"] += 1
            row["s"] += span[2] - span[1]
            row["self_s"] += own
        return dict(table)

    def integrations_inside(self, name: str) -> int:
        """integrate_rk4 spans with an ancestor called `name`."""
        total = 0
        for span in self.spans:
            if span[0] != "kinetics.integrate_rk4":
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            total += parent is not None
        return total

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start!r},{end!r},{'' if parent is None else parent},{job}\n")


# name and unit of every per-layer metric a traced round reports
PER_LAYER = (
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("config.load_config.s", "s"),
    ("kinetics.assemble_rate_matrix.s", "s"),
    ("kinetics.assemble_rate_matrix.calls", "count"),
    ("kinetics.prune.s", "s"),
    ("kinetics.integrate_rk4.s", "s"),
    ("kinetics.integrate_rk4.calls", "count"),
    ("kinetics.integrate_rk4.rk4_steps", "count"),
    ("kinetics.pump_metrics.s", "s"),
    ("kinetics.write_trajectory_csv.s", "s"),
    ("kinetics.write_trajectory_csv.bytes", "B"),
    ("raman.synth_counterpropagating.s", "s"),
    ("raman.synth_counterpropagating.calls", "count"),
    ("raman.synth_counterpropagating.line_grid_points", "count"),
    ("raman.synth_copropagating.s", "s"),
    ("raman.write_spectrum_csv.s", "s"),
    ("raman.write_spectrum_csv.bytes", "B"),
    ("raman.fit_gaussian.s", "s"),
    ("raman.fit_gaussian.nfev", "count"),
    ("raman.lineshape_fwhm.s", "s"),
    ("heating.expected_cycles.s", "s"),
    ("heating.expected_cycles.calls", "count"),
    ("heating.heating_summary.self_s", "s"),
    ("heating.recoil_cycles", "count"),
    ("fitting.fit_depolarization.s", "s"),
    ("fitting.fit_depolarization.nfev", "count"),
    ("fitting.simulations_per_fit", "1/fit"),
    ("fitting.useful_ratio", "1"),
    ("fitting.load_observations.s", "s"),
    ("fitting.residual_report.s", "s"),
    ("structure.branching_table.cold_s", "s"),
)


def per_layer(tracer: Tracer, branching_cold_s: float) -> dict:
    """The PER_LAYER metrics of one traced round; a layer the round never
    calls reads 0."""
    table = tracer.summary()
    values = {"structure.branching_table.cold_s": branching_cold_s,
              "heating.recoil_cycles": tracer.counts["heating.heating_summary.recoil_cycles"],
              "cli.self_s": table.get(ROOT, {}).get("self_s", 0.0),
              "heating.heating_summary.self_s":
                  table.get("heating.heating_summary", {}).get("self_s", 0.0)}
    fits = table.get("fitting.fit_depolarization", {}).get("calls", 0)
    inside = tracer.integrations_inside("fitting.fit_depolarization")
    nfev = tracer.counts["fitting.fit_depolarization.nfev"]
    values["fitting.simulations_per_fit"] = inside / fits if fits else 0.0
    values["fitting.useful_ratio"] = nfev / inside if inside else 0.0
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        if field in ("s", "calls"):
            values[name] = table.get(span, {}).get(field, 0.0 if field == "s" else 0)
        else:
            values[name] = tracer.counts[name]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
