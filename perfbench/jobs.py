"""Seeded job lists for the four benchmark workloads.

A workload's job list starts with its shipped scenario files, unchanged,
and adds seeded variants around them. The variants are stratified: every
list holds the same mix of job kinds and one draw from each parameter
stratum, so two seeds give lists of nearly the same cost and the timings
are comparable across seeds.

Generated files are written with fixed formatting and observation values
rounded to 6 decimals, so the inputs do not move with last-bit changes in
the kinetics.
"""

import configparser
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

OBS_TIMES = np.round(np.linspace(1e-4, 4.8e-3, 60), 7)


@dataclass
class Job:
    """One `pumpsim` invocation and what its output checks need to know."""

    id: str
    command: str
    config: str
    flags: list = field(default_factory=list)
    data: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)

    def argv(self, out: str) -> list:
        return [self.command, "--config", self.config, *self.flags, *self.data,
                "--out", out]


def _read_scenario(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _write_scenario(path, sections: dict) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return path


def _num(x: float) -> str:
    return f"{x:.6g}"


def _strata(rng, lo, hi, n):
    """One uniform draw from each of n equal slices of [lo, hi)."""
    width = (hi - lo) / n
    return [lo + (k + rng.random()) * width for k in range(n)]


def _with_beams(sections: dict, beams_from: dict, alpha: float) -> dict:
    out = dict(sections)
    for name, items in beams_from.items():
        if name.startswith("beams.") or name == "constants":
            out[name] = dict(items)
    for name in out:
        if name.startswith("beams."):
            out[name]["alpha"] = _num(alpha)
    return out


def _pump_jobs(rng, scen, indir):
    shipped = os.path.join(scen, "fig5_dynamics.ini")
    jobs = [Job("fig5", "pump", shipped),
            Job("fig5_prune", "pump", shipped, ["--prune"], expect={"pruned": True})]
    base = _read_scenario(shipped)
    for t_end in (0.005, 0.05):
        for pruned in (False, True):
            for k, alpha in enumerate(_strata(rng, 0.0, 0.05, 5)):
                s = {name: dict(items) for name, items in base.items()}
                s["beams.pb"].update(intensity_ratio=_num(rng.uniform(0.01, 0.04)),
                                     detuning_gamma=_num(rng.uniform(-1.0, 0.0)),
                                     alpha=_num(alpha))
                s["beams.repumper"].update(intensity_ratio=_num(rng.uniform(0.01, 0.05)),
                                           alpha=_num(alpha))
                s["integration"]["t_end_s"] = _num(t_end)
                jid = f"pump_t{int(t_end * 1e3)}ms_{'prune' if pruned else 'full'}_a{k}"
                path = _write_scenario(os.path.join(indir, jid + ".ini"), s)
                jobs.append(Job(jid, "pump", path, ["--prune"] if pruned else [],
                                expect={"pruned": pruned}))
    return jobs


def _fit_jobs(rng, scen, indir):
    from pumpsim.config import load_config
    from pumpsim.fitting import simulate_observable
    from pumpsim.structure import parse_label

    shipped = os.path.join(scen, "fig5_dynamics.ini")
    beams = load_config(shipped).beams
    # the number of fit evaluations depends on the truth and the noise, so
    # both are stratified: each of 8 contamination slices holds one
    # noiseless and one noisy job, and every (series, fit-scale) cell
    # appears twice among each
    cells = []
    for noisy in (False, True):
        shapes = [(n, scaled) for n in (1, 2) for scaled in (False, True)] * 2
        order = rng.permutation(len(shapes))
        alphas = _strata(rng, 0.0, 0.05, len(shapes))
        cells += [(alphas[k], shapes[i], noisy) for k, i in enumerate(order)]
    jobs = []
    for k, (alpha, (n_series, scaled), noisy) in enumerate(sorted(cells)):
        alpha = round(alpha, 6)
        jid = f"fit_a{k:02d}_s{n_series}{'_noisy' if noisy else ''}{'_scale' if scaled else ''}"
        data = []
        for label in ("g4_m0", "g4_m1")[:n_series]:
            values = simulate_observable(beams, alpha, OBS_TIMES, parse_label(label))
            if noisy:
                values = np.clip(values + rng.uniform(-0.02, 0.02, values.size), 0.0, 1.0)
            path = os.path.join(indir, f"{jid}_{label}.csv")
            rows = [f"# observable = {label}"]
            rows += [f"{t:.7g},{v:.6f}" for t, v in zip(OBS_TIMES, values)]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
            data.append(path)
        jobs.append(Job(jid, "fit", shipped, ["--fit-scale"] if scaled else [], data,
                        expect={"alpha_true": alpha, "noiseless": not noisy,
                                "fit_scale": scaled}))
    return jobs


def _spectrum_jobs(rng, scen, indir):
    fig3 = os.path.join(scen, "fig3_polarized.ini")
    counter = [
        Job("table1", "spectrum", os.path.join(scen, "table1_widths.ini"),
            expect={"sigma_vr": 4.0}),
        Job("fig4", "spectrum", os.path.join(scen, "fig4_velocimetry.ini"),
            expect={"sigma_vr": 4.8}),
    ]
    # one counterpropagating job per Table 1 row: the shipped files hold 4.0
    # and 4.8 without beams; the 5.2 row is pumped first or not, by seed.
    # A counterpropagating job takes seconds, so one per row keeps the list
    # inside the time budget while its cost stays the same for every seed.
    s = _read_scenario(os.path.join(scen, "table1_widths.ini"))
    s["velocity"]["sigma_vr"] = _num(5.2)
    with_beams = bool(rng.integers(0, 2))
    if with_beams:
        s = _with_beams(s, _read_scenario(os.path.join(scen, "fig5_dynamics.ini")),
                        rng.uniform(0.0, 0.05))
    jid = f"counter_5.2vr{'_beams' if with_beams else ''}"
    path = _write_scenario(os.path.join(indir, jid + ".ini"), s)
    counter.append(Job(jid, "spectrum", path, expect={"sigma_vr": 5.2}))

    co = [Job("fig3_prune", "spectrum", fig3, ["--prune"])]
    base = _read_scenario(fig3)
    for pruned in (False, True):
        for k, alpha in enumerate(_strata(rng, 0.0, 0.05, 6)):
            s = {name: dict(items) for name, items in base.items()}
            for beam in ("beams.pb", "beams.repumper"):
                s[beam]["alpha"] = _num(alpha)
            s["field"]["bias_gauss"] = _num(rng.uniform(0.05, 0.2))
            s["field"]["rms_fluct_gauss"] = _num(rng.uniform(1e-4, 6e-4))
            jid = f"co_{'prune' if pruned else 'full'}_a{k}"
            path = _write_scenario(os.path.join(indir, jid + ".ini"), s)
            co.append(Job(jid, "spectrum", path, ["--prune"] if pruned else []))
    # spread the short copropagating jobs between the long ones, so their
    # times sample the whole round rather than one stretch of it
    step = -(-len(co) // len(counter))
    return [job for i, long in enumerate(counter)
            for job in co[i * step:(i + 1) * step] + [long]]


def _heat_jobs(rng, scen, indir):
    shipped = os.path.join(scen, "heating_paper.ini")
    jobs = [Job("heating_paper", "heat", shipped),
            Job("heating_paper_prune", "heat", shipped, ["--prune"])]
    base = _read_scenario(shipped)
    for pruned in (False, True):
        for k, alpha in enumerate(_strata(rng, 0.0, 0.03, 5)):
            s = {name: dict(items) for name, items in base.items()}
            for beam in ("beams.pb", "beams.repumper"):
                s[beam]["alpha"] = _num(alpha)
            mc_seed = int(rng.integers(0, 2**32))
            jid = f"heat_{'prune' if pruned else 'full'}_a{k}"
            path = _write_scenario(os.path.join(indir, jid + ".ini"), s)
            flags = (["--prune"] if pruned else []) + ["--seed", str(mc_seed)]
            jobs.append(Job(jid, "heat", path, flags))
    return jobs


_MAKERS = {
    "pump_sweep": _pump_jobs,
    "fit_sweep": _fit_jobs,
    "spectrum_mix": _spectrum_jobs,
    "heat_sweep": _heat_jobs,
}
WORKLOADS = tuple(_MAKERS)


def make_jobs(workload: str, seed: int, root: str, indir: str) -> list:
    """Write the inputs of `workload` for `seed` into `indir` and return its
    jobs. `root` is the repository holding `scenarios/`."""
    os.makedirs(indir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _MAKERS[workload](rng, os.path.join(root, "scenarios"), indir)


def _file_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def inputs_digest(jobs) -> str:
    """sha256 over every job's arguments and input file contents; paths
    enter only by file name, so the digest does not depend on where the
    round was written."""
    h = hashlib.sha256()
    for job in jobs:
        record = {
            "id": job.id, "command": job.command, "flags": job.flags,
            "config": [os.path.basename(job.config), _file_sha(job.config)],
            "data": [[os.path.basename(p), _file_sha(p)] for p in job.data],
            "expect": job.expect,
        }
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def job_outputs_digest(out) -> str:
    """sha256 over every file in one job's output directory, by file name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        h.update(f"{name}\0".encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def outputs_digest(job_digests) -> str:
    """sha256 over the per-job output digests, in job order."""
    return hashlib.sha256("\n".join(job_digests).encode()).hexdigest()
