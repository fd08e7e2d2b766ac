"""Compare two pumpsim source trees: benchmark pairs and CLI output bytes.

    python3 tools/compare.py <parent-tree> <change-tree> [--pairs 10] [--seed 1 ...]
        [--seconds 10] [--workload <name>[:<seed>,...] ...] [--traced 3] [--layers 10]
        [--processes 10] [--matrix] [--bench BENCH_<n>.json]

Each tree is a directory holding `src/pumpsim`, `scenarios/` and
`perfbench/`, such as a `git archive` of a commit. Nothing in either tree
is edited; the benchmark writes its own scratch folder inside each tree.

With --pairs > 0, `perfbench/run.py --workload <w> --seed <s> --seconds
<t> --trace 0` runs in each tree as a subprocess, in alternating pairs, for
every workload given (default: all four) at each of its own seeds, or at
every --seed given (default 1) when it names none: `--workload
heat_sweep:1,2718 --workload pump_sweep` runs heat_sweep at seeds 1 and
2718 and pump_sweep at the --seed list. The parent runs first in even pairs
and the change in odd ones. Each metric gets medians and
statistics.quantiles(n=4, method='inclusive') per side and `change_wins`,
the pairs where the change reads better. --bench writes the protocol
(`what`), the summary and every run's environment, round, check_fail_frac
and last-line JSON lines, in the layout of BENCH_26.json, and the traced,
layer and matrix reports when they ran; the record's `parent`,
`change` and `claim` are left to its author.

With --traced > 0, the same alternating pairs run with `--trace 1`, and
each per-layer metric of the traced round gets medians, quartiles and
`change_wins` per (workload, seed). One traced round is too noisy to read
alone: repeat it.

With --layers > 0, each tree times layers in process, in fresh processes
alternating as the pairs do: `write_trajectory_csv` on fig5 at 5 ms and
50 ms, with and without --prune, `write_spectrum_csv` on fig3 and fig4,
`assemble_rate_matrix` on the fig5 beams, a whole `cli.main(["states"])`
call with its stdout captured, the fixed cost of every call, a whole
`fit_depolarization` on fig5 with and without --fit-scale, fitting the two
fixed observation files the matrix fits, a whole `heating_summary` on
heating_paper (its cycle counts and the recoil walk) and its
`expected_cycles` alone, each with and without --prune, and spectrum
synthesis: `synth_copropagating` on fig3 with and without --prune and
`synth_counterpropagating` on fig4 and table1. A process runs
each command once with a spy on the layer's name in `pumpsim.cli`, or on a
`module.function` name in pumpsim such as `heating.expected_cycles`, set at
every pumpsim module that binds that function, so that a call which moves
from one module to another is seen in both trees. That first run pays for
imports and first-use caches; the process then calls the layer on what it
was handed LAYER_CALLS times and keeps their median. Each call is paced as
`perfbench/run.py` paces `wall_s`: the tree's `perfbench/pace.py` reference
slices run after it for PACE_SHARE of its time, and the call's time is
rescaled by their mean time to seconds at the reference pace. Each case
gets medians and quartiles of those per-process paced medians per side and
`change_wins`; the record keeps the measured medians too.

With --processes > 0, each tree times fresh `python -m pumpsim` processes,
in rounds alternating as the pairs do: `states --prune` and `pump` with and
without --prune on fig5, `spectrum` on fig3 and fig4, `heat` on
heating_paper and `fit` on fig5 with the two observation files the matrix
fits. A round runs each case PROCESS_CALLS times; each process is timed
from its start to its exit, then paced as a layer call is, with the tree's
`perfbench/pace.py` run in this process, and the round keeps the median.
Each case gets medians and quartiles of those per side and `change_wins`;
the record keeps the measured medians too.

With --matrix, both trees run the CLI output matrix: `states`, `pump` and
`spectrum` with and without --prune, `heat` plain, --prune, --seed 0,
--seed 7 --prune and --seed 2718, and `fit` with and without --fit-scale
on two fixed observation files, on all five scenarios, plus `spectrum` with
and without --prune on fig3 at 0.2 G and 0.5 G, and the REJECTED cases,
each a scenario with one of its keys set to a value the load refuses, so
a change to a check shows in their exit codes and stderr. Exit codes,
stderr, stdout (output paths masked) and every output file's bytes are
compared. A file that differs is listed with its count of differing lines,
the largest move of a numeric data field relative to its column's peak
(fields that are not numbers, such as a fit report's series names, are
skipped), and each `# key=value` line that changed, old and new, with the
move of a numeric value relative to its old value. The exit status is 1 if
anything but file bytes differs.
"""

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

METRICS = ("setup_s", "wall_s", "peak_rss_mb")
TRACED = ("cli.self_s", "kinetics.assemble_rate_matrix.s")  # printed per traced run
WORKLOADS = ("pump_sweep", "fit_sweep", "spectrum_mix", "heat_sweep")
SCENARIOS = ("fig3_polarized", "fig4_velocimetry", "fig5_dynamics", "heating_paper",
             "table1_widths")
FLAGS = ([("states",), ("states", "--prune"), ("pump",), ("pump", "--prune"),
          ("spectrum",), ("spectrum", "--prune"), ("heat",), ("heat", "--prune"),
          ("heat", "--seed", "0"), ("heat", "--seed", "7", "--prune"),
          ("heat", "--seed", "2718"), ("fit", "@obs"), ("fit", "--fit-scale", "@obs")])
# Matrix cases that set one key a scenario already sets to a rejected value:
# (scenario, key, value, command); the valid cases never show a check's exit
# code or stderr
REJECTED = [("fig5_dynamics", "detuning_gamma", "1e77", "pump"),
            ("fig5_dynamics", "intensity_ratio", "-1", "pump"),
            ("fig5_dynamics", "alpha", "-0.1", "pump"),
            ("fig5_dynamics", "target", "4->2", "pump"),
            ("fig3_polarized", "tau_s", "5e-324", "pump"),
            ("fig3_polarized", "tau_s", "5e-324", "spectrum"),
            ("heating_paper", "sigma_vr", "-1", "heat"),
            ("fig3_polarized", "laser_linewidth_hz", "1e300", "pump")]
# In-process layer timings: (case, command, scenario or None, t_end_s or None,
# flags, layer name in pumpsim.cli, `module.function` in pumpsim, or None for
# the whole cli.main call); an "@obs" flag stands for the OBSERVATIONS files,
# as in FLAGS
LAYER_CASES = [(f"write_trajectory_csv fig5 {ms} ms{' --prune' * prune}", "pump",
                "fig5_dynamics", None if ms == 5 else "0.05", ("--prune",) * prune,
                "write_trajectory_csv")
               for ms in (5, 50) for prune in (False, True)]
LAYER_CASES += [(f"write_spectrum_csv {s}", "spectrum", f"{s}_{rest}", None, (),
                 "write_spectrum_csv")
                for s, rest in (("fig3", "polarized"), ("fig4", "velocimetry"))]
LAYER_CASES += [("assemble_rate_matrix fig5", "pump", "fig5_dynamics", None, (),
                 "assemble_rate_matrix"),
                ("cli.main states", "states", None, None, (), None)]
LAYER_CASES += [(f"fit_depolarization fig5{' --fit-scale' * scale}", "fit", "fig5_dynamics",
                 None, ("--fit-scale",) * scale + ("@obs",), "fit_depolarization")
                for scale in (False, True)]
LAYER_CASES += [(f"{name.split('.')[-1]} heating_paper{' --prune' * prune}", "heat",
                 "heating_paper", None, ("--prune",) * prune, name)
                for name in ("heating_summary", "heating.expected_cycles")
                for prune in (False, True)]
LAYER_CASES += [(f"synth_copropagating fig3{' --prune' * prune}", "spectrum", "fig3_polarized",
                 None, ("--prune",) * prune, "synth_copropagating") for prune in (False, True)]
LAYER_CASES += [(f"synth_counterpropagating {s}", "spectrum", scenario, None, (),
                 "synth_counterpropagating")
                for s, scenario in (("fig4", "fig4_velocimetry"), ("table1", "table1_widths"))]
LAYER_CALLS = 7
# Fresh `python -m pumpsim` processes: (case, command, scenario, flags), with
# "@obs" as in FLAGS
PROCESS_CASES = [("states --prune fig5", "states", "fig5_dynamics", ("--prune",)),
                 ("pump fig5", "pump", "fig5_dynamics", ()),
                 ("pump fig5 --prune", "pump", "fig5_dynamics", ("--prune",)),
                 ("spectrum fig3", "spectrum", "fig3_polarized", ()),
                 ("spectrum fig4", "spectrum", "fig4_velocimetry", ()),
                 ("heat heating_paper", "heat", "heating_paper", ()),
                 ("fit fig5", "fit", "fig5_dynamics", ("@obs",))]
PROCESS_CALLS = 3
# Run in each tree as `python -c LAYER_SCRIPT <cases json> <calls> <tools dir>
# <perfbench dir>`: cases are [case, argv, layer name or None]; prints
# {"paced": {case: median seconds}, "measured": {case: median seconds}} as JSON.
LAYER_SCRIPT = """
import contextlib, io, json, sys, tempfile
sys.path[:0] = sys.argv[3:5]
import pace
from compare import spying, time_layer
from pumpsim import cli

def command(case, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"{case}: the command failed")

result = {"paced": {}, "measured": {}}
with tempfile.TemporaryDirectory() as tmp:
    for case, argv, name in json.loads(sys.argv[1]):
        if name is None:
            command(case, argv)
            call = lambda: command(case, argv)
        else:
            handed = []
            with spying(name, handed) as layer:
                command(case, [*argv, "--out", tmp])
            (args, kwargs), = handed
            call = lambda: layer(*args, **kwargs)
        timed = time_layer(call, int(sys.argv[2]), pace)
        for kind in result:
            result[kind][case] = timed[kind]
print(json.dumps(result))
"""
TOOLS = os.path.dirname(os.path.abspath(__file__))   # where LAYER_SCRIPT finds time_layer
OBSERVATIONS = {  # fixed inputs for `fit`: time_s, fraction of atoms in F=4, m=0
    "obs_a.csv": "# observable = g4_m0\n" + "".join(
        f"{t * 1e-4:.4f},{0.84 * (1 - 0.93 ** t) + 0.004 * ((7 * t) % 5 - 2):.6f}\n"
        for t in range(1, 49)),
    "obs_b.csv": "# observable = g4_m0\n" + "".join(
        f"{t * 2e-4:.4f},{0.80 * (1 - 0.88 ** t) - 0.003 * ((3 * t) % 4 - 1.5):.6f},1.0\n"
        for t in range(1, 25)),
}


def describe(values) -> dict:
    """n, median, inclusive quartiles, min and max of a list of numbers; the
    quartiles of one number are that number, so one round still reports."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def layer_owner(name: str) -> tuple:
    """(module, attribute) of a layer name: `pumpsim.cli` holds a bare name,
    and `pumpsim.<module>` a `module.function` name."""
    module, _, attr = name.rpartition(".")
    return importlib.import_module(f"pumpsim.{module or 'cli'}"), attr


@contextlib.contextmanager
def spying(name: str, handed: list):
    """Spy on the layer `name` (see layer_owner) while the block runs: every
    pumpsim module that binds it holds a spy that appends each call's (args,
    kwargs) to `handed`, as perfbench/spans.py's `Tracer.install` wraps each
    binding, and every binding is restored afterwards. Yields the layer."""
    owner, attr = layer_owner(name)
    layer = getattr(owner, attr)

    def spy(*args, **kwargs):
        handed.append((args, kwargs))
        return layer(*args, **kwargs)

    bound = [module for module_name, module in list(sys.modules.items())
             if (module_name == "pumpsim" or module_name.startswith("pumpsim."))
             and getattr(module, attr, None) is layer]
    for module in bound:
        setattr(module, attr, spy)
    try:
        yield layer
    finally:
        for module in bound:
            setattr(module, attr, layer)


def time_layer(call, calls, pace, clock=time.perf_counter) -> dict:
    """The median "measured" and "paced" seconds of `calls` calls of
    `call`: after each, the reference slices of `pace` (perfbench/pace.py)
    run for its PACE_SHARE of the call's time, and the paced time is the
    call's time rescaled by their mean time to the reference pace."""
    measured, paced = [], []
    for _ in range(calls):
        start = clock()
        call()
        measured.append(clock() - start)
        elapsed, slices = pace.pace(pace.PACE_SHARE * measured[-1])
        paced.append(pace.at_reference_pace(measured[-1], elapsed / slices))
    return {"measured": statistics.median(measured), "paced": statistics.median(paced)}


def workload_spec(text: str) -> tuple:
    """A --workload value, NAME or NAME:SEED,SEED..., as (name, its seeds)."""
    name, _, seeds = text.partition(":")
    if name not in WORKLOADS:
        raise argparse.ArgumentTypeError(f"unknown workload {name!r}; choose from "
                                         f"{', '.join(WORKLOADS)}")
    try:
        return name, tuple(int(seed) for seed in seeds.split(",")) if seeds else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: seeds must be integers") from None


def plan(specs, seeds) -> list:
    """(workload, seed) in run order: each workload of `specs` at its own
    seeds, or at every one of `seeds` when it names none."""
    return [(name, seed) for name, own in specs for seed in (own or seeds)]


def describe_plan(jobs) -> str:
    """The seeds of each workload in `jobs`, for a record's `what`."""
    seeds = {}
    for name, seed in jobs:
        seeds.setdefault(name, []).append(seed)
    return "; ".join(f"{name} at seeds {listed}" for name, listed in seeds.items())


def parse_run(stdout: str) -> dict:
    """The lines of one perfbench/run.py output that a comparison keeps."""
    lines = stdout.strip().splitlines()
    return {"environment": next((ln for ln in lines if ln.startswith("environment:")), None),
            "rounds": [ln for ln in lines if re.match(r"round \d+", ln)],
            "check_fail_frac": next((ln for ln in lines if ln.startswith("check_fail_frac")),
                                    None),
            "result": json.loads(lines[-1])}


def versus(parent, change) -> dict:
    """describe() of each side's values, in pair order, and change_wins,
    the pairs where the change reads lower."""
    return {"parent": describe(parent), "change": describe(change),
            "change_wins": sum(c < p for p, c in zip(parent, change))}


def summarize(runs) -> list:
    """One summary per (workload, seed) from run records that carry workload,
    seed, pair, side and the parsed run; every metric here is better lower."""
    out = []
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        mine = [r for r in runs if (r["workload"], r["seed"]) == key]
        side = {s: sorted((r for r in mine if r["side"] == s), key=lambda r: r["pair"])
                for s in ("parent", "change")}
        entry = {"workload": key[0], "seed": key[1], "pairs": len(side["change"])}
        for name in METRICS:
            entry[name] = versus(*([r["result"]["metrics"][name]["value"] for r in side[s]]
                                   for s in ("parent", "change")))
        for field in ("failed", "attempted"):
            entry[field] = {s: sum(r["result"][field] for r in side[s]) for s in side}
        entry["correct"] = {s: all(r["result"]["correct"] for r in side[s]) for s in side}
        entry["check_fail_frac"] = {s: sorted({r["check_fail_frac"] for r in side[s]})
                                    for s in side}
        entry["outputs_sha256"] = {s: sorted({re.search(r"outputs_sha256=(\w+)", ln)[1]
                                              for r in side[s] for ln in r["rounds"]})
                                   for s in side}
        out.append(entry)
    return out


def summarize_traced(runs) -> dict:
    """summarize_layers() of each (workload, seed)'s traced runs, by pair,
    over every per-layer metric; keys are "<workload> seed <seed>"."""
    return {f"{w} seed {s}": summarize_layers([
        {"round": r["pair"], "side": r["side"],
         "times": {name: m["value"] for name, m in r["result"]["metrics"].items()}}
        for r in runs if (r["workload"], r["seed"]) == (w, s)])
        for w, s in dict.fromkeys((r["workload"], r["seed"]) for r in runs)}


def summarize_layers(runs) -> dict:
    """versus() per case over layer runs that carry round, side and times,
    {case: seconds}."""
    side = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["round"])
            for s in ("parent", "change")}
    return {case: versus(*([r["times"][case] for r in side[s]] for s in side))
            for case in side["parent"][0]["times"]} if runs else {}


def mask(text: str, paths) -> str:
    """text with each of `paths` (longest first) replaced by <path0>, <path1>..."""
    for i, path in sorted(enumerate(paths), key=lambda ip: -len(ip[1])):
        text = text.replace(path, f"<path{i}>")
    return text


def number(text: str):
    """text as a float, or None when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def moves(old: bytes, new: bytes) -> dict:
    """How far `new` moved from `old`: the count of differing lines, the
    largest change of a data value relative to its column's peak in `old`
    (None if no number of a data row moved), each differing `# key=value`
    line as key: [old value, new value], and in `header_move` each numeric
    one's change relative to its old value. A data row's fields that are not
    numbers, such as the series names of a fit report, are skipped."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    out = {"lines": len(a), "differing": sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)),
           "data_move": None, "header": {}, "header_move": {}}
    if len(a) != len(b):
        return out

    def numbers(line):
        """The numeric fields of a row, by column."""
        return {i: v for i, field in enumerate(line.split(",")) if (v := number(field)) is not None}

    rows = [(numbers(x), numbers(y)) for x, y in zip(a, b) if not x.startswith("#")]
    peak = {}
    for x, _ in rows:
        for i, v in x.items():
            peak[i] = max(peak.get(i, 0.0), abs(v))
    for x, y in rows:
        for i in sorted(x.keys() & y.keys()):
            if x[i] != y[i]:
                move = abs(x[i] - y[i]) / peak[i] if peak[i] else float("inf")
                out["data_move"] = max(out["data_move"] or 0.0, move)
    for x, y in zip(a, b):
        if x != y and x.startswith("#") and y.startswith("#"):
            key, _, value = x.lstrip("# ").partition("=")
            out["header"][key] = [value, y.partition("=")[2]]
            u, v = number(value), number(out["header"][key][1])
            if u is not None and v is not None:
                out["header_move"][key] = abs(u - v) / abs(u) if u else float("inf")
    return out


def _bench_env() -> dict:
    """This environment without PYTHONPATH, so each tree runs its own pumpsim."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def run_pairs(trees, jobs, seconds, pairs, trace=0) -> list:
    """`pairs` alternating perfbench runs per tree for each (workload, seed)
    of `jobs`; traced runs report per-layer metrics in place of METRICS."""
    runs = []
    for workload, seed in jobs:
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, os.path.join(trees[side], "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace)]
                done = subprocess.run(cmd, cwd=trees[side], env=_bench_env(),
                                      capture_output=True, text=True)
                if done.returncode != 0:
                    raise RuntimeError(f"{side} {workload} pair {pair}: exit "
                                       f"{done.returncode}\n{done.stderr}")
                run = parse_run(done.stdout) | {"workload": workload, "seed": seed,
                                                "pair": pair, "side": side, "first": order[0]}
                runs.append(run)
                m, shown = run["result"]["metrics"], TRACED if trace else METRICS
                print(f"{workload} seed {seed} pair {pair} {side}: " + ", ".join(
                    f"{name} {m[name]['value']:.4g}" for name in shown), flush=True)
    return runs


def scenario_config(tree, work, name, scenario, edits) -> str:
    """The path of `scenario`'s config in `tree`, or of a copy in `work`
    with each `key = value` line of `edits` (key: value) replaced."""
    config = os.path.join(tree, "scenarios", f"{scenario}.ini")
    if not edits:
        return config
    with open(config, encoding="utf-8") as fh:
        text = fh.read()
    for key, value in edits.items():
        text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
    config = os.path.join(work, f"{name}.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    return config


def write_observations(work) -> list:
    """The paths of the OBSERVATIONS files, in name order, written to `work`."""
    paths = []
    for name in sorted(OBSERVATIONS):
        paths.append(os.path.join(work, name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(OBSERVATIONS[name])
    return paths


def expand(flags, data) -> list:
    """`flags` with each "@obs" replaced by the observation file paths `data`."""
    return [a for f in flags for a in (data if f == "@obs" else [f])]


def layer_cases(tree, work, side) -> list:
    """LAYER_SCRIPT's cases for `tree`: [case, argv, layer name or None], with
    edited scenario copies written to `work` under names that start with `side`,
    and the OBSERVATIONS files too when a case fits them."""
    out = []
    for i, (case, command, scenario, t_end, flags, name) in enumerate(LAYER_CASES):
        argv = [command]
        if scenario is not None:
            argv += ["--config", scenario_config(tree, work, f"{side}-{i}", scenario,
                                                 {"t_end_s": t_end} if t_end else {})]
        data = write_observations(work) if "@obs" in flags else []
        out.append([case, argv + expand(flags, data), name])
    return out


def alternate(trees, rounds, label, digits, time_side) -> list:
    """`rounds` rounds in which each tree is timed in turn, alternating which
    goes first, by `time_side(round, side, env)`: {"paced": {case: seconds},
    "measured": {case: seconds}}, with `env` running the side's pumpsim."""
    runs = []
    for i in range(rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            env = _bench_env() | {"PYTHONPATH": os.path.join(trees[side], "src")}
            timed = time_side(i, side, env)
            runs.append({"round": i, "side": side, "first": order[0],
                         "times": timed["paced"], "measured": timed["measured"]})
            print(f"{label} round {i} {side} (paced): " + ", ".join(
                f"{t * 1e3:.{digits}f} ms" for t in timed["paced"].values()), flush=True)
    return runs


def run_layers(trees, rounds) -> list:
    """`rounds` fresh timing processes per tree, alternating which runs first."""
    with tempfile.TemporaryDirectory(prefix="pumpsim-layers-") as work:
        cases = {side: layer_cases(tree, work, side) for side, tree in trees.items()}

        def time_side(i, side, env):
            done = subprocess.run([sys.executable, "-c", LAYER_SCRIPT, json.dumps(cases[side]),
                                   str(LAYER_CALLS), TOOLS,
                                   os.path.join(trees[side], "perfbench")],
                                  cwd=work, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"{side} layers round {i}: exit {done.returncode}\n"
                                   f"{done.stderr}")
            return json.loads(done.stdout)
        return alternate(trees, rounds, "layers", 3, time_side)


def process_cases(tree, work, side) -> list:
    """(case, argv after `python -m pumpsim`) for each of PROCESS_CASES in
    `tree`, writing to a folder of `work` named after the side and the case
    index, with the OBSERVATIONS files read from `work`."""
    data = [os.path.join(work, name) for name in sorted(OBSERVATIONS)]
    return [(case, [command, "--config", os.path.join(tree, "scenarios", f"{scenario}.ini"),
                    "--out", os.path.join(work, f"{side}-{i}"), *expand(flags, data)])
            for i, (case, command, scenario, flags) in enumerate(PROCESS_CASES)]


def load_pace(tree):
    """`tree`'s perfbench/pace.py, as a module kept out of sys.modules."""
    path = os.path.join(tree, "perfbench", "pace.py")
    spec = importlib.util.spec_from_file_location("pace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_processes(trees, rounds) -> list:
    """`rounds` rounds per tree of PROCESS_CALLS fresh processes per case,
    alternating which tree runs first; time_layer times and paces each
    process and keeps the medians."""
    with tempfile.TemporaryDirectory(prefix="pumpsim-processes-") as work:
        write_observations(work)
        cases = {side: process_cases(tree, work, side) for side, tree in trees.items()}
        paces = {side: load_pace(tree) for side, tree in trees.items()}

        def time_side(i, side, env):
            timed = {}
            for case, argv in cases[side]:
                def call():
                    done = subprocess.run([sys.executable, "-m", "pumpsim", *argv],
                                          cwd=work, env=env, capture_output=True, text=True)
                    if done.returncode != 0:
                        raise RuntimeError(f"{side} {case} round {i}: exit "
                                           f"{done.returncode}\n{done.stderr}")
                timed[case] = time_layer(call, PROCESS_CALLS, paces[side])
            return {key: {case: t[key] for case, t in timed.items()}
                    for key in ("paced", "measured")}
        return alternate(trees, rounds, "processes", 1, time_side)


def matrix_cases() -> list:
    """(name, scenario, {key: value} edits, argv after the command's config)."""
    cases = [(f"{s}-{'-'.join(f)}".replace("@obs", "obs").replace("--", ""), s, {}, f)
             for s in SCENARIOS for f in FLAGS]
    cases += [(f"fig3_polarized-{b}G-{'-'.join(f)}".replace("--", ""), "fig3_polarized",
               {"bias_gauss": b}, f)
              for b in ("0.2", "0.5") for f in (("spectrum",), ("spectrum", "--prune"))]
    cases += [(f"{s}-{command}-rejected-{key}", s, {key: value}, (command,))
              for s, key, value, command in REJECTED]
    return cases


def run_case(tree, work, name, scenario, edits, flags) -> dict:
    config = scenario_config(tree, work, name, scenario, edits)
    out = os.path.join(work, name)
    data = [os.path.join(work, f) for f in sorted(OBSERVATIONS)]
    argv = [flags[0], "--config", config, "--out", out, *expand(flags[1:], data)]
    env = _bench_env() | {"PYTHONPATH": os.path.join(tree, "src")}
    done = subprocess.run([sys.executable, "-m", "pumpsim", *argv], cwd=work, env=env,
                          capture_output=True)
    files = {}
    for root, _, names in os.walk(out):
        for f in names:
            with open(os.path.join(root, f), "rb") as fh:
                files[os.path.relpath(os.path.join(root, f), out)] = fh.read()
    paths = [out, work, tree]
    return {"code": done.returncode, "stdout": mask(done.stdout.decode(), paths),
            "stderr": mask(done.stderr.decode(), paths), "files": files}


def run_matrix(trees) -> dict:
    """Every case in both trees; returns the differences found."""
    report = {"cases": 0, "mismatch": [], "moved": []}
    with tempfile.TemporaryDirectory(prefix="pumpsim-compare-") as tmp:
        works = {}
        for side in trees:
            works[side] = os.path.join(tmp, side)
            os.makedirs(works[side])
            write_observations(works[side])
        for name, scenario, edits, flags in matrix_cases():
            got = {s: run_case(trees[s], works[s], name, scenario, edits, flags) for s in trees}
            report["cases"] += 1
            old, new = got["parent"], got["change"]
            for what in ("code", "stdout", "stderr"):
                if old[what] != new[what]:
                    report["mismatch"].append(f"{name}: {what}")
            if sorted(old["files"]) != sorted(new["files"]):
                report["mismatch"].append(f"{name}: file names")
            for f in sorted(set(old["files"]) & set(new["files"])):
                if old["files"][f] != new["files"][f]:
                    report["moved"].append({"case": name, "file": f}
                                           | moves(old["files"][f], new["files"][f]))
            print(f"{name}: exit {old['code']}/{new['code']}, {len(new['files'])} file(s)",
                  flush=True)
    return report


def report_timings(runs, rounds, digits, what) -> dict:
    """Prints summarize_layers(runs) per case in ms to `digits` decimals and
    returns the record of `runs` described by `what`."""
    summary = summarize_layers(runs)
    for case, entry in summary.items():
        p, c = entry["parent"], entry["change"]
        print(f"{case}: paced median {p['median'] * 1e3:.{digits}f} -> "
              f"{c['median'] * 1e3:.{digits}f} ms ({c['median'] / p['median'] - 1:+.1%}), "
              f"parent IQR {(p['q3'] - p['q1']) * 1e3:.{digits}f} ms, change lower in "
              f"{entry['change_wins']} of {rounds}")
    return {"what": what, "summary": summary, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", type=workload_spec, action="append",
                        help="a workload, or NAME:SEED,SEED... for one with its own seeds; "
                             "repeatable (default: all four)")
    parser.add_argument("--seed", type=int, action="append",
                        help="a seed for every workload that names none, repeatable "
                             "(default 1)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0,
                        help="traced perfbench runs per tree for each workload and seed")
    parser.add_argument("--layers", type=int, default=0,
                        help="rounds of in-process layer timings per tree")
    parser.add_argument("--processes", type=int, default=0,
                        help="rounds of fresh `python -m pumpsim` process timings per tree")
    parser.add_argument("--bench", help="write the summaries and runs to this JSON file")
    parser.add_argument("--matrix", action="store_true", help="compare the CLI output matrix")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    jobs = plan(args.workload or [(name, ()) for name in WORKLOADS], args.seed or [1])
    record, status = {}, 0
    if args.pairs > 0:
        runs = run_pairs(trees, jobs, args.seconds, args.pairs)
        summary = summarize(runs)
        for entry in summary:
            for name in METRICS:
                p, c = entry[name]["parent"], entry[name]["change"]
                print(f"{entry['workload']} seed {entry['seed']} {name}: median "
                      f"{p['median']:.4f} -> {c['median']:.4f} "
                      f"({c['median'] / p['median'] - 1:+.1%}), parent IQR "
                      f"{p['q3'] - p['q1']:.4f}, change lower in "
                      f"{entry[name]['change_wins']} of {entry['pairs']}")
        record |= {
            "what": f"python3 perfbench/run.py --workload <w> --seed <s> for {describe_plan(jobs)} "
                    f"--seconds {args.seconds:g} --trace 0 in each tree, run by "
                    "tools/compare.py: alternating pairs, the parent first in even "
                    "pairs; quartiles from statistics.quantiles(n=4, "
                    "method='inclusive'); change_wins counts pairs where the change "
                    "reads lower",
            "summary": summary, "runs": runs}
    if args.traced > 0:
        runs = run_pairs(trees, jobs, args.seconds, args.traced, trace=1)
        summary = summarize_traced(runs)
        for key, table in summary.items():
            for name, entry in table.items():
                p, c = entry["parent"], entry["change"]
                print(f"{key} {name}: median {p['median']:.6g} -> {c['median']:.6g}, parent "
                      f"IQR {p['q3'] - p['q1']:.3g}, change lower in {entry['change_wins']} "
                      f"of {args.traced}")
        record["traced"] = {
            "what": f"python3 perfbench/run.py --workload <w> --seed <s> for {describe_plan(jobs)} "
                    "--trace 1 in each tree, alternating as the pairs do; medians and "
                    "inclusive quartiles of each per-layer metric over runs; change_wins "
                    "counts runs where the change reads lower",
            "summary": summary, "runs": runs}
    if args.layers > 0:
        record["layers"] = report_timings(
            run_layers(trees, args.layers), args.layers, 3,
            f"{args.layers} fresh processes per tree, alternating as the pairs do; each runs "
            "a case's command once with a spy on its layer, then times the layer on what the "
            f"command handed it (or the whole cli.main call) {LAYER_CALLS} times, each call "
            "followed by the tree's perfbench/pace.py reference slices, and keeps the median "
            "of the calls' times at the reference pace (`times`, seconds) and as measured "
            "(`measured`); the summary has medians and inclusive quartiles of the paced "
            "medians over processes")
    if args.processes > 0:
        record["processes"] = report_timings(
            run_processes(trees, args.processes), args.processes, 1,
            f"{args.processes} rounds per tree, alternating as the pairs do, of "
            f"{PROCESS_CALLS} fresh `python -m pumpsim` processes per case, each timed from "
            "start to exit and followed by the tree's perfbench/pace.py reference slices run "
            "in the comparing process; a round keeps the median of its processes' times at "
            "the reference pace (`times`, seconds) and as measured (`measured`); the summary "
            "has medians and inclusive quartiles of the paced medians over rounds")
    if args.matrix:
        report = run_matrix(trees)
        print(f"{report['cases']} cases per tree; {len(report['mismatch'])} mismatch(es), "
              f"{len(report['moved'])} file(s) with moved bytes")
        for line in report["mismatch"]:
            print(f"  mismatch {line}")
        for m in report["moved"]:
            print(f"  moved {m['case']}/{m['file']}: {m['differing']} of {m['lines']} lines, "
                  f"largest move {m['data_move']} of the peak, header {m['header']}, "
                  f"relative header moves {m['header_move']}")
        record["matrix"] = report
        status = 1 if report["mismatch"] else 0
    if args.bench:
        with open(args.bench, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return status

if __name__ == "__main__":
    sys.exit(main())
