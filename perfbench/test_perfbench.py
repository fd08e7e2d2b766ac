"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They check that a seed fixes the inputs and outputs, that metric names
are well formed, that each output check rejects a corrupted copy of a
real output, and that tracing changes no output byte.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from pumpsim import cli, fitting, heating, kinetics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _digest(made, out):
    return jobs.outputs_digest(jobs.job_outputs_digest(os.path.join(out, j.id)) for j in made)


def _round(tmp_path, workload, seed, count, tag):
    made = jobs.make_jobs(workload, seed, ROOT, str(tmp_path / f"in{tag}"))[:count]
    out = str(tmp_path / f"out{tag}")
    _, records = worker.run_round(made, out)
    assert all(r["code"] == 0 and r["error"] is None for r in records), records
    return made, out


@pytest.mark.parametrize("workload", ["pump_sweep", "fit_sweep", "heat_sweep"])
def test_same_seed_same_digests(tmp_path, workload):
    a, out_a = _round(tmp_path, workload, 7, 4, "a")
    b, out_b = _round(tmp_path, workload, 7, 4, "b")
    assert jobs.inputs_digest(a) == jobs.inputs_digest(b)
    assert _digest(a, out_a) == _digest(b, out_b)
    other = jobs.make_jobs(workload, 8, ROOT, str(tmp_path / "in_other"))[:4]
    assert jobs.inputs_digest(other) != jobs.inputs_digest(a)


def test_metric_names(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = [m["name"] for m in bench["end_to_end"]]
    declared_layer = [m["name"] for m in bench["per_layer"]]
    assert declared_layer == [name for name, _ in spans.PER_LAYER]

    made = jobs.make_jobs("pump_sweep", 1, ROOT, str(tmp_path / "in"))[:12]
    out = str(tmp_path / "out")
    wall, records = worker.run_round(made, out, paced=True)
    assert all(r["pace_s"] > 0 for r in records)
    round_ = {"environment": worker.environment(), "traced": False, "wall_s": wall,
              "peak_rss_mb": 80.0, "jobs": records, "inputs_sha256": jobs.inputs_digest(made),
              "outputs_sha256": worker.check_round(made, records, out)}
    probes = [{"setup_s": 0.5, "import_s": 0.4, "branching_table_cold_s": 0.01,
               "pace_s": 3e-4}]
    args = SimpleNamespace(workload="pump_sweep", seed=1, seconds=1.0, trace=0)
    env = run.capped_env(2)
    printed = run.report(args, env, 2, probes, [round_, round_])
    assert printed["correct"] and printed["attempted"] == 24
    assert list(printed["metrics"]) == declared_e2e
    for name in declared_e2e + declared_layer:
        assert NAME.fullmatch(name), name
    assert all(int(env[v]) <= 2 for v in run.THREAD_VARS)


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _set_comment(key, value):
    def edit(lines):
        return [f"# {key}={value}" if line.startswith(f"# {key}=") else line for line in lines]
    return edit


def _comment(path, key):
    return float(checks._comments(path)[key])


def _corrupted(job, out, tmp_path, name, filename, edit):
    bad = str(tmp_path / f"bad_{job.id}_{name}")
    shutil.copytree(out, bad)
    _rewrite(os.path.join(bad, filename), edit)
    return [n for n, _ in checks.check_job(job, bad)]


def _job(tmp_path, workload, pick):
    made = jobs.make_jobs(workload, 3, ROOT, str(tmp_path / "in"))
    job = next(j for j in made if pick(j))
    out = str(tmp_path / "out" / job.id)
    with open(os.devnull, "w") as sink:
        sys_stdout, sys.stdout = sys.stdout, sink
        try:
            assert cli.main(job.argv(out)) == 0
        finally:
            sys.stdout = sys_stdout
    assert checks.check_job(job, out) == []
    return job, out


def test_pump_checks_reject_corruption(tmp_path):
    job, out = _job(tmp_path, "pump_sweep", lambda j: j.id == "fig5")

    def leak(lines):
        cols = lines[1].split(",")
        cols[1] = repr(float(cols[1]) + 1e-8)
        return [lines[0], ",".join(cols)] + lines[2:]

    def swap(lines):
        cols = lines[-1].split(",")
        cols[10], cols[11] = cols[11], cols[10]
        return lines[:-1] + [",".join(cols)]

    assert _corrupted(job, out, tmp_path, "leak", "trajectory.csv", leak) == ["conservation"]
    assert _corrupted(job, out, tmp_path, "swap", "trajectory.csv", swap) == ["expm"]


def test_fit_checks_reject_corruption(tmp_path):
    job, out = _job(tmp_path, "fit_sweep", lambda j: j.expect["noiseless"])
    alpha = _comment(os.path.join(out, "fit_report.txt"), "alpha_hat")
    assert _corrupted(job, out, tmp_path, "conv", "fit_report.txt",
                      _set_comment("converged", "false")) == ["converged"]
    assert "alpha" in _corrupted(job, out, tmp_path, "alpha", "fit_report.txt",
                                 _set_comment("alpha_hat", alpha + 0.01))

    def worse(lines):
        off = job.expect["alpha_true"] + 1e-3
        return _set_comment("sse", 1.0)(_set_comment("alpha_hat", off)(lines))

    assert "sse" in _corrupted(job, out, tmp_path, "sse", "fit_report.txt", worse)


def test_spectrum_checks_reject_corruption(tmp_path):
    job, out = _job(tmp_path, "spectrum_mix", lambda j: j.id == "fig3_prune")

    def bump(lines):
        return [f"0,{float(line.split(',')[1]) + 1e-4!r}" if line.startswith("0,") else line
                for line in lines]

    assert _corrupted(job, out, tmp_path, "m0", "spectrum.csv", bump) == ["m0_line"]

    job, out = _job(tmp_path, "spectrum_mix", lambda j: j.id == "table1")
    sigma = _comment(os.path.join(out, "spectrum.csv"), "sigma_vr")
    assert _corrupted(job, out, tmp_path, "sigma", "spectrum.csv",
                      _set_comment("sigma_vr", sigma * 1.02)) == ["sigma"]
    assert _corrupted(job, out, tmp_path, "conv", "spectrum.csv",
                      _set_comment("converged", "false")) == ["converged"]


def test_heat_checks_reject_corruption(tmp_path):
    job, out = _job(tmp_path, "heat_sweep", lambda j: j.id == "heating_paper_prune")
    path = os.path.join(out, "heating.txt")
    dv = _comment(path, "delta_vrms_vr")
    se = _comment(path, "delta_vrms_standard_error_vr")
    assert _corrupted(job, out, tmp_path, "dv", "heating.txt",
                      _set_comment("delta_vrms_vr", dv + 10 * se)) == ["recoil"]
    assert _corrupted(job, out, tmp_path, "gone", "heating.txt",
                      lambda lines: lines[1:]) == ["outputs"]


@pytest.mark.parametrize("workload,count", [("pump_sweep", 3), ("fit_sweep", 2),
                                            ("heat_sweep", 2)])
def test_traced_outputs_equal_untraced(tmp_path, workload, count):
    made, out = _round(tmp_path, workload, 5, count, "plain")
    original = kinetics.integrate_rk4
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (cli, fitting, heating, kinetics):
            assert module.integrate_rk4.__wrapped__ is original
        _, records = worker.run_round(made, str(tmp_path / "traced"), tracer)
    finally:
        tracer.restore()
    for module in (cli, fitting, heating, kinetics):
        assert module.integrate_rk4 is original
    assert _digest(made, str(tmp_path / "traced")) == _digest(made, out)

    table = tracer.summary()
    assert table[spans.ROOT]["calls"] == count
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(
        table[spans.ROOT]["s"], rel=1e-9)
    assert table["kinetics.integrate_rk4"]["calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pump_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
