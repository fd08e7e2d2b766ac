"""One run of a workload in a fresh process: the workload's job list as
in-process `pumpsim.cli.main` calls, one client in a closed loop.

    python3 perfbench/worker.py <plan.json>

The plan names the repository root, workload, seed, trace flag, scratch
directory, result path and a job-time budget, if any. The worker writes
the seeded inputs and runs round 0, every job once (traced when asked).
With a budget it then repeats the short jobs in further rounds in the
same process, until the rounds' job time reaches the budget and each
short job has MIN_ROUNDS runs, and it paces every job (see pace.py). After each round, outside the timed region, it checks, digests and
deletes the outputs. The result JSON lists the rounds, each with per-job
times, exit codes and check misses, the digests and the peak resident
memory so far, and, when traced, the per-layer metrics.
"""

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time

from pace import PACE_SHARE, pace

# jobs shorter than this are repeated in later rounds, at least until every
# one has MIN_ROUNDS runs; a longer job averages the machine's stalls itself
SHORT_JOB_S = 1.0
MIN_ROUNDS = 3
def run_round(jobs, out_root, tracer=None, paced=False):
    """Run the jobs back to back; returns (wall seconds, records). Paced,
    reference slices run after each job for PACE_SHARE of its time, the
    record holds their mean time as `pace_s`, and the wall seconds leave
    out the pacing."""
    from pumpsim import cli

    records = []
    pacing = 0.0
    start = time.perf_counter()
    for job in jobs:
        argv = job.argv(os.path.join(out_root, job.id))
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.job(job.id, cli.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing job is counted, not fatal
            code, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"id": job.id, "seconds": time.perf_counter() - t0,
                        "code": code, "error": error})
        if paced:
            elapsed, slices = pace(PACE_SHARE * records[-1]["seconds"])
            records[-1]["pace_s"] = elapsed / slices
            pacing += elapsed
    return time.perf_counter() - start - pacing, records


def check_round(jobs, records, out_root, reference=None):
    """Attach each job's output digest and check misses to its record;
    returns the digest over all outputs. With `reference` (job id -> record
    of an earlier round on the same inputs), a job whose bytes match its
    reference takes over that verdict instead of being checked again, and
    one whose bytes differ misses `determinism`."""
    import checks
    import jobs as jobs_mod

    for job, record in zip(jobs, records):
        out = os.path.join(out_root, job.id)
        record["outputs_sha256"] = jobs_mod.job_outputs_digest(out)
        if record["error"] is not None or record["code"] != 0:
            record["failed_checks"] = []
        elif reference is None:
            record["failed_checks"] = checks.check_job(job, out)
        elif reference[job.id]["outputs_sha256"] == record["outputs_sha256"]:
            record["failed_checks"] = reference[job.id]["failed_checks"]
        else:
            record["failed_checks"] = [("determinism", "outputs differ from round 0")]
        record["hard_fail"] = any(name not in checks.KNOWN_DEFECTS
                                  for name, _ in record["failed_checks"])
    return jobs_mod.outputs_digest(r["outputs_sha256"] for r in records)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import jobs as jobs_mod
    import spans

    work = plan["workdir"]
    jobs = jobs_mod.make_jobs(plan["workload"], plan["seed"], plan["root"],
                              os.path.join(work, "in"))
    inputs_sha256 = jobs_mod.inputs_digest(jobs)
    env = environment()

    def one_round(round_jobs, tracer=None, reference=None):
        out_root = os.path.join(work, f"out{len(rounds)}")
        if tracer is not None:
            tracer.install()
        try:
            wall, records = run_round(round_jobs, out_root, tracer,
                                      paced=plan["budget_s"] is not None)
        finally:
            if tracer is not None:
                tracer.restore()
        outputs = check_round(round_jobs, records, out_root, reference)
        shutil.rmtree(out_root, ignore_errors=True)
        rounds.append({"environment": env, "traced": tracer is not None, "wall_s": wall,
                       "peak_rss_mb": _peak_rss_mb(), "jobs": records,
                       "inputs_sha256": inputs_sha256, "outputs_sha256": outputs})

    rounds = []
    tracer = spans.Tracer() if plan["trace"] else None
    reference = None
    if plan["reference"]:
        with open(plan["reference"], encoding="utf-8") as fh:
            reference = {r["id"]: r for r in json.load(fh)["rounds"][0]["jobs"]}
    one_round(jobs, tracer, reference)
    # later rounds take round 0's check verdicts for identical bytes
    first = {r["id"]: r for r in rounds[0]["jobs"]}
    short = [job for job in jobs if first[job.id]["seconds"] < SHORT_JOB_S]
    while plan["budget_s"] is not None and short and (
            len(rounds) < MIN_ROUNDS or sum(r["wall_s"] for r in rounds) < plan["budget_s"]):
        one_round(short, None, first)

    result = {"rounds": rounds}
    if tracer is not None:
        tracer.write(plan["spans"])
        result["per_layer"] = spans.per_layer(tracer, plan["branching_cold_s"])
        result["span_table"] = tracer.summary()
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
