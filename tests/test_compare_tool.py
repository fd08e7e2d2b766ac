"""The pure parts of tools/compare.py: run parsing, summaries, masking and
byte moves. Nothing here starts a process."""

import argparse
import importlib.util
import json
import os
import statistics

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "compare.py")
_spec = importlib.util.spec_from_file_location("compare_tool", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def run_stdout(wall, rss, setup, sha="ab12", failed=0):
    result = {"correct": True, "attempted": 16, "failed": failed,
              "metrics": {"setup_s": {"value": setup, "unit": "s"},
                          "wall_s": {"value": wall, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "\n".join([
        "workload=spectrum_mix seed=1 seconds=10 trace=0",
        "environment: nproc=2 python=3.11.7",
        f"outputs_sha256={sha}",
        f"round 0: 16 jobs, wall 0.4 s, peak rss {rss} MB, outputs_sha256={sha}",
        f"round 1: 16 jobs, wall 0.3 s, peak rss {rss} MB, outputs_sha256={sha}",
        "check_fail_frac = 0.0 1",
        f"wall_s = {wall} s",
        json.dumps(result),
    ])


def test_parse_run_keeps_environment_rounds_and_result():
    run = compare.parse_run(run_stdout(0.2, 65.0, 0.12))
    assert run["environment"] == "environment: nproc=2 python=3.11.7"
    assert [r.split(":")[0] for r in run["rounds"]] == ["round 0", "round 1"]
    assert run["check_fail_frac"] == "check_fail_frac = 0.0 1"
    assert run["result"]["metrics"]["wall_s"]["value"] == 0.2


def test_describe_uses_inclusive_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    got = compare.describe(values)
    assert got == {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0, "min": 1.0, "max": 5.0}
    q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4, method="inclusive")
    assert compare.describe([4.0, 3.0, 2.0, 1.0])["q1"] == q1 == 1.75
    assert compare.describe([4.0, 3.0, 2.0, 1.0])["q3"] == q3 == 3.25


def test_summarize_pairs_by_index_and_counts_change_wins():
    walls = {"parent": [0.30, 0.20, 0.25], "change": [0.21, 0.22, 0.24]}
    runs = []
    for pair in range(3):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            sha = "aa" if side == "parent" else ("bb" if pair else "cc")
            runs.append(compare.parse_run(run_stdout(walls[side][pair], 60.0 + pair, 0.1,
                                                     sha, failed=side == "change"))
                        | {"workload": "spectrum_mix", "seed": 1, "pair": pair,
                           "side": side, "first": order[0]})
    (entry,) = compare.summarize(runs)
    assert (entry["workload"], entry["seed"], entry["pairs"]) == ("spectrum_mix", 1, 3)
    assert entry["wall_s"]["parent"]["median"] == 0.25
    assert entry["wall_s"]["change"]["median"] == 0.22
    # pair 0: 0.21 < 0.30, pair 1: 0.22 > 0.20, pair 2: 0.24 < 0.25
    assert entry["wall_s"]["change_wins"] == 2
    # equal values are not a win
    assert entry["peak_rss_mb"]["change_wins"] == 0
    assert entry["failed"] == {"parent": 0, "change": 3}
    assert entry["attempted"] == {"parent": 48, "change": 48}
    assert entry["correct"] == {"parent": True, "change": True}
    assert entry["outputs_sha256"] == {"parent": ["aa"], "change": ["bb", "cc"]}
    assert entry["check_fail_frac"]["change"] == ["check_fail_frac = 0.0 1"]


def test_mask_replaces_the_longest_path_first():
    text = "wrote /tmp/w/parent/case/spectrum.csv from /tmp/w/parent/x.ini"
    got = compare.mask(text, ["/tmp/w/parent/case", "/tmp/w/parent"])
    assert got == "wrote <path0>/spectrum.csv from <path1>/x.ini"
    assert compare.mask(text, []) == text


def test_moves_reads_data_against_the_column_peak_and_lists_headers():
    old = b"detuning_hz,signal\n-1,0.5\n0,2.0\n1,0.25\n# center_hz=1e-13\n# converged=True\n"
    new = b"detuning_hz,signal\n-1,0.5\n0,2.0\n1,0.2500001\n# center_hz=-2e-13\n# converged=True\n"
    got = compare.moves(old, new)
    assert got["lines"] == 6 and got["differing"] == 2
    assert got["data_move"] == pytest.approx(1e-7 / 2.0)
    assert got["header"] == {"center_hz": ["1e-13", "-2e-13"]}


def test_moves_of_equal_or_reshaped_files():
    same = compare.moves(b"a,b\n1,2\n", b"a,b\n1,2\n")
    assert (same["differing"], same["data_move"], same["header"]) == (0, None, {})
    longer = compare.moves(b"a,b\n1,2\n", b"a,b\n1,2\n3,4\n")
    assert longer["differing"] == 1 and longer["data_move"] is None


def test_matrix_cases_are_named_uniquely():
    cases = compare.matrix_cases()
    assert len(cases) == 5 * 13 + 4
    assert len({name for name, *_ in cases}) == len(cases)
    biased = [(bias, flags) for _, scenario, bias, flags in cases if bias is not None]
    assert biased == [("0.2", ("spectrum",)), ("0.2", ("spectrum", "--prune")),
                      ("0.5", ("spectrum",)), ("0.5", ("spectrum", "--prune"))]


def test_summarize_layers_pairs_processes_by_round():
    times = {"parent": [0.020, 0.018, 0.030], "change": [0.015, 0.019, 0.016]}
    runs = [{"round": i, "side": side, "first": "parent" if i % 2 == 0 else "change",
             "times": {"write_spectrum_csv fig3": times[side][i], "other": 1.0}}
            for i in (2, 0, 1) for side in ("change", "parent")]
    got = compare.summarize_layers(runs)
    assert list(got) == ["write_spectrum_csv fig3", "other"]
    entry = got["write_spectrum_csv fig3"]
    assert entry["parent"] == compare.describe(times["parent"])
    assert entry["change"]["median"] == 0.016
    # round 0: 0.015 < 0.020, round 1: 0.019 > 0.018, round 2: 0.016 < 0.030
    assert entry["change_wins"] == 2
    assert got["other"]["change_wins"] == 0
    assert compare.summarize_layers([]) == {}


def test_layer_cases_and_scenario_edits(tmp_path):
    names = [case for case, *_ in compare.LAYER_CASES]
    assert names == ["write_trajectory_csv fig5 5 ms", "write_trajectory_csv fig5 5 ms --prune",
                     "write_trajectory_csv fig5 50 ms", "write_trajectory_csv fig5 50 ms --prune",
                     "write_spectrum_csv fig3", "write_spectrum_csv fig4",
                     "assemble_rate_matrix fig5", "cli.main states",
                     "fit_depolarization fig5", "fit_depolarization fig5 --fit-scale",
                     "heating_summary heating_paper", "heating_summary heating_paper --prune",
                     "expected_cycles heating_paper", "expected_cycles heating_paper --prune",
                     "synth_copropagating fig3", "synth_copropagating fig3 --prune",
                     "synth_counterpropagating fig4", "synth_counterpropagating table1"]
    tree = os.path.dirname(os.path.dirname(_PATH))
    for _, _, scenario, _, _, _ in compare.LAYER_CASES:
        if scenario is not None:
            assert os.path.exists(compare.scenario_config(tree, str(tmp_path), "x", scenario, {}))
    path = compare.scenario_config(tree, str(tmp_path), "long", "fig5_dynamics",
                                   {"t_end_s": "0.05"})
    assert path == str(tmp_path / "long.ini")
    with open(path, encoding="utf-8") as fh:
        edited = fh.read()
    with open(os.path.join(tree, "scenarios", "fig5_dynamics.ini"), encoding="utf-8") as fh:
        original = fh.read()
    assert edited == original.replace("t_end_s = 0.005", "t_end_s = 0.05") != original


def test_layer_cases_name_each_layer_and_argv(tmp_path):
    tree = os.path.dirname(os.path.dirname(_PATH))
    fig5 = os.path.join(tree, "scenarios", "fig5_dynamics.ini")
    cases = {case: (argv, name) for case, argv, name
             in compare.layer_cases(tree, str(tmp_path), "change")}
    assert list(cases) == [case for case, *_ in compare.LAYER_CASES]
    # a layer the pump command calls, and a whole call
    assert cases["assemble_rate_matrix fig5"] == (["pump", "--config", fig5],
                                                  "assemble_rate_matrix")
    assert cases["cli.main states"] == (["states"], None)
    assert cases["write_trajectory_csv fig5 5 ms --prune"] == (
        ["pump", "--config", fig5, "--prune"], "write_trajectory_csv")
    # the fit cases fit the matrix's observation files, written to `work`
    data = [str(tmp_path / name) for name in ("obs_a.csv", "obs_b.csv")]
    assert cases["fit_depolarization fig5"] == (["fit", "--config", fig5, *data],
                                                "fit_depolarization")
    assert cases["fit_depolarization fig5 --fit-scale"] == (
        ["fit", "--config", fig5, "--fit-scale", *data], "fit_depolarization")
    for path in data:
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == compare.OBSERVATIONS[os.path.basename(path)]
    # the heat cases time the whole summary: cycle counts and the walk
    heat = os.path.join(tree, "scenarios", "heating_paper.ini")
    assert cases["heating_summary heating_paper --prune"] == (
        ["heat", "--config", heat, "--prune"], "heating_summary")
    # and the cycle counts alone, by a module.function name in pumpsim
    assert cases["expected_cycles heating_paper"] == (
        ["heat", "--config", heat], "heating.expected_cycles")
    assert cases["expected_cycles heating_paper --prune"] == (
        ["heat", "--config", heat, "--prune"], "heating.expected_cycles")
    # synthesis alone, on the populations and grid `spectrum` hands it
    fig3 = os.path.join(tree, "scenarios", "fig3_polarized.ini")
    assert cases["synth_copropagating fig3 --prune"] == (
        ["spectrum", "--config", fig3, "--prune"], "synth_copropagating")
    assert cases["synth_counterpropagating table1"] == (
        ["spectrum", "--config", os.path.join(tree, "scenarios", "table1_widths.ini")],
        "synth_counterpropagating")
    # only the 50 ms cases edit a copy, named after the side and the case index
    assert cases["write_trajectory_csv fig5 50 ms"] == (
        ["pump", "--config", str(tmp_path / "change-2.ini")], "write_trajectory_csv")
    assert sorted(os.listdir(tmp_path)) == ["change-2.ini", "change-3.ini",
                                            "obs_a.csv", "obs_b.csv"]
    # LAYER_SCRIPT reads them back from JSON
    listed = compare.layer_cases(tree, str(tmp_path), "change")
    assert json.loads(json.dumps(listed)) == listed


def test_layer_owner_reads_cli_and_module_names():
    # LAYER_SCRIPT spies on a bare name in pumpsim.cli, or on a
    # `module.function` name such as the cycle counts heating_summary calls
    from pumpsim import cli, heating
    assert compare.layer_owner("write_trajectory_csv") == (cli, "write_trajectory_csv")
    assert compare.layer_owner("heating.expected_cycles") == (heating, "expected_cycles")
    for _, _, _, _, _, name in compare.LAYER_CASES:
        if name is not None:
            assert callable(getattr(*compare.layer_owner(name)))


def test_summarize_traced_by_workload_seed_and_pair():
    def traced(pair, side, workload, self_s):
        return {"workload": workload, "seed": 1, "pair": pair, "side": side,
                "result": {"metrics": {"cli.self_s": {"value": self_s, "unit": "s"},
                                       "kinetics.assemble_rate_matrix.calls":
                                           {"value": 19, "unit": "count"}}}}
    self_s = {"parent": [0.030, 0.020, 0.025], "change": [0.021, 0.022, 0.010]}
    runs = [traced(pair, side, w, self_s[side][pair] + (w == "fit_sweep"))
            for w in ("spectrum_mix", "fit_sweep") for pair in (1, 0, 2)
            for side in ("change", "parent")]
    got = compare.summarize_traced(runs)
    assert list(got) == ["spectrum_mix seed 1", "fit_sweep seed 1"]
    entry = got["spectrum_mix seed 1"]["cli.self_s"]
    assert entry["parent"] == compare.describe(self_s["parent"])
    assert entry["change"]["median"] == 0.021
    # pair 0: 0.021 < 0.030, pair 1: 0.022 > 0.020, pair 2: 0.010 < 0.025
    assert entry["change_wins"] == 2
    assert got["fit_sweep seed 1"]["cli.self_s"]["parent"]["median"] == 1.025
    assert got["fit_sweep seed 1"]["kinetics.assemble_rate_matrix.calls"]["change_wins"] == 0
    assert compare.summarize_traced([]) == {}


def test_workload_specs_give_each_workload_its_seeds():
    assert compare.workload_spec("heat_sweep") == ("heat_sweep", ())
    assert compare.workload_spec("heat_sweep:1,2718") == ("heat_sweep", (1, 2718))
    for bad in ("heat", "heat_sweep:1,x", "heat_sweep:1,"):
        with pytest.raises(argparse.ArgumentTypeError):
            compare.workload_spec(bad)
    specs = [("heat_sweep", (1, 2718)), ("pump_sweep", ()), ("fit_sweep", (5,))]
    jobs = compare.plan(specs, [1, 3])
    assert jobs == [("heat_sweep", 1), ("heat_sweep", 2718), ("pump_sweep", 1),
                    ("pump_sweep", 3), ("fit_sweep", 5)]
    assert compare.describe_plan(jobs) == ("heat_sweep at seeds [1, 2718]; pump_sweep at "
                                           "seeds [1, 3]; fit_sweep at seeds [5]")


_PACE = os.path.join(os.path.dirname(_PATH), os.pardir, "perfbench", "pace.py")
_pace_spec = importlib.util.spec_from_file_location("bench_pace", _PACE)
pace = importlib.util.module_from_spec(_pace_spec)
_pace_spec.loader.exec_module(pace)


@pytest.mark.parametrize("speed", [1.0, 0.5, 0.37])
def test_time_layer_paces_each_call_as_wall_s_is_paced(speed):
    # at a fraction `speed` of the reference pace a 10 ms call reads
    # 10 ms / speed, and so does each reference slice after it: the paced
    # time is the reference pace's 10 ms at any speed, as perfbench/run.py
    # rescales wall_s with perfbench/pace.py
    now, asked = [0.0], []

    def call():
        now[0] += 0.010 / speed

    def run_slices(seconds):
        asked.append(seconds)
        slice_s = pace.REF_SLICE_S / speed
        return seconds, max(1, round(seconds / slice_s))

    bench = argparse.Namespace(PACE_SHARE=pace.PACE_SHARE, pace=run_slices,
                               at_reference_pace=pace.at_reference_pace)
    got = compare.time_layer(call, 5, bench, clock=lambda: now[0])
    assert got["measured"] == pytest.approx(0.010 / speed)
    assert got["paced"] == pytest.approx(0.010)
    assert asked == [pytest.approx(pace.PACE_SHARE * 0.010 / speed)] * 5


def test_time_layer_runs_the_reference_slices():
    # with perfbench/pace.py itself: every call is followed by its slices
    calls = []
    got = compare.time_layer(lambda: calls.append(pace.reference_slice()), 3, pace)
    assert len(calls) == 3
    assert got["measured"] > 0.0 and got["paced"] > 0.0
