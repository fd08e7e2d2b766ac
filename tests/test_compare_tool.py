"""The pure parts of tools/compare.py: run parsing, summaries, masking and
byte moves. Nothing here starts a process."""

import argparse
import importlib.util
import json
import math
import os
import statistics
import sys
import types

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "compare.py")
_spec = importlib.util.spec_from_file_location("compare_tool", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def run_stdout(wall, rss, setup, sha="ab12", failed=0, probes=None):
    # `probes`, (measured probe times, import time), adds run.py's setup_s samples line
    result = {"correct": True, "attempted": 16, "failed": failed,
              "metrics": {"setup_s": {"value": setup, "unit": "s"},
                          "wall_s": {"value": wall, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    samples = []
    if probes is not None:
        measured, import_s = probes
        samples = [f"setup_s samples at reference pace: {', '.join([f'{setup:.4f}'] * 3)}; "
                   f"measured: {', '.join(f'{v:.4f}' for v in measured)} "
                   f"(import {import_s:.4f} s)"]
    return "\n".join([
        "workload=spectrum_mix seed=1 seconds=10 trace=0",
        "environment: nproc=2 python=3.11.7",
        f"outputs_sha256={sha}",
        f"round 0: 16 jobs, wall 0.4 s, peak rss {rss} MB, outputs_sha256={sha}",
        f"round 1: 16 jobs, wall 0.3 s, peak rss {rss} MB, outputs_sha256={sha}",
        *samples,
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
    assert run["setup_measured"] is run["import_s"] is None
    # the unpaced probe times of the setup_s samples line
    run = compare.parse_run(run_stdout(0.2, 65.0, 0.12, probes=([0.1, 0.13, 0.11], 0.07)))
    assert run["setup_measured"] == [0.1, 0.13, 0.11]
    assert run["import_s"] == 0.07


def test_describe_uses_inclusive_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    got = compare.describe(values)
    assert got == {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0, "min": 1.0, "max": 5.0}
    q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4, method="inclusive")
    assert compare.describe([4.0, 3.0, 2.0, 1.0])["q1"] == q1 == 1.75
    assert compare.describe([4.0, 3.0, 2.0, 1.0])["q3"] == q3 == 3.25
    # one round (--layers 1, --pairs 1) reports rather than failing
    assert compare.describe([7.0]) == {"n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0,
                                       "min": 7.0, "max": 7.0}


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
    # no setup_s samples line, no unpaced set-up summary
    assert not set(compare.UNPACED) & set(entry)


def test_sign_interval_order_statistics_and_coverage():
    # the largest k with 1 - 2 sum_{i<k} C(n, i) / 2^n >= 0.95
    assert compare.sign_interval(10) == (2, 1 - 2 * (1 + 10) / 2 ** 10)   # 0.979
    assert compare.sign_interval(6) == (1, 1 - 2 / 2 ** 6)                # 0.969
    assert compare.sign_interval(9) == (2, 1 - 2 * (1 + 9) / 2 ** 9)
    assert compare.sign_interval(20) == (6, 1 - 2 * sum(map(math.comb, [20] * 6,
                                                              range(6))) / 2 ** 20)
    assert [compare.sign_interval(n) for n in range(6)] == [None] * 6


def test_paired_interval_of_a_shift_and_of_identical_samples():
    parent = [1.0 + i / 8 for i in (3, 0, 7, 1, 9, 4, 2, 8, 5, 6)]
    # a constant shift is resolved: every difference is -0.25
    entry = compare.versus(parent, [p - 0.25 for p in parent])
    assert entry["paired"] == {"median": -0.25, "interval": [-0.25, -0.25],
                               "coverage": 1 - 22 / 1024, "resolved": True}
    # identical samples are not
    entry = compare.versus(parent, parent)
    assert entry["paired"] == {"median": 0.0, "interval": [0.0, 0.0],
                               "coverage": 1 - 22 / 1024, "resolved": False}
    # n = 10: [d_(2), d_(9)] of the sorted differences, in any pair order
    diffs = [3.0, -5.0, 1.0, 4.0, -1.0, 0.5, -4.0, 2.0, -2.0, 6.0]
    entry = compare.versus(parent, [p + d for p, d in zip(parent, diffs)])
    assert entry["paired"]["interval"] == [-4.0, 4.0]
    assert entry["paired"]["median"] == 0.75 and not entry["paired"]["resolved"]
    entry = compare.versus(parent, [p + d + 5.5 for p, d in zip(parent, diffs)])
    assert entry["paired"]["interval"] == [1.5, 9.5] and entry["paired"]["resolved"]
    # n = 6: [d_(1), d_(6)], the extremes
    entry = compare.versus([0.0] * 6, [3.0, 1.0, 4.0, 1.5, 9.0, 2.5])
    assert entry["paired"] == {"median": 2.75, "interval": [1.0, 9.0],
                               "coverage": 1 - 2 / 64, "resolved": True}
    # below six pairs no interval reaches 0.95, and nothing is resolved
    entry = compare.versus([1.0] * 5, [0.5] * 5)
    assert entry["paired"] == {"median": -0.5, "interval": None, "coverage": None,
                               "resolved": False}
    assert entry["change_wins"] == 5


def test_pairs_print_the_paired_interval_and_the_unpaced_setup(monkeypatch, capsys):
    walls = {"parent": [0.25, 0.26, 0.24, 0.25, 0.27, 0.25],
             "change": [0.20, 0.22, 0.21, 0.20, 0.23, 0.21]}
    runs = []
    for pair in range(6):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_stdout(walls[side][pair], 60.0, 0.1, probes=([0.100, 0.110, 0.105], 0.070))
            runs.append(compare.parse_run(out) | {"workload": "spectrum_mix", "seed": 1,
                                                  "pair": pair, "side": side, "first": order[0]})
    (entry,) = compare.summarize(runs)
    assert entry["wall_s"]["paired"]["resolved"]
    assert entry["wall_s"]["paired"]["interval"] == pytest.approx([-0.05, -0.03])
    # the medians of each run's measured probes, and the import times
    assert entry["setup_measured_s"]["parent"]["median"] == 0.105
    assert entry["import_s"]["change"]["median"] == 0.07
    assert not entry["setup_measured_s"]["paired"]["resolved"]
    monkeypatch.setattr(compare, "run_pairs", lambda *args: runs)
    assert compare.main(["parent", "change", "--pairs", "6",
                         "--workload", "spectrum_mix"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "spectrum_mix seed 1 setup_s", "  spectrum_mix seed 1 setup_measured_s",
        "  spectrum_mix seed 1 import_s", "spectrum_mix seed 1 wall_s",
        "spectrum_mix seed 1 peak_rss_mb"]
    assert lines[3].startswith("spectrum_mix seed 1 wall_s: median 0.2500 -> 0.2100 (-16.0%), "
                               "parent IQR 0.0075, change lower in 6 of 6; paired median -0.0400, "
                               "sign-test interval [-0.0500, -0.0300] (coverage 0.969): resolved")
    assert lines[1].endswith("change lower in 0 of 6; paired median +0.0000, sign-test "
                             "interval [+0.0000, +0.0000] (coverage 0.969): not resolved")


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


def test_moves_reads_the_numeric_fields_of_a_fit_report():
    # the rows start with the series' file name, which is skipped; the
    # time and residual columns keep their own peaks
    old = (b"# alpha_hat=0.12252885943898716\n# converged=True\n# scale[a.csv]=1.0\n"
           b"series,time_s,residual\na.csv,0.0001,0.004\na.csv,0.0002,-0.002\n"
           b"b.csv,0.0001,0.001\n")
    new = (b"# alpha_hat=0.12252885943898688\n# converged=False\n# scale[a.csv]=0\n"
           b"series,time_s,residual\na.csv,0.0001,0.004\na.csv,0.0002,-0.0020000004\n"
           b"b.csv,0.0001,0.001\n")
    got = compare.moves(old, new)
    assert got["differing"] == 4
    assert got["data_move"] == pytest.approx(4e-10 / 0.004)
    assert got["header"] == {"alpha_hat": ["0.12252885943898716", "0.12252885943898688"],
                             "converged": ["True", "False"], "scale[a.csv]": ["1.0", "0"]}
    assert got["header_move"] == {
        "alpha_hat": pytest.approx(2.8e-16 / 0.12252885943898716, rel=1e-3),
        "scale[a.csv]": 1.0}


def test_moves_of_a_name_or_off_a_zero_header():
    # a moved name is no numeric move; a header moving off 0 moves infinitely far
    got = compare.moves(b"a.csv,1\n# sse=0\n", b"b.csv,1\n# sse=1e-30\n")
    assert got["differing"] == 2 and got["data_move"] is None
    assert got["header_move"] == {"sse": float("inf")}


def test_moves_of_equal_or_reshaped_files():
    same = compare.moves(b"a,b\n1,2\n", b"a,b\n1,2\n")
    assert (same["differing"], same["data_move"], same["header"], same["header_move"]) == (
        0, None, {}, {})
    longer = compare.moves(b"a,b\n1,2\n", b"a,b\n1,2\n3,4\n")
    assert longer["differing"] == 1 and longer["data_move"] is None


def test_matrix_cases_are_named_uniquely(tmp_path):
    cases = compare.matrix_cases()
    assert len(cases) == 5 * 13 + 4 + 8
    assert len({name for name, *_ in cases}) == len(cases)
    edited = [(edits, flags) for _, scenario, edits, flags in cases if edits]
    assert edited[:4] == [
        ({"bias_gauss": "0.2"}, ("spectrum",)), ({"bias_gauss": "0.2"}, ("spectrum", "--prune")),
        ({"bias_gauss": "0.5"}, ("spectrum",)), ({"bias_gauss": "0.5"}, ("spectrum", "--prune"))]
    # each rejected value replaces a `key = value` line its scenario has
    rejected = cases[-8:]
    assert [edits for _, _, edits, _ in rejected] == [{k: v} for _, k, v, _ in compare.REJECTED]
    repo = os.path.dirname(os.path.dirname(_PATH))
    for name, scenario, edits, _ in rejected:
        (key, value), = edits.items()
        with open(compare.scenario_config(repo, str(tmp_path), name, scenario, edits)) as fh:
            assert f"\n{key} = {value}\n" in fh.read(), name


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


def test_report_timings_prints_each_case_and_keeps_the_runs(capsys):
    runs = [{"round": i, "side": side, "first": "parent", "times": {"case": t}}
            for i, (p, c) in enumerate([(0.020, 0.015), (0.030, 0.016)])
            for side, t in (("parent", p), ("change", c))]
    record = compare.report_timings(runs, 2, 1, "two rounds")
    assert record == {"what": "two rounds", "summary": compare.summarize_layers(runs),
                      "runs": runs}
    assert capsys.readouterr().out == ("case: paced median 25.0 -> 15.5 ms (-38.0%), "
                                       "parent IQR 5.0 ms, change lower in 2 of 2; paired "
                                       "median -9.5 ms, no 95 % sign-test interval below "
                                       "6 pairs\n")


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


def test_process_cases_name_each_command_and_argv(tmp_path):
    tree = os.path.dirname(os.path.dirname(_PATH))
    cases = dict(compare.process_cases(tree, str(tmp_path), "parent"))
    assert list(cases) == ["states --prune fig5", "pump fig5", "pump fig5 --prune",
                           "spectrum fig3", "spectrum fig4", "heat heating_paper", "fit fig5"]
    scenario = lambda name: os.path.join(tree, "scenarios", f"{name}.ini")
    # each process writes to its own folder, never to the scenario's
    assert cases["states --prune fig5"] == [
        "states", "--config", scenario("fig5_dynamics"), "--out", str(tmp_path / "parent-0"),
        "--prune"]
    assert cases["spectrum fig4"] == [
        "spectrum", "--config", scenario("fig4_velocimetry"), "--out",
        str(tmp_path / "parent-4")]
    assert cases["fit fig5"][-2:] == [str(tmp_path / "obs_a.csv"), str(tmp_path / "obs_b.csv")]
    for argv in cases.values():
        assert os.path.exists(argv[2])


def test_run_processes_alternates_trees_and_paces_each_process(monkeypatch):
    # no process starts: subprocess.run and the pace module are stand-ins
    started = []

    def run(cmd, cwd, env, capture_output, text):
        started.append((env["PYTHONPATH"], cmd[1:3], cmd[3]))
        return argparse.Namespace(returncode=0, stderr="")

    bench = argparse.Namespace(PACE_SHARE=0.2, pace=lambda seconds: (seconds, 1),
                               at_reference_pace=lambda seconds, slice_s: 2.0)
    monkeypatch.setattr(compare.subprocess, "run", run)
    monkeypatch.setattr(compare, "load_pace", lambda tree: bench)
    trees = {"parent": "/p", "change": "/c"}
    runs = compare.run_processes(trees, 3)
    assert [(r["round"], r["side"], r["first"]) for r in runs] == [
        (0, "parent", "parent"), (0, "change", "parent"), (1, "change", "change"),
        (1, "parent", "change"), (2, "parent", "parent"), (2, "change", "parent")]
    names = [case for case, *_ in compare.PROCESS_CASES]
    calls = compare.PROCESS_CALLS
    assert len(started) == 6 * len(names) * calls
    # each tree's processes run its own pumpsim, by `python -m pumpsim <command>`
    per_side = len(names) * calls
    assert {path for path, _, _ in started[:per_side]} == {os.path.join("/p", "src")}
    assert {path for path, _, _ in started[per_side:2 * per_side]} == {os.path.join("/c", "src")}
    assert [cmd for _, cmd, _ in started[:per_side:calls]] == [["-m", "pumpsim"]] * len(names)
    commands = [command for _, command, _, _ in compare.PROCESS_CASES]
    assert [c for _, _, c in started[:per_side:calls]] == commands
    for r in runs:
        assert list(r["times"]) == list(r["measured"]) == names
        assert set(r["times"].values()) == {2.0}
    assert list(compare.summarize_layers(runs)) == names


def test_run_processes_names_a_failed_process(monkeypatch):
    monkeypatch.setattr(compare.subprocess, "run",
                        lambda *a, **k: argparse.Namespace(returncode=2, stderr="config error"))
    monkeypatch.setattr(compare, "load_pace", lambda tree: pace)
    with pytest.raises(RuntimeError, match="parent states --prune fig5 round 0: exit 2"):
        compare.run_processes({"parent": "/p", "change": "/c"}, 1)


def test_layer_owner_reads_cli_and_module_names():
    # LAYER_SCRIPT spies on a bare name in pumpsim.cli, or on a
    # `module.function` name such as the cycle counts heating_summary calls
    from pumpsim import cli, heating
    assert compare.layer_owner("write_trajectory_csv") == (cli, "write_trajectory_csv")
    assert compare.layer_owner("heating.expected_cycles") == (heating, "expected_cycles")
    for _, _, _, _, _, name in compare.LAYER_CASES:
        if name is not None:
            assert callable(getattr(*compare.layer_owner(name)))


def test_spying_follows_a_layer_into_every_module_that_binds_it(monkeypatch):
    # two trees may reach one layer through different modules' bindings: a
    # `pump` that assembles in cli, and one that assembles inside kinetics
    def layer(x):
        return 2 * x

    def other(x):
        return x

    owner, caller, unrelated = (types.ModuleType(f"pumpsim.{n}_stub")
                                for n in ("owner", "caller", "unrelated"))
    owner.layer = caller.layer = layer
    unrelated.layer = other
    for module in (owner, caller, unrelated):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    handed = []
    with compare.spying("owner_stub.layer", handed) as original:
        assert original is layer
        assert (owner.layer(1), caller.layer(2), unrelated.layer(3)) == (2, 4, 3)
    assert handed == [((1,), {}), ((2,), {})]
    assert owner.layer is caller.layer is layer and unrelated.layer is other
    # the bindings come back when the command fails too
    with pytest.raises(RuntimeError):
        with compare.spying("owner_stub.layer", handed):
            raise RuntimeError
    assert owner.layer is caller.layer is layer


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
