"""Smoke tests: the documented demos and the benchmark scripts run.

Each runs in its own interpreter with ``src`` on PYTHONPATH, as the README
shows, and must exit 0 with output.  Demo 06 (a 60-trial sweep, about 10 s)
is left out.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def _run(*argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)


def test_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    out = _run(demo)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_bench_decoder_runs():
    out = _run(ROOT / "scripts" / "bench_decoder.py", "--k", "8", "--iters", "2", "--repeats", "1")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    spec = importlib.util.spec_from_file_location("bench_decoder", ROOT / "scripts" / "bench_decoder.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert {case["rate"] for case in report["cases"]} == set(bench.RATES)
    # with every position sent, or under min-sum, an iteration box-plusses
    # every output: N per stage, n_log2 stages leftward and n_log2 - 1
    # rightward; a punctured pattern copies some outputs and skips others
    n = report["settings"]["n"]
    every = {"leftward": (n.bit_length() - 1) * n, "rightward": (n.bit_length() - 2) * n}
    for case in report["cases"]:
        # the call's time is spread over the row-iterations it ran, as many
        # as batch * iterations only when no row stopped early
        batch, iters = case["batch"], report["settings"]["iters"]
        assert 1 <= case["iterations"] <= iters
        assert case["iterations"] <= case["row_iterations"] <= batch * case["iterations"]
        assert case["all_rows_ran_all"] == (case["row_iterations"] == batch * iters)
        # both are rounded to 4 decimals
        assert case["ms_per_iter"] == pytest.approx(batch * case["ms_per_row_iter"],
                                                    abs=batch * 1e-4)
        messages = case["messages_per_row_iteration"]
        if case["rate"] == "all" or case["rule"] == "minsum":
            assert messages == {d: {"boxplus": every[d], "copies": 0} for d in every}
        else:
            for d in every:
                assert 0 <= messages[d]["boxplus"] + messages[d]["copies"] <= every[d]
            assert messages["leftward"]["boxplus"] > 0


def test_bench_decoder_against_a_second_tree():
    # the same tree under a second module name: both timings and their
    # ratios come out for every case
    out = _run(ROOT / "scripts" / "bench_decoder.py", "--k", "8", "--iters", "2",
               "--repeats", "2", "--against", "src")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["settings"]["against"] == "src"
    for case in report["cases"]:
        assert set(case["against"]) == {"ms_per_iter", "one_iteration_call_us"}
        assert all(ratio > 0 for ratio in case["ratio_against_over_this"].values())


def _bench_sweep_report(workers, rounds):
    """bench_sweep.py against this same tree: every round writes the same
    metrics.csv through both, and each shape reports its ratio."""
    out = _run(ROOT / "scripts" / "bench_sweep.py", "--against", "src", "--rounds", str(rounds),
               "--workers", str(workers))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["settings"]["workers"] == workers
    assert set(report["shapes"]) == {"deep_fail", "waterfall"}
    for shape in report["shapes"].values():
        ratio = shape["ratio_other_over_this"]
        assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
        assert 0 <= shape["wins"] <= shape["rounds"] == rounds
        assert shape["this"]["trials_per_s"] > 0 and shape["other"]["trials_per_s"] > 0


def test_bench_sweep_against_a_second_tree():
    # the same tree, each side in an interpreter of its own
    _bench_sweep_report(workers=1, rounds=2)


def test_bench_sweep_workers_run_each_tree_apart():
    # with a pool, which each side's interpreter forks
    _bench_sweep_report(workers=2, rounds=1)
