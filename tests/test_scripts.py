"""Smoke tests: the documented demos and the benchmark scripts run.

Each runs in its own interpreter with ``src`` on PYTHONPATH, as the README
shows, and must exit 0 with output.  Demo 06 (a 60-trial sweep, about 10 s)
is left out.
"""

import importlib.util
import json
import os
import re
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


def _script(name):
    """scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert {case["rate"] for case in report["cases"]} == set(_script("bench_decoder").RATES)
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
    # the same tree, each side in an interpreter of its own: both timings
    # and their ratios come out for every case
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
    outputs through both, and each shape, the session one included,
    reports its ratio."""
    out = _run(ROOT / "scripts" / "bench_sweep.py", "--against", "src", "--rounds", str(rounds),
               "--workers", str(workers))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["settings"]["workers"] == workers
    assert set(report["shapes"]) == {"deep_fail", "waterfall", "high_snr_session"}
    assert report["shapes"]["high_snr_session"]["trials_per_batch"] == 32
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


SCRIPTS = {"bench_decoder": ["--k", "8", "--iters", "2", "--repeats", "1"],
           "bench_sweep": ["--rounds", "1"]}


@pytest.mark.parametrize("script", SCRIPTS)
def test_against_a_dir_without_polarlink_fails(script, tmp_path):
    # the served interpreter would otherwise fall back to this tree's
    # polarlink on the inherited PYTHONPATH and time it against itself
    out = _run(ROOT / "scripts" / f"{script}.py", *SCRIPTS[script], "--against", tmp_path)
    assert out.returncode != 0
    assert str(tmp_path) in out.stderr
    assert not out.stdout


# runs a script as __main__, then prints the names of the modules whose file
# is a polarlink package's __init__.py
_PACKAGES_AFTER = """
import json, os, runpy, sys
script = sys.argv.pop(1)
sys.path.insert(0, os.path.dirname(script))
runpy.run_path(script, run_name="__main__")
init = os.path.join("polarlink", "__init__.py")
print(json.dumps([name for name, module in sys.modules.items()
                  if (getattr(module, "__file__", None) or "").endswith(init)]))
"""


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports_one_polarlink(script):
    # both trees are timed in interpreters of their own, so the script's own
    # process never imports the --against tree beside this one
    out = _run("-c", _PACKAGES_AFTER, ROOT / "scripts" / f"{script}.py", *SCRIPTS[script],
               "--against", "src")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == ["polarlink"]


def test_bench_decoder_refuses_rows_that_differ():
    # two trees that draw different rows for a case are not timed against
    # each other
    def tree(digest):
        return lambda request, *args: {"llrs": digest, "zero_share": 0.0, "iterations": [1]}

    with pytest.raises(SystemExit, match="different rows"):
        _script("bench_decoder").run([tree("this"), tree("other")], iters=1, repeats=1)


def test_bench_sweep_refuses_trials_that_differ(monkeypatch):
    # equal metrics.csv is not enough: rows regrouped into other trials can
    # leave every aggregate as it was
    def tree(trials):
        outputs = {"metrics.csv": "m", "trials.jsonl": trials, "summary.json": "s"}
        return lambda *request: (0.1, outputs)

    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    with pytest.raises(SystemExit, match="deep_fail round 0: .* different trials.jsonl"):
        _script("bench_sweep").run(1, 1, [tree("this"), tree("other")])


def test_bench_sweep_session_batch_is_the_benchmarks(monkeypatch):
    # the session shape's batch r records, round-trips and replays the
    # sessions of the benchmark's batch r, and returns their JSON
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    seconds, written = _script("bench_sweep").batch(1, "high_snr_session", 7919, 3, 2)
    assert seconds > 0 and set(written) == {"sessions.jsonl"}
    lines = written["sessions.jsonl"].split("\n")
    assert len(lines) == 2
    wl = workloads.WORKLOADS["high_snr_session"]
    cfg = workloads.sim_config(wl, 7919, 3, 2)
    plan = workloads.protocol.plan_session(cfg.k)
    for t, line in enumerate(lines):
        *_, loaded, replayed, text = workloads._one_session(cfg, plan, t)
        assert line == text
        assert replayed == json.loads(line)["decisions"] == loaded["decisions"]


def test_bench_sweep_refuses_sessions_that_differ(monkeypatch):
    # the sweep shapes agree; the session shape's JSON does not
    def tree(sessions):
        def batch(name, *request):
            if name == "high_snr_session":
                return 0.1, {"sessions.jsonl": sessions}
            return 0.1, {"metrics.csv": "m", "trials.jsonl": "t", "summary.json": "s"}
        return batch

    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    with pytest.raises(SystemExit, match="high_snr_session round 0: .* different sessions.jsonl"):
        _script("bench_sweep").run(1, 1, [tree("this"), tree("other")])


def test_harness_refuses_a_tree_served_from_elsewhere(tmp_path, monkeypatch):
    # DIR holds a polarlink package, but its interpreter reports this tree's
    (tmp_path / "polarlink").mkdir()
    (tmp_path / "polarlink" / "__init__.py").write_text("")
    served = tmp_path / "serve.py"
    served.write_text(f"import json\nprint(json.dumps({str(ROOT / 'src' / 'polarlink')!r}))\n")
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import harness

    with pytest.raises(SystemExit, match=re.escape(f"serving {tmp_path} imported polarlink from")):
        harness.Interpreter(served, tmp_path)
