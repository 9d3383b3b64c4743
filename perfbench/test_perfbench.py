"""Self-test of the benchmark at tiny sizes.

    python -m pytest -q perfbench/test_perfbench.py

Checks that every metric in BENCHMARK.json is emitted with its unit, that
injected faults raise fail_ratio, and that the benchmark refuses to run
without the polarlink sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import polarlink.simulate as simulate  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        for name, unit in (("goodput", "bit/bit"), ("prr", "fraction"), ("fail_ratio", "fraction")):
            assert any(line.split()[:1] == [name] and line.endswith(unit)
                       for line in out.stdout.splitlines()), name


def _corrupt_first_trial(monkeypatch, how):
    real = simulate.run_trial

    def run_trial(cfg, scheme, point, trial):
        result = real(cfg, scheme, point, trial)
        if trial == 0 and point == 0:
            if how == "raise":
                raise RuntimeError("injected")
            result.bits_sent += 1
        return result

    monkeypatch.setattr(simulate, "run_trial", run_trial)


@pytest.mark.parametrize("how", ["budget", "raise"])
@pytest.mark.parametrize("workload", ["deep_fail", "waterfall"])
def test_injected_failing_trial_raises_fail_ratio(monkeypatch, workload, how):
    _corrupt_first_trial(monkeypatch, how)
    result = workloads.run_end_to_end(workloads.WORKLOADS[workload], seed=3, seconds=0, quick=True)
    assert result["failed"] >= 1
    assert result["report"]["fail_ratio"][0] > 0
    assert result["correct"] is False


def test_replay_mismatch_fails_the_session(monkeypatch):
    real = simulate.replay_session
    monkeypatch.setattr(simulate, "replay_session", lambda rec, k: real(rec, k)[:-1])
    result = workloads.run_end_to_end(workloads.WORKLOADS["high_snr_session"], seed=3,
                                      seconds=0, quick=True)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run("deep_fail", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(sid, parent, start, end):
        return {"id": sid, "parent": parent, "start": start, "end": end}

    got = spans.self_times([span("a", None, 0.0, 10.0), span("b", "a", 1.0, 5.0),
                            span("c", "a", 3.0, 7.0), span("d", "a", 9.0, 12.0)])
    assert got["a"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert got["b"] == pytest.approx(4.0)


def test_nearest_rank_returns_an_element():
    assert spans.nearest_rank([60] * 19 + [3], 0.5) == 60
    assert spans.nearest_rank([1, 2, 3, 4], 0.95) == 4
    assert spans.nearest_rank([1, 2, 3, 4], 0.5) == 2
