"""Sweep A/B: run_sweep batches of the benchmark's shapes, this tree against another.

Each round runs one batch of each shape through this tree's
``run_sweep`` and through that of the ``polarlink`` package under DIR (a
source tree's ``src``, say a checkout of an earlier commit), which one leads
switching every round, and checks that the two batches write the same
``metrics.csv``.  Each tree runs its batches in an interpreter of its own,
which this one drives over a pipe, so neither tree's imports, caches or
allocator state reach the other's batches, and the workers run_sweep
prepares before its pool forks get only their own tree's plans.  A shape
is a sweep workload of ``perfbench/workloads.py`` (``deep_fail``,
``waterfall``) with the same code size, points, schemes, feedback loss and
trials per batch, run with --workers workers (default 1); round r runs the
batch r of seed --seed, as the benchmark's batch r does.  Back-to-back
calls see the same host state, so their ratio holds up where a whole
benchmark run's host drifts.

    PYTHONPATH=src python scripts/bench_sweep.py --against DIR [--rounds 20]
        [--workers 1] [--seed 1] [--out FILE]

Each round's ratio is other seconds / this seconds (above 1 where this tree
is faster).  The output is JSON: the settings, the host, and per shape the
median and quartiles of the ratio, the rounds this tree won and each tree's
median seconds and trials per second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import polarlink

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WARMUP_BATCH, WORKLOADS, batch_seed  # noqa: E402

SHAPES = ("deep_fail", "waterfall")


def batch(workers, name, seed, index, trials):
    """One run_sweep batch of shape ``name``: (seconds, metrics.csv)."""
    simulate, wl = polarlink.simulate, WORKLOADS[name]
    cfg = simulate.SimConfig(k=wl.k, snr_db=wl.snr_db, schemes=wl.schemes, fb_loss=wl.fb_loss,
                             trials=trials, master_seed=batch_seed(seed, index), workers=workers)
    start = time.perf_counter()
    metrics, results = simulate.run_sweep(cfg)
    seconds = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as tmp:
        simulate.write_outputs(cfg, metrics, results, tmp)
        return seconds, (Path(tmp) / "metrics.csv").read_text()


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


class Interpreter:
    """The polarlink package under src, run in a fresh interpreter of its
    own (this script with --serve), called like batch without its worker
    count."""

    def __init__(self, src, workers):
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", "--workers", str(workers)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, name, seed, index, trials):
        self.proc.stdin.write(json.dumps([name, seed, index, trials]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the interpreter serving {name} batches exited")
        return tuple(json.loads(line))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def serve(workers):
    """Run the batches asked for on stdin, one JSON line each way."""
    for line in sys.stdin:
        print(json.dumps(batch(workers, *json.loads(line))), flush=True)


def run(rounds, seed, trees):
    """Per shape, the A/B report of trees, two Interpreters: this tree's
    and the other's."""
    report = {}
    for name in SHAPES:
        wl = WORKLOADS[name]
        for tree in trees:
            tree(name, seed, WARMUP_BATCH, 1)  # fills lazy caches, untimed
        seconds = [[], []]
        for r in range(rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            csv = {}
            for i in order:
                took, csv[i] = trees[i](name, seed, r, wl.batch_trials)
                seconds[i].append(took)
            if csv[0] != csv[1]:
                raise SystemExit(f"{name} round {r}: the two trees wrote different metrics.csv")
            ratio = seconds[1][-1] / seconds[0][-1]
            print(f"{name} round {r}: this {seconds[0][-1]:.3f} s, other {seconds[1][-1]:.3f} s, "
                  f"x{ratio:.3f}", file=sys.stderr)
        ratios = [o / t for t, o in zip(*seconds)]
        trials = wl.results_per_batch(wl.batch_trials)
        report[name] = {
            "rounds": rounds,
            "trials_per_batch": trials,
            "ratio_other_over_this": quartiles(ratios),
            "wins": sum(ratio > 1 for ratio in ratios),
            "this": {"median_s": round(statistics.median(seconds[0]), 4),
                     "trials_per_s": round(trials / statistics.median(seconds[0]), 2)},
            "other": {"median_s": round(statistics.median(seconds[1]), 4),
                      "trials_per_s": round(trials / statistics.median(seconds[1]), 2)},
        }
    return report


def compare(rounds, seed, against, workers):
    """run over this tree and the one under against."""
    trees = [Interpreter(src, workers)
             for src in (Path(polarlink.__file__).resolve().parents[1], Path(against).resolve())]
    try:
        return run(rounds, seed, trees)
    finally:
        for tree in trees:
            tree.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="DIR",
                        help="a directory holding another polarlink package to time "
                             "beside this one")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--workers", type=int, default=1,
                        help="run_sweep's worker count")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.serve:
        serve(args.workers)
        return
    if args.against is None:
        parser.error("--against is required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    report = {
        "settings": {"rounds": args.rounds, "seed": args.seed, "against": args.against,
                     "workers": args.workers},
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "processor": platform.processor()},
        "shapes": compare(args.rounds, args.seed, args.against, args.workers),
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
