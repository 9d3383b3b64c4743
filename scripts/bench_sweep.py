"""Sweep A/B: run_sweep batches of the benchmark's shapes, this tree against another.

Each round runs one batch of each shape through this tree's
``run_sweep`` and through that of the ``polarlink`` package under DIR (a
source tree's ``src``, say a checkout of an earlier commit), which one leads
switching every round, and checks that the two batches write the same
``metrics.csv``.  A shape is a sweep workload of ``perfbench/workloads.py``
(``deep_fail``, ``waterfall``) with the same code size, points, schemes,
feedback loss and trials per batch, run with 1 worker; round r runs the
batch r of seed --seed, as the benchmark's batch r does.  Back-to-back calls
see the same host state, so their ratio holds up where a whole benchmark
run's host drifts.

    PYTHONPATH=src python scripts/bench_sweep.py --against DIR [--rounds 20]
        [--seed 1] [--out FILE]

Each round's ratio is other seconds / this seconds (above 1 where this tree
is faster).  The output is JSON: the settings, the host, and per shape the
median and quartiles of the ratio, the rounds this tree won and each tree's
median seconds and trials per second.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import polarlink
from bench_decoder import load_tree

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WARMUP_BATCH, WORKLOADS, batch_seed  # noqa: E402

SHAPES = ("deep_fail", "waterfall")


def batch(tree, wl, seed, index, trials):
    """One run_sweep batch of shape wl through tree: (seconds, metrics.csv)."""
    simulate = tree.simulate
    cfg = simulate.SimConfig(k=wl.k, snr_db=wl.snr_db, schemes=wl.schemes, fb_loss=wl.fb_loss,
                             trials=trials, master_seed=batch_seed(seed, index), workers=1)
    start = time.perf_counter()
    metrics, results = simulate.run_sweep(cfg)
    seconds = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as tmp:
        simulate.write_outputs(cfg, metrics, results, tmp)
        return seconds, (Path(tmp) / "metrics.csv").read_text()


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def run(rounds, seed, against):
    trees = (polarlink, against)
    report = {}
    for name in SHAPES:
        wl = WORKLOADS[name]
        for tree in trees:
            batch(tree, wl, seed, WARMUP_BATCH, 1)  # fills lazy caches, untimed
        seconds = [[], []]
        for r in range(rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            csv = {}
            for i in order:
                took, csv[i] = batch(trees[i], wl, seed, r, wl.batch_trials)
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="DIR", required=True,
                        help="a directory holding another polarlink package to time "
                             "beside this one")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    report = {
        "settings": {"rounds": args.rounds, "seed": args.seed, "against": args.against,
                     "workers": 1},
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "processor": platform.processor()},
        "shapes": run(args.rounds, args.seed, load_tree(args.against)),
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
