"""Sweep A/B: batches of the benchmark's shapes, this tree against another.

Each round runs one batch of each shape through this tree's ``polarlink``
and through the ``polarlink`` package under DIR (a source tree's ``src``,
say a checkout of an earlier commit), which one leads switching every
round, and checks that both write the same output.  Each tree runs in an
interpreter of its own (``harness.py``), so no import, cache, allocator
state or pre-fork plan of one reaches the other's batches.  A shape is a
workload of ``perfbench/workloads.py`` with the same code size, points,
schemes, feedback loss and trials per batch; round r runs the batch r of
seed --seed, as the benchmark's batch r does.  Back-to-back calls see the
same host state, so their ratio holds up where a whole benchmark run's
drifts.

- ``deep_fail`` and ``waterfall``: one ``run_sweep`` call with --workers
  workers (default 1), which must write the same ``metrics.csv``,
  ``trials.jsonl`` and ``summary.json`` in both trees.
- ``high_snr_session``: the benchmark's trial, a recorded ``run_session``,
  its ``SessionRecord.to_json`` round trip and its replay, for each trial
  of the batch, in process (--workers does not apply); both trees must
  write the same session JSON, one record a line.

    PYTHONPATH=src python scripts/bench_sweep.py --against DIR [--rounds 20]
        [--workers 1] [--seed 1] [--out FILE]

Each round's ratio is other seconds / this seconds (above 1 where this tree
is faster).  The output is JSON: the settings, the host, and per shape the
median and quartiles of the ratio, the rounds this tree won and each tree's
median seconds and trials per second.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import harness
import polarlink

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WARMUP_BATCH, WORKLOADS, _one_session, batch_seed, sim_config  # noqa: E402

SHAPES = ("deep_fail", "waterfall", "high_snr_session")
OUTPUTS = ("metrics.csv", "trials.jsonl", "summary.json")


def batch(workers, name, seed, index, trials):
    """One batch of shape ``name``: (seconds, {output file: text})."""
    if WORKLOADS[name].is_session:
        return session_batch(name, seed, index, trials)
    simulate, wl = polarlink.simulate, WORKLOADS[name]
    cfg = simulate.SimConfig(k=wl.k, snr_db=wl.snr_db, schemes=wl.schemes, fb_loss=wl.fb_loss,
                             trials=trials, master_seed=batch_seed(seed, index), workers=workers)
    start = time.perf_counter()
    metrics, results = simulate.run_sweep(cfg)
    seconds = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as tmp:
        simulate.write_outputs(cfg, metrics, results, tmp)
        return seconds, {f: (Path(tmp) / f).read_text() for f in OUTPUTS}


def session_batch(name, seed, index, trials):
    """The benchmark's session batch: (seconds, {"sessions.jsonl": each
    trial's recorded session JSON, a line each})."""
    cfg = sim_config(WORKLOADS[name], seed, index, trials)
    plan = polarlink.protocol.plan_session(cfg.k)
    start = time.perf_counter()
    texts = [_one_session(cfg, plan, t)[-1] for t in range(trials)]
    return time.perf_counter() - start, {"sessions.jsonl": "\n".join(texts)}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def run(rounds, seed, trees):
    """Per shape, the A/B report of trees: this tree's Interpreter and the other's."""
    report = {}
    for name in SHAPES:
        wl = WORKLOADS[name]
        for tree in trees:
            tree(name, seed, WARMUP_BATCH, 1)  # fills lazy caches, untimed
        seconds = [[], []]
        for r in range(rounds):
            written = {}
            for i, tree in harness.in_turn(trees, r):
                took, written[i] = tree(name, seed, r, wl.batch_trials)
                seconds[i].append(took)
            for f in written[0]:
                if written[0][f] != written[1][f]:
                    raise SystemExit(f"{name} round {r}: the two trees wrote different {f}")
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
            **{side: {"median_s": round(median, 4), "trials_per_s": round(trials / median, 2)}
               for side, median in zip(("this", "other"), map(statistics.median, seconds))},
        }
    return report


def main(argv=None):
    parser = harness.parser(__doc__)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--workers", type=int, default=1, help="run_sweep's worker count")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.serve:
        harness.serve(partial(batch, args.workers))
        return
    if args.against is None:
        parser.error("--against is required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with harness.interpreters(__file__, args.against, "--workers", args.workers) as trees:
        harness.emit({
            "settings": {"rounds": args.rounds, "seed": args.seed, "against": args.against,
                         "workers": args.workers},
            "host": harness.host(),
            "shapes": run(args.rounds, args.seed, trees),
        }, args.out)


if __name__ == "__main__":
    main()
