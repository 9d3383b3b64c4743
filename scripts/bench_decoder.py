"""Decoder microbenchmark: milliseconds per lockstep iteration of bp_decode_many.

Each case decodes B rows of the K-bit session code's punctured mother code:
the positions a session sends at ``rate`` (SessionPlan.positions) carry
channel LLRs at a deep-failure SNR, and every other position carries 0.
Decodes run with early_stop 'none', so every row runs --iters iterations
unless it reaches a fixed point, and rows that reach one drop out of the
batch while the others run on.  So a case divides the median call time over
--repeats calls by the row-iterations run, the sum of the rows'
iterations_used: ms_per_row_iter is that quotient and ms_per_iter B times
it, the cost of one iteration of all B rows.  It also reports the median
time of a one-iteration call (the per-call cost a decode that stops at once
pays), and
how many output messages per row an iteration box-plusses and copies in each
direction, from the gather plan of the batch.  Rate 1/4 is the cumulative
stage-2 pattern a deep-failure session decodes; "all" sends every position,
so every output is box-plussed.

With --against DIR, the ``polarlink`` package under DIR (a source tree's
``src``, say a checkout of an earlier commit) is imported as a second module
and decodes the same rows; the two trees' calls alternate within each case,
which one leads switching every repeat, so both timings see the same host
state.  Each case then also reports the other tree's timings and the ratios
other / this (above 1 where this tree is faster).

    PYTHONPATH=src python scripts/bench_decoder.py [--k 96] [--iters 20]
        [--repeats 7] [--against DIR] [--out FILE]

The output is JSON: the settings, the host, and one record per
(update rule, rate, B).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from polarlink import decoding
from polarlink.decoding import BpConfig, bp_decode_many
from polarlink.encoding import encode_systematic
from polarlink.protocol import plan_session

RATES = ("3/4", "1/2", "1/4", "1/8", "all")
BATCHES = (1, 2, 4, 8)
RULES = ("exact", "minsum")
SNR_DB = -3.0


def batch_llrs(k, rate, batch, rng):
    """(B, N) channel LLRs: AWGN-equivalent at SNR_DB on the positions sent
    at ``rate`` (mean +-4g, variance 8g), 0 elsewhere."""
    plan = plan_session(k)
    positions = np.arange(plan.n_mother) if rate == "all" else plan.positions(Fraction(rate))
    g = 10.0 ** (SNR_DB / 10.0)
    llrs = np.zeros((batch, plan.n_mother))
    for row in llrs:
        codeword = encode_systematic(rng.integers(0, 2, k).astype(np.uint8), plan.spec)
        signs = 1.0 - 2.0 * codeword[positions]
        row[positions] = 4.0 * g * signs + np.sqrt(8.0 * g) * rng.standard_normal(positions.size)
    return llrs, plan.spec


def load_tree(src_dir, name="polarlink_against"):
    """The polarlink package under src_dir, imported as module ``name``, so
    it lives beside the polarlink on sys.path."""
    root = Path(src_dir) / "polarlink"
    if not (root / "__init__.py").is_file():
        raise SystemExit(f"no polarlink package under {src_dir}")
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports resolve through it
    spec.loader.exec_module(module)
    return module


def timed(fns, repeats):
    """Median seconds per call of each of fns, their calls alternating and
    the lead switching every repeat."""
    for fn in fns:
        fn()  # warm-up: first-call costs are not what a sweep pays per decode
    times = [[] for _ in fns]
    for r in range(repeats):
        order = list(enumerate(fns))
        for i, fn in order if r % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            fn()
            times[i].append(time.perf_counter() - start)
    return [statistics.median(t) for t in times]


def messages_per_row_iteration(call):
    """Box-plus outputs and copies per row that an iteration of call()'s
    decode writes, per direction, read off the gather plan its batch starts
    with."""
    run = decoding._Lockstep.run
    plans = []

    def recorded(core, half):
        plans.append(core.plan)
        return run(core, half)

    decoding._Lockstep.run = recorded
    try:
        call()
    finally:
        decoding._Lockstep.run = run
    counts = {}
    for direction in ("leftward", "rightward"):
        kinds = getattr(plans[0], direction)
        counts[direction] = {
            "boxplus": sum(k.bottom.size + 2 * k.both.size + k.top.size for k in kinds),
            "copies": sum(k.copy.size for k in kinds)}
    return counts


def run(k, iters, repeats, seed=0, against=None):
    rng = np.random.default_rng(seed)
    trees = [(bp_decode_many, BpConfig, plan_session(k).spec)]
    if against is not None:
        trees.append((against.decoding.bp_decode_many, against.decoding.BpConfig,
                      against.protocol.plan_session(k).spec))
    cases = []
    for rule in RULES:
        for rate in RATES:
            for batch in BATCHES:
                llrs, _ = batch_llrs(k, rate, batch, rng)

                def calls(max_iters):
                    """One decode call per tree, this one first."""
                    return [partial(decode, llrs, spec,
                                    config(max_iters=max_iters, update_rule=rule, early_stop="none"))
                            for decode, config, spec in trees]

                results = calls(iters)[0]()
                ran = max(r.iterations_used for r in results)
                row_iterations = sum(r.iterations_used for r in results)
                call_s, one_s = timed(calls(iters), repeats), timed(calls(1), repeats)
                messages = messages_per_row_iteration(calls(1)[0])
                case = {
                    "rule": rule, "rate": rate, "batch": batch,
                    "zero_share": round(float((llrs == 0).all(axis=0).mean()), 4),
                    "iterations": ran,
                    "row_iterations": row_iterations,
                    "all_rows_ran_all": row_iterations == iters * batch,
                    "ms_per_iter": round(1e3 * call_s[0] * batch / row_iterations, 4),
                    "ms_per_row_iter": round(1e3 * call_s[0] / row_iterations, 4),
                    "one_iteration_call_us": round(1e6 * one_s[0], 1),
                    "messages_per_row_iteration": messages,
                }
                line = (f"{rule:6s} rate {rate:3s} B={batch}: {case['ms_per_iter']:.3f} ms/iter, "
                        f"1-iter call {case['one_iteration_call_us']:.0f} us, "
                        f"box-plus {messages['leftward']['boxplus']} left "
                        f"{messages['rightward']['boxplus']} right, copies "
                        f"{messages['leftward']['copies']} left "
                        f"{messages['rightward']['copies']} right")
                if against is not None:
                    case["against"] = {"ms_per_iter": round(1e3 * call_s[1] * batch / row_iterations, 4),
                                       "one_iteration_call_us": round(1e6 * one_s[1], 1)}
                    case["ratio_against_over_this"] = {
                        "ms_per_iter": round(call_s[1] / call_s[0], 3),
                        "one_iteration_call": round(one_s[1] / one_s[0], 3)}
                    line += (f"; against {case['against']['ms_per_iter']:.3f} ms/iter "
                             f"(x{case['ratio_against_over_this']['ms_per_iter']:.2f})")
                cases.append(case)
                print(line, file=sys.stderr)
    return cases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=96)
    parser.add_argument("--iters", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--against", metavar="DIR",
                        help="a directory holding another polarlink package to time "
                             "beside this one")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    against = None if args.against is None else load_tree(args.against)
    report = {
        "settings": {"k": args.k, "n": plan_session(args.k).n_mother, "iters": args.iters,
                     "repeats": args.repeats, "snr_db": SNR_DB, "against": args.against},
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "processor": platform.processor()},
        "cases": run(args.k, args.iters, args.repeats, against=against),
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
