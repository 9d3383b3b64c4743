"""Decoder microbenchmark: milliseconds per lockstep iteration of bp_decode_many.

Each case decodes B rows of the K-bit session code's punctured mother code:
the positions a session sends at ``rate`` (SessionPlan.positions) carry
channel LLRs at a deep-failure SNR, and every other position carries 0.
Decodes run with early_stop 'none', so every row runs --iters iterations
unless it reaches a fixed point; a case reports the median over --repeats
calls of the call time divided by the iterations run, the median time of a
one-iteration call (the per-call cost a decode that stops at once pays), and
how many stage halves of that iteration ran gathered, in each direction.
Rate 1/4 is the cumulative stage-2 pattern a deep-failure session decodes.

    PYTHONPATH=src python scripts/bench_decoder.py [--k 96] [--iters 20]
        [--repeats 7] [--out FILE]

The output is JSON: the settings, the host, and one record per
(update rule, rate, B).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

from polarlink import decoding
from polarlink.decoding import BpConfig, bp_decode_many
from polarlink.encoding import encode_systematic
from polarlink.protocol import plan_session

RATES = ("3/4", "1/2", "1/4", "1/8")
BATCHES = (1, 2, 4, 8)
RULES = ("exact", "minsum")
SNR_DB = -3.0


def batch_llrs(k, rate, batch, rng):
    """(B, N) channel LLRs: AWGN-equivalent at SNR_DB on the positions sent
    at ``rate`` (mean +-4g, variance 8g), 0 elsewhere."""
    plan = plan_session(k)
    positions = plan.positions(Fraction(rate))
    g = 10.0 ** (SNR_DB / 10.0)
    llrs = np.zeros((batch, plan.n_mother))
    for row in llrs:
        codeword = encode_systematic(rng.integers(0, 2, k).astype(np.uint8), plan.spec)
        signs = 1.0 - 2.0 * codeword[positions]
        row[positions] = 4.0 * g * signs + np.sqrt(8.0 * g) * rng.standard_normal(positions.size)
    return llrs, plan.spec


def timed(fn, repeats):
    fn()  # warm-up: first-call costs are not what a sweep pays per decode
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def gathered_halves(llrs, spec, cfg):
    """Stage halves that one call runs gathered, per direction."""
    kernel = decoding._gathered
    counts = {"leftward": 0, "rightward": 0}

    def counted(src, index, g, tail, xs, dst, *rest):
        # a leftward half writes the layer below the gather's base, a
        # rightward one the layer above
        counts["leftward" if dst.size > src.size else "rightward"] += 1
        return kernel(src, index, g, tail, xs, dst, *rest)

    decoding._gathered = counted
    try:
        bp_decode_many(llrs, spec, cfg)
    finally:
        decoding._gathered = kernel
    return counts


def run(k, iters, repeats, seed=0):
    rng = np.random.default_rng(seed)
    cases = []
    for rule in RULES:
        for rate in RATES:
            for batch in BATCHES:
                llrs, spec = batch_llrs(k, rate, batch, rng)
                cfg = BpConfig(max_iters=iters, update_rule=rule, early_stop="none")
                call_s, results = timed(lambda: bp_decode_many(llrs, spec, cfg), repeats)
                ran = max(r.iterations_used for r in results)
                one = BpConfig(max_iters=1, update_rule=rule, early_stop="none")
                one_s, _ = timed(lambda: bp_decode_many(llrs, spec, one), repeats)
                gathered = gathered_halves(llrs, spec, one)
                cases.append({
                    "rule": rule, "rate": rate, "batch": batch,
                    "zero_share": round(float((llrs == 0).all(axis=0).mean()), 4),
                    "iterations": ran,
                    "all_rows_ran_all": all(r.iterations_used == iters for r in results),
                    "ms_per_iter": round(1e3 * call_s / ran, 4),
                    "ms_per_row_iter": round(1e3 * call_s / ran / batch, 4),
                    "one_iteration_call_us": round(1e6 * one_s, 1),
                    "gathered_halves_per_iteration": gathered,
                })
                print(f"{rule:6s} rate {rate:3s} B={batch}: "
                      f"{cases[-1]['ms_per_iter']:.3f} ms/iter, "
                      f"1-iter call {cases[-1]['one_iteration_call_us']:.0f} us, gathered "
                      f"{gathered['leftward']} left {gathered['rightward']} right",
                      file=sys.stderr)
    return cases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=96)
    parser.add_argument("--iters", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    report = {
        "settings": {"k": args.k, "n": plan_session(args.k).n_mother, "iters": args.iters,
                     "repeats": args.repeats, "snr_db": SNR_DB},
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "processor": platform.processor()},
        "cases": run(args.k, args.iters, args.repeats),
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
