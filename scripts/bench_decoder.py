"""Decoder microbenchmark: milliseconds per lockstep iteration of bp_decode_many.

Each case decodes B rows of the K-bit session code's punctured mother code:
the positions a session sends at ``rate`` (SessionPlan.positions) carry
channel LLRs at a deep-failure SNR, and every other position carries 0.
Decodes run with early_stop 'none', so a row runs --iters iterations unless
it reaches a fixed point, where it drops out of the batch.  ms_per_row_iter
is the median call time over --repeats calls divided by the row-iterations
run (the sum of the rows' iterations_used), and ms_per_iter B times it.  A
case also reports the median one-iteration call, and the output messages
per row an iteration box-plusses and copies in each direction, read off the
batch's gather plan.  Rate 1/4 is the cumulative stage-2 pattern a
deep-failure session decodes; "all" sends every position.

Each tree decodes in an interpreter of its own (``harness.py``): this one,
and with --against DIR the ``polarlink`` package under DIR (a source tree's
``src``, say a checkout of an earlier commit), which must draw the same
rows in every case.  Their calls alternate, which one leads switching every
repeat, and each case also reports the other's timings and the ratios
other / this (above 1 where this tree is faster).

    PYTHONPATH=src python scripts/bench_decoder.py [--k 96] [--iters 20]
        [--repeats 7] [--against DIR] [--out FILE]

The output is JSON: the settings, the host, and one record per
(update rule, rate, B).
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from polarlink import decoding
from polarlink.decoding import BpConfig, bp_decode_many
from polarlink.encoding import encode_systematic
from polarlink.protocol import plan_session

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

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
    return llrs


class Cases:
    """The --serve side: the served tree's decodes of each case asked for, its
    rows drawn from one stream of seed."""

    def __init__(self, k, seed=0):
        self.k, self.spec, self.rng = k, plan_session(k).spec, np.random.default_rng(seed)

    def __call__(self, request, *args):
        return getattr(self, request)(*args)

    def case(self, rule, rate, batch, iters):
        """Draw a case's rows and decode them once, untimed: first-call costs
        are not what a sweep pays per decode."""
        self.rule, self.llrs = rule, batch_llrs(self.k, rate, batch, self.rng)
        self.time(iters)
        return {"llrs": hashlib.sha256(self.llrs.tobytes()).hexdigest(),
                "zero_share": float((self.llrs == 0).all(axis=0).mean()),
                "iterations": [r.iterations_used for r in self.results]}

    def time(self, max_iters):
        """Seconds of one decode of the case's rows."""
        config = BpConfig(max_iters=max_iters, update_rule=self.rule, early_stop="none")
        start = time.perf_counter()
        self.results = bp_decode_many(self.llrs, self.spec, config)
        return time.perf_counter() - start

    def messages(self):
        """Box-plus outputs and copies per row that an iteration of the case
        writes, per direction, read off its gather plan: that of the rows'
        common zero pattern, or of the empty set under min-sum."""
        zero = (self.llrs == 0).all(axis=0) if self.rule == "exact" else np.zeros(self.spec.n, bool)
        plan = decoding._gather_plan(self.spec.n_log2, zero.tobytes())
        return {d: {"boxplus": sum(k.bottom.size + 2 * k.both.size + k.top.size for k in kinds),
                    "copies": sum(k.copy.size for k in kinds)}
                for d, kinds in (("leftward", plan.leftward), ("rightward", plan.rightward))}


def timed(trees, max_iters, repeats):
    """Per tree, the median seconds of repeats decodes of the case at
    max_iters, the trees' decodes alternating."""
    times = [[] for _ in trees]
    for r in range(repeats):
        for i, tree in harness.in_turn(trees, r):
            times[i].append(tree("time", max_iters))
    return [statistics.median(t) for t in times]


def run(trees, iters, repeats):
    """The case records, timed on trees: this tree's, then the other's if any."""
    cases = []
    for rule, rate, batch in product(RULES, RATES, BATCHES):
        this, *others = [tree("case", rule, rate, batch, iters) for tree in trees]
        if any(other["llrs"] != this["llrs"] for other in others):
            raise SystemExit(f"{rule} rate {rate} B={batch}: the trees drew different rows")
        row_iterations = sum(this["iterations"])
        call_s, one_s = timed(trees, iters, repeats), timed(trees, 1, repeats)
        messages = trees[0]("messages")  # this tree's plan only
        case = {
            "rule": rule, "rate": rate, "batch": batch,
            "zero_share": round(this["zero_share"], 4),
            "iterations": max(this["iterations"]),
            "row_iterations": row_iterations,
            "all_rows_ran_all": row_iterations == iters * batch,
            "ms_per_iter": round(1e3 * call_s[0] * batch / row_iterations, 4),
            "ms_per_row_iter": round(1e3 * call_s[0] / row_iterations, 4),
            "one_iteration_call_us": round(1e6 * one_s[0], 1),
            "messages_per_row_iteration": messages,
        }
        line = (f"{rule:6s} rate {rate:3s} B={batch}: {case['ms_per_iter']:.3f} ms/iter, "
                f"1-iter call {case['one_iteration_call_us']:.0f} us")
        if others:
            case["against"] = {"ms_per_iter": round(1e3 * call_s[1] * batch / row_iterations, 4),
                               "one_iteration_call_us": round(1e6 * one_s[1], 1)}
            case["ratio_against_over_this"] = {"ms_per_iter": round(call_s[1] / call_s[0], 3),
                                               "one_iteration_call": round(one_s[1] / one_s[0], 3)}
            line += f"; against x{case['ratio_against_over_this']['ms_per_iter']:.3f}"
        cases.append(case)
        print(line, file=sys.stderr)
    return cases


def main(argv=None):
    parser = harness.parser(__doc__)
    parser.add_argument("--k", type=int, default=96)
    parser.add_argument("--iters", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.serve:
        harness.serve(Cases(args.k))
        return
    with harness.interpreters(__file__, args.against, "--k", args.k) as trees:
        harness.emit({
            "settings": {"k": args.k, "n": plan_session(args.k).n_mother, "iters": args.iters,
                         "repeats": args.repeats, "snr_db": SNR_DB, "against": args.against},
            "host": harness.host(),
            "cases": run(trees, args.iters, args.repeats),
        }, args.out)


if __name__ == "__main__":
    main()
