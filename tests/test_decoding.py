"""Decoding: BP behavior, FBER statistics, combining, ML oracle checks."""

import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlink import decoding
from polarlink.construction import design_code
from polarlink.decoding import (
    FROZEN_PRIOR_LLR,
    BpConfig,
    bp_decode,
    bp_decode_many,
    combine_llrs,
)
from polarlink.encoding import encode_systematic, polar_transform
from polarlink.protocol import RATE_TABLE, crc16, plan_session

from ml_oracle import ml_decode_oracle


def noiseless_llrs(codeword):
    return FROZEN_PRIOR_LLR * (1.0 - 2.0 * np.asarray(codeword, dtype=np.float64))


def awgn_llrs(codeword, snr_db, rng):
    # AWGN-equivalent channel LLRs: mean +-4g, variance 8g
    g = 10.0 ** (snr_db / 10.0)
    signs = 1.0 - 2.0 * np.asarray(codeword, dtype=np.float64)
    return 4.0 * g * signs + np.sqrt(8.0 * g) * rng.standard_normal(len(codeword))


# The reference decoder below is the index-pair loop the kernel replaced.  It
# keeps its own box-plus, butterfly indices and pilot sweep, so it shares no
# code with the kernel it checks.

def _ref_boxplus_exact(a, b):
    return (
        np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
        + np.log1p(np.exp(-np.abs(a + b)))
        - np.log1p(np.exp(-np.abs(a - b)))
    )


def _ref_boxplus_minsum(a, b):
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _ref_stage_pairs(n_log2):
    idx = np.arange(1 << n_log2)
    pairs = []
    for s in range(n_log2):
        p = idx[(idx & (1 << s)) == 0]
        pairs.append((p, p + (1 << s)))
    return pairs


def _ref_channel_only_u_llrs(llrs, pairs, n_log2, f):
    cur = llrs
    for s in range(n_log2 - 1, -1, -1):
        p, q = pairs[s]
        nxt = np.empty_like(cur)
        nxt[p] = f(cur[p], cur[q])
        nxt[q] = cur[q]
        cur = nxt
    return cur


def bp_decode_reference(llrs, spec, cfg, crc_check=None, fixed_point_stop=True):
    """The index-pair decoder loop (test oracle).

    It runs until the early-stop rule fires, max_iters is spent or, with
    fixed_point_stop, an iteration after the first leaves left[1:n_log2]
    bit-identical: every other message follows from those.  The rule needs
    a frozen position and a nonzero channel LLR to agree with.
    Returns (info_bits, u_posterior, frozen_hard, fber, fber_over_observed,
    converged, iterations_used, stop_reason).
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    f = _ref_boxplus_exact if cfg.update_rule == "exact" else _ref_boxplus_minsum
    n_log2, n = spec.n_log2, spec.n
    pairs = _ref_stage_pairs(n_log2)
    left = np.zeros((n_log2 + 1, n))
    right = np.zeros((n_log2 + 1, n))
    right[0, spec.frozen_set] = FROZEN_PRIOR_LLR
    left[n_log2] = llrs

    def info_from(u_post):
        u_hat = np.zeros(n, dtype=np.uint8)
        u_hat[spec.info_set] = u_post[spec.info_set] < 0
        return polar_transform(u_hat)[spec.info_set]

    converged = False
    iterations = 0
    stop_reason = "max_iters"
    evidence = spec.frozen_set.size > 0 and bool(np.any(llrs))
    for _ in range(cfg.max_iters):
        iterations += 1
        before = left[1:n_log2].copy()
        for s in range(n_log2 - 1, -1, -1):
            p, q = pairs[s]
            lp, lq = left[s + 1, p], left[s + 1, q]
            rp, rq = right[s, p], right[s, q]
            left[s, p] = f(lp, rq + lq)
            left[s, q] = f(rp, lp) + lq
        for s in range(n_log2):
            p, q = pairs[s]
            lp, lq = left[s + 1, p], left[s + 1, q]
            rp, rq = right[s, p], right[s, q]
            right[s + 1, p] = f(rp, rq + lq)
            right[s + 1, q] = rq + f(rp, lp)
        if cfg.early_stop != "none":
            frozen_ok = evidence and bool(np.all(left[0, spec.frozen_set] >= 0.0))
            if frozen_ok and crc_check is not None:
                frozen_ok = bool(crc_check(info_from(left[0] + right[0])))
            if frozen_ok:
                converged = True
                stop_reason = "frozen" if crc_check is None else "crc"
                break
        if fixed_point_stop and iterations > 1 and before.tobytes() == left[1:n_log2].tobytes():
            stop_reason = "fixed_point"
            break

    u_posterior = left[0] + right[0]
    frozen_pilot = _ref_channel_only_u_llrs(llrs, pairs, n_log2, f)[spec.frozen_set]
    frozen_hard = (frozen_pilot < 0).astype(np.uint8)
    fber = float(frozen_hard.mean()) if frozen_hard.size else 0.0
    observed = np.abs(frozen_pilot) > 0
    fber_over_observed = float(frozen_hard[observed].mean()) if observed.any() else 0.0
    if cfg.early_stop == "none":
        converged = bool(np.all(left[0, spec.frozen_set] >= 0.0))
    return (info_from(u_posterior), u_posterior, frozen_hard, fber, fber_over_observed,
            converged, iterations, stop_reason)


def bp_decode_no_fixed_point_oracle(llrs, spec, cfg, crc_check=None):
    """The decoder loop without the fixed-point stop (test oracle).

    It runs until the early-stop rule fires or max_iters is spent, and
    returns (info_bits, u_posterior, frozen_hard, fber, fber_over_observed,
    converged).
    """
    return bp_decode_reference(llrs, spec, cfg, crc_check, fixed_point_stop=False)[:6]


def _punctured_cases():
    """(llrs, spec, crc) at the stage-1 budget and every cumulative stage-2
    budget of the K=96 session plan, in the waterfall and below it."""
    plan = plan_session(96)
    rng = np.random.default_rng(41)
    budgets = [plan.stage1_budget] + [plan.cumulative_budget(r) for r in RATE_TABLE]
    cases = []
    for budget, snr in zip(budgets, (4.0, -1.0, 0.0, -3.0, -6.0)):
        info = rng.integers(0, 2, 96).astype(np.uint8)
        positions = np.concatenate([plan.spec.info_set,
                                    plan.spec.parity_schedule[:budget - 96]])
        llrs = np.zeros(plan.n_mother)
        llrs[positions] = awgn_llrs(encode_systematic(info, plan.spec)[positions], snr, rng)
        cases.append((llrs, plan.spec, crc16(info)))
    return cases


def _unpunctured_cases():
    spec = design_code(6, 32)
    rng = np.random.default_rng(42)
    cases = []
    for snr in (-3.0, 0.0, 3.0):
        info = rng.integers(0, 2, 32).astype(np.uint8)
        cases.append((awgn_llrs(encode_systematic(info, spec), snr, rng), spec, crc16(info)))
    return cases


def _small_code_cases():
    """Many short-code inputs across SNRs, every other one half erased; the
    last carried message layer can settle an iteration after the others."""
    spec = design_code(5, 16)
    rng = np.random.default_rng(5)
    cases = []
    for t in range(60):
        info = rng.integers(0, 2, 16).astype(np.uint8)
        llrs = awgn_llrs(encode_systematic(info, spec), rng.uniform(-4.0, 4.0), rng)
        if t % 2:
            llrs[rng.permutation(spec.n)[:spec.n // 2]] = 0.0
        cases.append((llrs, spec, crc16(info)))
    return cases


def _signed_zero_cases():
    """Short codes down to N=2 with exact zeros: LLRs on a half-unit grid,
    so sums and differences tie, -0.0 at some transmitted positions and
    +0.0 at some punctured ones."""
    rng = np.random.default_rng(43)
    cases = []
    for n_log2, k in ((1, 1), (2, 1), (2, 2), (3, 4), (5, 16)):
        spec = design_code(n_log2, k)
        for t in range(12):
            info = rng.integers(0, 2, k).astype(np.uint8)
            llrs = np.round(2.0 * awgn_llrs(encode_systematic(info, spec),
                                            rng.uniform(-6.0, 0.0), rng)) / 2.0
            sent = rng.permutation(spec.n)
            llrs[sent[:spec.n // 4 + 1]] = -0.0
            if t % 2:
                llrs[sent[-max(1, spec.n // 4):]] = 0.0
            cases.append((llrs, spec, crc16(info)))
    return cases


class TestFixedPointStop:
    # the id names the rule that can end a decode early: "crc" is the frozen
    # check gated by the CRC, as the gateway runs it; under "none" the
    # predicate is unused
    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("early_stop, gated", [("none", False), ("frozen", False),
                                                   ("frozen", True), ("none", True)],
                             ids=["none", "frozen", "crc", "none_gated"])
    def test_bitwise_equal_to_running_on(self, rule, early_stop, gated):
        stops = []
        unpunctured = _unpunctured_cases() + _small_code_cases() + _signed_zero_cases()
        for punctured, cases in ((False, unpunctured), (True, _punctured_cases())):
            for llrs, spec, crc in cases:
                cfg = BpConfig(update_rule=rule, early_stop=early_stop)
                check = (lambda b, crc=crc: crc16(b) == crc) if gated else None
                res = bp_decode_many(llrs[None], spec, cfg, [check])[0]
                # a zero of the other sign in a message could move the
                # fixed-point stop, so the stop must match the reference loop's
                assert (res.iterations_used, res.stop_reason) == \
                    bp_decode_reference(llrs, spec, cfg, check)[6:]
                info, u_post, frozen_hard, fber, fber_over_observed, converged = \
                    bp_decode_no_fixed_point_oracle(llrs, spec, cfg, check)
                assert res.info_bits.tobytes() == info.tobytes()
                assert res.u_posterior.tobytes() == u_post.tobytes()
                assert res.frozen_hard.tobytes() == frozen_hard.tobytes()
                assert (res.fber, res.converged) == \
                    (fber_over_observed, early_stop != "none" and converged)
                assert 1 <= res.iterations_used <= cfg.max_iters
                if res.stop_reason in ("frozen", "crc"):
                    assert res.converged and early_stop != "none"
                    assert res.stop_reason == ("crc" if gated else "frozen")
                else:
                    assert res.stop_reason in ("fixed_point", "max_iters")
                    assert not res.converged
                if res.stop_reason == "max_iters":
                    assert res.iterations_used == cfg.max_iters
                stops.append((punctured, res.stop_reason, res.iterations_used))
        # the fixed-point path runs on punctured mother codes
        assert any(punctured and reason == "fixed_point" and iters < 60
                   for punctured, reason, iters in stops)
        # the stop rule fires in iteration 1, before any rightward half ran
        if early_stop != "none":
            assert any(reason in ("frozen", "crc") and iters == 1 for _, reason, iters in stops)

    def test_signed_zero_cases_cover_short_codes(self):
        cases = _signed_zero_cases()
        assert {2, 4} <= {spec.n for _, spec, _ in cases}
        assert all(np.signbit(llrs[llrs == 0]).any() for llrs, _, _ in cases)

    def test_reports_max_iters_when_budget_runs_out(self):
        llrs, spec, _ = _unpunctured_cases()[0]
        res = bp_decode(llrs, spec, BpConfig(max_iters=1, early_stop="none"))
        assert (res.iterations_used, res.stop_reason) == (1, "max_iters")

    def test_first_iteration(self):
        # every message starts at +0, which no iteration wrote, so the stop
        # compares from iteration 2 on.  A silent punctured channel leaves
        # every left message +0 in every iteration: the fixed point is
        # iteration 2, and under a budget of 1 the budget ends first.
        plan = plan_session(96)
        silent = np.zeros((1, plan.n_mother))
        for max_iters, want in ((60, ("fixed_point", 2)), (1, ("max_iters", 1))):
            got = assert_rows_match_reference(silent, plan.spec,
                                              BpConfig(max_iters=max_iters, early_stop="none"))
            assert (got[0].stop_reason, got[0].iterations_used) == want
        # with every position an info bit, right[0] holds no prior and right
        # stays +0, so iteration 2 repeats iteration 1's left
        spec = design_code(5, 32)
        rng = np.random.default_rng(3)
        llrs = rng.standard_normal((1, 32))
        llrs[0, rng.permutation(32)[:20]] = 0.0
        got = assert_rows_match_reference(llrs, spec, BpConfig(early_stop="none"))
        assert (got[0].stop_reason, got[0].iterations_used) == ("fixed_point", 2)

    def test_budget_ends_before_the_left_repeats(self):
        # a punctured row whose left repeats first in iteration 12: a budget
        # of 11 ends before it does
        llrs, spec, _ = _session_rows(96, ["1/2"] * 2, [2.0, 4.0], seed=9)
        for max_iters, want in ((30, ("fixed_point", 12)), (11, ("max_iters", 11))):
            got = assert_rows_match_reference(llrs[:1], spec, BpConfig(max_iters=max_iters))
            assert (got[0].stop_reason, got[0].iterations_used) == want

    def test_rows_drop_together(self, half_widths, monkeypatch):
        # a row the CRC stops in iteration 2 beside a silent row with a CRC
        # of its own that fails: its left is +0 throughout, so it repeats in
        # iteration 2 too, and both leave the batch in one drop while a
        # third row decodes on
        drops = []
        drop = decoding._Lockstep.drop

        def recorded(core, stopped):
            drops.append(sorted(int(i) for i in stopped))
            return drop(core, stopped)

        monkeypatch.setattr(decoding._Lockstep, "drop", recorded)
        plan = plan_session(96)
        spec = plan.spec
        silent = np.zeros(plan.n_mother)
        wrong_crc = crc16(np.ones(96, dtype=np.uint8))
        # the CRC-stopped row sends every position, so the batch runs every
        # butterfly until it drops, or at rate 3/4, so the batch skips some
        # from iteration 1
        rng = np.random.default_rng(4)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        dense = awgn_llrs(encode_systematic(info, spec), -0.5, rng)
        sparse, _, sparse_crcs = _session_rows(96, ["3/4"], [4.0], seed=0)
        deep, _, deep_crcs = _session_rows(96, ["3/4"], [-3.0], seed=1)
        for other, crc in ((dense, crc16(info)), (sparse[0], sparse_crcs[0])):
            drops.clear()
            half_widths.clear()
            got = assert_rows_match_reference(np.array([other, silent, deep[0]]), spec,
                                              BpConfig(max_iters=8),
                                              _row_checks([crc, wrong_crc, deep_crcs[0]], [True] * 3))
            assert [(r.stop_reason, r.iterations_used) for r in got] == \
                [("crc", 2), ("fixed_point", 2), ("max_iters", 8)]
            assert drops == [[0, 1]]
            assert any(d == "rightward" and sum(box for box, _ in w) < len(w) * spec.n
                       for d, w in half_widths)


MODES = [("none", False), ("frozen", False), ("frozen", True), ("none", True)]


def _draw_grid_row(draw, spec):
    """Channel LLRs on a half-unit grid around a codeword of spec, with zeros
    of either sign at random positions; returns (llrs, crc of the info)."""
    n = spec.n
    info = np.array(draw(st.lists(st.integers(0, 1), min_size=spec.k, max_size=spec.k)),
                    dtype=np.uint8)
    mags = np.array(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))) / 2.0
    flips = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    llrs = np.where(flips, -1.0, 1.0) * (1.0 - 2.0 * encode_systematic(info, spec)) * mags
    return llrs, crc16(info)


def _draw_short_code(draw):
    n_log2 = draw(st.integers(1, 5))
    return design_code(n_log2, draw(st.integers(1, 1 << n_log2)))


@st.composite
def _grid_inputs(draw):
    """A short code and grid channel LLRs around a codeword of it."""
    spec = _draw_short_code(draw)
    llrs, crc = _draw_grid_row(draw, spec)
    return llrs, spec, crc


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(case=_grid_inputs(), rule=st.sampled_from(["exact", "minsum"]),
           mode=st.sampled_from(MODES))
    def test_every_field_bitwise(self, case, rule, mode):
        # the pilot read off iteration 1 must match the reference's own
        # prior-free sweep though zeros may carry either sign
        llrs, spec, crc = case
        early_stop, gated = mode
        cfg = BpConfig(update_rule=rule, early_stop=early_stop)
        check = (lambda b: crc16(b) == crc) if gated else None
        res = bp_decode_many(llrs[None], spec, cfg, [check])[0]
        (info, u_post, frozen_hard, _, fber, converged, iterations, stop_reason) = \
            bp_decode_reference(llrs, spec, cfg, check)
        assert res.info_bits.tobytes() == info.tobytes()
        assert res.u_posterior.tobytes() == u_post.tobytes()
        assert res.frozen_hard.tobytes() == frozen_hard.tobytes()
        assert np.float64(res.fber).tobytes() == np.float64(fber).tobytes()
        assert (res.iterations_used, res.stop_reason) == (iterations, stop_reason)
        assert res.converged == (early_stop != "none" and converged)


@st.composite
def _grid_batches(draw):
    """A short code and 1-6 rows of grid LLRs around codewords of it; each
    row has its own CRC and is gated by it or not."""
    spec = _draw_short_code(draw)
    rows = [_draw_grid_row(draw, spec) for _ in range(draw(st.integers(1, 6)))]
    gated = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return np.array([llrs for llrs, _ in rows]), spec, [crc for _, crc in rows], gated


def _row_checks(crcs, gated):
    return [(lambda b, crc=crc: crc16(b) == crc) if g else None
            for crc, g in zip(crcs, gated)]


def assert_results_bitwise_equal(got, want):
    assert got.info_bits.dtype == want.info_bits.dtype
    assert got.info_bits.tobytes() == want.info_bits.tobytes()
    assert got.frozen_hard.tobytes() == want.frozen_hard.tobytes()
    assert got.u_posterior.tobytes() == want.u_posterior.tobytes()
    assert np.float64(got.fber).tobytes() == np.float64(want.fber).tobytes()
    assert (got.iterations_used, got.stop_reason) == (want.iterations_used, want.stop_reason)


class TestBatch:
    """bp_decode_many row i equals row i decoded alone, bit for bit, and the
    index-pair reference; rows stop on their own rules."""

    @settings(max_examples=150, deadline=None)
    @given(case=_grid_batches(), rule=st.sampled_from(["exact", "minsum"]),
           early_stop=st.sampled_from(["none", "frozen"]), max_iters=st.sampled_from([60, 2]))
    def test_every_row_bitwise(self, case, rule, early_stop, max_iters):
        llrs, spec, crcs, gated = case
        cfg = BpConfig(max_iters=max_iters, update_rule=rule, early_stop=early_stop)
        checks = _row_checks(crcs, gated)
        got = bp_decode_many(llrs, spec, cfg, checks)
        assert len(got) == len(llrs)
        for row, check, res in zip(llrs, checks, got):
            assert_results_bitwise_equal(res, bp_decode_many(row[None], spec, cfg, [check])[0])
            (info, u_post, frozen_hard, _, fber, _, iterations, stop_reason) = \
                bp_decode_reference(row, spec, cfg, check)
            assert res.info_bits.tobytes() == info.tobytes()
            assert res.u_posterior.tobytes() == u_post.tobytes()
            assert res.frozen_hard.tobytes() == frozen_hard.tobytes()
            assert np.float64(res.fber).tobytes() == np.float64(fber).tobytes()
            assert (res.iterations_used, res.stop_reason) == (iterations, stop_reason)

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    def test_rows_stopping_apart(self, rule):
        # every other row gated by its CRC: rows stop on 'crc', 'frozen',
        # 'fixed_point' and 'max_iters' at different iterations of one batch
        for cases in (_small_code_cases(), _punctured_cases()):
            spec = cases[0][1]
            llrs = np.array([c[0] for c in cases])
            checks = _row_checks([c[2] for c in cases], [i % 2 == 0 for i in range(len(cases))])
            cfg = BpConfig(max_iters=20, update_rule=rule)
            got = bp_decode_many(llrs, spec, cfg, checks)
            for row, check, res in zip(llrs, checks, got):
                assert_results_bitwise_equal(res, bp_decode_many(row[None], spec, cfg, [check])[0])
            stops = {(r.stop_reason, r.iterations_used) for r in got}
            if spec.n == 32:
                assert {"crc", "frozen", "fixed_point", "max_iters"} <= {r for r, _ in stops}
                assert len({i for _, i in stops}) >= 4

    def test_rows_of_signed_zero_cases(self):
        by_code = {}
        for llrs, spec, crc in _signed_zero_cases():
            by_code.setdefault((spec.n_log2, spec.k), (spec, []))[1].append((llrs, crc))
        for spec, rows in by_code.values():
            llrs = np.array([r[0] for r in rows])
            for early_stop in ("none", "frozen"):
                cfg = BpConfig(early_stop=early_stop)
                checks = _row_checks([r[1] for r in rows], [i % 3 != 0 for i in range(len(rows))])
                for row, check, res in zip(llrs, checks, bp_decode_many(llrs, spec, cfg, checks)):
                    assert_results_bitwise_equal(
                        res, bp_decode_many(row[None], spec, cfg, [check])[0])

    def test_no_checks_means_none_per_row(self):
        llrs = np.array([c[0] for c in _small_code_cases()[:8]])
        spec = design_code(5, 16)
        for a, b in zip(bp_decode_many(llrs, spec), bp_decode_many(llrs, spec, crc_checks=[None] * 8)):
            assert_results_bitwise_equal(a, b)

    def test_rejects_bad_input(self):
        spec = design_code(3, 4)
        for bad in (np.zeros(8), np.zeros((2, 7)), np.zeros((2, 8, 1))):
            with pytest.raises(ValueError):
                bp_decode_many(bad, spec)
        nonfinite = np.zeros((2, 8))
        nonfinite[1, 3] = np.nan
        with pytest.raises(ValueError):
            bp_decode_many(nonfinite, spec)
        with pytest.raises(ValueError):
            bp_decode_many(np.zeros((2, 8)), spec, crc_checks=[None])

    def test_empty_batch(self):
        assert bp_decode_many(np.zeros((0, 8)), design_code(3, 4)) == []


def _session_rows(k, rates, snrs, seed):
    """Channel LLRs on the K-bit session code's punctured mother code, one
    row per (rate, SNR): the positions a session sends at that rate carry
    AWGN-equivalent LLRs and every other position exactly 0.  Returns
    (llrs, spec, crcs)."""
    plan = plan_session(k)
    rng = np.random.default_rng(seed)
    rows, crcs = [], []
    for rate, snr in zip(rates, snrs):
        info = rng.integers(0, 2, k).astype(np.uint8)
        positions = plan.positions(Fraction(rate))
        row = np.zeros(plan.n_mother)
        row[positions] = awgn_llrs(encode_systematic(info, plan.spec)[positions], snr, rng)
        rows.append(row)
        crcs.append(crc16(info))
    return np.array(rows), plan.spec, crcs


def assert_rows_match_reference(llrs, spec, cfg, checks=None):
    """Decode llrs as one batch; every field of every row equals the
    index-pair reference's, bit for bit.  Returns the results."""
    checks = [None] * len(llrs) if checks is None else checks
    got = bp_decode_many(llrs, spec, cfg, checks)
    for row, check, res in zip(llrs, checks, got):
        (info, u_post, frozen_hard, _, fber, converged, iterations, stop_reason) = \
            bp_decode_reference(row, spec, cfg, check)
        assert res.info_bits.tobytes() == info.tobytes()
        assert res.u_posterior.tobytes() == u_post.tobytes()
        assert res.frozen_hard.tobytes() == frozen_hard.tobytes()
        assert np.float64(res.fber).tobytes() == np.float64(fber).tobytes()
        assert (res.iterations_used, res.stop_reason) == (iterations, stop_reason)
        assert res.converged == (cfg.early_stop != "none" and converged)
    return got


def _zero_sets_by_layer(zero, n_log2):
    """The positions zero in every row at layers n_log2..0, propagated from
    the channel layer's: a top output is zero when its top input is, a
    bottom output when both inputs are."""
    layers = [zero]
    for s in reversed(range(n_log2)):
        z = layers[-1].copy()
        v = z.reshape(-1, 2, 1 << s)
        v[:, 1] &= v[:, 0]
        layers.append(z)
    return layers


def _stage_outputs(zero, n_log2):
    """(box-plus outputs, copies) per stage that the exact rule needs, from
    index pairs.  Where left[s + 1][p] is zero, f(lp, .) = +0: the top
    output is +0 and the bottom one +0 + the tail, a copy.  Leftward, a
    butterfly with a nonzero lp box-plusses both outputs, and one with a
    zero lp copies its bottom output when lq is nonzero; so leftward stage
    s reads right[s] at p and q only where lp is nonzero.  Rightward
    (stages 0..n_log2 - 2), only the outputs that a later stage half reads
    are written: the top one box-plussed, reading rp and rq, and the bottom
    one, f(rp, lp) + rq, reading rq, and box-plussed reading rp where lp is
    nonzero, else a copy.  Returns (leftward, rightward), indexed by
    stage."""
    pairs = _ref_stage_pairs(n_log2)
    layers = _zero_sets_by_layer(zero, n_log2)
    read = np.zeros((n_log2 + 1, 1 << n_log2), dtype=bool)
    leftward, rightward = [None] * n_log2, [None] * (n_log2 - 1)
    for s in reversed(range(n_log2)):
        p, q = pairs[s]
        z = layers[n_log2 - 1 - s]  # layer s + 1
        leftward[s] = (2 * np.count_nonzero(~z[p]), np.count_nonzero(z[p] & ~z[q]))
        read[s][p] = read[s][q] = ~z[p]
        if s < n_log2 - 1:
            top, bottom = read[s + 1][p], read[s + 1][q]
            rightward[s] = (np.count_nonzero(top) + np.count_nonzero(bottom & ~z[p]),
                            np.count_nonzero(bottom & z[p]))
            read[s][p] |= top | (bottom & ~z[p])
            read[s][q] |= top | bottom
    return leftward, rightward


@pytest.fixture
def half_widths(monkeypatch):
    """(direction, (box-plus outputs, copies) of each stage) of every
    direction's stage halves run, in order, one entry per running row, read
    off the butterfly counts (T, F, B, C) in the spans of the row's own
    gather plan: T + 2F + B box-plus outputs and C copies."""
    calls = []
    run = decoding._Lockstep.run

    def counted(core, direction):
        for plan in core.plans:
            _, spans = plan.one_row[direction]
            calls.append((direction, [(t + 2 * f + b, c) for *_, (t, f, b, c) in spans]))
        return run(core, direction)

    monkeypatch.setattr(decoding._Lockstep, "run", counted)
    return calls


def _skipped_some(half_widths, n):
    """Whether some stage half box-plussed fewer than all n outputs of a
    stage."""
    return any(box < n for _, widths in half_widths for box, _ in widths)


@st.composite
def _punctured_batches(draw):
    """A short code and 1-4 rows of grid LLRs that share one random sent
    set: every unsent position is 0, and -0 at some sent and unsent
    positions of each row; each row has its own CRC and is gated by it or
    not."""
    n_log2 = draw(st.integers(2, 6))
    spec = design_code(n_log2, draw(st.integers(1, 1 << n_log2)))
    positions = st.integers(0, spec.n - 1)
    unsent = sorted(draw(st.sets(positions)))
    rows, crcs = [], []
    for _ in range(draw(st.integers(1, 4))):
        llrs, crc = _draw_grid_row(draw, spec)
        llrs[unsent] = 0.0
        llrs[sorted(draw(st.sets(positions, max_size=spec.n // 4 + 1)))] = -0.0
        rows.append(llrs)
        crcs.append(crc)
    gated = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return np.array(rows), spec, crcs, gated


class TestPunctured:
    """Puncturing pins channel LLRs at 0; the exact rule copies the outputs
    that are a zero plus a tail and skips those known +0 or never read.
    Every field stays bitwise equal to the index-pair reference."""

    @pytest.mark.parametrize("k", [32, 96, 512])
    @pytest.mark.parametrize("rate", ["3/4", "1/2", "1/4", "1/8"])
    def test_session_patterns_bitwise(self, half_widths, k, rate):
        llrs, spec, _ = _session_rows(k, [rate] * 2, [-1.0, 3.0], seed=k)
        assert_rows_match_reference(llrs, spec, BpConfig(max_iters=6, early_stop="none"))
        # every stage half box-plusses and copies the outputs the index pairs
        # say it needs; the budget's last iteration runs only its leftward half
        half_widths.clear()
        got = bp_decode_many(llrs, spec, BpConfig(max_iters=2, early_stop="none"))
        assert [r.stop_reason for r in got] == ["max_iters"] * 2
        work = dict(zip(("leftward", "rightward"), _stage_outputs(llrs[0] == 0, spec.n_log2)))
        assert half_widths == [(d, work[d]) for d in ("leftward", "rightward", "leftward")
                               for _ in range(2)]
        # at K=32 and 512, rate 1/8 sends every position, so every leftward
        # output is box-plussed
        assert (work["leftward"] == [(spec.n, 0)] * spec.n_log2) == \
            (rate == "1/8" and k != 96)

    def test_work_at_k96(self):
        # (box-plus outputs, copies) per row-iteration of the 10 * 1024
        # leftward and 9 * 1024 rightward outputs, per cumulative session
        # pattern
        plan = plan_session(96)
        needed = {}
        for rate in ("3/4", "1/2", "1/4", "1/8"):
            zero = np.ones(plan.n_mother, dtype=bool)
            zero[plan.positions(Fraction(rate))] = False
            needed[rate] = _stage_outputs(zero, plan.spec.n_log2)
        assert needed["3/4"][1] == [(84, 44), (84, 44), (82, 46), (79, 48), (64, 51), (56, 45),
                                    (41, 43), (24, 28), (8, 8)]
        assert {rate: tuple(tuple(map(sum, zip(*half))) for half in n)
                for rate, n in needed.items()} == {
            "3/4": ((650, 630), (522, 357)), "1/2": ((1118, 802), (926, 463)),
            "1/4": ((2754, 1086), (2370, 688)), "1/8": ((6740, 940), (5972, 718))}

    def test_zero_set_not_closed(self, half_widths):
        # at K=112, rate 1/8 sends a position p but not p + 2^s for some
        # stage s, so zeros thin out from layer to layer and the set each
        # stage skips must be derived stage by stage
        plan = plan_session(112)
        llrs, spec, crcs = _session_rows(112, ["1/8"] * 3, [-2.0, 1.0, 6.0], seed=11)
        sent = llrs[0] != 0
        # the stage-1 positions plus those that break closure
        keep = np.zeros(spec.n, dtype=bool)
        keep[plan.positions(Fraction(3, 4))] = True
        for s in range(spec.n_log2):
            top = np.arange(spec.n).reshape(-1, 2, 1 << s)[:, 0].ravel()
            keep[top[sent[top] & ~sent[top + (1 << s)]]] = True
        sparse = np.where(keep, llrs, 0.0)
        for batch in (llrs, sparse):
            layers = _zero_sets_by_layer((batch == 0).all(axis=0), spec.n_log2)
            assert not all(np.array_equal(z, layers[0]) for z in layers)
            for early_stop in ("none", "frozen"):
                cfg = BpConfig(max_iters=12, early_stop=early_stop)
                assert_rows_match_reference(batch, spec, cfg, _row_checks(crcs, [True, False, True]))
        assert _skipped_some(half_widths, spec.n)

    def test_mixed_rate_batch(self, half_widths):
        # each row box-plusses and copies what its own zero set needs, not
        # the intersection of the rows' zero sets
        llrs, spec, crcs = _session_rows(96, ["3/4", "2/3", "1/2", "1/4"], [0.0, 1.0, -1.0, -4.0],
                                         seed=12)
        common = (llrs == 0).all(axis=0)
        assert common.any() and not np.array_equal(common, llrs[0] == 0)
        for early_stop in ("none", "frozen"):
            cfg = BpConfig(max_iters=10, early_stop=early_stop)
            half_widths.clear()
            assert_rows_match_reference(llrs, spec, cfg, _row_checks(crcs, [True] * 4))
            work = [dict(zip(("leftward", "rightward"), _stage_outputs(row == 0, spec.n_log2)))
                    for row in llrs]
            assert half_widths[:8] == [(d, w[d]) for d in ("leftward", "rightward") for w in work]
        assert _skipped_some(half_widths, spec.n)

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("k", [9, 96, 512])
    def test_rows_of_other_sent_sets(self, monkeypatch, k, rule):
        # rows of five sent sets that stop apart each equal their one-row
        # decode field for field, and every stage half box-plusses and
        # copies the sum of what the running rows' own plans list
        rates = ["3/4", "2/3", "1/2", "1/4", "1/8"]
        llrs, spec, crcs = _session_rows(k, rates * 2, [9.0, 4.0, 1.0, -2.0, -6.0] * 2, seed=k)
        checks = _row_checks(crcs, [True] * 5 + [False] * 5)
        cfg = BpConfig(max_iters=12, update_rule=rule)
        runs = []
        run = decoding._Lockstep.run

        def counted(core, direction):
            zero = (lambda r: llrs[r] == 0) if rule == "exact" else (lambda r: np.zeros(spec.n, bool))
            assert core.plans == tuple(decoding._gather_plan(spec.n_log2, zero(r).tobytes())
                                       for r in core.rows)
            _, spans = decoding._batch_index(core.plans, direction, core.msgs.shape[2])
            per_row = [[counts for *_, counts in plan.one_row[direction][1]] for plan in core.plans]
            assert [counts for *_, counts in spans] == [tuple(map(sum, zip(*stage)))
                                                        for stage in zip(*per_row)]
            runs.append(core.rows.size)
            return run(core, direction)

        monkeypatch.setattr(decoding._Lockstep, "run", counted)
        got = bp_decode_many(llrs, spec, cfg, checks)
        monkeypatch.setattr(decoding._Lockstep, "run", run)
        for row, check, res in zip(llrs, checks, got):
            assert_results_bitwise_equal(res, bp_decode_many(row[None], spec, cfg, [check])[0])
        assert len({r.iterations_used for r in got}) >= 2
        assert runs[0] == 10 and min(runs) < 10  # some rows left the batch early

    @settings(max_examples=150, deadline=None)
    @given(case=_punctured_batches(), rule=st.sampled_from(["exact", "minsum"]),
           early_stop=st.sampled_from(["none", "frozen"]), max_iters=st.integers(1, 8))
    def test_shared_sent_sets_bitwise(self, case, rule, early_stop, max_iters):
        # rows of one sent set copy and skip outputs from iteration 1, and
        # rows that stop apart can leave a larger common zero set behind
        llrs, spec, crcs, gated = case
        cfg = BpConfig(max_iters=max_iters, update_rule=rule, early_stop=early_stop)
        assert_rows_match_reference(llrs, spec, cfg, _row_checks(crcs, gated))

    def test_punctured_negative_zero(self):
        llrs, spec, crcs = _session_rows(96, ["3/4", "1/2"], [0.0, 2.0], seed=13)
        unsent = np.flatnonzero(llrs[0] == 0)
        llrs[0, unsent[::3]] = -0.0
        llrs[1, unsent[1::5]] = -0.0
        assert np.signbit(llrs[llrs == 0]).any()
        for early_stop in ("none", "frozen"):
            cfg = BpConfig(max_iters=10, early_stop=early_stop)
            assert_rows_match_reference(llrs, spec, cfg, _row_checks(crcs, [True, False]))
            assert_rows_match_reference(llrs[:1], spec, cfg)

    def test_copies_clear_negative_zero_tails(self, monkeypatch):
        # a row's -0 at a position the other row sends, beside a top input
        # zero in both, is the tail of a copy: the copy writes +0 + -0 = +0,
        # as the full update does, so every message of iteration 1's
        # leftward half equals the index-pair update's bit for bit
        llrs, spec, _ = _session_rows(96, ["3/4", "1/2"], [0.0, 2.0], seed=13)
        llrs[0, llrs[0] == 0] = -0.0
        lefts = []
        run = decoding._Lockstep.run

        def recorded(core, direction):
            run(core, direction)
            if direction == "leftward":
                lefts.append(core.left.copy())

        monkeypatch.setattr(decoding._Lockstep, "run", recorded)
        bp_decode_many(llrs, spec, BpConfig(max_iters=1, early_stop="none"))
        n_log2, pairs = spec.n_log2, _ref_stage_pairs(spec.n_log2)
        right = np.zeros((n_log2 + 1, spec.n))
        right[0, spec.frozen_set] = FROZEN_PRIOR_LLR
        copied = False
        for row, got in zip(llrs, lefts[0].transpose(1, 0, 2)):
            left = np.zeros((n_log2 + 1, spec.n))
            left[n_log2] = row
            for s in reversed(range(n_log2)):
                p, q = pairs[s]
                left[s, p] = _ref_boxplus_exact(left[s + 1, p], right[s, q] + left[s + 1, q])
                left[s, q] = _ref_boxplus_exact(left[s + 1, p], right[s, p]) + left[s + 1, q]
            assert got.tobytes() == left.tobytes()
            p, q = pairs[n_log2 - 1]
            copied |= bool((np.signbit(row[q]) & (row[q] == 0) & (llrs[:, p] == 0).all(axis=0)
                            & (llrs[:, q] != 0).any(axis=0)).any())
        assert copied

    def test_rows_stopping_apart_keep_their_plans(self, half_widths):
        # rows stop in different iterations; each runs the plan of its own
        # sent set throughout, so the three sets build three plans
        llrs, spec, crcs = _session_rows(96, ["1/4", "1/2", "3/4", "3/4", "3/4"],
                                         [8.0, 6.0, 3.0, 1.0, -3.0], seed=14)
        decoding._gather_plan.cache_clear()
        got = assert_rows_match_reference(llrs, spec, BpConfig(max_iters=20),
                                          _row_checks(crcs, [True] * 5))
        assert len({r.iterations_used for r in got}) >= 3
        assert decoding._gather_plan.cache_info().currsize == 3
        assert _skipped_some(half_widths, spec.n)

    @staticmethod
    def assert_every_butterfly_ran(half_widths, spec):
        # both outputs of every butterfly are box-plussed, and none copied
        assert {d for d, _ in half_widths} == {"leftward", "rightward"}
        for direction, widths in half_widths:
            stages = spec.n_log2 if direction == "leftward" else spec.n_log2 - 1
            assert widths == [(spec.n, 0)] * stages

    def test_dense_batch_runs_every_butterfly(self, half_widths):
        llrs, spec, crcs = _session_rows(32, ["1/8"] * 3, [-2.0, 0.0, 2.0], seed=15)
        llrs[llrs == 0] = 0.5  # no position is zero
        assert_rows_match_reference(llrs, spec, BpConfig(max_iters=8), _row_checks(crcs, [True] * 3))
        self.assert_every_butterfly_ran(half_widths, spec)

    def test_minsum_runs_every_butterfly(self, half_widths):
        llrs, spec, crcs = _session_rows(96, ["3/4", "1/2", "1/8"], [1.0, -1.0, -3.0], seed=16)
        llrs[0, np.flatnonzero(llrs[0] == 0)[::4]] = -0.0
        for early_stop in ("none", "frozen"):
            cfg = BpConfig(max_iters=10, update_rule="minsum", early_stop=early_stop)
            assert_rows_match_reference(llrs, spec, cfg, _row_checks(crcs, [True] * 3))
        self.assert_every_butterfly_ran(half_widths, spec)


class TestPlanCache:
    """Gather plans are kept across calls; reusing one leaves every result
    as a fresh decode's."""

    @staticmethod
    def fresh(llrs, spec, cfg, checks):
        decoding._gather_plan.cache_clear()
        return bp_decode_many(llrs, spec, cfg, checks)

    def test_reuse_carries_no_state(self):
        a, spec, crcs_a = _session_rows(96, ["3/4"] * 3, [0.0, 2.0, 5.0], seed=21)
        b, _, crcs_b = _session_rows(96, ["1/2", "3/4"], [-1.0, 1.0], seed=22)
        cfg = BpConfig(max_iters=15)
        checks_a = _row_checks(crcs_a, [True, False, True])
        checks_b = _row_checks(crcs_b, [True, True])
        want_a = self.fresh(a, spec, cfg, checks_a)
        want_b = self.fresh(b, spec, cfg, checks_b)
        decoding._gather_plan.cache_clear()
        for llrs, checks, want in ((a, checks_a, want_a), (b, checks_b, want_b),
                                   (a, checks_a, want_a)):
            for got, res in zip(bp_decode_many(llrs, spec, cfg, checks), want):
                assert_results_bitwise_equal(got, res)
        # one row alone uses the plan its batch used
        assert_results_bitwise_equal(bp_decode_many(a[2:3], spec, cfg, checks_a[2:3])[0], want_a[2])

    def test_cache_stays_bounded(self):
        spec = design_code(5, 8)
        rng = np.random.default_rng(23)
        decoding._gather_plan.cache_clear()
        bound = decoding._gather_plan.cache_info().maxsize
        for _ in range(3 * bound):
            llrs = np.zeros((2, spec.n))
            llrs[:, rng.permutation(spec.n)[:12]] = rng.standard_normal((2, 12))
            bp_decode_many(llrs, spec, BpConfig(max_iters=2))
        assert decoding._gather_plan.cache_info().currsize == bound

    def test_one_index_per_stage_half(self):
        # every row sends the rate-3/4 positions, so all batches share one
        # plan, which holds one index per direction whatever the batch
        # size; the batch index of the last composition and stride each
        # direction ran is kept beside it
        llrs, spec, _ = _session_rows(96, ["3/4"] * 8, np.linspace(-2.0, 1.5, 8), seed=24)
        cfg = BpConfig(max_iters=3, early_stop="none")
        decoding._gather_plan.cache_clear()
        plan = decoding._gather_plan(spec.n_log2, (llrs[0] == 0).tobytes())
        for b in range(1, 9):
            assert_rows_match_reference(llrs[:b], spec, cfg)
            assert decoding._gather_plan.cache_info().currsize == 1
            if b > 1:
                assert {d: key for d, (key, _) in decoding._last_batch.items()} == {
                    d: (b, (plan,) * b) for d in ("leftward", "rightward")}
        assert set(plan.one_row) == {"leftward", "rightward"}
        for direction, stages in (("leftward", spec.n_log2), ("rightward", spec.n_log2 - 1)):
            # one gather and one scatter per stage half, tiling one array
            index, spans = plan.one_row[direction]
            assert len(spans) == stages
            bounds = [bound for lo, mid, hi, _ in spans for bound in (lo, mid, hi)]
            assert bounds[0] == 0 and bounds[-1] == index.size
            assert bounds == sorted(bounds)
            assert all(hi == lo for (*_, hi, _), (lo, *_) in zip(spans, spans[1:]))
            assert plan.slices[direction].sum() == index.size
            _, (kept, _) = decoding._last_batch[direction]
            assert kept.size == 8 * index.size

    def test_plan_is_complete_when_built(self):
        # a plan fresh from _gather_plan holds both directions' one-row
        # (index, spans) and slice lengths, and decodes of its
        # pattern at B = 1-8 change none of it
        llrs, spec, _ = _session_rows(96, ["3/4"] * 8, np.linspace(-2.0, 1.5, 8), seed=24)
        decoding._gather_plan.cache_clear()
        plan = decoding._gather_plan(spec.n_log2, (llrs[0] == 0).tobytes())
        assert [len(plan.one_row[d][1]) for d in ("leftward", "rightward")] == [
            spec.n_log2, spec.n_log2 - 1]
        assert [plan.slices[d].size for d in ("leftward", "rightward")] == [
            18 * spec.n_log2, 18 * (spec.n_log2 - 1)]

        def built():
            return {name: pickle.dumps(value) for name, value in vars(plan).items()}

        before = built()
        for b in range(1, 9):
            bp_decode_many(llrs[:b], spec, BpConfig(max_iters=3, early_stop="none"))
            assert built() == before
        assert {d: key for d, (key, _) in decoding._last_batch.items()} == {
            d: (8, (plan,) * 8) for d in ("leftward", "rightward")}

    @pytest.mark.parametrize("rate", ["3/4", "1/8"])
    def test_batch_index_offsets_every_entry_to_each_row(self, rate):
        # each message of real (2, n_log2 + 1, stride, N) arrays holds the
        # code of its (layer, row, position), layers counted across both
        # sides; read through the batch index of a batch's first rows, the
        # rows mixing the plan of rate with that of rate 1/2, each slice of
        # a stage half lists that slice of every row's own one-row index,
        # the rows of a plan together, entry by entry with the rows
        # innermost, and the plans in the order they first run; each entry
        # e = layer * N + p reaches its row's message, and each span counts
        # the rows' butterflies together
        llrs, spec, _ = _session_rows(16, [rate, "1/2"], [0.0, 0.0], seed=25)
        n_log2, n = spec.n_log2, spec.n
        own = [decoding._GatherPlan(n_log2, (row == 0).tobytes()) for row in llrs]

        def code(layer, row, pos):
            return (layer * 100 + row) * 10_000 + pos

        for stride in range(1, 9):
            msgs = code(*np.meshgrid(np.arange(2 * (n_log2 + 1)), np.arange(stride),
                                     np.arange(n), indexing="ij"))
            flat = msgs.reshape(-1)
            for rows in range(stride, 0, -1):
                plans = tuple(own[(r * 5 + stride) % 3 % 2] for r in range(rows))
                groups = {}
                for r, plan in enumerate(plans):
                    groups.setdefault(plan, []).append(r)
                for direction in ("leftward", "rightward"):
                    index, spans = decoding._batch_index(plans, direction, stride)
                    assert index.flags.c_contiguous
                    for s, (lo, mid, hi, counts) in enumerate(spans):
                        assert counts == tuple(map(sum, zip(*(
                            plan.one_row[direction][1][s][3] for plan in plans))))
                        # offsets run from left[s + 1], and from the layer written
                        for origin, a, z, slices in (
                                (s + 1, lo, mid, range(18 * s, 18 * s + 13)),
                                (s if direction == "leftward" else s + 2, mid, hi,
                                 range(18 * s + 13, 18 * s + 18))):
                            got = flat[origin * stride * n:][index[a:z]]
                            want = []
                            for j in slices:
                                for plan, at in groups.items():
                                    cut = np.cumsum(np.r_[0, plan.slices[direction]])
                                    e = plan.one_row[direction][0][cut[j]:cut[j + 1], None]
                                    want.append(code(origin + e // n, np.array(at), e % n).ravel())
                            assert np.array_equal(got, np.concatenate(want))
                    # the kept index is the one derived afresh
                    if stride > 1:
                        fresh, fresh_spans = decoding._derive_batch_index(plans, direction, stride)
                        assert np.array_equal(index, fresh) and spans == fresh_spans

    def test_keeps_the_last_composition_per_direction(self, monkeypatch):
        # a decode that repeats the last composition and stride derives
        # nothing; any other derives its own, which replaces the kept one,
        # so one index per direction is kept
        llrs, spec, _ = _session_rows(96, ["3/4", "1/2", "1/4", "1/8"] * 2, [0.0] * 8, seed=26)
        derived = []
        derive = decoding._derive_batch_index
        monkeypatch.setattr(decoding, "_derive_batch_index", lambda plans, direction, stride: (
            derived.append((direction, len(plans))) or derive(plans, direction, stride)))
        cfg = BpConfig(max_iters=2, early_stop="none")
        both = [("leftward", 2), ("rightward", 2)]
        for rows, want in (([0, 1], None), ([0, 1], []), ([2, 3, 4], [("leftward", 3), ("rightward", 3)]),
                           ([0, 1], both), ([1, 0], both)):
            derived.clear()
            bp_decode_many(llrs[rows], spec, cfg)
            if want is not None:
                assert derived == want
            assert len(decoding._last_batch) == 2


class TestFrozenStopCheck:
    """The frozen stop reads left[0] through a frozen-position mask: a row
    passes when no frozen message is < 0, so a zero of either sign passes
    and the smallest negative message fails."""

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("value, stops", [(0.0, True), (-0.0, True), (-5e-324, False)])
    def test_signed_zero_passes_a_negative_blocks(self, monkeypatch, rule, gated, value, stops):
        # a channel silent but at one position decides every info bit 0,
        # and its frozen messages are pinned to value after each leftward
        # half; the stop rule is the only reader of left[0]
        spec = design_code(4, 8)
        run = decoding._Lockstep.run

        def pinned(core, direction):
            run(core, direction)
            if direction == "leftward":
                core.left[0][:, spec.frozen_set] = value

        monkeypatch.setattr(decoding._Lockstep, "run", pinned)
        check = (lambda b: crc16(b) == crc16(np.zeros(8, dtype=np.uint8))) if gated else None
        res = bp_decode_many(np.eye(1, spec.n), spec, BpConfig(update_rule=rule), [check])[0]
        if stops:
            assert (res.stop_reason, res.iterations_used) == ("crc" if gated else "frozen", 1)
        else:
            assert not res.converged
            assert res.stop_reason == "fixed_point"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_log2=st.integers(1, 6), batch=st.integers(1, 5))
    def test_mask_equals_gather(self, data, n_log2, batch):
        n = 1 << n_log2
        values = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                           st.floats(allow_nan=False, allow_infinity=False))
        left0 = np.array(data.draw(st.lists(values, min_size=batch * n, max_size=batch * n)))
        left0 = left0.reshape(batch, n)
        frozen_set = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
        frozen = np.zeros(n, dtype=bool)
        frozen[frozen_set] = True
        want = (left0[:, frozen_set] >= 0.0).all(axis=1)
        assert np.array_equal(decoding._frozen_pass(left0, frozen), want)


class TestSkippedWork:
    """One box-plus per stage half: an iteration runs 2n - 1 of them, one
    that the stop rule, the fixed-point stop or the budget ends runs only
    its leftward n, and the pilot adds 1."""

    @pytest.fixture
    def boxplus_calls(self, monkeypatch):
        """The direction of every stage half run, and 'pilot' for the
        pilot's stage-0 box-plus: each runs one box-plus."""
        calls = []
        run, pilot = decoding._Lockstep.run, decoding._Lockstep.pilot

        def counted(core, direction):
            run(core, direction)
            calls.extend([direction] * len(core._halves[direction]))

        def counted_pilot(core):
            calls.append("pilot")
            return pilot(core)

        monkeypatch.setattr(decoding._Lockstep, "run", counted)
        monkeypatch.setattr(decoding._Lockstep, "pilot", counted_pilot)
        return calls

    @pytest.mark.parametrize("n_log2, k", [(10, 96), (5, 16)])
    def test_calls_per_stop_reason(self, boxplus_calls, n_log2, k):
        spec = design_code(n_log2, k)
        n = n_log2
        rng = np.random.default_rng(60)
        seen = set()
        for snr in (30.0, 3.0, 0.0, -3.0):
            info = rng.integers(0, 2, k).astype(np.uint8)
            llrs = awgn_llrs(encode_systematic(info, spec), snr, rng)
            for early_stop, gated in MODES:
                cfg = BpConfig(max_iters=4, early_stop=early_stop)
                check = (lambda b, crc=crc16(info): crc16(b) == crc) if gated else None
                boxplus_calls.clear()
                res = bp_decode_many(llrs[None], spec, cfg, [check])[0]
                iters = res.iterations_used
                assert boxplus_calls.count("pilot") == 1
                assert len(boxplus_calls) == (iters - 1) * (2 * n - 1) + n + 1
                seen.add((res.stop_reason, iters == 1))
        # rule stops in and after iteration 1, a fixed point and the budget
        assert {("crc", True), ("crc", False), ("frozen", True),
                ("fixed_point", False), ("max_iters", False)} <= seen

    def test_rule_stopped_first_iteration_at_n1024(self, boxplus_calls):
        spec = design_code(10, 96)
        info = np.random.default_rng(61).integers(0, 2, 96).astype(np.uint8)
        crc = crc16(info)
        res = bp_decode_many(noiseless_llrs(encode_systematic(info, spec))[None], spec,
                             BpConfig(), [lambda b: crc16(b) == crc])[0]
        assert (res.stop_reason, res.iterations_used) == ("crc", 1)
        assert len(boxplus_calls) == 11
        assert np.array_equal(res.info_bits, info)

    def test_one_boxplus_per_stage_half_covers_the_batch(self, boxplus_calls):
        # three rows that no rule stops: the batch runs the box-plus count of
        # one decode, not three
        spec = design_code(6, 32)
        llrs = np.array([c[0] for c in _unpunctured_cases()])
        res = bp_decode_many(llrs, spec, BpConfig(max_iters=3, early_stop="none"))
        assert [r.stop_reason for r in res] == ["max_iters"] * 3
        assert len(boxplus_calls) == 2 * 11 + 6 + 1

    def test_fixed_point_and_budget_stops_run_whole_iterations(self, boxplus_calls):
        # a channel with no zero runs the full schedule; its fixed point
        # ends in the leftward half of iteration 22
        llrs, spec, _ = _small_code_cases()[2]
        assert np.all(llrs != 0)
        res = bp_decode(llrs, spec, BpConfig(early_stop="none"))
        assert (res.stop_reason, res.iterations_used) == ("fixed_point", 22)
        assert len(boxplus_calls) == 21 * 9 + 5 + 1
        # a silent channel: no stage half reads right, so every rightward
        # stage runs no butterfly; iteration 1 runs 5 leftward stages, the
        # pilot and 4 empty rightward ones, and iteration 2 the 5 leftward
        # stages that repeat its left
        boxplus_calls.clear()
        res = bp_decode(np.zeros(spec.n), spec, BpConfig(early_stop="none"))
        assert (res.stop_reason, res.iterations_used) == ("fixed_point", 2)
        assert len(boxplus_calls) == 5 + 1 + 4 + 5
        boxplus_calls.clear()
        res = bp_decode(_unpunctured_cases()[0][0], design_code(6, 32),
                        BpConfig(max_iters=3, early_stop="none"))
        assert (res.stop_reason, res.iterations_used) == ("max_iters", 3)
        assert len(boxplus_calls) == 2 * 11 + 6 + 1


class TestBpDecode:
    def test_noiseless_roundtrip(self):
        spec = design_code(3, 4)
        rng = np.random.default_rng(1)
        for _ in range(30):
            info = rng.integers(0, 2, 4).astype(np.uint8)
            res = bp_decode(noiseless_llrs(encode_systematic(info, spec)), spec)
            assert np.array_equal(res.info_bits, info)
            assert res.fber == 0.0
            assert res.iterations_used <= 2
            assert res.converged

    def test_total_erasure_decides_zero(self):
        spec = design_code(3, 4)
        res = bp_decode(np.zeros(8), spec)
        assert np.all(res.info_bits == 0)
        assert np.all(res.frozen_hard == 0)
        assert res.fber == 0.0

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    def test_silent_row_never_stops_on_the_frozen_rule(self, rule):
        # every left[0] message of a silent row is +0, which would pass the
        # frozen check with nothing to support it; the row runs on to its
        # fixed point instead, also gated by a CRC its all-zero info bits
        # pass, and beside a row with evidence, which still stops on it
        spec = design_code(4, 8)
        zeros = crc16(np.zeros(8, dtype=np.uint8))
        llrs = np.array([np.zeros(spec.n), noiseless_llrs(np.zeros(spec.n))])
        for check in (None, lambda b: crc16(b) == zeros):
            got = bp_decode_many(llrs, spec, BpConfig(update_rule=rule), [check, check])
            assert [(r.stop_reason, r.iterations_used, r.converged) for r in got] == [
                ("fixed_point", 2, False), ("frozen" if check is None else "crc", 1, True)]
            assert not got[0].info_bits.any()

    def test_code_without_frozen_positions_never_stops_on_the_frozen_rule(self):
        # K = N leaves the frozen check nothing to test, so it would pass on
        # any input in iteration 1
        spec = design_code(4, 16)
        rng = np.random.default_rng(62)
        info = rng.integers(0, 2, 16).astype(np.uint8)
        llrs = awgn_llrs(encode_systematic(info, spec), 0.0, rng)
        res = bp_decode(llrs, spec)
        assert (res.stop_reason, res.converged) == ("fixed_point", False)
        assert res.iterations_used == 2  # no prior: iteration 2 repeats iteration 1
        assert_rows_match_reference(llrs[None], spec, BpConfig())

    def test_rejects_bad_input(self):
        spec = design_code(3, 4)
        with pytest.raises(ValueError):
            bp_decode(np.zeros(7), spec)
        bad = np.zeros(8)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            bp_decode(bad, spec)

    def test_agrees_with_ml_oracle_at_moderate_noise(self):
        # pre-registered pilot: 0 dB, 500 trials, agreement target >= 95%
        spec = design_code(3, 4)
        rng = np.random.default_rng(12345)
        agree = 0
        for _ in range(500):
            info = rng.integers(0, 2, 4).astype(np.uint8)
            llr = awgn_llrs(encode_systematic(info, spec), 0.0, rng)
            agree += np.array_equal(bp_decode(llr, spec).info_bits,
                                    ml_decode_oracle(llr, spec))
        assert agree / 500 >= 0.95

    def test_high_snr_block_errors_vanish(self):
        spec = design_code(4, 8)
        rng = np.random.default_rng(2)
        errors = 0
        for _ in range(1000):
            info = rng.integers(0, 2, 8).astype(np.uint8)
            llr = awgn_llrs(encode_systematic(info, spec), 10.0, rng)
            errors += not np.array_equal(bp_decode(llr, spec).info_bits, info)
        assert errors == 0

    def test_minsum_scale_invariance_exact(self):
        spec = design_code(5, 12)
        rng = np.random.default_rng(3)
        cfg = BpConfig(update_rule="minsum")
        for _ in range(20):
            info = rng.integers(0, 2, 12).astype(np.uint8)
            llr = awgn_llrs(encode_systematic(info, spec), 1.0, rng)
            base = bp_decode(llr, spec, cfg).info_bits
            for c in (0.25, 0.5, 2.0, 7.5):
                assert np.array_equal(bp_decode(c * llr, spec, cfg).info_bits, base)

    def test_exact_rule_scale_agreement(self):
        # tanh rule is not scale-invariant; decisions still agree nearly always
        spec = design_code(5, 12)
        rng = np.random.default_rng(4)
        matches = total = 0
        for _ in range(100):
            info = rng.integers(0, 2, 12).astype(np.uint8)
            llr = awgn_llrs(encode_systematic(info, spec), 3.0, rng)
            base = bp_decode(llr, spec).info_bits
            for c in (0.5, 2.0):
                matches += np.array_equal(bp_decode(c * llr, spec).info_bits, base)
                total += 1
        assert matches / total >= 0.99

    def test_decoded_u_frozen_zero_roundtrip(self):
        spec = design_code(5, 12)
        rng = np.random.default_rng(5)
        for _ in range(20):
            info = rng.integers(0, 2, 12).astype(np.uint8)
            llr = awgn_llrs(encode_systematic(info, spec), -2.0, rng)
            res = bp_decode(llr, spec)
            recoded = encode_systematic(res.info_bits, spec)
            assert np.array_equal(recoded[spec.info_set], res.info_bits)

    def test_crc_early_stop_runs_to_pass(self):
        spec = design_code(4, 8)
        rng = np.random.default_rng(6)
        info = rng.integers(0, 2, 8).astype(np.uint8)
        crc = crc16(info)
        res = bp_decode_many(noiseless_llrs(encode_systematic(info, spec))[None], spec,
                             BpConfig(), [lambda b: crc16(b) == crc])[0]
        assert res.converged and np.array_equal(res.info_bits, info)
        assert res.stop_reason == "crc"

    @pytest.mark.parametrize("max_iters", [0, -1, 2.5, 1.0, True, "3", np.int64(3)])
    def test_max_iters_is_a_positive_int(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an int"):
            BpConfig(max_iters=max_iters)

    def test_config_holds_settings_only(self):
        # the CRC predicate is a per-call argument, not a stop mode
        with pytest.raises(ValueError):
            BpConfig(early_stop="crc")
        with pytest.raises(TypeError):
            BpConfig(crc_check=lambda b: True)


class TestFber:
    def test_counting(self):
        # fber is the share of frozen pilots decided 1 among pilots with
        # nonzero channel evidence
        spec = design_code(5, 16)
        rng = np.random.default_rng(2)
        info = rng.integers(0, 2, 16).astype(np.uint8)
        llr = awgn_llrs(encode_systematic(info, spec), -6.0, rng)
        llr[rng.permutation(32)[:8]] = 0.0
        res = bp_decode(llr, spec)
        assert res.frozen_hard.shape == (spec.n - spec.k,)
        assert res.fber == bp_decode_reference(llr, spec, BpConfig())[4]  # observed ratio
        assert 0.0 < res.fber < 1.0
        # unobserved pilots tie to 0, so counting them would lower the ratio
        assert res.fber > np.count_nonzero(res.frozen_hard) / res.frozen_hard.size
        assert bp_decode(np.zeros(32), spec).fber == 0.0

    def test_monotone_in_snr(self):
        # over the operating range; at saturation (deep noise) the statistic
        # pins near 0.5 and tiny pilot values cancel to exact-zero ties
        spec = design_code(6, 32)
        sweep = (-4.0, -1.0, 2.0, 5.0, 8.0)
        means = []
        for snr in sweep:
            rng = np.random.default_rng(1000)
            vals = []
            for _ in range(200):
                info = rng.integers(0, 2, 32).astype(np.uint8)
                llr = awgn_llrs(encode_systematic(info, spec), snr, rng)
                vals.append(bp_decode(llr, spec).fber)
            means.append(np.mean(vals))
        assert all(a >= b - 0.01 for a, b in zip(means, means[1:]))

    def test_observed_equals_full_without_puncturing(self):
        spec = design_code(5, 16)
        rng = np.random.default_rng(7)
        info = rng.integers(0, 2, 16).astype(np.uint8)
        llr = awgn_llrs(encode_systematic(info, spec), 0.0, rng)
        res = bp_decode(llr, spec)
        assert res.fber == pytest.approx(np.count_nonzero(res.frozen_hard) / res.frozen_hard.size)


class TestCombine:
    def test_positionwise_sum(self):
        out = combine_llrs([np.array([2.0, 0.0]), np.array([-1.0, 3.0])])
        assert out.tolist() == [1.0, 3.0]

    def test_single_frame_identity(self):
        frame = np.array([0.5, -1.5, 0.0])
        assert np.array_equal(combine_llrs([frame]), frame)

    def test_order_invariant(self):
        rng = np.random.default_rng(8)
        frames = [rng.standard_normal(16) for _ in range(4)]
        a = combine_llrs(frames)
        b = combine_llrs(frames[::-1])
        assert np.allclose(a, b, atol=1e-12)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            combine_llrs([np.zeros(4), np.zeros(5)])

    def test_two_copies_never_worse(self):
        # coded BER after combining two noisy copies vs one, same seed base
        spec = design_code(6, 32)
        for snr in (-2.0, 0.0, 2.0):
            rng = np.random.default_rng(int(snr) + 50)
            errs_one = errs_two = 0
            for _ in range(60):
                info = rng.integers(0, 2, 32).astype(np.uint8)
                cw = encode_systematic(info, spec)
                l1 = awgn_llrs(cw, snr, rng)
                l2 = awgn_llrs(cw, snr, rng)
                d1 = bp_decode(l1, spec).info_bits
                d12 = bp_decode(combine_llrs([l1, l2]), spec).info_bits
                errs_one += int((d1 != info).sum())
                errs_two += int((d12 != info).sum())
            assert errs_two <= errs_one


class TestMlOracle:
    def test_noiseless_recovery(self):
        spec = design_code(3, 4)
        rng = np.random.default_rng(9)
        for _ in range(10):
            info = rng.integers(0, 2, 4).astype(np.uint8)
            llr = noiseless_llrs(encode_systematic(info, spec))
            assert np.array_equal(ml_decode_oracle(llr, spec), info)

    def test_tie_break_prefers_lexicographically_smallest(self):
        spec = design_code(2, 2)
        info = ml_decode_oracle(np.array([1.0, 1.0, 1.0, 1.0]), spec)
        assert info.tolist() == [0, 0]

    def test_returned_score_dominates_truth(self):
        spec = design_code(4, 6)
        rng = np.random.default_rng(10)
        for _ in range(20):
            info = rng.integers(0, 2, 6).astype(np.uint8)
            cw = encode_systematic(info, spec)
            llr = awgn_llrs(cw, -3.0, rng)
            best = ml_decode_oracle(llr, spec)
            score_best = np.dot(1.0 - 2.0 * encode_systematic(best, spec), llr)
            score_true = np.dot(1.0 - 2.0 * cw, llr)
            assert score_best >= score_true - 1e-9

    def test_enumeration_bound(self):
        spec = design_code(6, 32)
        with pytest.raises(ValueError):
            ml_decode_oracle(np.zeros(64), spec)
