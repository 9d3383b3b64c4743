"""Decoding: BP behavior, FBER statistics, combining, ML oracle checks."""

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
    ml_decode_oracle,
)
from polarlink.encoding import encode_systematic, polar_transform
from polarlink.protocol import RATE_TABLE, crc16, crc16_verify, plan_session


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
    fixed_point_stop, an iteration leaves right[1:n_log2] bit-identical.
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
    for _ in range(cfg.max_iters):
        iterations += 1
        before = right[1:n_log2].copy()
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
            frozen_ok = bool(np.all(left[0, spec.frozen_set] >= 0.0))
            if frozen_ok and crc_check is not None:
                frozen_ok = bool(crc_check(info_from(left[0] + right[0])))
            if frozen_ok:
                converged = True
                stop_reason = "frozen" if crc_check is None else "crc"
                break
        if fixed_point_stop and before.tobytes() == right[1:n_log2].tobytes():
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
                check = (lambda b, crc=crc: crc16_verify(b, crc)) if gated else None
                res = bp_decode(llrs, spec, cfg, crc_check=check)
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
        check = (lambda b: crc16_verify(b, crc)) if gated else None
        res = bp_decode(llrs, spec, cfg, crc_check=check)
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
    return [(lambda b, crc=crc: crc16_verify(b, crc)) if g else None
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
            assert_results_bitwise_equal(res, bp_decode(row, spec, cfg, crc_check=check))
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
                assert_results_bitwise_equal(res, bp_decode(row, spec, cfg, crc_check=check))
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
                    assert_results_bitwise_equal(res, bp_decode(row, spec, cfg, crc_check=check))

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


class TestSkippedWork:
    """One box-plus per stage half: an iteration runs 2n - 1 of them, one
    that the stop rule ends runs only its leftward n, and the pilot adds 1."""

    @pytest.fixture
    def boxplus_calls(self, monkeypatch):
        calls = []
        kernel = decoding._boxplus

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(decoding, "_boxplus", counted)
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
                check = (lambda b, crc=crc16(info): crc16_verify(b, crc)) if gated else None
                boxplus_calls.clear()
                res = bp_decode(llrs, spec, cfg, crc_check=check)
                iters = res.iterations_used
                if res.converged:
                    assert len(boxplus_calls) == (iters - 1) * (2 * n - 1) + n + 1
                else:
                    assert len(boxplus_calls) == iters * (2 * n - 1) + 1
                seen.add((res.stop_reason, iters == 1))
        # rule stops in and after iteration 1, and both whole-iteration stops
        assert {("crc", True), ("crc", False), ("frozen", True),
                ("fixed_point", False), ("max_iters", False)} <= seen

    def test_rule_stopped_first_iteration_at_n1024(self, boxplus_calls):
        spec = design_code(10, 96)
        info = np.random.default_rng(61).integers(0, 2, 96).astype(np.uint8)
        res = bp_decode(noiseless_llrs(encode_systematic(info, spec)), spec,
                        crc_check=lambda b: crc16_verify(b, crc16(info)))
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
        assert len(boxplus_calls) == 3 * 11 + 1

    def test_fixed_point_and_budget_stops_run_whole_iterations(self, boxplus_calls):
        spec = design_code(5, 16)
        llrs = np.zeros(spec.n)
        res = bp_decode(llrs, spec, BpConfig(early_stop="none"))
        assert res.stop_reason == "fixed_point"
        assert len(boxplus_calls) == res.iterations_used * 9 + 1
        boxplus_calls.clear()
        res = bp_decode(_unpunctured_cases()[0][0], design_code(6, 32),
                        BpConfig(max_iters=3, early_stop="none"))
        assert (res.stop_reason, res.iterations_used) == ("max_iters", 3)
        assert len(boxplus_calls) == 3 * 11 + 1


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
        from polarlink.protocol import crc16, crc16_verify

        spec = design_code(4, 8)
        rng = np.random.default_rng(6)
        info = rng.integers(0, 2, 8).astype(np.uint8)
        crc = crc16(info)
        res = bp_decode(noiseless_llrs(encode_systematic(info, spec)), spec,
                        crc_check=lambda b: crc16_verify(b, crc))
        assert res.converged and np.array_equal(res.info_bits, info)
        assert res.stop_reason == "crc"

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
