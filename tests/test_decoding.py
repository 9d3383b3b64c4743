"""Decoding: BP behavior, FBER statistics, combining, ML oracle checks."""

import numpy as np
import pytest

from polarlink.construction import design_code
from polarlink.decoding import (
    FROZEN_PRIOR_LLR,
    BpConfig,
    bp_decode,
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
    Returns (info_bits, u_posterior, frozen_hard, fber, fber_observed,
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
    fber_observed = float(frozen_hard[observed].mean()) if observed.any() else 0.0
    if cfg.early_stop == "none":
        converged = bool(np.all(left[0, spec.frozen_set] >= 0.0))
    return (info_from(u_posterior), u_posterior, frozen_hard, fber, fber_observed,
            converged, iterations, stop_reason)


def bp_decode_no_fixed_point_oracle(llrs, spec, cfg, crc_check=None):
    """The decoder loop without the fixed-point stop (test oracle).

    It runs until the early-stop rule fires or max_iters is spent, and
    returns (info_bits, u_posterior, frozen_hard, fber, fber_observed,
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
                info, u_post, frozen_hard, fber, fber_observed, converged = \
                    bp_decode_no_fixed_point_oracle(llrs, spec, cfg, check)
                assert res.info_bits.tobytes() == info.tobytes()
                assert res.u_posterior.tobytes() == u_post.tobytes()
                assert res.frozen_hard.tobytes() == frozen_hard.tobytes()
                assert (res.fber, res.fber_observed, res.converged) == \
                    (fber, fber_observed, converged)
                assert 1 <= res.iterations_used <= cfg.max_iters
                if res.stop_reason in ("frozen", "crc"):
                    assert res.converged and early_stop != "none"
                    assert res.stop_reason == ("crc" if gated else "frozen")
                else:
                    assert res.stop_reason in ("fixed_point", "max_iters")
                    assert res.converged == (early_stop == "none" and converged)
                if res.stop_reason == "max_iters":
                    assert res.iterations_used == cfg.max_iters
                if punctured:
                    stops.append((res.stop_reason, res.iterations_used))
        # the fixed-point path runs on punctured mother codes
        assert any(reason == "fixed_point" and iters < 60 for reason, iters in stops)

    def test_signed_zero_cases_cover_short_codes(self):
        cases = _signed_zero_cases()
        assert {2, 4} <= {spec.n for _, spec, _ in cases}
        assert all(np.signbit(llrs[llrs == 0]).any() for llrs, _, _ in cases)

    def test_reports_max_iters_when_budget_runs_out(self):
        llrs, spec, _ = _unpunctured_cases()[0]
        res = bp_decode(llrs, spec, BpConfig(max_iters=1, early_stop="none"))
        assert (res.iterations_used, res.stop_reason) == (1, "max_iters")


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
        # fber is the share of frozen pilots decided 1, fber_observed the
        # share among pilots with nonzero channel evidence
        spec = design_code(5, 16)
        rng = np.random.default_rng(2)
        info = rng.integers(0, 2, 16).astype(np.uint8)
        llr = awgn_llrs(encode_systematic(info, spec), -6.0, rng)
        llr[rng.permutation(32)[:8]] = 0.0
        res = bp_decode(llr, spec)
        assert res.frozen_hard.shape == (spec.n - spec.k,)
        assert res.fber == np.count_nonzero(res.frozen_hard) / res.frozen_hard.size
        assert 0.0 < res.fber < 1.0
        # unobserved pilots tie to 0, so dropping them raises the ratio here
        assert res.fber_observed > res.fber
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
        assert res.fber == pytest.approx(res.fber_observed)


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
