"""Harness: baselines, trial/session flow, metrics, sweep reproducibility."""

import dataclasses
import json
from fractions import Fraction
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polarlink.protocol as protocol
import polarlink.simulate as simulate
from polarlink.decoding import BpConfig, bp_decode_many
from polarlink.encoding import encode_systematic
from polarlink.protocol import crc16, plan_session
from polarlink.simulate import (
    Metrics,
    SessionRecord,
    SimConfig,
    TrialResult,
    goodput,
    hamming74_decode,
    hamming74_encode,
    metrics_csv,
    parse_scheme,
    replay_session,
    run_point,
    run_session,
    run_sweep,
    trial_rngs,
    wilson_interval,
    write_outputs,
)

from decode_calls import decode_calls


@pytest.fixture
def fresh_pool():
    """No kept sweep pool before the test, and none left after it: a pool
    forked under a test's patches must not serve later tests."""
    simulate._close_pool()
    yield
    simulate._close_pool()


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.schemes == ("sozu",)

    def test_scheme_parsing(self):
        assert parse_scheme("sozu") == ("sozu", None)
        assert parse_scheme("hamming74") == ("hamming74", None)
        kind, rate = parse_scheme("fixed:1/2")
        assert kind == "fixed" and rate == 0.5
        with pytest.raises(ValueError):
            parse_scheme("turbo")
        with pytest.raises(ValueError):
            SimConfig(schemes=("nope",))

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(snr_db=())
        with pytest.raises(ValueError):
            SimConfig(metric="psychic")

    @pytest.mark.parametrize("kwargs", [
        dict(fb_loss=1.5, schemes=("hamming74",)),
        dict(fb_loss=1.0),
        dict(fb_loss=-0.1),
        dict(workers=0),
        dict(workers=-3),
        dict(n_fft=6, metric="basic"),
        dict(n_fft=2),
        dict(leak=(0.5, 0.25, 0.25)),
        dict(leak=(0.2, 0.5, 0.2)),
        dict(sigma2=0.0),
        dict(sigma2=float("nan")),
        dict(sigma2=float("inf")),
        dict(leak=(float("nan"), 1.0, 0.0)),
        dict(sigma2=1e308, snr_db=(10.0,)),
        dict(k=7),
        dict(k=513, schemes=("hamming74", "fixed:1/2")),
        dict(schemes=("fixed:1/11",)),
        dict(k=9, schemes=("fixed:1/15",)),
        dict(snr_db=(float("nan"),)),
        dict(snr_db=(3.0, float("inf"))),
        dict(snr_db=(4000.0,)),
        dict(n_fft=128.0),
        # counts and seeds must be Python ints: otherwise these fail only
        # later, inside run_sweep, numpy, plan_session or the summary's JSON
        dict(k=0, schemes=("hamming74",)),
        dict(k=-4, schemes=("hamming74",)),
        dict(k=96.0),
        dict(k=True, schemes=("hamming74",)),
        dict(k=np.int64(16)),
        dict(master_seed=-1),
        dict(master_seed=1.0),
        dict(trials=2.5),
        dict(trials="5"),
        dict(workers=1.5),
        dict(snr_db=5.0),
        dict(snr_db=0.0),
        dict(schemes="sozu"),
        dict(schemes=()),
    ], ids=["fb_loss_1.5", "fb_loss_1", "fb_loss_negative", "workers_0", "workers_negative",
            "n_fft_6", "n_fft_2", "leak_off_center", "leak_sum", "sigma2_0", "sigma2_nan",
            "sigma2_inf", "leak_nan", "signal_power_inf", "k_7",
            "k_513_fixed", "fixed_beyond_mother", "fixed_k9_beyond_mother", "snr_nan",
            "snr_inf", "snr_4000", "n_fft_float", "k_0_hamming", "k_negative_hamming", "k_float",
            "k_bool", "k_numpy", "seed_negative", "seed_float", "trials_float", "trials_str",
            "workers_float", "snr_float", "snr_zero", "schemes_str", "schemes_empty"])
    def test_rejects_bad_values_when_built(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_hamming74_alone_takes_any_k(self):
        # only the polar schemes need a session plan
        assert SimConfig(k=7, schemes=("hamming74",)).k == 7


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == 1.0

    def test_shrinks_with_n(self):
        w1 = wilson_interval(5, 10)
        w2 = wilson_interval(500, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])


def _trial(success, bits_sent, k=96):
    return TrialResult(scheme="x", snr_db=0.0, trial=0, success=success,
                       bits_sent=bits_sent, clean_bits=k if success else 0,
                       bit_errors=0 if success else k // 2, byte_errors=0,
                       n_bytes=k // 8, k=k, frames_used=1, fber_first=0.0,
                       requested_rate="")


class TestGoodput:
    def test_all_clean_fixed_rate(self):
        results = [_trial(True, 192) for _ in range(10)]  # rate 1/2
        assert goodput(results) == pytest.approx(0.5)

    def test_half_clean(self):
        results = [_trial(i % 2 == 0, 192) for i in range(10)]
        assert goodput(results) == pytest.approx(0.25)

    def test_mixed_sessions_match_hand_aggregation(self):
        cfg = SimConfig(snr_db=(7.0,), trials=5, k=96, master_seed=404)
        results = run_point(cfg, "sozu", 0)
        expected = sum(r.clean_bits for r in results) / sum(r.bits_sent for r in results)
        assert goodput(results) == pytest.approx(expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            goodput([])


class TestHamming74:
    def test_zero_maps_to_zero(self):
        assert hamming74_encode(np.zeros(4, dtype=np.uint8)).tolist() == [0] * 7

    def test_roundtrip_all_data_words(self):
        for v in range(16):
            data = np.array([(v >> i) & 1 for i in range(4)], dtype=np.uint8)
            assert np.array_equal(hamming74_decode(hamming74_encode(data)), data)

    def test_corrects_every_single_flip(self):
        rng = np.random.default_rng(40)
        data = rng.integers(0, 2, 4).astype(np.uint8)
        code = hamming74_encode(data)
        for i in range(7):
            corrupted = code.copy()
            corrupted[i] ^= 1
            assert np.array_equal(hamming74_decode(corrupted), data)

    def test_two_flips_always_miscorrect(self):
        # distance-3 perfect code: two flips land next to a different codeword
        data = np.array([1, 0, 1, 1], dtype=np.uint8)
        code = hamming74_encode(data)
        for i in range(7):
            for j in range(i + 1, 7):
                corrupted = code.copy()
                corrupted[i] ^= 1
                corrupted[j] ^= 1
                assert not np.array_equal(hamming74_decode(corrupted), data)

    def test_llr_input_hard_slices(self):
        data = np.array([0, 1, 1, 0], dtype=np.uint8)
        code = hamming74_encode(data)
        llrs = 3.0 * (1.0 - 2.0 * code.astype(np.float64))
        assert np.array_equal(hamming74_decode(llrs), data)

    def test_length_checks(self):
        with pytest.raises(ValueError):
            hamming74_encode(np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError):
            hamming74_decode(np.zeros(8, dtype=np.uint8))


def fixed_trial_reference(cfg, scheme, point, trial):
    """A fixed-rate receiver of its own: zero-fill the unsent positions and
    BP-decode with the CRC of the true info as the stop predicate."""
    _, rate = parse_scheme(scheme)
    snr_db = float(cfg.snr_db[point])
    info_rng, channel_rng, _ = trial_rngs(cfg.master_seed, point, trial)
    plan = plan_session(cfg.k)
    positions = plan.positions(rate)
    info = info_rng.integers(0, 2, size=cfg.k).astype(np.uint8)
    codeword = encode_systematic(info, plan.spec)
    full = np.zeros(plan.n_mother)
    full[positions] = simulate._transmit(codeword[positions], cfg, cfg.noise(snr_db), channel_rng)
    crc = crc16(info)
    result = bp_decode_many(full[None], plan.spec, BpConfig(),
                            [lambda bits: crc16(bits) == crc])[0]
    errs = result.info_bits ^ info
    n_bytes = cfg.k // 8
    success = not errs.any()
    return TrialResult(
        scheme=scheme, snr_db=snr_db, trial=trial, success=success,
        bits_sent=len(positions), clean_bits=cfg.k if success else 0,
        bit_errors=int(errs.sum()),
        byte_errors=int(errs[:8 * n_bytes].reshape(-1, 8).any(axis=1).sum()),
        n_bytes=n_bytes, k=cfg.k, frames_used=1, fber_first=result.fber,
        requested_rate="",
    )


class TestFixedTrialIsOneFrameSession:
    @pytest.mark.parametrize("k", [9, 16, 96])
    @pytest.mark.parametrize("scheme", ["fixed:2/5", "fixed:1/2", "fixed:2/3"])
    def test_matches_reference_receiver(self, k, scheme):
        cfg = SimConfig(snr_db=(-3.0, 3.0, 8.0, 40.0), trials=1, k=k, master_seed=21)
        outcomes = set()
        for point in range(len(cfg.snr_db)):
            got = run_point(cfg, scheme, point, (0,))[0]
            want = fixed_trial_reference(cfg, scheme, point, 0)
            for f in dataclasses.fields(TrialResult):
                assert getattr(got, f.name) == getattr(want, f.name), (point, f.name)
            outcomes.add(got.success)
        assert outcomes == {False, True}

    def test_calls_tag_and_gateway_once(self, monkeypatch):
        calls = []
        for name in ("tag_stage1", "gateway_on_frames"):
            real = getattr(simulate, name)
            monkeypatch.setattr(simulate, name,
                                lambda *a, _n=name, _real=real, **kw: calls.append(_n) or _real(*a, **kw))
        cfg = SimConfig(snr_db=(8.0,), trials=1, k=96, master_seed=21)
        run_point(cfg, "fixed:1/2", 0, (0,))
        assert calls == ["tag_stage1", "gateway_on_frames"]


class TestRunTrial:
    def test_deterministic(self):
        cfg = SimConfig(snr_db=(8.0,), trials=1, k=96, master_seed=5)
        a = run_point(cfg, "sozu", 0, (3,))[0]
        b = run_point(cfg, "sozu", 0, (3,))[0]
        assert a == b

    def test_noiseless_sozu_rate_three_quarters(self):
        cfg = SimConfig(snr_db=(40.0,), trials=1, k=96, master_seed=6)
        r = run_point(cfg, "sozu", 0, (0,))[0]
        assert r.success and r.frames_used == 1
        assert r.bits_sent == 128
        assert goodput([r]) == pytest.approx(0.75)

    def test_noiseless_all_schemes_succeed(self):
        cfg = SimConfig(snr_db=(40.0,), trials=1, k=96, master_seed=6)
        for scheme in ("sozu", "hamming74", "fixed:1/2"):
            assert run_point(cfg, scheme, 0, (0,))[0].success

    def test_schemes_share_channel_stream(self):
        cfg = SimConfig(snr_db=(8.0,), trials=1, k=96, master_seed=7)
        rngs_a = trial_rngs(cfg.master_seed, 0, 0)
        rngs_b = trial_rngs(cfg.master_seed, 0, 0)
        assert rngs_a[0].integers(0, 2, 96).tolist() == rngs_b[0].integers(0, 2, 96).tolist()

    def test_fixed_budget_rounds_half_up(self):
        # 9 / (2/5) = 22.5 coded bits; the session plan rounds half up
        cfg = SimConfig(snr_db=(40.0,), trials=1, k=9, master_seed=6)
        r = run_point(cfg, "fixed:2/5", 0, (0,))[0]
        assert r.bits_sent == 23 and r.success

    def test_fixed_records_observed_fber(self, monkeypatch):
        # the punctured decode's frozen pilots are mostly unobservable; the
        # trial keeps the statistic over observed ones, as the protocol does
        import polarlink.protocol as protocol

        batches = []
        real = protocol.bp_decode_many
        monkeypatch.setattr(protocol, "bp_decode_many", lambda llrs, spec, cfg, checks: batches.append(
            (cfg.max_iters, real(llrs, spec, cfg, checks))) or batches[-1][1])
        cfg = SimConfig(snr_db=(3.0,), trials=1, k=96, master_seed=6)
        r = run_point(cfg, "fixed:1/2", 0, (0,))[0]
        # iteration 1 does not end the decode, so the row runs on in a
        # second batch, with the pilot of the first
        assert [(iters, len(b)) for iters, b in batches] == [(1, 1), (60, 1)]
        assert batches[0][1][0].fber == batches[1][1][0].fber
        result = batches[1][1][0]
        assert r.fber_first == result.fber
        frozen_hard = result.frozen_hard
        assert result.fber > np.count_nonzero(frozen_hard) / frozen_hard.size

    def test_fixed_rate_beyond_mother_code_rejected(self):
        cfg = SimConfig(snr_db=(8.0,), trials=1, k=96)
        with pytest.raises(ValueError):
            run_point(cfg, "fixed:1/11", 0, (0,))

    def test_deep_failure_point(self):
        # far below the waterfall every session dies
        cfg = SimConfig(snr_db=(-30.0,), trials=1000, k=32, master_seed=8)
        succ = sum(r.success for r in run_point(cfg, "sozu", 0))
        assert succ / 1000 < 0.05

    def test_hamming_effective_rate(self):
        cfg = SimConfig(snr_db=(40.0,), trials=1, k=96, master_seed=9)
        r = run_point(cfg, "hamming74", 0, (0,))[0]
        assert r.bits_sent == 96 * 7 // 4
        assert r.effective_rate == pytest.approx(4 / 7)

    def test_hamming_sends_every_info_bit(self):
        # K=9: the last block carries bit 8 and three zero pad bits
        cfg = SimConfig(snr_db=(40.0,), trials=1, k=9, master_seed=9)
        r = run_point(cfg, "hamming74", 0, (0,))[0]
        assert r.bits_sent == 21
        assert r.effective_rate <= 4 / 7
        assert r.success and r.bit_errors == 0
        # bit 8 now crosses the channel and can err
        cfg = SimConfig(snr_db=(-30.0,), trials=40, k=9, master_seed=9)
        tail_wrong = 0
        for t in range(cfg.trials):
            info_rng, channel_rng, _ = trial_rngs(cfg.master_seed, 0, t)
            info = info_rng.integers(0, 2, size=9).astype(np.uint8)
            coded = hamming74_encode(np.concatenate([info, np.zeros(3, dtype=np.uint8)]))
            decoded = hamming74_decode(simulate._transmit(coded, cfg, cfg.noise(-30.0),
                                                          channel_rng))[:9]
            tail_wrong += int(decoded[8] != info[8])
            row = run_point(cfg, "hamming74", 0, (t,))[0]
            assert row.bit_errors == int(np.sum(decoded != info))
        assert tail_wrong > 0

    def test_lost_ack_wastes_a_stage_two(self):
        # tag cannot tell a lost ACK from a lost rate request: it times out
        # and retransmits at the fallback rate; the session stays successful
        cfg = SimConfig(snr_db=(40.0,), trials=1, k=96, master_seed=6,
                        fb_loss=0.999)
        r = run_point(cfg, "sozu", 0, (0,))[0]
        assert r.success
        assert r.frames_used == 2
        assert r.bits_sent == 144  # 128 + the 16 parity bits of rate 2/3

    def test_mean_effective_rate_monotone_in_snr(self):
        cfg = SimConfig(snr_db=(3.0, 8.0, 13.0), trials=25, k=96, master_seed=14)
        rates = []
        for point in range(3):
            results = run_point(cfg, "sozu", point)
            rates.append(np.mean([r.effective_rate for r in results]))
        assert rates[0] <= rates[1] + 0.02 <= rates[2] + 0.04


class TestRunPoint:
    SCHEMES = ("sozu", "fixed:2/5", "fixed:1/2", "hamming74")

    @pytest.mark.parametrize("k, snr_db", [(9, (2.0, 6.0, 12.0)), (96, (4.0, 7.0, 10.0))])
    def test_run_trial_equals_its_row(self, k, snr_db):
        # a trial run alone, as a one-trial point, equals its row of the point
        cfg = SimConfig(snr_db=snr_db, trials=4, k=k, master_seed=31, schemes=self.SCHEMES,
                        fb_loss=0.3)
        seen = set()
        for scheme in self.SCHEMES:
            for point in range(len(cfg.snr_db)):
                rows = run_point(cfg, scheme, point)
                assert [(r.scheme, r.trial) for r in rows] == [(scheme, t) for t in range(cfg.trials)]
                for r in rows:
                    assert r == run_point(cfg, scheme, point, (r.trial,))[0]
                    seen.add((r.scheme, r.success, r.frames_used))
        # the rows cover failures and successes, and one- and two-frame sessions
        assert {("sozu", False, 2), ("sozu", True, 1), ("sozu", True, 2),
                ("fixed:1/2", True, 1), ("fixed:1/2", False, 1)} <= seen

    def test_trial_subsets(self):
        cfg = SimConfig(snr_db=(6.0,), trials=5, k=16, master_seed=32, schemes=self.SCHEMES)
        for scheme in ("hamming74", "sozu"):
            full = run_point(cfg, scheme, 0)
            assert run_point(cfg, scheme, 0, (3, 1)) == [full[3], full[1]]

    def test_point_decodes_in_two_batches(self, monkeypatch):
        # every first frame of a polar scheme at the point runs iteration 1
        # in one batch; the rows it does not stop run on in another, beside
        # the sozu second frames they lead to, which so need no third
        batches = decode_calls(monkeypatch)
        cfg = SimConfig(snr_db=(-3.0,), trials=3, k=16, master_seed=33, schemes=self.SCHEMES)
        rows = run_point(cfg, "sozu", 0)
        assert [r.frames_used for r in rows] == [2, 2, 2]
        assert batches == [(3, 1, 0), (6, 60, 0)]
        batches.clear()
        run_point(cfg, "fixed:2/5", 0)
        assert batches == [(3, 1, 0), (3, 60, 0)]
        batches.clear()
        run_point(cfg, "hamming74", 0)
        assert batches == []

    @pytest.mark.parametrize("scheme", ["sozu", "fixed:1/2"])
    def test_groups_bound_the_batch(self, monkeypatch, scheme):
        # the trials run in groups of _GROUP_ELEMENTS // N rows, and the
        # grouping leaves every result as it was
        cfg = SimConfig(snr_db=(3.0,), trials=7, k=16, master_seed=34, fb_loss=0.3)
        assert plan_session(16).n_mother * cfg.trials <= simulate._GROUP_ELEMENTS
        whole = run_point(cfg, scheme, 0)
        batches = decode_calls(monkeypatch)
        monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", 3 * plan_session(16).n_mother)
        assert run_point(cfg, scheme, 0) == whole
        # each group of first frames runs iteration 1 in one batch, and the
        # rows it does not stop run on with a sozu row's second frame beside
        # each: at most twice the group; no second frame decodes again
        firsts = batches[::2]
        assert [rows for rows, iters, _ in firsts] == [3, 3, 1]
        assert {iters for _, iters, _ in firsts} == {1} and {b[1] for b in batches[1::2]} == {60}
        running = sum(rows - stopped for rows, _, stopped in firsts)
        assert sum(rows for rows, _, _ in batches[1::2]) == running * (2 if scheme == "sozu" else 1)
        assert max(rows for rows, _, _ in batches) <= 6

    def test_k96_decodes_eight_rows_at_a_time(self, monkeypatch):
        # each group of eight runs iteration 1, then the rows it left
        batches = decode_calls(monkeypatch)
        cfg = SimConfig(snr_db=(12.0,), trials=20, k=96, master_seed=35)
        run_point(cfg, "fixed:1/2", 0)
        assert batches == [(8, 1, 5), (3, 60, 2), (8, 1, 6), (2, 60, 1), (4, 1, 3), (1, 60, 1)]

    @pytest.mark.parametrize("point, trials", [
        (3, None), (True, None), (-1, None), (1.0, None),
        (0, (-1,)), (0, (1.5,)), (0, (True,)), (0, (1, 1)), (0, (np.int64(1),)),
    ], ids=["point_3", "point_bool", "point_negative", "point_float", "trial_negative",
            "trial_float", "trial_bool", "trial_repeated", "trial_numpy"])
    def test_rejects_bad_point_or_trials(self, point, trials):
        # at the boundary, naming the argument, not deep in numpy or as a
        # row that misreports its trial; a numpy int would not serialize
        cfg = SimConfig(snr_db=(3.0, 6.0, 9.0), trials=2, k=16, master_seed=36)
        name = "point" if trials is None else "trials"
        with pytest.raises(ValueError, match=f"^{name} must"):
            run_point(cfg, "sozu", point, trials)


class TestSweepGroups:
    """A sweep task decodes the frames of every (scheme, point) it holds in
    shared lockstep groups, and each row stays the row of its trial alone."""

    SCHEMES = ("sozu", "fixed:2/5", "fixed:1/2", "hamming74")

    @pytest.mark.parametrize("k", [9, 96])
    def test_rows_equal_run_point(self, monkeypatch, fresh_pool, k):
        cfg = SimConfig(snr_db=(4.0, 7.0, 10.0), trials=4, k=k, master_seed=37,
                        schemes=self.SCHEMES, fb_loss=0.3)
        alone = [run_point(cfg, scheme, point, (t,))[0] for scheme in self.SCHEMES
                 for point in range(3) for t in range(cfg.trials)]
        calls = []  # each gateway call's packet id and payload lengths
        real = simulate.gateway_on_frames
        monkeypatch.setattr(simulate, "gateway_on_frames", lambda frames, *a: calls.append(
            (frames[0].header.packet_id, [len(f.payload_positions) for f in frames]))
            or real(frames, *a))
        # the whole sweep is one task; then 3 N cuts groups of 3, across
        # points and stage-2 rates, in two tasks
        for group in (simulate._GROUP_ELEMENTS, 3 * plan_session(k).n_mother):
            monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", group)
            simulate._close_pool()  # kept workers forked before would keep the old group
            for workers in (2, 1):  # in process last, for the calls
                calls.clear()
                _, rows = run_sweep(dataclasses.replace(cfg, workers=workers))
                assert rows == alone, (group, workers)
            assert max(len(set(lengths)) for _, lengths in calls) > 1  # some group mixes rates

    def test_decode_calls_fill_groups(self, monkeypatch):
        rows = decode_calls(monkeypatch)
        # deep_fail's shape: both schemes' first frames run iteration 1 in
        # one call, then on beside the sozu second frames in another
        run_sweep(SimConfig(k=96, snr_db=(-2.93,), schemes=("sozu", "fixed:1/2"), trials=2))
        assert rows == [(4, 1, 0), (6, 60, 0)]
        # three points' first frames in groups of 8 at K=96
        first = []
        real_gateway = simulate.gateway_on_frames
        monkeypatch.setattr(simulate, "gateway_on_frames", lambda frames, *a: first.extend(
            [len(frames)] * (frames[0].header.packet_id == 0)) or real_gateway(frames, *a))
        run_sweep(SimConfig(k=96, snr_db=(-3.0, 3.0, 9.0), trials=4, master_seed=38))
        assert first == [8, 4]


def session_frame_at_a_time(cfg, snr_db, rngs, record):
    """A lone adaptive session with no look-ahead: one gateway call per
    frame, the feedback drawn once the first decision is known and the
    second frame sent after it.  Fills record and returns the gateway
    session."""
    plan = plan_session(cfg.k)
    info_rng, channel_rng, feedback_rng = rngs
    info = info_rng.integers(0, 2, size=cfg.k).astype(np.uint8)
    codeword = encode_systematic(info, plan.spec)
    gw = protocol.GatewaySession(plan)

    def send(frame):
        llrs = simulate._transmit(frame.payload_bits, cfg, cfg.noise(snr_db), channel_rng)
        record.frames.append(protocol.frame_to_wire(frame))
        record.frame_llrs.append(llrs.tolist())
        protocol.gateway_on_frames([frame], [llrs], [gw])
        return len(frame.payload_positions)

    record.bits_sent = send(protocol.tag_stage1(codeword, plan))
    d1 = gw.decisions[0]
    msg = (protocol.FeedbackMsg(kind="ack") if d1["action"] == "ack"
           else protocol.FeedbackMsg(kind="request_rate", rate=Fraction(d1["rate"])))
    fb = protocol.feedback_channel(msg, cfg.fb_loss, feedback_rng)
    record.feedback.append({"kind": fb.kind, "delivered": fb.delivered,
                            **({} if msg.rate is None else {"rate": str(msg.rate)})})
    rate = fb.rate if fb.delivered else protocol.TIMEOUT_FALLBACK_RATE
    if rate is not None:
        record.bits_sent += send(protocol.tag_stage2(codeword, plan, rate))
    record.decisions = list(gw.decisions)
    record.fber_first = d1["fber"]
    record.requested_rate = "" if msg.rate is None else str(msg.rate)
    record.outcome = "success" if gw.succeeded else "fail"
    record.info_hex = protocol.bits_to_hex(info)
    return gw


class TestLookahead:
    """Wave 1 decodes each adaptive session's second frame beside its first;
    every session plays out as it does one frame at a time."""

    @pytest.mark.parametrize("fb_loss", [0.0, 0.3, 0.9])
    def test_sessions_equal_frame_at_a_time(self, monkeypatch, fb_loss):
        cfg = SimConfig(k=96, snr_db=(3.0, 7.0, 9.0, 11.0, 18.0), fb_loss=fb_loss, master_seed=41)
        plan = plan_session(cfg.k)

        def record(snr_db):
            return SessionRecord(k=cfg.k, n_mother=plan.n_mother,
                                 stage1_budget=plan.stage1_budget, snr_db=snr_db)

        points = [(p, t) for p in range(len(cfg.snr_db)) for t in range(6)]
        lanes = [(cfg.snr_db[p], None, trial_rngs(cfg.master_seed, p, t), record(cfg.snr_db[p]))
                 for p, t in points]
        # fixed-rate lanes share the groups and ask for no second frame
        points[3:3] = [None] * 3
        lanes[3:3] = [(7.0, Fraction(1, 2), trial_rngs(cfg.master_seed, 1, t), None)
                      for t in range(3)]
        asked = set()  # the first frames then was called for
        real = simulate.gateway_on_frames

        def gateway(frames, llrs, sessions, then=None):
            ahead = then and (lambda j, rate: asked.add(protocol.frame_to_wire(frames[j]))
                              or then(j, rate))
            return real(frames, llrs, sessions, ahead)

        monkeypatch.setattr(simulate, "gateway_on_frames", gateway)
        got = simulate._lockstep_sessions(cfg, lanes)
        seen = set()
        for point, (snr_db, rate, _, rec), (success, decoded, aux) in zip(points, lanes, got):
            if rate is not None:
                continue
            want = record(snr_db)
            gw = session_frame_at_a_time(cfg, snr_db, trial_rngs(cfg.master_seed, *point), want)
            assert rec.to_json() == want.to_json()
            assert (success, decoded.tobytes()) == (gw.succeeded, gw.last_info.tobytes())
            assert (aux["bits_sent"], aux["frames_used"]) == (want.bits_sent, len(want.frames))
            seen.add((rec.frames[0] in asked, rec.decisions[0]["action"],
                      rec.feedback[0]["delivered"], len(rec.frames)))
        # decodes that iteration 1 ended and ones it did not; a success after
        # iteration 1 and a request; at fb_loss 0.9 a success after
        # iteration 1 whose ACK is lost, so the fallback frame is sent
        assert {(False, "ack"), (True, "ack"), (True, "request_rate")} <= {s[:2] for s in seen}
        if fb_loss == 0.9:
            assert (True, "ack", False, 2) in seen
        assert all(len(rec.frames) == 1 + (not rec.feedback[0]["delivered"]
                                           or rec.decisions[0]["action"] != "ack")
                   for _, rate, _, rec in lanes if rate is None)


class TestSessionReplay:
    def _record(self, snr_db, seed):
        cfg = SimConfig(snr_db=(snr_db,), trials=1, k=96, master_seed=seed)
        from polarlink.protocol import plan_session

        plan = plan_session(cfg.k)
        record = SessionRecord(k=cfg.k, n_mother=plan.n_mother,
                               stage1_budget=plan.stage1_budget, snr_db=snr_db)
        run_session(cfg, snr_db, trial_rngs(seed, 0, 0), record=record)
        return record

    def test_replay_reproduces_decisions_byte_exactly(self):
        for snr, seed in ((12.0, 1), (8.0, 2), (4.0, 3)):
            record = self._record(snr, seed)
            replayed = replay_session(json.loads(record.to_json()), k=record.k)
            assert json.dumps(replayed, sort_keys=True) == \
                json.dumps(record.decisions, sort_keys=True)

    def test_record_is_json_roundtrippable(self):
        record = self._record(9.0, 11)
        parsed = json.loads(record.to_json())
        assert parsed["outcome"] in ("success", "fail")
        assert len(parsed["frames"]) == len(parsed["frame_llrs"])

    def test_replay_rejects_record_of_another_mother_code(self):
        record = json.loads(self._record(12.0, 1).to_json())
        record["n_mother"] = 512
        with pytest.raises(ValueError):
            replay_session(record, k=96)

    def test_replay_rejects_frames_without_their_llrs(self):
        record = json.loads(self._record(4.0, 3).to_json())
        assert len(record["frames"]) == 2
        record["frame_llrs"] = record["frame_llrs"][:1]
        with pytest.raises(ValueError, match="2 frames but 1 LLR lists"):
            replay_session(record, k=96)

    def test_replay_rejects_record_of_another_k(self):
        # K=96 and K=100 share N=1024 and the header length code, so only
        # the record's own k tells them apart
        record = json.loads(self._record(4.0, 3).to_json())
        assert plan_session(100).n_mother == record["n_mother"]
        with pytest.raises(ValueError, match="record k 96"):
            replay_session(record, k=100)

    @pytest.mark.parametrize("edit, field", [
        (lambda r: {}, "lacks k, n_mother, frames, frame_llrs"),
        (lambda r: [r], "record must be a dict"),
        (lambda r: {**r, "frames": 5}, "record frames must be a list"),
        (lambda r: {**r, "frame_llrs": {"0": []}}, "record frame_llrs must be a list"),
        (lambda r: {**r, "frames": [None, r["frames"][1]]}, "record frame 0: frame line must"),
        (lambda r: {**r, "frames": [r["frames"][0], "00 1"]}, "record frame 1: malformed"),
        (lambda r: {**r, "frame_llrs": [r["frame_llrs"][0], ["x"] * 64]}, "record frame 1: llrs"),
        (lambda r: {**r, "frame_llrs": [None, r["frame_llrs"][1]]}, "record frame 0: llrs"),
        (lambda r: {k: v for k, v in r.items() if k != "n_mother"}, "lacks n_mother$"),
    ], ids=["empty", "list_record", "frames_int", "llrs_dict", "frame_none", "frame_short",
            "llrs_text", "llrs_none", "no_n_mother"])
    def test_replay_fails_at_the_boundary(self, edit, field):
        # a ValueError that names the field or the frame, not a KeyError,
        # TypeError or AttributeError from deep inside
        record = json.loads(self._record(4.0, 3).to_json())
        assert len(record["frames"]) == 2
        with pytest.raises(ValueError, match=field):
            replay_session(edit(record), k=96)

    def test_to_json_equals_asdict_dump(self):
        record = self._record(4.0, 3)
        assert len(record.frames) == 2
        for indent in (None, 2):
            assert record.to_json(indent=indent) == \
                json.dumps(dataclasses.asdict(record), sort_keys=True, indent=indent)

    def test_session_encodes_once(self, monkeypatch):
        # a two-frame session slices both frames from one codeword
        import polarlink.decoding as decoding

        calls = []
        for module in (simulate, protocol, decoding):
            real = getattr(module, "encode_transform_pair", None)
            if real is not None:
                monkeypatch.setattr(module, "encode_transform_pair",
                                    lambda *a, _real=real, **kw: calls.append(1) or _real(*a, **kw))
        cfg = SimConfig(snr_db=(4.0,), trials=1, k=96, master_seed=3)
        _, _, aux = run_session(cfg, 4.0, trial_rngs(3, 0, 0))
        assert aux["frames_used"] == 2
        assert len(calls) == 1

    def test_accepted_frame_checks_its_crc_once(self, monkeypatch):
        # the tag computes the CRC and the decoder's stop checks it; a stop
        # on the CRC already says it passed, so the gateway does not repeat it
        calls = []
        real = protocol.crc16
        monkeypatch.setattr(protocol, "crc16", lambda bits: calls.append(1) or real(bits))
        cfg = SimConfig(snr_db=(18.0,), trials=1, k=96, master_seed=5)
        plan = plan_session(cfg.k)
        record = SessionRecord(k=cfg.k, n_mother=plan.n_mother,
                               stage1_budget=plan.stage1_budget, snr_db=18.0)
        success, decoded, aux = run_session(cfg, 18.0, trial_rngs(5, 0, 0), record=record)
        assert success and aux["frames_used"] == 1
        assert np.array_equal(decoded, aux["info"])
        assert [d["action"] for d in record.decisions] == ["ack"]
        assert len(calls) == 2

    def test_midrange_rescue_occurs(self):
        # there is a band where stage 1 fails but combining saves the session
        rescued = 0
        for seed in range(20):
            record = self._record(7.0, 100 + seed)
            if record.outcome == "success" and len(record.frames) == 2:
                rescued += 1
        assert rescued >= 1


class TestRunSweep:
    def _small_cfg(self, **kw):
        base = dict(snr_db=(6.0, 10.0), trials=4, k=16, master_seed=12,
                    schemes=("sozu", "hamming74"))
        base.update(kw)
        return SimConfig(**base)

    def test_single_point_matches_run_trial(self):
        cfg = SimConfig(snr_db=(9.0,), trials=1, k=16, master_seed=13)
        metrics, trials = run_sweep(cfg)
        assert len(metrics) == 1 and len(trials) == 1
        assert trials[0] == run_point(cfg, "sozu", 0, (0,))[0]
        assert metrics[0].prr == float(trials[0].success)

    def test_brr_at_least_prr(self):
        metrics, _ = run_sweep(self._small_cfg(trials=12))
        for m in metrics:
            assert m.brr >= m.prr - 1e-12

    def test_goodput_bounded_by_mean_effective_rate(self):
        metrics, _ = run_sweep(self._small_cfg(trials=12))
        for m in metrics:
            assert m.goodput <= m.mean_effective_rate + 1e-12

    def test_csv_reproducible_across_runs_and_workers(self):
        cfg1 = self._small_cfg()
        m1, _ = run_sweep(cfg1)
        m2, _ = run_sweep(self._small_cfg())
        assert metrics_csv(m1) == metrics_csv(m2)
        m3, _ = run_sweep(self._small_cfg(workers=2))
        assert metrics_csv(m1) == metrics_csv(m3)

    def test_write_outputs_files(self, tmp_path):
        cfg = self._small_cfg(trials=2)
        metrics, trials = run_sweep(cfg)
        write_outputs(cfg, metrics, trials, tmp_path / "out")
        csv_text = (tmp_path / "out" / "metrics.csv").read_text()
        assert csv_text.startswith("# snr_db")
        assert "scheme,snr_db,metric,value,ci_low,ci_high" in csv_text
        lines = (tmp_path / "out" / "trials.jsonl").read_text().splitlines()
        assert len(lines) == len(trials)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["k"] == cfg.k
        assert len(summary["points"]) == len(metrics)

    def test_metrics_csv_row_shape(self):
        m = Metrics(scheme="sozu", snr_db=5.0, trials=4, ber=0.1,
                    ber_ci=(0.05, 0.2), prr=0.5, prr_ci=(0.2, 0.8),
                    brr=0.75, brr_ci=(0.4, 0.9), goodput=0.3,
                    mean_effective_rate=0.6)
        text = metrics_csv([m])
        rows = [ln for ln in text.splitlines() if ln.startswith("sozu")]
        assert len(rows) == 5
        assert rows[0].split(",")[2] == "ber"


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code, *args):
    """Run code in a fresh interpreter that imports polarlink from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)


def _sweep_in_child(cfg, conn):
    """A forked child's sweep: its metrics CSV, its pool's pid and workers."""
    metrics, _ = run_sweep(cfg)
    conn.send((metrics_csv(metrics), simulate._pool[0][0], _worker_pids()))


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def _raising_task(cfg, pairs, trials):
    raise RuntimeError("injected")


class TestKeptPool:
    """run_sweep keeps one process pool per process, worker count and start
    method; the pool never changes an output, and no worker outlives it."""

    CFG = SimConfig(k=16, snr_db=(3.0, 9.0), trials=4, schemes=("sozu", "hamming74"),
                    fb_loss=0.3, master_seed=41, workers=2)

    # two 2-worker sweeps and a 1-worker one in one interpreter under the
    # start method argv[1]; prints their CSVs and the child pids after each
    TWICE = """
import dataclasses, json, multiprocessing, sys
from polarlink import simulate
multiprocessing.set_start_method(sys.argv[1])
cfg = simulate.SimConfig(k=16, snr_db=(3.0, 9.0), trials=4, schemes=("sozu", "hamming74"),
                         fb_loss=0.3, master_seed=41, workers=2)
csv, pids = [], []
for c in (cfg, cfg, dataclasses.replace(cfg, workers=1)):
    csv.append(simulate.metrics_csv(simulate.run_sweep(c)[0]))
    pids.append(sorted(p.pid for p in multiprocessing.active_children()))
print(json.dumps([csv, pids]))
"""

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_workers_end_with_the_process(self, method):
        out = run_python(self.TWICE, method)
        assert out.returncode == 0 and out.stderr == "", out.stderr
        (first, second, alone), pids = json.loads(out.stdout)
        assert first == second == alone
        # both sweeps ran on one pool, which the 1-worker sweep left alone
        assert pids[0] == pids[1] == pids[2] and len(pids[0]) == 2
        for pid in pids[0]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_one_worker_imports_no_pool(self):
        out = run_python("""
import sys
from polarlink import simulate
simulate.run_sweep(simulate.SimConfig(k=16, snr_db=(3.0,), trials=2))
print(sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))))
""")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_killed_worker_breaks_one_call(self, fresh_pool):
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing.connection import wait

        alone = run_sweep(dataclasses.replace(self.CFG, workers=1))
        run_sweep(self.CFG)
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        assert wait([victim.sentinel], timeout=60)
        with pytest.raises(BrokenProcessPool):
            run_sweep(self.CFG)
        assert simulate._pool is None
        metrics, rows = run_sweep(self.CFG)  # on a fresh pool
        assert metrics_csv(metrics) == metrics_csv(alone[0]) and rows == alone[1]

    def test_raising_task_drops_the_pool(self, monkeypatch, fresh_pool):
        run_sweep(self.CFG)
        kept = simulate._pool[1]
        monkeypatch.setattr(simulate, "_run_task", _raising_task)
        with pytest.raises(RuntimeError, match="injected"):
            run_sweep(self.CFG)
        assert simulate._pool is None
        monkeypatch.undo()
        assert run_sweep(self.CFG)[1] == run_sweep(dataclasses.replace(self.CFG, workers=1))[1]
        assert simulate._pool[1] is not kept

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_one_pool_per_key(self, monkeypatch, fresh_pool, method):
        # two calls with one key share one pool, which every start method
        # builds alike: the workers and the context, no initializer
        import concurrent.futures

        context = multiprocessing.get_context(method)
        pools = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context))

            def map(self, fn, *args):
                return map(fn, *args)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(multiprocessing, "get_context", lambda: context)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = SimConfig(k=16, snr_db=(3.0,), trials=2, schemes=("sozu",), workers=2)
        alone = run_sweep(dataclasses.replace(cfg, workers=1))[0]
        assert run_sweep(cfg)[0] == alone
        assert run_sweep(dataclasses.replace(cfg, master_seed=2))[0] != alone
        assert pools == [(2, context)]

    def test_forked_child_keeps_its_own_pool(self, fresh_pool):
        csv = metrics_csv(run_sweep(self.CFG)[0])
        kept = simulate._pool[1]
        workers = _worker_pids()
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        child = context.Process(target=_sweep_in_child, args=(self.CFG, theirs))
        child.start()
        child_workers = []
        try:
            assert ours.poll(120), "the child's sweep did not answer"
            child_csv, child_pid, child_workers = ours.recv()
            child.join(timeout=60)
            assert child.exitcode == 0  # its pool shut down as it exited
        finally:
            if child.is_alive():  # a failure here, not a hang or an orphan
                for pid in child_workers:
                    os.kill(pid, signal.SIGKILL)
                child.kill()
                child.join()
        assert child_csv == csv and child_pid == child.pid
        assert len(child_workers) == 2 and not set(child_workers) & set(workers)
        # the parent's pool still serves the parent
        assert metrics_csv(run_sweep(self.CFG)[0]) == csv
        assert simulate._pool[1] is kept
        assert _worker_pids() == workers

    # each config's metrics CSV in this interpreter and the number of
    # workers alive after it, one line per config
    CSVS = """
import json, multiprocessing, sys
from polarlink import simulate
for kw in json.loads(sys.argv[1]):
    cfg = simulate.SimConfig(snr_db=(4.0, 8.0), trials=3, schemes=("sozu", "fixed:1/2"),
                             master_seed=43, **kw)
    csv = simulate.metrics_csv(simulate.run_sweep(cfg)[0])
    print(json.dumps([csv, len(multiprocessing.active_children())]))
"""

    def test_changed_key_equals_fresh_interpreters(self):
        # workers 2 -> 3 -> 2 and k 96 -> 512 -> 96 in one process, each
        # config against a fresh interpreter of its own
        steps = [{"workers": 2, "k": 96}, {"workers": 3, "k": 96}, {"workers": 2, "k": 96},
                 {"workers": 2, "k": 512}, {"workers": 2, "k": 96}]
        out = run_python(self.CSVS, json.dumps(steps))
        assert out.returncode == 0 and out.stderr == "", out.stderr
        together = [json.loads(line) for line in out.stdout.splitlines()]
        # a new worker count replaces the pool; a new k keeps it
        assert [alive for _, alive in together] == [2, 3, 2, 2, 2]
        fresh = {}
        for step, (csv, _) in zip(steps, together):
            key = json.dumps(step, sort_keys=True)
            if key not in fresh:
                alone = run_python(self.CSVS, json.dumps([step]))
                assert alone.returncode == 0, alone.stderr
                fresh[key] = json.loads(alone.stdout)[0]
            assert fresh[key] == csv, step


class TestWarmWorkers:
    """A kept pool worker warms itself in its first task: that task imports
    the modules a trial uses and builds the gather plans it decodes with,
    and a later task of the same patterns imports and builds nothing."""

    # two runs of the task a pool worker runs, on one trial of every
    # (scheme, point): its first frames decode as one group of two rates
    # and two points; prints each run's new modules and new plans
    TASKS = """
import json, sys
from polarlink import decoding, simulate
cfg = simulate.SimConfig(k=96, snr_db=(-3.0, 1.0), schemes=("sozu", "fixed:1/2", "hamming74"),
                         trials=1)
pairs = [(scheme, p) for scheme in cfg.schemes for p in range(len(cfg.snr_db))]
runs = []
for _ in range(2):
    before, built = set(sys.modules), decoding._gather_plan.cache_info().misses
    simulate._run_task(cfg, pairs, range(1))
    runs.append([sorted(set(sys.modules) - before),
                 decoding._gather_plan.cache_info().misses - built])
print(json.dumps(runs))
"""

    def test_later_tasks_import_and_build_nothing(self):
        out = run_python(self.TASKS)
        assert out.returncode == 0, out.stderr
        (modules, plans), later = json.loads(out.stdout)
        assert "numpy.random" in modules and plans > 0
        assert later == [[], 0]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16,
                                       np.int32, np.uint32, np.int64, np.uint64])
    def test_gateway_refuses_repeated_positions(self, dtype):
        plan = plan_session(8)
        codeword = encode_systematic(np.arange(8, dtype=np.uint8) % 2, plan.spec)
        frame = protocol.tag_stage1(codeword, plan)
        llrs = np.ones(len(frame.payload_positions))
        positions = np.asarray(frame.payload_positions).astype(dtype)
        gw = protocol.GatewaySession(plan)
        repeated = positions.copy()
        repeated[-1] = repeated[0]
        with pytest.raises(ValueError, match="must not repeat"):
            protocol.gateway_on_frames([dataclasses.replace(frame, payload_positions=repeated)],
                                       [llrs], [gw])
        assert gw.decisions == [] and not gw.seen_ids
        decision, = protocol.gateway_on_frames(
            [dataclasses.replace(frame, payload_positions=positions)], [llrs], [gw])
        assert decision["action"] in ("ack", "request_rate")
