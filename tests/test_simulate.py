"""Harness: baselines, trial/session flow, metrics, sweep reproducibility."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polarlink.protocol as protocol
import polarlink.simulate as simulate
from polarlink import decoding
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
        monkeypatch.setattr(protocol, "bp_decode_many",
                            lambda *a, **kw: batches.append(real(*a, **kw)) or batches[-1])
        cfg = SimConfig(snr_db=(3.0,), trials=1, k=96, master_seed=6)
        r = run_point(cfg, "fixed:1/2", 0, (0,))[0]
        assert [len(b) for b in batches] == [1]
        result = batches[0][0]
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
        # every first frame of a polar scheme at the point in one batch, then
        # the sozu second frames in another
        batches = []
        real = protocol.bp_decode_many
        monkeypatch.setattr(protocol, "bp_decode_many",
                            lambda llrs, *a, **kw: batches.append(len(llrs)) or real(llrs, *a, **kw))
        cfg = SimConfig(snr_db=(-3.0,), trials=3, k=16, master_seed=33, schemes=self.SCHEMES)
        rows = run_point(cfg, "sozu", 0)
        assert [r.frames_used for r in rows] == [2, 2, 2]
        assert batches == [3, 3]
        batches.clear()
        run_point(cfg, "fixed:2/5", 0)
        assert batches == [3]
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
        batches = []
        real = protocol.bp_decode_many
        monkeypatch.setattr(protocol, "bp_decode_many",
                            lambda llrs, *a, **kw: batches.append(len(llrs)) or real(llrs, *a, **kw))
        monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", 3 * plan_session(16).n_mother)
        assert run_point(cfg, scheme, 0) == whole
        assert max(batches) == 3
        assert sum(batches) == sum(r.frames_used for r in whole)

    def test_k96_decodes_eight_rows_at_a_time(self, monkeypatch):
        batches = []
        real = protocol.bp_decode_many
        monkeypatch.setattr(protocol, "bp_decode_many",
                            lambda llrs, *a, **kw: batches.append(len(llrs)) or real(llrs, *a, **kw))
        cfg = SimConfig(snr_db=(12.0,), trials=20, k=96, master_seed=35)
        run_point(cfg, "fixed:1/2", 0)
        assert batches == [8, 8, 4]

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
    def test_rows_equal_run_point(self, monkeypatch, k):
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
        for group, tasks in ((simulate._GROUP_ELEMENTS, 1), (3 * plan_session(k).n_mother, 2)):
            monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", group)
            for workers in (2, 1):  # in process last, for the calls
                calls.clear()
                _, rows = run_sweep(dataclasses.replace(cfg, workers=workers))
                assert rows == alone, (group, workers)
            assert max(len(set(lengths)) for _, lengths in calls) > 1  # some group mixes rates
            if tasks == 1:
                # each wave goes out sorted by payload length
                for wave in (0, 1):
                    sent = [n for pid, lengths in calls if pid == wave for n in lengths]
                    assert sent == sorted(sent)

    def test_decode_calls_fill_groups(self, monkeypatch):
        rows = []
        real = protocol.bp_decode_many
        monkeypatch.setattr(protocol, "bp_decode_many",
                            lambda llrs, *a, **kw: rows.append(len(llrs)) or real(llrs, *a, **kw))
        # deep_fail's shape: both schemes' first frames in one call, then
        # the sozu second frames
        run_sweep(SimConfig(k=96, snr_db=(-2.93,), schemes=("sozu", "fixed:1/2"), trials=2))
        assert rows == [4, 2]
        # three points' first frames in groups of 8 at K=96
        first = []
        real_gateway = simulate.gateway_on_frames
        monkeypatch.setattr(simulate, "gateway_on_frames", lambda frames, *a: first.extend(
            [len(frames)] * (frames[0].header.packet_id == 0)) or real_gateway(frames, *a))
        run_sweep(SimConfig(k=96, snr_db=(-3.0, 3.0, 9.0), trials=4, master_seed=38))
        assert first == [8, 4]


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


class TestWarmWorkers:
    """run_sweep builds in the parent, before its pool forks, what a
    worker's first trial would otherwise build: no module import and no
    gather plan is left to the worker."""

    # the task a pool worker runs, on one trial of every (scheme, point):
    # its first frames decode as one group of two rates and two points
    TRIAL = """
import json, sys
from polarlink import decoding, simulate
cfg = simulate.SimConfig(k=96, snr_db=(-3.0, 1.0), schemes=("sozu", "fixed:1/2", "hamming74"),
                         trials=1)
if sys.argv[1] == "prepared":
    simulate._prepare_workers(cfg)
before, built = set(sys.modules), decoding._gather_plan.cache_info().misses
pairs = [(scheme, p) for scheme in cfg.schemes for p in range(len(cfg.snr_db))]
simulate._run_task(cfg, pairs, range(1))
print(json.dumps([sorted(set(sys.modules) - before),
                  decoding._gather_plan.cache_info().misses - built]))
"""

    def first_task(self, mode):
        """The modules the first task imports and the gather plans it builds."""
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", self.TRIAL, mode], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
        assert out.returncode == 0, out.stderr
        modules, plans = json.loads(out.stdout)
        return set(modules), plans

    def test_first_trials_import_nothing(self):
        # in a fresh interpreter, the first task after the pre-fork step
        # imports no module and builds no plan; without the step numpy.random
        # comes in with it, and it builds its plans
        assert self.first_task("prepared") == (set(), 0)
        modules, plans = self.first_task("cold")
        assert "numpy.random" in modules and plans > 0

    def test_prepared_plans_cover_every_decoded_pattern(self, monkeypatch):
        real = decoding._gather_plan
        patterns = []

        def recorded(n_log2, zero):
            patterns.append((n_log2, zero))
            return real(n_log2, zero)

        monkeypatch.setattr(decoding, "_gather_plan", recorded)
        cfg = SimConfig(k=96, snr_db=(-3.0, 1.0, 5.0, 9.0, 13.0, 18.0), trials=4, fb_loss=0.5,
                        master_seed=31, schemes=("sozu", "fixed:1/2", "fixed:1/3"))
        simulate._prepare_workers(cfg)
        prepared, patterns[:] = set(patterns), []
        run_sweep(cfg)
        decoded = set(patterns)
        # the stage-1 set, at least one stage-2 set and the two fixed sets
        assert len(decoded) >= 4
        assert decoded <= prepared

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_prepared_only_for_a_forking_pool(self, monkeypatch, method):
        # the pool gets the context the step was chosen by, and a pool
        # whose workers do not fork gets no pre-fork step
        import concurrent.futures
        import multiprocessing

        context = multiprocessing.get_context(method)
        prepared, pools = [], []

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                pools.append(mp_context)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        monkeypatch.setattr(multiprocessing, "get_context", lambda: context)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(simulate, "_prepare_workers", prepared.append)
        cfg = SimConfig(k=16, snr_db=(3.0,), trials=2, schemes=("sozu",), workers=2)
        assert run_sweep(cfg)[0] == run_sweep(dataclasses.replace(cfg, workers=1))[0]
        assert pools == [context]
        assert prepared == ([cfg] if method == "fork" else [])

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
