"""Protocol: headers, CRC, rate table, budgets, state machines, wire format."""

import copy
import dataclasses
import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlink.construction import design_code
from polarlink.decoding import FROZEN_PRIOR_LLR
from polarlink.encoding import encode_systematic
from polarlink.protocol import (
    RATE_TABLE,
    STAGE1_RATE,
    TIMEOUT_FALLBACK_RATE,
    FeedbackMsg,
    Frame,
    GatewaySession,
    PacketHeader,
    bits_to_hex,
    crc16,
    estimate_rate,
    feedback_channel,
    frame_from_wire,
    frame_to_wire,
    gateway_on_frames,
    header_decode,
    header_encode,
    hex_to_bits,
    plan_session,
    tag_stage1,
    tag_stage2,
)
from polarlink.simulate import wilson_interval

from decode_calls import decode_calls


def crc16_longdivision_oracle(bits):
    """Independent CRC oracle: GF(2) long division of the augmented message.

    The all-ones initial register is equivalent to flipping the first 16 bits
    of the zero-augmented dividend.
    """
    divisor = np.zeros(17, dtype=np.uint8)
    for power in (16, 12, 5, 0):
        divisor[16 - power] = 1
    dividend = np.concatenate([np.asarray(bits, dtype=np.uint8),
                               np.zeros(16, dtype=np.uint8)])
    dividend[:16] ^= 1
    for i in range(len(dividend) - 16):
        if dividend[i]:
            dividend[i:i + 17] ^= divisor
    out = 0
    for b in dividend[-16:]:
        out = (out << 1) | int(b)
    return out


def crc16_bitwise_reference(bits):
    """Second CRC reference: one shift-register step per bit, no table."""
    reg = 0xFFFF
    for b in np.asarray(bits, dtype=np.uint8):
        top = ((reg >> 15) ^ int(b)) & 1
        reg = (reg << 1) & 0xFFFF
        if top:
            reg ^= 0x1021
    return reg


class TestHeader:
    def test_defined_layout(self):
        h = PacketHeader(rate_code=0b10, length_code=0b0101, packet_id=1)
        assert header_encode(h).tolist() == [1, 0, 0, 1, 0, 1, 1]

    def test_exhaustive_roundtrip(self):
        for v in range(1 << 7):
            h = PacketHeader(rate_code=(v >> 5) & 3, length_code=(v >> 1) & 0xF,
                             packet_id=v & 1)
            assert header_decode(header_encode(h)) == h

    def test_field_validation(self):
        with pytest.raises(ValueError):
            PacketHeader(rate_code=4, length_code=0, packet_id=0)
        with pytest.raises(ValueError):
            PacketHeader(rate_code=0, length_code=16, packet_id=0)
        with pytest.raises(ValueError):
            header_decode(np.zeros(8, dtype=np.uint8))


class TestCrc16:
    def test_standard_check_value(self):
        bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        assert crc16(bits) == 0x29B1
        assert crc16_longdivision_oracle(bits) == 0x29B1

    def test_empty_message_matches_oracle(self):
        assert crc16([]) == crc16_longdivision_oracle([])
        assert crc16([]) == 0xFFFF

    def test_matches_oracle_on_random_messages(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            assert crc16(bits) == crc16_longdivision_oracle(bits)

    def test_matches_bitwise_reference_on_every_short_length(self):
        # 0-17 bits: no byte, one byte, and each count of trailing bits
        rng = np.random.default_rng(23)
        for n in range(18):
            for _ in range(8):
                bits = rng.integers(0, 2, n).astype(np.uint8)
                assert crc16(bits) == crc16_bitwise_reference(bits)

    def test_matches_both_references_on_random_lengths(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            bits = rng.integers(0, 2, int(rng.integers(0, 301))).astype(np.uint8)
            assert crc16(bits) == crc16_bitwise_reference(bits)
        for _ in range(20):
            bits = rng.integers(0, 2, int(rng.integers(0, 301))).astype(np.uint8)
            assert crc16(bits) == crc16_longdivision_oracle(bits)

    def test_detects_every_single_bit_flip(self):
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        crc = crc16(bits)
        for i in range(64):
            corrupted = bits.copy()
            corrupted[i] ^= 1
            assert crc16(corrupted) != crc

    def test_false_accept_rate_bound(self):
        # random corruptions should sneak past a 16-bit CRC at ~2^-16
        rng = np.random.default_rng(22)
        trials = 100_000
        accepts = 0
        bits = rng.integers(0, 2, 96).astype(np.uint8)
        crc = crc16(bits)
        for _ in range(trials):
            corrupted = bits ^ rng.integers(0, 2, 96).astype(np.uint8)
            if np.array_equal(corrupted, bits):
                continue
            accepts += crc16(corrupted) == crc
        assert accepts / trials < 3 * 2 ** -16


class TestRateTable:
    @pytest.mark.parametrize("fber,expected", [
        (0.2, Fraction(2, 3)),
        (0.4, Fraction(1, 2)),
        (0.6, Fraction(1, 4)),
        (0.8, Fraction(1, 8)),
    ])
    def test_published_ranges(self, fber, expected):
        assert estimate_rate(fber) == expected

    def test_boundaries(self):
        assert estimate_rate(0.1) == Fraction(2, 3)
        assert estimate_rate(0.3) == Fraction(1, 2)
        assert estimate_rate(0.5) == Fraction(1, 4)
        assert estimate_rate(0.7) == Fraction(1, 8)
        assert estimate_rate(1.0) == Fraction(1, 8)

    def test_below_range_policy(self):
        assert estimate_rate(0.05) == Fraction(2, 3)
        assert estimate_rate(0.0) == Fraction(2, 3)

    def test_rates_strictly_decreasing(self):
        assert all(a > b for a, b in zip(RATE_TABLE, RATE_TABLE[1:]))


class TestSessionPlan:
    def test_k96_budgets(self):
        plan = plan_session(96)
        assert plan.n_mother == 1024
        assert plan.stage1_budget == 128
        assert plan.cumulative_budget(Fraction(2, 3)) == 144
        assert plan.cumulative_budget(Fraction(1, 2)) == 192
        assert plan.cumulative_budget(Fraction(1, 8)) == 768

    def test_budgets_monotone(self):
        plan = plan_session(64)
        budgets = [plan.cumulative_budget(r) for r in RATE_TABLE]
        assert budgets == sorted(budgets)
        assert plan.stage1_budget < budgets[0]
        assert budgets[-1] <= plan.n_mother

    def test_k_range(self):
        with pytest.raises(ValueError):
            plan_session(7)
        with pytest.raises(ValueError):
            plan_session(513)

    @pytest.mark.parametrize("k", [96.0, np.int64(96), np.int32(16), True, "96"])
    def test_k_must_be_a_python_int(self, k):
        plan_session(96)  # a cached plan of an equal int must not answer for k
        with pytest.raises(ValueError, match="k must be an int"):
            plan_session(k)

    def test_effective_rates_exact_by_construction(self):
        plan = plan_session(96)
        assert Fraction(96, plan.stage1_budget) == STAGE1_RATE
        for rate in RATE_TABLE:
            assert Fraction(96, plan.cumulative_budget(rate)) == rate

    def test_positions_extend_the_stages(self):
        plan = plan_session(96)
        for rate in RATE_TABLE:
            stages = np.concatenate([plan.positions(STAGE1_RATE), plan.stage2_positions(rate)])
            assert np.array_equal(plan.positions(rate), stages)

    def test_sent_rates_cover_every_batch(self):
        # an adaptive session sends its stage-1 positions, then those of
        # the rate asked for or of the timeout fallback; the positions any
        # rows send together are those of one sent rate
        plan = plan_session(96)
        sent = plan.sent_rates()
        assert set(sent) == {STAGE1_RATE, TIMEOUT_FALLBACK_RATE, *RATE_TABLE}
        assert plan.sent_rates(Fraction(1, 3)) == (Fraction(1, 3),)
        for a in sent:
            for b in sent:
                union = np.union1d(plan.positions(a), plan.positions(b))
                assert np.array_equal(union, np.sort(plan.positions(min(a, b))))

    def test_fields_are_what_varies(self):
        # everything else is derived from K and the code
        assert [f.name for f in dataclasses.fields(plan_session(96))] == ["k", "spec"]

    def test_stage2_positions_take_table_rates_only(self):
        plan = plan_session(96)
        assert len(plan.positions(Fraction(2, 5))) == 240
        with pytest.raises(ValueError):
            plan.stage2_positions(Fraction(2, 5))

    def test_positions_round_half_up(self):
        # 9 / (2/5) = 22.5 coded bits
        assert len(plan_session(9).positions(Fraction(2, 5))) == 23

    def test_positions_beyond_mother_code_rejected(self):
        plan = plan_session(96)  # N = 1024
        assert len(plan.positions(Fraction(96, 1024))) == 1024
        for rate in (Fraction(96, 1025), Fraction(3, 2)):
            with pytest.raises(ValueError):
                plan.positions(rate)


class TestTagFrames:
    def test_stage_sizes_k96(self):
        plan = plan_session(96)
        info = np.zeros(96, dtype=np.uint8)
        cw = encode_systematic(info, plan.spec)
        f1 = tag_stage1(cw, plan)
        f2 = tag_stage2(cw, plan, Fraction(1, 2))
        assert len(f1.payload_positions) == 128
        assert len(f2.payload_positions) == 64
        f2b = tag_stage2(cw, plan, Fraction(2, 3))
        assert len(f2b.payload_positions) == 16

    def test_positions_disjoint_and_scheduled(self):
        plan = plan_session(96)
        rng = np.random.default_rng(23)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        f1 = tag_stage1(cw, plan)
        f2 = tag_stage2(cw, plan, Fraction(1, 4))
        assert not set(f1.payload_positions) & set(f2.payload_positions)
        sched = plan.spec.parity_schedule
        assert list(f1.payload_positions[96:]) == list(sched[:32])
        assert list(f2.payload_positions) == list(sched[32:288])

    def test_stage1_is_systematic_and_crc_present(self):
        plan = plan_session(96)
        rng = np.random.default_rng(24)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        f1 = tag_stage1(cw, plan)
        assert f1.header.packet_id == 0
        assert f1.crc == crc16(info)
        assert np.array_equal(f1.payload_bits[:96], info)

    def test_stage2_has_no_crc(self):
        plan = plan_session(96)
        f2 = tag_stage2(np.zeros(plan.n_mother, dtype=np.uint8), plan, Fraction(1, 2))
        assert f2.header.packet_id == 1
        assert f2.crc is None

    def test_stage2_rejects_rate_outside_table(self):
        plan = plan_session(96)
        with pytest.raises(ValueError):
            tag_stage2(np.zeros(plan.n_mother, dtype=np.uint8), plan, Fraction(1, 3))

    def test_stages_reject_info_in_place_of_codeword(self):
        plan = plan_session(96)
        info = np.zeros(96, dtype=np.uint8)
        with pytest.raises(ValueError):
            tag_stage1(info, plan)
        with pytest.raises(ValueError):
            tag_stage2(info, plan, Fraction(1, 2))

    def test_stage1_at_a_fixed_rate(self):
        # a fixed-rate baseline sends one first frame at its own rate
        plan = plan_session(96)
        rng = np.random.default_rng(26)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        frame = tag_stage1(cw, plan, Fraction(1, 2))
        assert np.array_equal(frame.payload_positions, plan.positions(Fraction(1, 2)))
        assert np.array_equal(frame.payload_bits, cw[frame.payload_positions])
        assert frame.header.packet_id == 0
        assert frame.crc == crc16(info)

    def test_both_stages_from_one_codeword(self):
        plan = plan_session(96)
        rng = np.random.default_rng(25)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        codeword = encode_systematic(info, plan.spec)
        f1 = tag_stage1(codeword, plan)
        f2 = tag_stage2(codeword, plan, Fraction(1, 8))
        assert np.array_equal(f1.payload_bits, codeword[f1.payload_positions])
        assert np.array_equal(f2.payload_bits, codeword[f2.payload_positions])


def clean_llrs_for(frame):
    return FROZEN_PRIOR_LLR * (1.0 - 2.0 * frame.payload_bits.astype(np.float64))


class TestGateway:
    def test_session_takes_only_the_plan(self):
        assert list(inspect.signature(GatewaySession).parameters) == ["plan"]
        gw = GatewaySession(plan_session(96))
        assert gw.combined.shape == (1024,) and not gw.combined.any()
        assert (gw.seen_ids, gw.expected_crc, gw.decisions) == (set(), None, [])
        assert (gw.last_fber, gw.last_info, gw.succeeded) == (0.0, None, False)
        assert gw.ahead is None

    def test_clean_stage1_acks(self):
        plan = plan_session(96)
        rng = np.random.default_rng(26)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        f1 = tag_stage1(cw, plan)
        gw = GatewaySession(plan)
        decision = gateway_on_frames([f1], [clean_llrs_for(f1)], [gw])[0]
        assert decision["action"] == "ack"
        assert np.array_equal(gw.last_info, info)

    def test_failed_stage1_requests_rate_from_fber(self):
        plan = plan_session(96)
        rng = np.random.default_rng(27)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        f1 = tag_stage1(cw, plan)
        noisy = 0.3 * rng.standard_normal(len(f1.payload_positions))
        gw = GatewaySession(plan)
        decision = gateway_on_frames([f1], [noisy], [gw])[0]
        assert decision["action"] == "request_rate"
        assert Fraction(decision["rate"]) == estimate_rate(decision["fber"])

    def test_fail_after_second_frame(self):
        plan = plan_session(96)
        rng = np.random.default_rng(28)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        f1 = tag_stage1(cw, plan)
        f2 = tag_stage2(cw, plan, Fraction(1, 2))
        gw = GatewaySession(plan)
        d1 = gateway_on_frames([f1], [0.3 * rng.standard_normal(128)], [gw])[0]
        assert d1["action"] == "request_rate"
        d2 = gateway_on_frames([f2], [0.3 * rng.standard_normal(64)], [gw])[0]
        assert d2["action"] == "fail"

    def test_combining_rescues_midquality_stage1(self):
        # stage 1 alone too weak, stage 1 + stage 2 evidence decodes
        plan = plan_session(96)
        rng = np.random.default_rng(29)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        f1 = tag_stage1(cw, plan)
        f2 = tag_stage2(cw, plan, Fraction(1, 4))
        weak = 1.2 * (1.0 - 2.0 * f1.payload_bits.astype(float))
        weak += rng.standard_normal(len(weak))
        gw = GatewaySession(plan)
        d1 = gateway_on_frames([f1], [weak], [gw])[0]
        assert d1["action"] == "request_rate"
        strong2 = 4.0 * (1.0 - 2.0 * f2.payload_bits.astype(float))
        strong2 += rng.standard_normal(len(strong2))
        d2 = gateway_on_frames([f2], [strong2], [gw])[0]
        assert d2["action"] == "ack"
        assert np.array_equal(gw.last_info, info)

    def test_duplicate_frame_ignored(self):
        plan = plan_session(96)
        rng = np.random.default_rng(30)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        f1 = tag_stage1(cw, plan)
        gw = GatewaySession(plan)
        gateway_on_frames([f1], [clean_llrs_for(f1)], [gw])
        combined_before = gw.combined.copy()
        decision = gateway_on_frames([f1], [clean_llrs_for(f1)], [gw])[0]
        assert decision["action"] == "duplicate_ignored"
        assert np.array_equal(gw.combined, combined_before)

    def test_out_of_order_rejected(self):
        plan = plan_session(96)
        info = np.zeros(96, dtype=np.uint8)
        cw = encode_systematic(info, plan.spec)
        f2 = tag_stage2(cw, plan, Fraction(1, 2))
        gw = GatewaySession(plan)
        with pytest.raises(ValueError):
            gateway_on_frames([f2], [np.zeros(64)], [gw])


    @pytest.mark.parametrize("line", ["00 5,99999 0 abcd", "00 5,-1 0 abcd", "00 5,5 0 abcd"])
    def test_bad_positions_rejected_before_state_changes(self, line):
        plan = plan_session(96)
        gw = GatewaySession(plan)
        with pytest.raises(ValueError):
            gateway_on_frames([frame_from_wire(line)], [np.zeros(2)], [gw])
        assert not gw.seen_ids and not gw.decisions
        assert not np.any(gw.combined)

    def test_header_length_must_match_plan(self):
        plan = plan_session(96)
        f1 = tag_stage1(np.zeros(plan.n_mother, dtype=np.uint8), plan)
        assert f1.header.length_code == 11  # 12 bytes
        bad = Frame(header=PacketHeader(rate_code=0, length_code=0, packet_id=0),
                    payload_positions=f1.payload_positions, payload_bits=f1.payload_bits,
                    crc=f1.crc)
        gw = GatewaySession(plan)
        with pytest.raises(ValueError):
            gateway_on_frames([bad], [clean_llrs_for(bad)], [gw])
        assert not gw.seen_ids and not gw.decisions
        assert not np.any(gw.combined)

    def test_nonfinite_llrs_rejected(self):
        plan = plan_session(96)
        f1 = tag_stage1(np.zeros(plan.n_mother, dtype=np.uint8), plan)
        llrs = clean_llrs_for(f1)
        llrs[3] = np.nan
        gw = GatewaySession(plan)
        with pytest.raises(ValueError):
            gateway_on_frames([f1], [llrs], [gw])
        assert not gw.seen_ids


# How a session stands before the batch, and the frame it then receives:
# "first" a fresh session gets its first frame, "second" a session whose
# first frame failed gets its second, "duplicate" such a session gets its
# first frame again, "acked" a session whose first frame decoded gets its
# second (a lost-ACK retransmission).
SCENARIOS = ("first", "second", "duplicate", "acked")


def _prepared_session(k, scenario, rng):
    """A session in the given scenario's starting state, and its next frame
    with LLRs; 'first' frames are clean or noisy at random.  A first frame
    that must fail carries no evidence: its decode returns all-zero info
    bits, which the CRC rejects since info[0] is 1."""
    plan = plan_session(k)
    info = rng.integers(0, 2, k).astype(np.uint8)
    info[0] = 1
    cw = encode_systematic(info, plan.spec)
    f1, f2 = tag_stage1(cw, plan), tag_stage2(cw, plan, RATE_TABLE[rng.integers(0, 4)])
    gw = GatewaySession(plan)

    def noisy(frame, scale):
        signs = 1.0 - 2.0 * frame.payload_bits.astype(np.float64)
        return scale * signs + rng.standard_normal(len(signs))

    if scenario == "first":
        return gw, f1, noisy(f1, rng.choice([0.3, 1.5, 12.0]))
    if scenario == "acked":
        gateway_on_frames([f1], [clean_llrs_for(f1)], [gw])
        assert gw.succeeded
        return gw, f2, noisy(f2, 2.0)
    gateway_on_frames([f1], [np.zeros(len(f1.payload_positions))], [gw])
    assert not gw.succeeded
    if scenario == "duplicate":
        return gw, f1, noisy(f1, 2.0)
    return gw, f2, noisy(f2, rng.choice([0.5, 3.0]))


def session_state(gw):
    info = None if gw.last_info is None else (gw.last_info.dtype.str, gw.last_info.tobytes())
    return (gw.combined.tobytes(), sorted(gw.seen_ids), gw.expected_crc, list(gw.decisions),
            np.float64(gw.last_fber).tobytes(), info, gw.succeeded)


class TestGatewayBatch:
    """A batch of frames equals one-frame batches called frame by frame."""

    @settings(max_examples=30, deadline=None)
    @given(scenarios=st.lists(st.sampled_from(SCENARIOS), min_size=1, max_size=6),
           k=st.sampled_from([8, 16]), seed=st.integers(0, 2**16))
    def test_equals_sequential_calls(self, scenarios, k, seed):
        rng = np.random.default_rng(seed)
        prepared = [_prepared_session(k, scenario, rng) for scenario in scenarios]
        batch = [gw for gw, _, _ in prepared]
        alone = copy.deepcopy(batch)
        got = gateway_on_frames([f for _, f, _ in prepared], [l for _, _, l in prepared], batch)
        want = [gateway_on_frames([f], [l], [gw])[0] for gw, (_, f, l) in zip(alone, prepared)]
        assert got == want
        for a, b in zip(batch, alone):
            assert session_state(a) == session_state(b)

    def test_decodes_only_what_needs_a_decode(self, monkeypatch):
        import polarlink.protocol as protocol

        batches = decode_calls(monkeypatch)
        rng = np.random.default_rng(7)
        scenarios = ["first", "duplicate", "second", "acked", "first", "second"]
        prepared = [_prepared_session(16, s, rng) for s in scenarios]
        batches.clear()
        decisions = gateway_on_frames([f for _, f, _ in prepared], [l for _, _, l in prepared],
                                      [gw for gw, _, _ in prepared])
        # one batch runs the first iteration of the two first and the two
        # second frames, and one more the rows it did not stop
        (rows, iters, stopped), *rest = batches
        assert (rows, iters) == (4, 1)
        assert [(rows, iters) for rows, iters, _ in rest] == [(4 - stopped, 60)] * (stopped < 4)
        assert decisions[1]["action"] == "duplicate_ignored"
        assert decisions[3]["action"] == "ack"

    def test_sessions_of_two_codes_are_refused(self):
        rng = np.random.default_rng(10)
        prepared = [_prepared_session(k, "first", rng) for k in (8, 16, 8)]
        sessions = [gw for gw, _, _ in prepared]
        before = [session_state(gw) for gw in sessions]
        with pytest.raises(ValueError):
            gateway_on_frames([f for _, f, _ in prepared], [l for _, _, l in prepared], sessions)
        assert [session_state(gw) for gw in sessions] == before

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_combine_changes_no_session(self):
        # a second frame that repeats a first-frame position whose LLR is
        # already huge sums to inf; it is refused before any session changes
        rng = np.random.default_rng(11)
        prepared = [_prepared_session(16, s, rng) for s in ("first", "second", "first")]
        gw, f1, _ = _prepared_session(16, "first", rng)
        first_llrs = np.zeros(len(f1.payload_positions))
        first_llrs[-1] = 1e308
        gateway_on_frames([f1], [first_llrs], [gw])
        assert not gw.succeeded
        repeat = dataclasses.replace(f1, header=dataclasses.replace(f1.header, packet_id=1),
                                     crc=None)
        prepared.insert(1, (gw, repeat, first_llrs))
        sessions = [s for s, _, _ in prepared]
        before = [session_state(s) for s in sessions]
        with pytest.raises(ValueError, match="finite"):
            gateway_on_frames([f for _, f, _ in prepared], [l for _, _, l in prepared], sessions)
        assert [session_state(s) for s in sessions] == before

    @pytest.mark.parametrize("fault", ["position", "misaligned", "nonfinite", "length_code",
                                       "second_before_first"])
    def test_one_malformed_frame_changes_no_session(self, fault):
        rng = np.random.default_rng(8)
        prepared = [_prepared_session(16, s, rng) for s in SCENARIOS]
        frames = [f for _, f, _ in prepared]
        llrs = [l for _, _, l in prepared]
        sessions = [gw for gw, _, _ in prepared]
        if fault == "second_before_first":
            # a fresh session handed a second frame
            sessions[0] = GatewaySession(plan_session(16))
            frames[0] = frames[1]
            llrs[0] = llrs[1]
        else:
            f = frames[2]
            positions, bits, header = f.payload_positions.copy(), f.payload_bits, f.header
            bad_llrs = llrs[2].copy()
            if fault == "position":
                positions[0] = plan_session(16).n_mother
            elif fault == "misaligned":
                bad_llrs = bad_llrs[:-1]
            elif fault == "nonfinite":
                bad_llrs[0] = np.inf
            else:
                header = dataclasses.replace(header, length_code=header.length_code + 1)
            frames[2] = Frame(header=header, payload_positions=positions, payload_bits=bits,
                              crc=f.crc)
            llrs[2] = bad_llrs
        before = [session_state(gw) for gw in sessions]
        with pytest.raises(ValueError):
            gateway_on_frames(frames, llrs, sessions)
        assert [session_state(gw) for gw in sessions] == before

    def test_a_session_takes_one_frame_per_call(self):
        rng = np.random.default_rng(9)
        gw, f1, l1 = _prepared_session(16, "first", rng)
        with pytest.raises(ValueError):
            gateway_on_frames([f1, f1], [l1, l1], [gw, gw])
        with pytest.raises(ValueError):
            gateway_on_frames([f1], [l1, l1], [gw])
        assert session_state(gw) == session_state(GatewaySession(gw.plan))

    def test_empty_batch(self):
        assert gateway_on_frames([], [], []) == []


def _lookahead_sessions(k, scales, seed):
    """One fresh session per LLR scale, its first frame with LLRs at that
    scale, and per stage-2 rate the second frame its tag would send, with
    LLRs at the same scale."""
    plan = plan_session(k)
    rng = np.random.default_rng(seed)

    def noisy(frame, scale):
        signs = 1.0 - 2.0 * frame.payload_bits.astype(np.float64)
        return scale * signs + rng.standard_normal(len(signs))

    sessions, firsts, seconds = [], [], []
    for scale in scales:
        cw = encode_systematic(rng.integers(0, 2, k).astype(np.uint8), plan.spec)
        f1 = tag_stage1(cw, plan)
        sessions.append(GatewaySession(plan))
        firsts.append((f1, noisy(f1, scale)))
        seconds.append({rate: (f2, noisy(f2, scale))
                        for rate, f2 in ((r, tag_stage2(cw, plan, r)) for r in RATE_TABLE)})
    return sessions, firsts, seconds


class TestGatewayLookahead:
    """then decodes a session's second frame beside its first; decisions and
    session state equal those of frame-at-a-time calls without it."""

    SCALES = (0.3, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 12.0)

    @pytest.mark.parametrize("k", [16, 96])
    def test_equals_frame_at_a_time(self, monkeypatch, k):
        sessions, firsts, seconds = _lookahead_sessions(k, self.SCALES, seed=k)
        alone = copy.deepcopy(sessions)
        batches = decode_calls(monkeypatch)
        asked = []

        def then(i, rate):
            asked.append((i, rate))
            return seconds[i][rate]

        got = gateway_on_frames([f for f, _ in firsts], [l for _, l in firsts], sessions, then)
        calls = list(batches)
        want = [gateway_on_frames([f], [l], [gw])[0] for gw, (f, l) in zip(alone, firsts)]
        assert got == want
        for a, b in zip(sessions, alone):
            assert session_state(a) == session_state(b)
        # then is asked for each first frame whose decode iteration 1 did
        # not end, at the rate its FBER maps to, and each answer decodes
        # beside the rows still running
        stopped = [i for i, d in enumerate(want) if d["action"] == "ack"
                   and i not in dict(asked)]
        assert [i for i, _ in asked] == [i for i in range(len(firsts)) if i not in stopped]
        assert all(rate == estimate_rate(want[i]["fber"]) for i, rate in asked)
        assert calls == [(len(firsts), 1, len(stopped)), (2 * len(asked), 60, calls[1][2])]
        # a success after iteration 1 and a request among them
        actions = {want[i]["action"] for i, _ in asked}
        assert actions == {"ack", "request_rate"}

        # the second frames: the one requested, or the fallback after a lost
        # ACK; none needs a decode, and every kept decode is dropped
        nxt = [seconds[i][Fraction(d["rate"]) if d["action"] == "request_rate"
                          else TIMEOUT_FALLBACK_RATE] for i, d in enumerate(want)]
        batches.clear()
        got = gateway_on_frames([f for f, _ in nxt], [l for _, l in nxt], sessions)
        assert batches == []
        want = [gateway_on_frames([f], [l], [gw])[0] for gw, (f, l) in zip(alone, nxt)]
        assert got == want
        for a, b in zip(sessions, alone):
            assert session_state(a) == session_state(b)
            assert a.ahead is None

    def test_other_llrs_decode_afresh(self, monkeypatch):
        # a second frame whose LLRs differ from those then gave by one ulp,
        # or that follows another frame, decodes as it would have without then
        sessions, firsts, seconds = _lookahead_sessions(96, (0.8, 1.0, 0.3), seed=5)
        alone = copy.deepcopy(sessions)
        gateway_on_frames([f for f, _ in firsts], [l for _, l in firsts], sessions,
                          lambda i, rate: seconds[i][rate])
        want = [gateway_on_frames([f], [l], [gw])[0] for gw, (f, l) in zip(alone, firsts)]
        assert [d["action"] for d in want] == ["request_rate"] * 3
        assert all(gw.ahead is not None for gw in sessions)
        nxt = [seconds[i][Fraction(d["rate"])] for i, d in enumerate(want)]
        moved = nxt[0][1].copy()
        moved[0] = np.nextafter(moved[0], np.inf)
        # session 2 first sees its first frame again, which drops the kept decode
        dup = [(sessions[2], *firsts[2]), (alone[2], *firsts[2])]
        for gw, f, l in dup:
            assert gateway_on_frames([f], [l], [gw])[0]["action"] == "duplicate_ignored"
        assert sessions[2].ahead is None and sessions[1].ahead is not None
        batches = decode_calls(monkeypatch)
        frames = [nxt[0][0], nxt[1][0], nxt[2][0]]
        llrs = [moved, nxt[1][1], nxt[2][1]]
        got = gateway_on_frames(frames, llrs, sessions)
        # sessions 0 and 2 decode, session 1 takes its kept decode
        assert [(rows, iters) for rows, iters, _ in batches] == [(2, 1), (2 - batches[0][2], 60)][
            :1 + (batches[0][2] < 2)]
        want = [gateway_on_frames([f], [l], [gw])[0] for gw, f, l in zip(alone, frames, llrs)]
        assert got == want
        for a, b in zip(sessions, alone):
            assert session_state(a) == session_state(b)

    @pytest.mark.parametrize("fault", ["position", "first_frame", "nonfinite"])
    def test_malformed_follow_up_changes_no_session(self, fault):
        sessions, firsts, seconds = _lookahead_sessions(16, (0.3, 0.5), seed=6)
        before = [session_state(gw) for gw in sessions]

        def then(i, rate):
            frame, llrs = seconds[i][rate]
            if fault == "position":
                frame = dataclasses.replace(frame, payload_positions=frame.payload_positions + 10**6)
            elif fault == "first_frame":
                frame = firsts[i][0]
                llrs = firsts[i][1]
            else:
                llrs = np.full(len(llrs), np.nan)
            return frame, llrs

        with pytest.raises(ValueError):
            gateway_on_frames([f for f, _ in firsts], [l for _, l in firsts], sessions, then)
        assert [session_state(gw) for gw in sessions] == before
        assert all(gw.ahead is None for gw in sessions)


_HEX = "0123456789abcdefABCDEF"
_BITS = st.lists(st.integers(0, 1), max_size=70).map(lambda b: np.array(b, dtype=np.uint8))
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def wire_frames(draw):
    """A wire line and LLRs: arbitrary text, or well-formed fields that
    carry arbitrary positions, CRCs and LLR values (K=8 mother code, N=64)."""
    if draw(st.booleans()):
        return draw(st.text(max_size=40)), draw(st.lists(_FLOATS, max_size=12))
    header = PacketHeader(rate_code=draw(st.integers(0, 3)), length_code=0,
                          packet_id=draw(st.integers(0, 1)))
    positions = draw(st.lists(st.one_of(st.integers(-3, 70), st.integers(-2**70, 2**70)),
                              min_size=1, max_size=12))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(positions), max_size=len(positions)))
    parts = [bits_to_hex(header_encode(header)), ",".join(str(p) for p in positions),
             bits_to_hex(bits)]
    crc = draw(st.one_of(st.none(), st.integers(-2, 0x10001)))
    if crc is not None:
        parts.append(f"{crc:x}")
    n_llrs = draw(st.one_of(st.just(len(positions)), st.integers(0, 12)))
    return " ".join(parts), draw(st.lists(_FLOATS, min_size=n_llrs, max_size=n_llrs))


class TestWireBoundaryProperty:
    @settings(max_examples=200, deadline=None)
    @given(wire=wire_frames(), after_stage1=st.booleans())
    def test_gateway_raises_only_value_error(self, wire, after_stage1):
        line, llrs = wire
        plan = plan_session(8)
        gw = GatewaySession(plan)
        if after_stage1:
            f1 = tag_stage1(np.zeros(plan.n_mother, dtype=np.uint8), plan)
            gateway_on_frames([f1], [np.zeros(len(f1.payload_positions))], [gw])
        try:
            frame = frame_from_wire(line)
            gateway_on_frames([frame], [llrs], [gw])
        except ValueError:
            pass


@st.composite
def frames(draw):
    """Any well-formed Frame: a header, 1-20 positions in int64, bits, CRC."""
    header = PacketHeader(rate_code=draw(st.integers(0, 3)), length_code=draw(st.integers(0, 15)),
                          packet_id=draw(st.integers(0, 1)))
    positions = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=20))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(positions), max_size=len(positions)))
    crc = draw(st.integers(0, 0xFFFF)) if header.packet_id == 0 else None
    return Frame(header=header, payload_positions=np.array(positions, dtype=np.int64),
                 payload_bits=np.array(bits, dtype=np.uint8), crc=crc)


def _mutate(line, data):
    """Replace, insert or delete one character of a wire line."""
    i = data.draw(st.integers(0, len(line)))
    ch = data.draw(st.sampled_from(_HEX + ",_+- x\t\n\u0661\uff10"))
    return data.draw(st.sampled_from([line[:i] + ch + line[i + 1:], line[:i] + ch + line[i:],
                                      line[:i] + line[i + 1:]]))


def assert_frames_equal(a, b):
    assert a.header == b.header and a.crc == b.crc
    assert a.payload_positions.dtype == b.payload_positions.dtype == np.int64
    assert np.array_equal(a.payload_positions, b.payload_positions)
    assert np.array_equal(a.payload_bits, b.payload_bits)


class TestWireRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(frame=frames())
    def test_frame_roundtrip(self, frame):
        assert_frames_equal(frame_from_wire(frame_to_wire(frame)), frame)

    @settings(max_examples=300, deadline=None)
    @given(frame=frames(), data=st.data())
    def test_accepted_line_is_canonical(self, frame, data):
        # every spelling the parser accepts is the one frame_to_wire emits
        line = _mutate(frame_to_wire(frame), data)
        try:
            parsed = frame_from_wire(line)
        except ValueError:
            return
        assert frame_to_wire(parsed) == line

    @settings(max_examples=200, deadline=None)
    @given(bits=_BITS)
    def test_hex_roundtrip(self, bits):
        text = bits_to_hex(bits)
        assert len(text) == -(-bits.size // 4)
        assert np.array_equal(hex_to_bits(text, bits.size), bits)

    @given(rate=st.integers(0, 3), length=st.integers(0, 15), pid=st.integers(0, 1))
    def test_header_roundtrip(self, rate, length, pid):
        header = PacketHeader(rate_code=rate, length_code=length, packet_id=pid)
        assert header_decode(header_encode(header)) == header


class TestFeedbackChannel:
    def test_lossless_identity(self):
        msg = FeedbackMsg(kind="request_rate", rate=Fraction(1, 4))
        out = feedback_channel(msg, 0.0, rng_seed=1)
        assert out.delivered and out.rate == Fraction(1, 4)

    def test_loss_rate_within_wilson_interval(self):
        loss_prob = 0.9
        rng = np.random.default_rng(31)
        lost = sum(
            not feedback_channel(FeedbackMsg(kind="ack"), loss_prob, rng).delivered
            for _ in range(10_000)
        )
        lo, hi = wilson_interval(lost, 10_000)
        assert lo <= loss_prob <= hi

    def test_rejects_bad_loss_prob(self):
        with pytest.raises(ValueError):
            feedback_channel(FeedbackMsg(kind="ack"), 1.0, rng_seed=1)


class TestWireFormat:
    def test_bits_hex_roundtrip(self):
        rng = np.random.default_rng(32)
        for n in (7, 8, 13, 96):
            bits = rng.integers(0, 2, n).astype(np.uint8)
            assert np.array_equal(hex_to_bits(bits_to_hex(bits), n), bits)

    def test_msb_first_packing(self):
        assert bits_to_hex([1, 0, 0, 1]) == "9"
        assert bits_to_hex([1, 0, 0, 0, 1]) == "88"

    def test_hex_matches_per_nibble_spelling(self):
        # an independent spelling: each group of four bits, zero-padded on
        # the right, read as one binary digit string
        rng = np.random.default_rng(34)
        for n in range(71):
            for bits in (rng.integers(0, 2, n).astype(np.uint8), np.ones(n, dtype=np.uint8)):
                text = "".join(str(int(b)) for b in bits)
                nibbles = [text[i:i + 4].ljust(4, "0") for i in range(0, n, 4)]
                expected = "".join("0123456789abcdef"[int(nib, 2)] for nib in nibbles)
                assert bits_to_hex(bits) == expected
                assert np.array_equal(hex_to_bits(expected, n), bits)

    def test_frame_roundtrip(self):
        plan = plan_session(96)
        rng = np.random.default_rng(33)
        info = rng.integers(0, 2, 96).astype(np.uint8)
        cw = encode_systematic(info, plan.spec)
        for frame in (tag_stage1(cw, plan), tag_stage2(cw, plan, Fraction(1, 2))):
            back = frame_from_wire(frame_to_wire(frame))
            assert back.header == frame.header
            assert np.array_equal(back.payload_positions, frame.payload_positions)
            assert np.array_equal(back.payload_bits, frame.payload_bits)
            assert back.crc == frame.crc

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            frame_from_wire("deadbeef")

    @pytest.mark.parametrize("line", [
        "00 1_0,\u0661\u0662 0 abcd",  # underscore, Arabic-Indic digits
        "00 +1,02 0 abcd",              # sign, leading zero
        "00 1,2 0 ABCD",                # uppercase
        "00 1,2 0 ab",                  # short CRC
        "00 1,2 0 0x12",
        "00 1,2 00 abcd",               # payload wider than its bits
        "0 1,2 0 abcd",                 # short header
        "00  1,2 0 abcd",               # doubled separator
        "00 1,2 0 abcd\n",
        "00 1,2 0 12345",
    ])
    def test_noncanonical_spellings_rejected(self, line):
        assert frame_from_wire("00 1,2 0 abcd").crc == 0xABCD
        with pytest.raises(ValueError):
            frame_from_wire(line)

    @pytest.mark.parametrize("line", [None, 5, b"00 1,2 0 abcd", ["00", "1,2", "0", "abcd"]],
                             ids=["none", "int", "bytes", "list"])
    def test_line_that_is_not_a_str_rejected(self, line):
        # at the boundary, naming the type, not as an AttributeError from
        # the split
        with pytest.raises(ValueError, match="frame line must be a str"):
            frame_from_wire(line)

    @pytest.mark.parametrize("llrs", [[{"a": 1}, 0.0], ["x", "y"], [[1.0, 2.0], [3.0]]],
                             ids=["dict", "text", "ragged"])
    def test_gateway_rejects_llrs_that_are_not_numbers(self, llrs):
        plan = plan_session(8)
        gw = GatewaySession(plan)
        frame = tag_stage1(np.zeros(plan.n_mother, dtype=np.uint8), plan)
        frame = dataclasses.replace(frame, payload_positions=frame.payload_positions[:2],
                                    payload_bits=frame.payload_bits[:2])
        with pytest.raises(ValueError, match="llrs must"):
            gateway_on_frames([frame], [llrs], [gw])
        assert session_state(gw) == session_state(GatewaySession(plan))

    def test_hex_rejects_nonascii_digits(self):
        with pytest.raises(ValueError):
            hex_to_bits("\u0661\u0662", 8)
        with pytest.raises(ValueError):
            hex_to_bits("A", 4)


class TestFrameInvariants:
    def test_crc_presence_tied_to_packet_id(self):
        header0 = PacketHeader(rate_code=0, length_code=0, packet_id=0)
        header1 = PacketHeader(rate_code=0, length_code=0, packet_id=1)
        pos = np.array([0, 1])
        bits = np.array([0, 1], dtype=np.uint8)
        Frame(header=header0, payload_positions=pos, payload_bits=bits, crc=0x1234)
        Frame(header=header1, payload_positions=pos, payload_bits=bits, crc=None)
        with pytest.raises(ValueError):
            Frame(header=header0, payload_positions=pos, payload_bits=bits, crc=None)
        with pytest.raises(ValueError):
            Frame(header=header1, payload_positions=pos, payload_bits=bits, crc=0x1234)
