"""Two-stage FBER-driven incremental-redundancy protocol over a punctured mother code.

A session encodes K info bits once into a mother polar code whose length is
the smallest power of two at least 8K (deep enough for rate 1/8).  Stage 1
transmits the K info positions plus enough reliability-ordered parity to
realize rate 3/4.  If the gateway's decode fails its CRC, it maps the frozen
bit error ratio to one of four deeper rates and feeds that back; stage 2 then
transmits exactly the additional parity positions the requested rate needs.
Because both stages draw from one codeword, the gateway combines per-position
LLRs across frames and decodes the mother code with zeros at the positions it
never received.  A fixed-rate baseline is a one-frame session: a first frame
at its own rate, decoded by the same gateway.  This module is the only place
that turns frames into a decode.

Headers and the CRC ride the excitation link and are modeled error-free; the
feedback path is a logical channel with a configurable loss probability.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .construction import CodeSpec, design_code
from .decoding import BpConfig, DecodeResult, bp_decode_many, combine_llrs

__all__ = [
    "RATE_TABLE",
    "STAGE1_RATE",
    "TIMEOUT_FALLBACK_RATE",
    "PacketHeader",
    "Frame",
    "FeedbackMsg",
    "SessionPlan",
    "GatewaySession",
    "header_encode",
    "header_decode",
    "crc16",
    "estimate_rate",
    "plan_session",
    "tag_stage1",
    "tag_stage2",
    "gateway_on_frames",
    "feedback_channel",
    "frame_to_wire",
    "frame_from_wire",
    "bits_to_hex",
    "hex_to_bits",
]

# Stage-2 code rates, mildest first; the 2-bit header rate field indexes this.
RATE_TABLE = (Fraction(2, 3), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
# FBER interval lower edges paired with RATE_TABLE entries; below the first
# edge the mildest rate applies.
_FBER_EDGES = (0.1, 0.3, 0.5, 0.7)

STAGE1_RATE = Fraction(3, 4)
# Rate used when the tag times out waiting for feedback and cannot know what
# the gateway asked for.
TIMEOUT_FALLBACK_RATE = Fraction(2, 3)

CRC_POLY = 0x1021  # x^16 + x^12 + x^5 + 1
CRC_INIT = 0xFFFF


@dataclass(frozen=True)
class PacketHeader:
    """7-bit header: rate(2) | length(4) | id(1), most significant first.

    rate_code indexes RATE_TABLE and is meaningful on second frames
    (packet_id 1); first frames carry 0 there.  length_code is the payload
    length in bytes minus one, modulo 16.
    """

    rate_code: int
    length_code: int
    packet_id: int

    def __post_init__(self):
        if not 0 <= self.rate_code < 4:
            raise ValueError("rate_code must fit 2 bits")
        if not 0 <= self.length_code < 16:
            raise ValueError("length_code must fit 4 bits")
        if self.packet_id not in (0, 1):
            raise ValueError("packet_id must be 0 or 1")


@dataclass(frozen=True)
class Frame:
    """On-air frame: header, carried mother-code positions, their bits,
    and (on first frames only) a 16-bit CRC of the info block."""

    header: PacketHeader
    payload_positions: np.ndarray
    payload_bits: np.ndarray
    crc: Optional[int] = None

    def __post_init__(self):
        if len(self.payload_positions) != len(self.payload_bits):
            raise ValueError("payload length must match position count")
        has_crc = self.crc is not None
        if has_crc != (self.header.packet_id == 0):
            raise ValueError("CRC must be present exactly on first frames")


@dataclass(frozen=True)
class FeedbackMsg:
    """Gateway-to-tag message: an ACK or a rate request, with modeled delivery."""

    kind: str  # "ack" | "request_rate"
    rate: Optional[Fraction] = None
    delivered: bool = True

    def __post_init__(self):
        if self.kind not in ("ack", "request_rate"):
            raise ValueError(f"unknown feedback kind {self.kind!r}")
        if (self.kind == "request_rate") != (self.rate is not None):
            raise ValueError("request_rate carries a rate; ack does not")


def header_encode(h: PacketHeader) -> np.ndarray:
    """Pack a header into 7 bits, most significant field bit first."""
    v = (h.rate_code << 5) | (h.length_code << 1) | h.packet_id
    return ((v >> np.arange(6, -1, -1)) & 1).astype(np.uint8)


def header_decode(bits) -> PacketHeader:
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (7,):
        raise ValueError(f"header must be 7 bits, got shape {bits.shape}")
    v = int(np.packbits(bits)[0]) >> 1
    return PacketHeader(rate_code=(v >> 5) & 3, length_code=(v >> 1) & 0xF, packet_id=v & 1)


def _crc16_bit_step(reg: int, bit: int) -> int:
    top = ((reg >> 15) ^ bit) & 1
    reg = (reg << 1) & 0xFFFF
    return reg ^ CRC_POLY if top else reg


def _crc16_byte_table() -> tuple:
    """Register update for one whole byte, indexed by (reg >> 8) ^ byte."""
    table = []
    for v in range(256):
        reg = v << 8
        for _ in range(8):
            reg = _crc16_bit_step(reg, 0)
        table.append(reg)
    return tuple(table)


_CRC16_TABLE = _crc16_byte_table()


def crc16(bits) -> int:
    """CRC-16 over a bit sequence: poly 0x1021, init 0xFFFF, no reflection.

    Each bit is 0 or 1.  Whole bytes go through a 256-entry table; the
    trailing len % 8 bits, if any, go through the bitwise shift-register step.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    whole = bits.size - bits.size % 8
    reg = CRC_INIT
    for byte in np.packbits(bits[:whole]).tolist():
        reg = ((reg << 8) & 0xFFFF) ^ _CRC16_TABLE[(reg >> 8) ^ byte]
    for b in bits[whole:].tolist():
        reg = _crc16_bit_step(reg, b)
    return reg


def estimate_rate(fber: float) -> Fraction:
    """Map a frozen bit error ratio to the stage-2 code rate.

    Intervals [0.1,0.3) -> 2/3, [0.3,0.5) -> 1/2, [0.5,0.7) -> 1/4,
    [0.7,1.0] -> 1/8; below 0.1 the mildest redundancy step (2/3) applies.
    """
    if not 0.0 <= fber <= 1.0:
        raise ValueError(f"fber must be in [0, 1], got {fber}")
    choice = RATE_TABLE[0]
    for edge, rate in zip(_FBER_EDGES, RATE_TABLE):
        if fber >= edge:
            choice = rate
    return choice


def _budget(k: int, rate: Fraction) -> int:
    # round half up keeps budgets deterministic for odd K
    num = Fraction(k, 1) / rate
    return int(num) if num.denominator == 1 else int(num + Fraction(1, 2))


@dataclass(frozen=True)
class SessionPlan:
    """Budgets and position schedule for one session's mother code."""

    k: int
    spec: CodeSpec = field(repr=False)

    @property
    def n_mother(self) -> int:
        return self.spec.n

    @property
    def stage1_budget(self) -> int:
        return _budget(self.k, STAGE1_RATE)

    def cumulative_budget(self, rate: Fraction) -> int:
        """Total coded bits on air once stage 2 at ``rate`` completes."""
        if rate not in RATE_TABLE:
            raise ValueError(f"rate {rate} not in table")
        return _budget(self.k, rate)

    def positions(self, rate: Fraction) -> np.ndarray:
        """Info positions (ascending) then the strongest parity positions,
        enough to realize ``rate``; any rate in (0, 1] the mother code holds."""
        budget = _budget(self.k, rate)
        if not self.k <= budget <= self.n_mother:
            raise ValueError(f"rate {rate} needs {budget} coded bits, outside "
                             f"[K={self.k}, N={self.n_mother}]")
        return np.concatenate([self.spec.info_set, self.spec.parity_schedule[:budget - self.k]])

    def sent_rates(self, rate: Fraction | None = None) -> tuple:
        """Every rate whose positions a session sends: with rate None an
        adaptive session's, the stage-1 rate and each stage-2 one (the
        timeout fallback among them); with a rate, a fixed-rate session's,
        that rate.  positions of any two rates nest, so the positions a
        session's frames send together, one decode row, are those of one of
        these rates."""
        return (STAGE1_RATE, *RATE_TABLE) if rate is None else (rate,)

    def stage2_positions(self, rate: Fraction) -> np.ndarray:
        """Parity positions stage 2 adds beyond stage 1, schedule order."""
        if rate not in RATE_TABLE:
            raise ValueError(f"rate {rate} not in table")
        return self.positions(rate)[self.stage1_budget:]


@lru_cache(maxsize=32, typed=True)  # typed, so 96.0 cannot hit the plan of 96
def plan_session(k: int) -> SessionPlan:
    """Build the session plan for K info bits.

    The mother code length is the smallest power of two holding rate 1/8
    (8K coded bits); the stage-1 budget realizes rate 3/4.  K must be a
    Python int in [8, 512], as SimConfig's k is; anything else raises
    ValueError.
    """
    if type(k) is not int or not 8 <= k <= 512:  # bool and numpy ints are not int
        raise ValueError(f"k must be an int in [8, 512], got {k!r}")
    n_log2 = (8 * k - 1).bit_length()
    spec = design_code(n_log2, k)
    return SessionPlan(k=k, spec=spec)


def _length_code(k: int) -> int:
    return ((k // 8) - 1) % 16


def _session_codeword(codeword, plan: SessionPlan) -> np.ndarray:
    codeword = np.asarray(codeword, dtype=np.uint8)
    if codeword.shape != (plan.n_mother,):
        raise ValueError(f"codeword must have length {plan.n_mother}, got shape {codeword.shape}")
    return codeword


def tag_stage1(codeword, plan: SessionPlan, rate: Fraction = STAGE1_RATE) -> Frame:
    """Send info plus the first scheduled parity, CRC of the info appended.

    ``codeword`` is the session's systematic mother codeword, encoded once
    and shared with stage 2; its info positions carry the info bits the CRC
    covers.  Either encoder gives it: ``encode_transform_pair(info,
    plan.spec)`` (the simulator's) or ``encode_systematic(info, plan.spec)``
    (the streaming, two-K-bit-buffer one), which agree on every plan.  The
    frame carries ``plan.positions(rate)``: stage 1 of an adaptive session
    at the default rate 3/4, or the only frame of a fixed-rate baseline.
    """
    codeword = _session_codeword(codeword, plan)
    positions = plan.positions(rate)
    header = PacketHeader(rate_code=0, length_code=_length_code(plan.k), packet_id=0)
    return Frame(header=header, payload_positions=positions,
                 payload_bits=codeword[positions], crc=crc16(codeword[plan.spec.info_set]))


def tag_stage2(codeword, plan: SessionPlan, requested_rate: Fraction) -> Frame:
    """Send only the extra parity the requested rate needs; no CRC.

    ``codeword`` is the same session codeword stage 1 sliced.
    """
    codeword = _session_codeword(codeword, plan)
    positions = plan.stage2_positions(requested_rate)
    header = PacketHeader(rate_code=RATE_TABLE.index(requested_rate),
                          length_code=_length_code(plan.k), packet_id=1)
    return Frame(header=header, payload_positions=positions,
                 payload_bits=codeword[positions], crc=None)


class GatewaySession:
    """Gateway-side decode state across the frames of one session.

    ahead holds a decode gateway_on_frames ran early, or None: the second
    frame and LLRs it was told the tag would send after this session's
    first frame, and the combined LLRs and DecodeResult they give.  It
    serves only that frame arriving next with equal LLRs."""

    def __init__(self, plan: SessionPlan):
        self.plan = plan
        self.combined = np.zeros(plan.n_mother)
        self.seen_ids = set()
        self.expected_crc: Optional[int] = None
        self.decisions = []
        self.last_fber = 0.0
        self.last_info: Optional[np.ndarray] = None
        self.succeeded = False
        self.ahead = None


def _checked_frame(frame: Frame, llrs, plan: SessionPlan):
    """The frame's positions and LLRs as arrays; ValueError if either is
    malformed for a session of the plan."""
    positions = np.asarray(frame.payload_positions)
    try:
        llrs = np.asarray(llrs, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("llrs must be numbers") from None
    if positions.ndim != 1 or positions.dtype.kind not in "iu":
        raise ValueError("payload positions must be a 1-D integer array")
    if llrs.shape != positions.shape:
        raise ValueError("llrs must align with frame positions")
    if not np.all(np.isfinite(llrs)):
        raise ValueError("llrs must be finite")
    n_mother = plan.n_mother
    if positions.size and not (positions.min() >= 0 and positions.max() < n_mother):
        raise ValueError(f"payload positions must lie in [0, {n_mother})")
    # a mask, not np.unique, which imports numpy.ma on its first call
    seen = np.zeros(n_mother, dtype=bool)
    seen[positions] = True
    if np.count_nonzero(seen) != positions.size:
        raise ValueError("payload positions must not repeat")
    if frame.header.length_code != _length_code(plan.k):
        raise ValueError(f"header length_code {frame.header.length_code} does not match "
                         f"the K={plan.k} plan's {_length_code(plan.k)}")
    return positions, llrs


def _combined(before, positions, llrs):
    """The LLRs before with a frame's LLRs added at its positions."""
    full = np.zeros(before.size)
    full[positions] = llrs
    return combine_llrs([before, full])  # bp_decode_many refuses inf


@dataclass(frozen=True)
class _Ahead:
    """A second frame decoded before it arrived (GatewaySession.ahead)."""

    frame: Frame
    llrs: bytes
    combined: np.ndarray
    result: DecodeResult

    def serves(self, frame: Frame, positions, llrs) -> bool:
        return (frame.header == self.frame.header and llrs.tobytes() == self.llrs
                and np.array_equal(positions, self.frame.payload_positions))


def _crc_check(crc):
    return lambda bits: crc16(bits) == crc


# The gateway's decode settings: its first iteration, then the whole budget.
_FIRST_ITERATION, _WHOLE = BpConfig(max_iters=1), BpConfig()


def gateway_on_frames(frames, llrs, sessions, then=None) -> list:
    """Fold one received frame into each session and decide what each does next.

    ``frames[i]`` goes to ``sessions[i]`` with ``llrs[i]``, its demodulated
    per-position LLRs aligned with frames[i].payload_positions, and the i-th
    decision record is returned: one of {"ack"} | {"request_rate", rate} |
    {"fail"}, or {"duplicate_ignored"} for a frame whose packet id the session
    has seen (the combine stays idempotent per position set).  A session may
    appear once per call, and a row's decision does not depend on the rows
    beside it.  The sessions whose frame needs a decode (not a duplicate, not
    already acknowledged) must share one code.

    They decode in lockstep along one path: one batch runs every row's first
    iteration, which fixes each row's FBER and ends the decode of each row
    whose CRC passes there; one more decodes the rows left, from the start.
    ``then``, if given, looks one frame ahead: for each first frame still
    running, then(i, rate) returns the second frame and LLRs that session's
    tag would send if the decode failed and requested ``rate``,
    estimate_rate of its FBER, or None.  Each such frame's LLRs are
    combined onto that session's after frame i and decoded in the same
    batch, waiting for frame i's CRC, and the result is kept on the session
    (GatewaySession.ahead).  It decides that frame if it arrives next with
    equal LLRs at a session that has not succeeded, and is dropped at the
    session's next frame otherwise, so decisions and session state equal
    those of calls without ``then``.

    Frames must arrive in id order: a second frame before a first is an
    error.  Every frame, those of ``then`` too, is checked, and every
    decode run, before any session changes, so malformed input (positions
    outside [0, n_mother) or repeated, LLRs that are misaligned or not
    finite, a header length other than the plan's, a combine that
    overflows) or sessions of two codes raise ValueError and leave every
    session as it was.
    """
    frames, llrs, sessions = list(frames), list(llrs), list(sessions)
    if not len(frames) == len(llrs) == len(sessions):
        raise ValueError("need one frame, one LLR array and one session per entry")
    if len({id(s) for s in sessions}) != len(sessions):
        raise ValueError("a session may receive one frame per call")
    checked = [_checked_frame(f, l, s.plan) for f, l, s in zip(frames, llrs, sessions)]
    for frame, session in zip(frames, sessions):
        if frame.header.packet_id == 1 and 0 not in session.seen_ids:
            raise ValueError("second frame received before first")

    decisions = [None] * len(frames)
    fresh, rows = [], []  # entries with a new packet id; those of them to decide
    combined, crcs, results = [], [], {}  # each row's LLRs, the CRC it waits for, its decode
    for i, (frame, (positions, frame_llrs), session) in enumerate(zip(frames, checked, sessions)):
        pid = frame.header.packet_id
        if pid in session.seen_ids:
            decisions[i] = {"action": "duplicate_ignored", "packet_id": pid}
            continue
        fresh.append(i)
        if session.succeeded:
            # already decoded and acknowledged; the extra frame (a lost-ACK
            # retransmission) changes nothing
            decisions[i] = {"action": "ack", "packet_id": pid, "fber": session.last_fber}
            continue
        rows.append(i)
        crcs.append(frame.crc if pid == 0 else session.expected_crc)
        if session.ahead is not None and session.ahead.serves(frame, positions, frame_llrs):
            combined.append(session.ahead.combined)
            results[i] = session.ahead.result
        else:
            combined.append(_combined(session.combined, positions, frame_llrs))
    ahead = _decode(rows, combined, crcs, results, frames, sessions, then) if rows else []

    # every check has passed: only now do the sessions change
    for i in fresh:
        sessions[i].seen_ids.add(frames[i].header.packet_id)
    for session in sessions:
        session.ahead = None
    for i, session_llrs, crc in zip(rows, combined, crcs):
        sessions[i].combined = session_llrs
        sessions[i].expected_crc = crc
        decisions[i] = _decide(sessions[i], frames[i].header.packet_id, results[i])
    for i, kept in ahead:
        sessions[i].ahead = kept
    for session, decision in zip(sessions, decisions):
        session.decisions.append(decision)
    return decisions


def _decode(rows, combined, crcs, results, frames, sessions, then) -> list:
    """Decode each entry of rows that results lacks, into results, and the
    follow-ups then gives (gateway_on_frames); returns (entry, _Ahead) per
    follow-up."""
    spec = sessions[rows[0]].plan.spec
    for i in rows[1:]:
        other = sessions[i].plan.spec
        if other is not spec and (other.n != spec.n
                                  or not np.array_equal(other.frozen_set, spec.frozen_set)):
            raise ValueError("the sessions decoded in one call must share one code")
    # frozen consistency alone fires too early on a heavily punctured graph,
    # before the info positions settle, so each decode also waits for its
    # session's CRC
    todo = [n for n, i in enumerate(rows) if i not in results]
    if not todo:
        return []
    first = bp_decode_many([combined[n] for n in todo], spec, _FIRST_ITERATION,
                           [_crc_check(crcs[n]) for n in todo])
    running, follow_ups = [], []  # row numbers left; (entry, frame, llrs, combined, crc)
    for n, result in zip(todo, first):
        i = rows[n]
        if result.converged:
            results[i] = result
            continue
        running.append(n)
        follow = None
        if then is not None and frames[i].header.packet_id == 0:
            follow = then(i, estimate_rate(result.fber))
        if follow is not None:
            frame, frame_llrs = follow
            positions, frame_llrs = _checked_frame(frame, frame_llrs, sessions[i].plan)
            if frame.header.packet_id != 1:
                raise ValueError("then must give a second frame")
            follow_ups.append((i, frame, frame_llrs,
                               _combined(combined[n], positions, frame_llrs), crcs[n]))
    if not running:
        return []
    queued = [(combined[n], crcs[n]) for n in running] + [f[3:] for f in follow_ups]
    rest = bp_decode_many([row for row, _ in queued], spec, _WHOLE,
                          [_crc_check(crc) for _, crc in queued])
    for n, result in zip(running, rest):
        results[rows[n]] = result
    return [(i, _Ahead(frame, frame_llrs.tobytes(), both, result))
            for (i, frame, frame_llrs, both, _), result in zip(follow_ups, rest[len(running):])]


def _decide(session: GatewaySession, pid: int, result) -> dict:
    session.last_fber = result.fber
    session.last_info = result.info_bits
    # a decode that stopped on the CRC has already passed it
    if result.stop_reason == "crc" or crc16(result.info_bits) == session.expected_crc:
        session.succeeded = True
        return {"action": "ack", "packet_id": pid, "fber": result.fber}
    if pid == 0:
        return {"action": "request_rate", "packet_id": pid, "fber": result.fber,
                "rate": str(estimate_rate(result.fber))}
    return {"action": "fail", "packet_id": pid, "fber": result.fber}


def feedback_channel(msg: FeedbackMsg, loss_prob: float, rng_seed) -> FeedbackMsg:
    """Pass a feedback message through a Bernoulli loss channel."""
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError(f"loss_prob must be in [0, 1), got {loss_prob}")
    rng = np.random.default_rng(rng_seed)
    lost = bool(rng.random() < loss_prob)
    return FeedbackMsg(kind=msg.kind, rate=msg.rate, delivered=not lost)


# ---------------------------------------------------------------------------
# wire format: header hex | comma-separated positions | payload hex | crc hex,
# single-space separated; each frame has exactly one spelling
# ---------------------------------------------------------------------------

# comma-separated unsigned ASCII decimals without leading zeros
_DECIMAL = r"(?:0|[1-9][0-9]{0,18})"
_POSITIONS = re.compile(rf"{_DECIMAL}(?:,{_DECIMAL})*")
_LOWER_HEX = re.compile(r"[0-9a-f]*")


def _hex_field(s: str, nbits: int) -> str:
    """Check that ``s`` is exactly ceil(nbits/4) lowercase ASCII hex digits."""
    width = -(-nbits // 4)
    if len(s) != width or not _LOWER_HEX.fullmatch(s):
        raise ValueError(f"expected {width} lowercase hex digits for {nbits} bits, got {s!r}")
    return s


def bits_to_hex(bits) -> str:
    """Pack bits into hex: first bit is the most significant bit of the
    first nibble; trailing pad bits are zero."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes().hex()[:-(-bits.size // 4)]


def hex_to_bits(s: str, nbits: int) -> np.ndarray:
    """Unpack nbits bits from their bits_to_hex spelling, the only one accepted."""
    _hex_field(s, nbits)
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(s + "0" * (len(s) % 2)), dtype=np.uint8))
    if np.any(bits[nbits:]):
        raise ValueError("nonzero pad bits")
    return bits[:nbits]


def frame_to_wire(frame: Frame) -> str:
    parts = [
        bits_to_hex(header_encode(frame.header)),
        ",".join(map(str, np.asarray(frame.payload_positions).tolist())),
        bits_to_hex(frame.payload_bits),
    ]
    if frame.crc is not None:
        parts.append(f"{frame.crc:04x}")
    return " ".join(parts)


def frame_from_wire(line: str) -> Frame:
    """Parse a frame_to_wire line; any other spelling, or a line that is not
    a str, raises ValueError."""
    if not isinstance(line, str):
        raise ValueError(f"frame line must be a str, got {type(line).__name__}")
    parts = line.split(" ")
    if len(parts) not in (3, 4):
        raise ValueError(f"malformed frame line: {line!r}")
    header = header_decode(hex_to_bits(parts[0], 7))
    if not _POSITIONS.fullmatch(parts[1]):
        raise ValueError(f"payload positions must be unsigned decimals: {line!r}")
    values = list(map(int, parts[1].split(",")))
    if max(values) >= 2**63:
        raise ValueError(f"payload position out of int64 range: {line!r}")
    positions = np.array(values, dtype=np.int64)
    bits = hex_to_bits(parts[2], len(positions))
    crc = int(_hex_field(parts[3], 16), 16) if len(parts) == 4 else None
    return Frame(header=header, payload_positions=positions, payload_bits=bits, crc=crc)
