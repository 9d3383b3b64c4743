"""Monte-Carlo harness: sessions through the bin-level channel, metrics, baselines.

SNR convention used everywhere here: snr_db = 10*log10(P / (2*sigma2)), the
per-symbol peak power over the complex noise variance, so P = 2*sigma2 *
10^(snr_db/10).  Sweeps are in SNR; no distance model is applied.

Per-trial randomness derives from (master_seed, point_index, trial_index)
only, so different schemes run on identical channel realizations and results
do not depend on worker count or execution order.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, asdict
from fractions import Fraction
from numbers import Real
from pathlib import Path

import numpy as np

from .encoding import encode_transform_pair
from .phy import LeakageModel, NoiseModel, check_n_fft, llr_basic_many, llr_leakage_many, synthesize_symbols
from .protocol import (
    STAGE1_RATE,
    TIMEOUT_FALLBACK_RATE,
    FeedbackMsg,
    GatewaySession,
    bits_to_hex,
    feedback_channel,
    frame_from_wire,
    frame_to_wire,
    gateway_on_frames,
    plan_session,
    tag_stage1,
    tag_stage2,
)

__all__ = [
    "SimConfig",
    "TrialResult",
    "Metrics",
    "SessionRecord",
    "trial_rngs",
    "wilson_interval",
    "goodput",
    "hamming74_encode",
    "hamming74_decode",
    "run_session",
    "replay_session",
    "run_point",
    "run_sweep",
    "summary_json",
    "write_outputs",
    "SNR_NOTE",
]

SNR_NOTE = "snr_db = 10*log10(P/(2*sigma2)): per-symbol peak power over complex noise variance"


def snr_to_power(snr_db: float, sigma2: float) -> float:
    """The peak power P of snr_db (see SNR_NOTE); ValueError when 10^(snr_db/10)
    is beyond the float range (above about 3083 dB)."""
    try:
        return 2.0 * sigma2 * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db} gives a signal power beyond the float range") from None


@dataclass(frozen=True)
class SimConfig:
    """Sweep configuration; ``schemes`` may hold several entries that share
    per-trial seeds ("sozu", "hamming74", or "fixed:<rate>" like "fixed:1/2")."""

    n_fft: int = 128
    sigma2: float = 1.0
    snr_db: tuple = (-10.0,)
    k: int = 96
    leak: tuple = (0.25, 0.5, 0.25)
    fb_loss: float = 0.0
    trials: int = 100
    master_seed: int = 1
    schemes: tuple = ("sozu",)
    metric: str = "leakage"
    workers: int = 1

    def __post_init__(self):
        for name, lo in (("k", 1), ("trials", 1), ("workers", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < lo:  # bool and numpy ints are not int
                raise ValueError(f"{name} must be an int >= {lo}, got {value!r}")
        for name in ("snr_db", "schemes", "leak"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Sequence) or not value:
                raise ValueError(f"{name} must be a non-empty sequence, got {value!r}")
        for name, value in (("sigma2", self.sigma2), ("fb_loss", self.fb_loss),
                            *(("snr_db", snr_db) for snr_db in self.snr_db)):
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not np.all(np.isfinite(np.asarray(self.snr_db, dtype=np.float64))):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if self.metric not in ("basic", "leakage"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not 0.0 <= self.fb_loss < 1.0:
            raise ValueError(f"fb_loss must be in [0, 1), got {self.fb_loss}")
        check_n_fft(self.n_fft)
        self.leakage()  # LeakageModel and NoiseModel check leak, sigma2 and each power
        for snr_db in self.snr_db:
            self.noise(snr_db)
        for s in self.schemes:
            kind, rate = parse_scheme(s)
            if kind != "hamming74":
                # the session plan rules on K and on each budget, as trials do
                plan_session(self.k).positions(STAGE1_RATE if rate is None else rate)

    def noise(self, snr_db: float) -> NoiseModel:
        return NoiseModel(sigma2=self.sigma2, signal_power=snr_to_power(snr_db, self.sigma2))

    def leakage(self) -> LeakageModel:
        return LeakageModel(tuple(self.leak))


def parse_scheme(s: str):
    """Split a scheme string into ("sozu"|"hamming74"|"fixed", rate or None);
    ValueError, naming the scheme, for anything else."""
    if s in ("sozu", "hamming74"):
        return s, None
    if isinstance(s, str) and s.startswith("fixed:"):
        try:
            rate = Fraction(s.split(":", 1)[1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"fixed rate must be a fraction, got scheme {s!r}") from None
        if not 0 < rate <= 1:
            raise ValueError(f"fixed rate must be in (0, 1], got {rate}")
        return "fixed", rate
    raise ValueError(f"unknown scheme {s!r}")


@dataclass
class TrialResult:
    scheme: str
    snr_db: float
    trial: int
    success: bool
    bits_sent: int
    clean_bits: int
    bit_errors: int
    byte_errors: int
    n_bytes: int
    k: int
    frames_used: int
    fber_first: float
    requested_rate: str

    @property
    def effective_rate(self) -> float:
        return self.k / self.bits_sent

    def to_json(self) -> str:
        d = asdict(self)
        d["effective_rate"] = self.effective_rate
        return json.dumps(d, sort_keys=True)


@dataclass(frozen=True)
class Metrics:
    scheme: str
    snr_db: float
    trials: int
    ber: float
    ber_ci: tuple
    prr: float
    prr_ci: tuple
    brr: float
    brr_ci: tuple
    goodput: float
    mean_effective_rate: float


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def goodput(results) -> float:
    """Delivered info bits per transmitted coded bit: sum(clean)/sum(sent)."""
    results = list(results)
    if not results:
        raise ValueError("need at least one trial result")
    sent = sum(r.bits_sent for r in results)
    clean = sum(r.clean_bits for r in results)
    return clean / sent if sent else 0.0


# ---------------------------------------------------------------------------
# Hamming(7,4) baseline: one error per block correctable, hard decisions
# ---------------------------------------------------------------------------

_H74_P = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
_H74_H = np.hstack([_H74_P.T, np.eye(3, dtype=np.uint8)])
_H74_SYN_TO_POS = np.full(8, -1, dtype=np.int64)
for _j in range(7):
    _H74_SYN_TO_POS[int(_H74_H[0, _j] * 4 + _H74_H[1, _j] * 2 + _H74_H[2, _j])] = _j


def hamming74_encode(bits) -> np.ndarray:
    """Encode 4-bit groups into 7-bit blocks [data | parity]."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 4:
        raise ValueError("length must be a multiple of 4")
    data = bits.reshape(-1, 4)
    parity = (data @ _H74_P) % 2
    return np.hstack([data, parity]).reshape(-1)


def hamming74_decode(llrs_or_bits) -> np.ndarray:
    """Syndrome-decode 7-bit blocks; floats are hard-sliced at 0 first."""
    arr = np.asarray(llrs_or_bits)
    if arr.dtype.kind == "f":
        blocks = (arr < 0).astype(np.uint8)
    else:
        blocks = arr.astype(np.uint8)
    if blocks.size % 7:
        raise ValueError("length must be a multiple of 7")
    blocks = blocks.reshape(-1, 7).copy()
    syn = (blocks @ _H74_H.T) % 2
    syn_int = syn[:, 0] * 4 + syn[:, 1] * 2 + syn[:, 2]
    flip = _H74_SYN_TO_POS[syn_int]
    rows = np.nonzero(flip >= 0)[0]
    blocks[rows, flip[rows]] ^= 1
    return blocks[:, :4].reshape(-1)


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

@dataclass
class SessionRecord:
    """Full trace of one adaptive session, sufficient for byte-exact replay."""

    k: int
    n_mother: int
    stage1_budget: int
    snr_db: float
    frames: list = field(default_factory=list)       # wire strings
    frame_llrs: list = field(default_factory=list)   # one list of floats per frame
    decisions: list = field(default_factory=list)
    fber_first: float = 0.0
    requested_rate: str = ""
    feedback: list = field(default_factory=list)
    outcome: str = ""
    bits_sent: int = 0
    info_hex: str = ""

    def to_json(self, indent=None) -> str:
        # the fields are plain JSON values, so a shallow dict serializes the
        # same as asdict() without its recursive copy of every LLR list
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(d, sort_keys=True, indent=indent)


def trial_rngs(master_seed: int, point: int, trial: int):
    """The (info, channel, feedback) generators of one trial; a sweep uses
    the same three for every scheme at (master_seed, point, trial)."""
    ss = np.random.SeedSequence([int(master_seed), int(point), int(trial)])
    return [np.random.default_rng(c) for c in ss.spawn(3)]  # info, channel, feedback


def _transmit(bits, cfg: SimConfig, noise: NoiseModel, channel_rng) -> np.ndarray:
    """Send coded bits through the bin-level channel, return their LLRs."""
    peaks = channel_rng.integers(0, cfg.n_fft, size=len(bits))
    bins = synthesize_symbols(bits, peaks, noise, cfg.leakage(), cfg.n_fft, channel_rng)
    metric = llr_leakage_many if cfg.metric == "leakage" else llr_basic_many
    return metric(bins, peaks, cfg.sigma2)


def _lockstep_sessions(cfg: SimConfig, lanes) -> list:
    """Run sessions side by side; returns one (success, decoded, aux) per lane.

    Each lane is (snr_db, rate, rngs, record): the SNR of its channel; rate
    None for a two-stage adaptive session, a Fraction for a one-frame
    session at that fixed rate; its (info, channel, feedback) generators;
    and a SessionRecord or None.  The frames go to the gateway in two
    waves, every lane's first frame and then the adaptive lanes' second
    frames.  Each wave is cut, in lane order, into groups of
    _GROUP_ELEMENTS // N frames, one gateway call each.  Each adaptive
    lane takes its one feedback draw once, after the stage-1 transmits and
    before wave 1: whether feedback gets through does not depend on the
    message, and a lone session draws at this same point, so every
    generator, even one passed for all three roles, sees a lone session's
    draws in its order.  The tag's reply to the gateway is stage2 below.
    In wave 1 the gateway looks ahead with it (gateway_on_frames' then):
    for an adaptive lane whose first decode runs past iteration 1, the tag
    transmits the second frame the requested rate leads to, so it decodes
    beside the first, and wave 2 finds it decided.  The records and aux
    dicts are built after wave 2 from the frames the real decisions sent.
    A row's decode does not depend on the rows beside it, so no lane's
    outcome depends on the lanes beside it.
    """
    plan = plan_session(cfg.k)
    group = _group_rows(plan)
    noises = {snr_db: cfg.noise(snr_db) for snr_db, _, _, _ in lanes}
    infos = [rngs[0].integers(0, 2, size=cfg.k).astype(np.uint8) for _, _, rngs, _ in lanes]
    codewords = [encode_transform_pair(info, plan.spec) for info in infos]  # both stages slice it
    gws = [GatewaySession(plan) for _ in lanes]

    def transmit(i, frame):
        snr_db, _, (_, channel_rng, _), _ = lanes[i]
        return _transmit(frame.payload_bits, cfg, noises[snr_db], channel_rng)

    def send(idx, frames, llrs, then=None):
        for lo in range(0, len(frames), group):
            part = idx[lo:lo + group]
            ahead = None if then is None else (lambda j, rate, part=part: then(part[j], rate))
            gateway_on_frames(frames[lo:lo + group], llrs[lo:lo + group],
                              [gws[i] for i in part], ahead)

    first = [tag_stage1(codeword, plan, STAGE1_RATE if rate is None else rate)
             for codeword, (_, rate, _, _) in zip(codewords, lanes)]
    first_llrs = [transmit(i, frame) for i, frame in enumerate(first)]
    # the message is a placeholder: the draw does not depend on it
    delivered = {i: feedback_channel(FeedbackMsg(kind="ack"), cfg.fb_loss, rngs[2]).delivered
                 for i, (_, rate, rngs, _) in enumerate(lanes) if rate is None}
    second = {}  # per adaptive lane: the rate, frame and LLRs of its second frame, sent or foreseen

    def stage2(i, requested):
        """Lane i's second frame and its LLRs once the gateway requests the
        rate ``requested`` (None: an ACK), or None if it sends none;
        transmitted once."""
        if i not in delivered:
            return None  # a fixed-rate session has no feedback
        # after a timeout the tag cannot tell a lost ACK from a lost request,
        # so it sends the fallback stage 2 (wasted if the ACK was what got lost)
        rate = requested if delivered[i] else TIMEOUT_FALLBACK_RATE
        if rate is None:
            return None
        if i not in second:
            frame = tag_stage2(codewords[i], plan, rate)
            second[i] = rate, frame, transmit(i, frame)
        foreseen, frame, llrs = second[i]
        assert foreseen == rate, "the second frame sent is the one the gateway decoded ahead"
        return frame, llrs

    send(range(len(lanes)), first, first_llrs, stage2)
    requested = {i: gws[i].decisions[0].get("rate") for i in delivered}
    replies = {i: stage2(i, None if rate is None else Fraction(rate)) for i, rate in requested.items()}
    sent = [i for i, reply in replies.items() if reply is not None]
    send(sent, [replies[i][0] for i in sent], [replies[i][1] for i in sent])

    out = []
    for i, ((_, _, _, record), gw, info) in enumerate(zip(lanes, gws, infos)):
        reply = replies.get(i)
        frames = [(first[i], first_llrs[i])] + ([] if reply is None else [reply])
        aux = {"bits_sent": sum(len(frame.payload_positions) for frame, _ in frames),
               "frames_used": len(frames), "fber_first": gw.decisions[0]["fber"],
               "requested_rate": requested.get(i) or "", "info": info}
        if record is not None:
            record.frames.extend(frame_to_wire(frame) for frame, _ in frames)
            record.frame_llrs.extend(llrs.tolist() for _, llrs in frames)
            if i in delivered:
                rate = requested[i]
                entry = {"kind": "ack"} if rate is None else {"kind": "request_rate", "rate": rate}
                record.feedback.append({**entry, "delivered": delivered[i]})
            record.decisions = list(gw.decisions)
            record.fber_first = aux["fber_first"]
            record.requested_rate = aux["requested_rate"]
            record.outcome = "success" if gw.succeeded else "fail"
            record.bits_sent = aux["bits_sent"]
            record.info_hex = bits_to_hex(info)
        out.append((gw.succeeded, gw.last_info, aux))
    return out


def run_session(cfg: SimConfig, snr_db: float, rngs, *, record: SessionRecord = None):
    """Run one two-stage adaptive session; returns (success, decoded, aux dict).

    The tag retransmits parity after a feedback timeout at the fallback rate,
    since it cannot know whether an ACK or a rate request was lost; the
    session is scored by the gateway's final decode outcome.  It is the
    one-lane call of the lockstep sessions every sweep task runs: the
    session takes its one feedback draw after the stage-1 transmit, so
    ``rngs`` may hold one Generator three times.
    """
    return _lockstep_sessions(cfg, [(snr_db, None, rngs, record)])[0]


def replay_session(record_dict: dict, k: int) -> list:
    """Re-run the gateway over a recorded trace; returns its decision list.

    Raises ValueError, naming the field or the frame, when the record is not
    a dict, lacks k, n_mother, frames or frame_llrs, has a K or mother-code
    length that does not match the plan for ``k``, holds frames and LLR
    lists that are not lists or differ in number, or holds a frame that is
    malformed.
    """
    if not isinstance(record_dict, dict):
        raise ValueError(f"record must be a dict, got {type(record_dict).__name__}")
    missing = [name for name in ("k", "n_mother", "frames", "frame_llrs") if name not in record_dict]
    if missing:
        raise ValueError(f"record lacks {', '.join(missing)}")
    plan = plan_session(k)
    if record_dict["k"] != k:
        raise ValueError(f"record k {record_dict['k']!r} does not match k={k}")
    if record_dict["n_mother"] != plan.n_mother:
        raise ValueError(f"record n_mother {record_dict['n_mother']!r} does not match "
                         f"the K={k} plan's {plan.n_mother}")
    frames, frame_llrs = record_dict["frames"], record_dict["frame_llrs"]
    for name, value in (("frames", frames), ("frame_llrs", frame_llrs)):
        if not isinstance(value, list):
            raise ValueError(f"record {name} must be a list, got {type(value).__name__}")
    if len(frames) != len(frame_llrs):
        raise ValueError(f"record has {len(frames)} frames but {len(frame_llrs)} LLR lists")
    gw = GatewaySession(plan)
    for n, (wire, llrs) in enumerate(zip(frames, frame_llrs)):
        try:
            gateway_on_frames([frame_from_wire(wire)], [llrs], [gw])
        except ValueError as exc:
            raise ValueError(f"record frame {n}: {exc}") from None
    return gw.decisions


def _bit_and_byte_errors(decoded, info):
    errs = decoded.astype(np.uint8) ^ info.astype(np.uint8)
    bit_errors = int(errs.sum())
    n_bytes = len(info) // 8
    if n_bytes:
        byte_errors = int(np.any(errs[: 8 * n_bytes].reshape(-1, 8), axis=1).sum())
    else:
        byte_errors = 0
    return bit_errors, byte_errors, n_bytes


def _hamming_trial(cfg: SimConfig, snr_db: float, rngs):
    """One Hamming(7,4) packet; returns (info, decoded, bits_sent)."""
    info_rng, channel_rng, _ = rngs
    info = info_rng.integers(0, 2, size=cfg.k).astype(np.uint8)
    # the last block is zero-padded, so every info bit goes on air
    coded = hamming74_encode(np.pad(info, (0, -cfg.k % 4)))
    llrs = _transmit(coded, cfg, cfg.noise(snr_db), channel_rng)
    return info, hamming74_decode(llrs)[:cfg.k], len(coded)


# Rows x N of one lockstep group, the frames of one gateway call.  The
# group's message layers, (n_log2 + 1) x 2 x 8 bytes per element (1.4 MB at
# N = 1024), then stay within a core's L2 cache, where a decode's cost per
# row is lowest; the look-ahead second frames of wave 1 can double a call's
# decode rows.
_GROUP_ELEMENTS = 1 << 13


def _group_rows(plan) -> int:
    """The rows of one lockstep group of the plan's mother code."""
    return max(1, _GROUP_ELEMENTS // plan.n_mother)


def _run_task(cfg: SimConfig, pairs, trials) -> list:
    """The trials ``trials`` of each (scheme, point) of ``pairs``: one list
    of TrialResults per pair, in trial order.

    Every sozu and fixed-rate trial of the task runs as one lane of the same
    lockstep sessions, whatever its scheme and point, so their frames fill
    shared decode groups; Hamming(7,4) trials run one by one.  Trial t at
    point p draws from its own fresh trial_rngs(master_seed, p, t), so the
    channel stream is shared across schemes, identical (cfg, p, t) always
    give the identical result, and a trial's result does not depend on the
    trials run beside it.
    """
    outcomes, lanes, at = [], [], []
    for scheme, point in pairs:
        kind, rate = parse_scheme(scheme)
        snr_db = float(cfg.snr_db[point])
        for t in trials:
            rngs = trial_rngs(cfg.master_seed, point, t)
            if kind == "hamming74":
                info, decoded, bits_sent = _hamming_trial(cfg, snr_db, rngs)
                outcomes.append((None, decoded, {"bits_sent": bits_sent, "frames_used": 1,
                                                 "fber_first": 0.0, "requested_rate": "",
                                                 "info": info}))
            else:
                at.append(len(outcomes))
                outcomes.append(None)
                lanes.append((snr_db, rate, rngs, None))
    if lanes:
        for n, outcome in zip(at, _lockstep_sessions(cfg, lanes)):
            outcomes[n] = outcome

    per_pair = []
    for n, (scheme, point) in enumerate(pairs):
        results = []
        for t, (success, decoded, aux) in zip(trials, outcomes[n * len(trials):]):
            info = aux["info"]
            if scheme != "sozu":
                # judged against the true bits, not the CRC gate
                success = bool(np.array_equal(decoded, info))
            bit_errors, byte_errors, n_bytes = _bit_and_byte_errors(decoded, info)
            results.append(TrialResult(
                scheme=scheme, snr_db=float(cfg.snr_db[point]), trial=t, success=success,
                bits_sent=aux["bits_sent"], clean_bits=cfg.k if success else 0,
                bit_errors=bit_errors, byte_errors=byte_errors, n_bytes=n_bytes,
                k=cfg.k, frames_used=aux["frames_used"], fber_first=aux["fber_first"],
                requested_rate=aux["requested_rate"],
            ))
        per_pair.append(results)
    return per_pair


def run_point(cfg: SimConfig, scheme: str, point: int, trials=None) -> list:
    """The trials of ``scheme`` at sweep point ``point``, in trial order.

    ``trials`` defaults to range(cfg.trials); otherwise it holds distinct
    non-negative ints.  This is the one-(scheme, point) task of run_sweep,
    so run_point(cfg, scheme, point, (t,))[0] equals trial t's row of a
    sweep.  A ``point`` outside [0, len(cfg.snr_db)) or ``trials`` that are
    not distinct non-negative ints (bool and float refused) raise ValueError.
    """
    if type(point) is not int or not 0 <= point < len(cfg.snr_db):  # bool is not int
        raise ValueError(f"point must be an int in [0, {len(cfg.snr_db)}), got {point!r}")
    trials = range(cfg.trials) if trials is None else tuple(trials)
    if not all(type(t) is int and t >= 0 for t in trials):
        raise ValueError(f"trials must be non-negative ints, got {trials!r}")
    if len(set(trials)) != len(trials):
        raise ValueError(f"trials must not repeat, got {trials!r}")
    return _run_task(cfg, [(scheme, point)], trials)[0]


# The pool of run_sweep's workers, kept for the life of the process while
# its key holds: ((pid, workers, start method), executor), or None.
_pool = None


def _close_pool() -> None:
    """Shut the kept pool down, cancelling what it has not started.  A forked
    child only forgets the pool it inherited: that pool is its parent's."""
    global _pool
    kept, _pool = _pool, None
    if kept is not None and kept[0][0] == os.getpid():
        kept[1].shutdown(cancel_futures=True)


def _sweep_pool(cfg: SimConfig):
    """The kept pool of cfg.workers workers; started here, in place of any
    other, when none is kept for this process, worker count and start method."""
    global _pool
    # imported here, off the import path of every 1-worker caller
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.util import Finalize

    context = multiprocessing.get_context()
    key = (os.getpid(), cfg.workers, context.get_start_method())
    if _pool is None or _pool[0] != key:
        _close_pool()
        _pool = key, ProcessPoolExecutor(max_workers=cfg.workers, mp_context=context)
        # multiprocessing runs this at exit: from atexit in a main process,
        # and before it joins its children in a multiprocessing child.  So no
        # worker outlives the process and the pool is gone before modules
        # tear down.  Its queues close at exit priority 10, so this goes first.
        Finalize(None, _close_pool, exitpriority=20)
    return _pool[1]


def run_sweep(cfg: SimConfig):
    """Run all (scheme, snr, trial) combinations; returns (metrics, trials).

    A task is one chunk of trials over every (scheme, point), of
    min(_GROUP_ELEMENTS // N, ceil(trials / workers)) trials, so its first
    frames fill whole decode groups and the workers get even shares.  Tasks
    may execute in parallel processes; outputs are ordered by (scheme,
    point, trial) regardless of worker count.

    With several workers the tasks go to a process pool that is kept for
    the life of the process and reused by every later call with the same
    worker count and start method; another count or method replaces it.
    Workers keep the module state of their start, so a kept worker does
    not see a module attribute changed after it forked.  A worker builds
    each decoder plan on its first decode of that plan's pattern and keeps
    it for the sweeps after.  A call whose tasks raise (a trial, a killed
    worker, an interrupt) shuts the pool down, so the next call starts a
    fresh one; the pool is shut down at exit.
    """
    pairs = [(scheme, p) for scheme in cfg.schemes for p in range(len(cfg.snr_db))]
    size = -(-cfg.trials // cfg.workers)
    if any(parse_scheme(s)[0] != "hamming74" for s in cfg.schemes):
        size = min(size, _group_rows(plan_session(cfg.k)))
    chunks = [range(lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]
    if cfg.workers > 1:
        pool = _sweep_pool(cfg)
        try:
            per_task = list(pool.map(_run_task, [cfg] * len(chunks), [pairs] * len(chunks),
                                     chunks))
        except BaseException:
            _close_pool()
            raise
    else:
        per_task = [_run_task(cfg, pairs, chunk) for chunk in chunks]

    all_trials = []
    metrics = []
    for (scheme, point), parts in zip(pairs, zip(*per_task)):
        results = [r for part in parts for r in part]
        all_trials.extend(results)
        metrics.append(_metrics(scheme, float(cfg.snr_db[point]), results))
    return metrics, all_trials


def _metrics(scheme: str, snr_db: float, results) -> Metrics:
    n = len(results)
    succ = sum(r.success for r in results)
    total_bits = sum(r.k for r in results)
    bit_err = sum(r.bit_errors for r in results)
    total_bytes = sum(r.n_bytes for r in results)
    byte_ok = total_bytes - sum(r.byte_errors for r in results)
    return Metrics(
        scheme=scheme, snr_db=snr_db, trials=n,
        ber=bit_err / total_bits, ber_ci=wilson_interval(bit_err, total_bits),
        prr=succ / n, prr_ci=wilson_interval(succ, n),
        brr=byte_ok / total_bytes if total_bytes else 0.0,
        brr_ci=wilson_interval(byte_ok, total_bytes) if total_bytes else (0.0, 1.0),
        goodput=goodput(results),
        mean_effective_rate=float(np.mean([r.effective_rate for r in results])),
    )


def _fmt(v) -> str:
    return f"{v:.10g}"


def metrics_csv(metrics) -> str:
    lines = [f"# {SNR_NOTE}", "scheme,snr_db,metric,value,ci_low,ci_high"]
    for m in metrics:
        rows = [
            ("ber", m.ber, m.ber_ci),
            ("prr", m.prr, m.prr_ci),
            ("brr", m.brr, m.brr_ci),
            ("goodput", m.goodput, None),
            ("mean_effective_rate", m.mean_effective_rate, None),
        ]
        for name, value, ci in rows:
            lo, hi = ("", "") if ci is None else (_fmt(ci[0]), _fmt(ci[1]))
            lines.append(f"{m.scheme},{_fmt(m.snr_db)},{name},{_fmt(value)},{lo},{hi}")
    return "\n".join(lines) + "\n"


def summary_json(cfg: SimConfig, metrics) -> str:
    """The sweep summary: SNR convention, configuration and per-point metrics."""
    summary = {
        "snr_definition": SNR_NOTE,
        "config": {
            "n_fft": cfg.n_fft, "sigma2": cfg.sigma2, "snr_db": list(cfg.snr_db),
            "k": cfg.k, "leak": list(cfg.leak), "fb_loss": cfg.fb_loss,
            "trials": cfg.trials, "master_seed": cfg.master_seed,
            "schemes": list(cfg.schemes), "metric": cfg.metric,
        },
        "points": [
            {
                "scheme": m.scheme, "snr_db": m.snr_db, "trials": m.trials,
                "ber": m.ber, "prr": m.prr, "brr": m.brr,
                "goodput": m.goodput, "mean_effective_rate": m.mean_effective_rate,
            }
            for m in metrics
        ],
    }
    return json.dumps(summary, sort_keys=True, indent=2)


def write_outputs(cfg: SimConfig, metrics, trials, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(metrics_csv(metrics))
    with open(out / "trials.jsonl", "w") as fh:
        for t in trials:
            fh.write(t.to_json() + "\n")
    (out / "summary.json").write_text(summary_json(cfg, metrics) + "\n")
