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
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from .decoding import prepare_decoder
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
        for name in ("snr_db", "schemes"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Sequence) or not value:
                raise ValueError(f"{name} must be a non-empty sequence, got {value!r}")
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
    """Split a scheme string into ("sozu"|"hamming74"|"fixed", rate or None)."""
    if s in ("sozu", "hamming74"):
        return s, None
    if s.startswith("fixed:"):
        rate = Fraction(s.split(":", 1)[1])
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
    frames.  Within a wave they are stably sorted by payload length and cut
    into groups of _GROUP_ELEMENTS // N, one gateway call and so one decode
    batch each; the positions of any two rates nest, so a group's zeros are
    those of its densest row.  Each lane draws from its own generators
    only, in the order a lone session does, and a row's decode does not
    depend on the rows beside it, so no lane's outcome depends on the lanes
    beside it.
    """
    plan = plan_session(cfg.k)
    group = _group_rows(plan)
    noises = {snr_db: cfg.noise(snr_db) for snr_db, _, _, _ in lanes}
    infos = [rngs[0].integers(0, 2, size=cfg.k).astype(np.uint8) for _, _, rngs, _ in lanes]
    codewords = [encode_transform_pair(info, plan.spec) for info in infos]  # both stages slice it
    gws = [GatewaySession(plan) for _ in lanes]

    def send(idx, frames):
        llrs = []
        for i, frame in zip(idx, frames):
            snr_db, _, (_, channel_rng, _), record = lanes[i]
            llrs.append(_transmit(frame.payload_bits, cfg, noises[snr_db], channel_rng))
            if record is not None:
                record.frames.append(frame_to_wire(frame))
                record.frame_llrs.append(llrs[-1].tolist())
        order = sorted(range(len(frames)), key=lambda j: len(frames[j].payload_positions))
        for lo in range(0, len(order), group):
            part = order[lo:lo + group]
            gateway_on_frames([frames[j] for j in part], [llrs[j] for j in part],
                              [gws[idx[j]] for j in part])

    first = [tag_stage1(codeword, plan, STAGE1_RATE if rate is None else rate)
             for codeword, (_, rate, _, _) in zip(codewords, lanes)]
    send(range(len(lanes)), first)
    aux = [{"bits_sent": len(frame.payload_positions), "frames_used": 1,
            "fber_first": gw.decisions[0]["fber"], "requested_rate": "", "info": info}
           for frame, gw, info in zip(first, gws, infos)]

    second_idx, second = [], []
    for i, (_, rate, (_, _, feedback_rng), record) in enumerate(lanes):
        if rate is not None:
            continue  # a fixed-rate session has no feedback
        d1 = gws[i].decisions[0]
        if d1["action"] == "ack":
            msg = FeedbackMsg(kind="ack")
        else:
            msg = FeedbackMsg(kind="request_rate", rate=Fraction(d1["rate"]))
        fb = feedback_channel(msg, cfg.fb_loss, feedback_rng)
        requested = "" if msg.rate is None else str(msg.rate)
        aux[i]["requested_rate"] = requested
        if record is not None:
            entry = {"kind": fb.kind, "delivered": fb.delivered}
            if msg.rate is not None:
                entry["rate"] = requested
            record.feedback.append(entry)
        # after a timeout the tag cannot tell a lost ACK from a lost request,
        # so it sends the fallback stage 2 (wasted if the ACK was what got lost)
        stage2_rate = fb.rate if fb.delivered else TIMEOUT_FALLBACK_RATE
        if stage2_rate is not None:
            second_idx.append(i)
            second.append(tag_stage2(codewords[i], plan, stage2_rate))
    send(second_idx, second)
    for i, frame in zip(second_idx, second):
        aux[i]["bits_sent"] += len(frame.payload_positions)
        aux[i]["frames_used"] = 2

    for (_, _, _, record), gw, a in zip(lanes, gws, aux):
        if record is not None:
            record.decisions = list(gw.decisions)
            record.fber_first = a["fber_first"]
            record.requested_rate = a["requested_rate"]
            record.outcome = "success" if gw.succeeded else "fail"
            record.bits_sent = a["bits_sent"]
            record.info_hex = bits_to_hex(a["info"])
    return [(gw.succeeded, gw.last_info, a) for gw, a in zip(gws, aux)]


def run_session(cfg: SimConfig, snr_db: float, rngs, *, record: SessionRecord = None):
    """Run one two-stage adaptive session; returns (success, decoded, aux dict).

    The tag retransmits parity after a feedback timeout at the fallback rate,
    since it cannot know whether an ACK or a rate request was lost; the
    session is scored by the gateway's final decode outcome.  It is the
    one-lane call of the lockstep sessions every sweep task runs.
    """
    return _lockstep_sessions(cfg, [(snr_db, None, rngs, record)])[0]


def replay_session(record_dict: dict, k: int) -> list:
    """Re-run the gateway over a recorded trace; returns its decision list.

    Raises ValueError when the record's K or mother-code length does not
    match the plan for ``k``, when it holds a different number of frames
    and LLR lists, or when a recorded frame is malformed.
    """
    plan = plan_session(k)
    if record_dict["k"] != k:
        raise ValueError(f"record k {record_dict['k']!r} does not match k={k}")
    if record_dict["n_mother"] != plan.n_mother:
        raise ValueError(f"record n_mother {record_dict['n_mother']} does not match "
                         f"the K={k} plan's {plan.n_mother}")
    frames, frame_llrs = record_dict["frames"], record_dict["frame_llrs"]
    if len(frames) != len(frame_llrs):
        raise ValueError(f"record has {len(frames)} frames but {len(frame_llrs)} LLR lists")
    gw = GatewaySession(plan)
    for wire, llrs in zip(frames, frame_llrs):
        gateway_on_frames([frame_from_wire(wire)], [llrs], [gw])
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


# Rows x N of one lockstep group.  The group's message layers, (n_log2 + 1)
# x 2 x 8 bytes per element (1.4 MB at N = 1024), then stay within a core's
# L2 cache, where a decode's cost per row is lowest.
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


def _prepare_workers(cfg: SimConfig) -> None:
    """Build here what each pool worker's first trial would build for itself.

    Forked workers start with a copy of this process, so they then begin
    warm: numpy.random, which numpy imports on first use, is loaded, and so
    is the decoder's gather plan of each position set the sweep's sessions
    send (SessionPlan.sent_rates).  Those sets nest, so the rows of any
    decode group, of one scheme and point or of several, send together
    one of them, also after rows drop.
    """
    np.random  # noqa: B018 (the attribute access imports it)
    sessions = [rate for kind, rate in map(parse_scheme, cfg.schemes) if kind != "hamming74"]
    if sessions:
        plan = plan_session(cfg.k)
        for rate in set().union(*map(plan.sent_rates, sessions)):
            prepare_decoder(plan.spec, plan.positions(rate))


def run_sweep(cfg: SimConfig):
    """Run all (scheme, snr, trial) combinations; returns (metrics, trials).

    A task is one chunk of trials over every (scheme, point), of
    min(_GROUP_ELEMENTS // N, ceil(trials / workers)) trials, so its first
    frames fill whole decode groups and the workers get even shares.  Tasks
    may execute in parallel processes; outputs are ordered by (scheme,
    point, trial) regardless of worker count.  With several workers, when
    the pool's processes fork (multiprocessing's default start method on
    Linux before Python 3.14), _prepare_workers runs first, so no worker
    builds a decoder plan or imports a module in its first trial.
    """
    pairs = [(scheme, p) for scheme in cfg.schemes for p in range(len(cfg.snr_db))]
    size = -(-cfg.trials // cfg.workers)
    if any(parse_scheme(s)[0] != "hamming74" for s in cfg.schemes):
        size = min(size, _group_rows(plan_session(cfg.k)))
    chunks = [range(lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]
    if cfg.workers > 1:
        # imported here, off the import path of every 1-worker caller
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the context the pool would take, taken here to ask how it starts
        context = multiprocessing.get_context()
        if context.get_start_method() == "fork":
            _prepare_workers(cfg)
        with ProcessPoolExecutor(max_workers=cfg.workers, mp_context=context) as pool:
            per_task = list(pool.map(_run_task, [cfg] * len(chunks), [pairs] * len(chunks),
                                     chunks))
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
