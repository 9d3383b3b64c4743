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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from fractions import Fraction
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
    gateway_on_frame,
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
    "run_trial",
    "run_point",
    "run_sweep",
    "summary_json",
    "write_outputs",
    "SNR_NOTE",
]

SNR_NOTE = "snr_db = 10*log10(P/(2*sigma2)): per-symbol peak power over complex noise variance"


def snr_to_power(snr_db: float, sigma2: float) -> float:
    return 2.0 * sigma2 * 10.0 ** (snr_db / 10.0)


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db:
            raise ValueError("snr_db sweep must be non-empty")
        if not np.all(np.isfinite(np.asarray(self.snr_db, dtype=np.float64))):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if self.metric not in ("basic", "leakage"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not 0.0 <= self.fb_loss < 1.0:
            raise ValueError(f"fb_loss must be in [0, 1), got {self.fb_loss}")
        check_n_fft(self.n_fft)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.leakage()  # LeakageModel and NoiseModel check leak and sigma2
        NoiseModel(sigma2=self.sigma2)
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
    """The (info, channel, feedback) generators of one trial; run_trial uses
    the same three for every scheme at (master_seed, point, trial)."""
    ss = np.random.SeedSequence([int(master_seed), int(point), int(trial)])
    return [np.random.default_rng(c) for c in ss.spawn(3)]  # info, channel, feedback


def _transmit(bits, cfg: SimConfig, noise: NoiseModel, channel_rng) -> np.ndarray:
    """Send coded bits through the bin-level channel, return their LLRs."""
    peaks = channel_rng.integers(0, cfg.n_fft, size=len(bits))
    bins = synthesize_symbols(bits, peaks, noise, cfg.leakage(), cfg.n_fft, channel_rng)
    metric = llr_leakage_many if cfg.metric == "leakage" else llr_basic_many
    return metric(bins, peaks, cfg.sigma2)


def _lockstep_sessions(cfg: SimConfig, snr_db: float, rate, lanes, records) -> list:
    """Run sessions side by side; returns one (success, decoded, aux) per lane.

    ``rate`` None runs two-stage adaptive sessions, a Fraction one-frame
    sessions at that fixed rate.  ``lanes`` holds each session's (info,
    channel, feedback) generators and ``records`` a SessionRecord or None
    per lane.  The first frames of every lane go to the gateway in one call,
    so they decode as one batch, and so do the adaptive lanes' second
    frames.  Each lane draws from its own generators only, in the order a
    lone session does, so its outcome does not depend on the lanes beside it.
    """
    noise = cfg.noise(snr_db)
    plan = plan_session(cfg.k)
    infos = [info_rng.integers(0, 2, size=cfg.k).astype(np.uint8) for info_rng, _, _ in lanes]
    codewords = [encode_transform_pair(info, plan.spec) for info in infos]  # both stages slice it
    gws = [GatewaySession(plan) for _ in lanes]

    def send(idx, frames):
        llrs = []
        for i, frame in zip(idx, frames):
            _, channel_rng, _ = lanes[i]
            llrs.append(_transmit(frame.payload_bits, cfg, noise, channel_rng))
            if records[i] is not None:
                records[i].frames.append(frame_to_wire(frame))
                records[i].frame_llrs.append([float(v) for v in llrs[-1]])
        return gateway_on_frames(frames, llrs, [gws[i] for i in idx])

    first = [tag_stage1(codeword, plan, STAGE1_RATE if rate is None else rate)
             for codeword in codewords]
    aux = [{"bits_sent": len(frame.payload_positions), "frames_used": 1,
            "fber_first": decision["fber"], "requested_rate": "", "info": info,
            "decisions": gw.decisions}
           for frame, decision, info, gw in zip(first, send(range(len(lanes)), first), infos, gws)]

    second_idx, second = [], []
    # a fixed-rate session has no feedback
    for i, (_, _, feedback_rng) in enumerate(lanes if rate is None else ()):
        d1 = gws[i].decisions[0]
        if d1["action"] == "ack":
            msg = FeedbackMsg(kind="ack")
        else:
            msg = FeedbackMsg(kind="request_rate", rate=Fraction(d1["rate"]))
        fb = feedback_channel(msg, cfg.fb_loss, feedback_rng)
        requested = "" if msg.rate is None else str(msg.rate)
        aux[i]["requested_rate"] = requested
        if records[i] is not None:
            entry = {"kind": fb.kind, "delivered": fb.delivered}
            if msg.rate is not None:
                entry["rate"] = requested
            records[i].feedback.append(entry)
        # after a timeout the tag cannot tell a lost ACK from a lost request,
        # so it sends the fallback stage 2 (wasted if the ACK was what got lost)
        stage2_rate = fb.rate if fb.delivered else TIMEOUT_FALLBACK_RATE
        if stage2_rate is not None:
            second_idx.append(i)
            second.append(tag_stage2(codewords[i], plan, stage2_rate))
    if second:
        send(second_idx, second)
    for i, frame in zip(second_idx, second):
        aux[i]["bits_sent"] += len(frame.payload_positions)
        aux[i]["frames_used"] = 2

    for record, gw, a in zip(records, gws, aux):
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
    one-lane call of the lockstep sessions run_point runs.
    """
    return _lockstep_sessions(cfg, snr_db, None, [rngs], [record])[0]


def replay_session(record_dict: dict, k: int) -> list:
    """Re-run the gateway over a recorded trace; returns its decision list.

    Raises ValueError when the record's mother-code length does not match
    the plan for ``k``, or when a recorded frame is malformed.
    """
    plan = plan_session(k)
    if record_dict["n_mother"] != plan.n_mother:
        raise ValueError(f"record n_mother {record_dict['n_mother']} does not match "
                         f"the K={k} plan's {plan.n_mother}")
    gw = GatewaySession(plan)
    for wire, llrs in zip(record_dict["frames"], record_dict["frame_llrs"]):
        gateway_on_frame(frame_from_wire(wire), np.asarray(llrs), gw)
    return gw.decisions


def _bit_and_byte_errors(decoded, info):
    if decoded is None:
        decoded = np.zeros_like(info)
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
# L2 cache, where a decode's cost per row is lowest, and a point's memory
# does not grow with its trial count.
_GROUP_ELEMENTS = 1 << 13


def run_point(cfg: SimConfig, scheme: str, point: int, trials=None) -> list:
    """The trials of ``scheme`` at sweep point ``point``, in trial order.

    ``trials`` defaults to range(cfg.trials).  Sozu and fixed-rate trials
    run as lockstep sessions in groups of _GROUP_ELEMENTS // N trials: a
    group's first frames decode as one batch, then its sozu second frames
    as another.  Hamming(7,4) trials run one by one.  Trial t draws from its
    own fresh trial_rngs(master_seed, point, t), so the channel stream is
    shared across schemes and each result equals run_trial's.
    """
    trials = range(cfg.trials) if trials is None else trials
    snr_db = float(cfg.snr_db[point])
    kind, rate = parse_scheme(scheme)
    outcomes = []
    if kind == "hamming74":
        for t in trials:
            info, decoded, bits_sent = _hamming_trial(
                cfg, snr_db, trial_rngs(cfg.master_seed, point, t))
            outcomes.append((None, decoded, {"bits_sent": bits_sent, "frames_used": 1,
                                             "fber_first": 0.0, "requested_rate": "",
                                             "info": info}))
    else:
        group = max(1, _GROUP_ELEMENTS // plan_session(cfg.k).n_mother)
        for lo in range(0, len(trials), group):
            lanes = [trial_rngs(cfg.master_seed, point, t) for t in trials[lo:lo + group]]
            outcomes += _lockstep_sessions(cfg, snr_db, rate, lanes, [None] * len(lanes))

    results = []
    for t, (success, decoded, aux) in zip(trials, outcomes):
        info = aux["info"]
        if kind != "sozu":
            # judged against the true bits, not the CRC gate
            success = bool(np.array_equal(decoded, info))
        bit_errors, byte_errors, n_bytes = _bit_and_byte_errors(decoded, info)
        results.append(TrialResult(
            scheme=scheme, snr_db=snr_db, trial=t, success=success,
            bits_sent=aux["bits_sent"], clean_bits=cfg.k if success else 0,
            bit_errors=bit_errors, byte_errors=byte_errors, n_bytes=n_bytes,
            k=cfg.k, frames_used=aux["frames_used"], fber_first=aux["fber_first"],
            requested_rate=aux["requested_rate"],
        ))
    return results


def run_trial(cfg: SimConfig, scheme: str, point: int, trial: int) -> TrialResult:
    """One packet/session of ``scheme`` at sweep point ``point``.

    Identical (cfg, point, trial) always produce the identical result, and
    the channel stream is shared across schemes.  It is the one-trial call
    of run_point.
    """
    return run_point(cfg, scheme, point, (trial,))[0]


def run_sweep(cfg: SimConfig):
    """Run all (scheme, snr, trial) combinations; returns (metrics, trials).

    Each (scheme, point) is one run_point task, and tasks may execute in
    parallel processes; outputs are ordered by (scheme, point, trial)
    regardless of worker count.
    """
    tasks = [(scheme, p) for scheme in cfg.schemes for p in range(len(cfg.snr_db))]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_task = list(pool.map(run_point, [cfg] * len(tasks), *zip(*tasks)))
    else:
        per_task = [run_point(cfg, scheme, p) for scheme, p in tasks]

    all_trials = []
    metrics = []
    for (scheme, point), results in zip(tasks, per_task):
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
