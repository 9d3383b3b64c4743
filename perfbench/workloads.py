"""Workloads, output checks and the measured loops of the polarlink benchmark.

Every workload is a closed loop driven from one process: the next batch
starts only when the previous one has returned. A batch is one
``run_sweep`` call (``deep_fail``, ``waterfall``) or a run of recorded and
replayed sessions (``high_snr_session``). Batch ``b`` of seed ``s`` draws its
master seed from ``SeedSequence([s, b])``, so the seed fixes every input.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import polarlink.protocol as protocol
import polarlink.simulate as simulate

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WARMUP_BATCH = 2**31 - 1
SETUP_PROBES = 5

# The default seed, and a held-out seed for confirming a claim on inputs that
# were not used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# sha256 of batch 0's metrics.csv (sweeps) or session records at the default
# seed, recorded at the commit that added the benchmark. A change that alters
# outputs on purpose updates its entry and names the fix in CHANGES.md.
DIGESTS = {
    "deep_fail": "3d72d7973c09f63ed083642819ad92e3e7a59fd07626a59a36566de1f87a942b",
    "waterfall": "c91570c03c2908702397f3e27108efb3fec5f7f4794d8cb07df16fc2a19ccaab",
    "high_snr_session": "6f3cbbe971628ea92e95af735f9fc079dc6aef187b9df6555b9e67dfa8fbc37e",
}


@dataclass(frozen=True)
class Workload:
    name: str
    snr_db: tuple
    schemes: tuple          # empty for the session workload
    fb_loss: float
    workers: int
    batch_trials: int       # trials per (scheme, point) in one batch
    fixed_batches: int      # always run; quality metrics and digest come from them
    trace_batches: int      # run untraced, then traced, in a --trace 1 run
    k: int = 96

    @property
    def is_session(self):
        return not self.schemes

    def results_per_batch(self, trials):
        return trials * max(1, len(self.schemes)) * len(self.snr_db)


WORKLOADS = {
    w.name: w for w in (
        Workload("deep_fail", snr_db=(-2.93,), schemes=("sozu", "fixed:1/2"), fb_loss=0.0,
                 workers=1, batch_trials=2, fixed_batches=24, trace_batches=12),
        Workload("waterfall", snr_db=(5.07, 7.07, 9.07), schemes=("sozu", "hamming74"),
                 fb_loss=0.1, workers=2, batch_trials=4, fixed_batches=10, trace_batches=6),
        Workload("high_snr_session", snr_db=(18.0,), schemes=(), fb_loss=0.0,
                 workers=1, batch_trials=32, fixed_batches=20, trace_batches=16),
    )
}

# Sizes for the self-test: one tiny batch, nothing else.
QUICK = {"batch_trials": 1, "fixed_batches": 1, "trace_batches": 1}


def batch_seed(seed, batch):
    return int(np.random.SeedSequence([int(seed), int(batch)]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Tally:
    """Trial counts, check failures and the bits behind the quality metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undetected = 0
        self.successes = 0
        self.info_bits = 0
        self.bit_errors = 0
        self.bytes = 0
        self.byte_errors = 0
        self.clean_bits = 0
        self.bits_sent = 0
        self.rate_sum = 0.0
        self.problems = []

    def fail(self, n, why):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def add_outcome(self, k, success, bit_errors, byte_errors, n_bytes, bits_sent):
        self.successes += bool(success)
        self.info_bits += k
        self.bit_errors += bit_errors
        self.bytes += n_bytes
        self.byte_errors += byte_errors
        self.clean_bits += k if success else 0
        self.bits_sent += bits_sent
        self.rate_sum += k / bits_sent

    def quality(self):
        n = self.attempted - self.failed
        return {
            "bit_accuracy": 1.0 - self.bit_errors / self.info_bits if self.info_bits else 0.0,
            "effective_rate": self.rate_sum / n if n > 0 else 0.0,
            "goodput": self.clean_bits / self.bits_sent if self.bits_sent else 0.0,
            "prr": self.successes / n if n > 0 else 0.0,
            "brr": 1.0 - self.byte_errors / self.bytes if self.bytes else 0.0,
        }


def _budget_ok(plan, frames_used, requested, bits_sent):
    """bits_sent must be the plan's budget for the frames the session used."""
    if frames_used == 1:
        return bits_sent == plan.stage1_budget
    # the second frame goes out at the requested rate, or at the fallback
    # rate when the feedback was lost
    rates = {protocol.TIMEOUT_FALLBACK_RATE}
    if requested:
        rates.add(Fraction(requested))
    return bits_sent in {plan.cumulative_budget(r) for r in rates}


def _trial_ok(r, cfg, plan):
    """None if the TrialResult is well formed and on budget, else the reason."""
    kind, rate = simulate.parse_scheme(r.scheme)
    if not (isinstance(r.success, bool)
            and r.k == cfg.k and r.n_bytes == cfg.k // 8
            and 0 <= r.bit_errors <= r.k and 0 <= r.byte_errors <= r.n_bytes
            and (r.bit_errors == 0) == (r.byte_errors == 0)
            and r.clean_bits == (r.k if r.success else 0)
            and 0.0 <= r.fber_first <= 1.0):
        return "malformed trial record"
    if kind == "sozu":
        on_budget = (r.frames_used in (1, 2)
                     and r.requested_rate in ("",) + tuple(str(x) for x in protocol.RATE_TABLE)
                     and _budget_ok(plan, r.frames_used, r.requested_rate, r.bits_sent))
    elif kind == "fixed":
        on_budget = r.frames_used == 1 and r.bits_sent == plan.cumulative_budget(rate)
    else:
        on_budget = r.frames_used == 1 and r.bits_sent == 7 * (cfg.k // 4)
    if not on_budget:
        return "bits_sent off the plan budget"
    # only sozu trusts a CRC; the other schemes compare against the truth
    if r.success and r.bit_errors and kind != "sozu":
        return "success with bit errors"
    return None


def check_sweep(cfg, metrics, trials, tally):
    plan = protocol.plan_session(cfg.k)
    expected = {(s, p, t) for s in cfg.schemes for p in range(len(cfg.snr_db))
                for t in range(cfg.trials)}
    seen = set()
    for r in trials:
        point = cfg.snr_db.index(r.snr_db) if r.snr_db in cfg.snr_db else -1
        key = (r.scheme, point, r.trial)
        if key not in expected or key in seen:
            tally.fail(1, f"unexpected or repeated trial {key}")
            continue
        seen.add(key)
        why = _trial_ok(r, cfg, plan)
        if why:
            tally.fail(1, f"{why}: {r}")
            continue
        if r.success and r.bit_errors:
            tally.undetected += 1  # the CRC accepted a wrong decode
        tally.add_outcome(r.k, r.success, r.bit_errors, r.byte_errors, r.n_bytes, r.bits_sent)
    if len(seen) < len(expected):
        tally.fail(len(expected) - len(seen), f"{len(expected) - len(seen)} trials missing")
    if len(metrics) != len(cfg.schemes) * len(cfg.snr_db):
        tally.fail(len(seen), "metrics rows do not match the (scheme, point) pairs")


def check_session(cfg, plan, outcome, tally):
    info, success, decoded, aux, record, replayed = outcome
    frames_used = aux["frames_used"]
    ok = (
        len(record["frames"]) == frames_used == len(record["frame_llrs"])
        and all(len(protocol.frame_from_wire(w).payload_positions) == len(l)
                for w, l in zip(record["frames"], record["frame_llrs"]))
        and record["bits_sent"] == aux["bits_sent"]
        and record["outcome"] == ("success" if success else "fail")
        and record["info_hex"] == protocol.bits_to_hex(info)
        and _budget_ok(plan, frames_used, aux["requested_rate"], aux["bits_sent"])
    )
    if not ok:
        tally.fail(1, f"malformed session record: {record.get('outcome')}")
        return
    if replayed != record["decisions"]:
        tally.fail(1, "replayed decisions differ from the recorded ones")
        return
    errs = (np.zeros_like(info) if decoded is None else decoded.astype(np.uint8)) ^ info
    bit_errors = int(errs.sum())
    byte_errors = int(np.any(errs.reshape(-1, 8), axis=1).sum())
    if success and bit_errors:
        tally.undetected += 1
    tally.add_outcome(cfg.k, success, bit_errors, byte_errors, cfg.k // 8, aux["bits_sent"])


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def sim_config(wl, seed, batch, trials):
    return simulate.SimConfig(k=wl.k, snr_db=wl.snr_db, schemes=wl.schemes or ("sozu",),
                              fb_loss=wl.fb_loss, trials=trials,
                              master_seed=batch_seed(seed, batch), workers=wl.workers)


def _metrics_csv(cfg, metrics, trials):
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        simulate.write_outputs(cfg, metrics, trials, tmp)
        return (Path(tmp) / "metrics.csv").read_text()


def run_batch(wl, seed, batch, trials, tally, tracer=None, want_digest=False):
    """Run and check one batch; returns (results attempted, wall s, digest text)."""
    cfg = sim_config(wl, seed, batch, trials)
    n = wl.results_per_batch(trials)
    tally.attempted += n
    if wl.is_session:
        return _session_batch(cfg, n, tally, tracer)
    start = time.perf_counter()
    try:
        metrics, results = simulate.run_sweep(cfg)
    except Exception as exc:  # a raising trial fails the whole call
        tally.fail(n, f"run_sweep raised {exc!r}")
        return n, time.perf_counter() - start, ""
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.collect_workers()
    check_sweep(cfg, metrics, results, tally)
    return n, wall, _metrics_csv(cfg, metrics, results) if want_digest else ""


def _one_session(cfg, plan, t):
    # the per-trial streams run_sweep derives for (master seed, point 0, trial t)
    ss = np.random.SeedSequence([cfg.master_seed, 0, t])
    rngs = [np.random.default_rng(c) for c in ss.spawn(3)]
    record = simulate.SessionRecord(k=cfg.k, n_mother=plan.n_mother,
                                    stage1_budget=plan.stage1_budget, snr_db=cfg.snr_db[0])
    success, decoded, aux = simulate.run_session(cfg, cfg.snr_db[0], rngs, record=record)
    text = record.to_json()
    loaded = json.loads(text)
    replayed = simulate.replay_session(loaded, cfg.k)
    return aux["info"], success, decoded, aux, loaded, replayed, text


def _session_batch(cfg, n, tally, tracer):
    plan = protocol.plan_session(cfg.k)
    outcomes = []
    start = time.perf_counter()
    for t in range(cfg.trials):
        try:
            if tracer is None:
                outcomes.append(_one_session(cfg, plan, t))
            else:
                with tracer.span("bench.trial", trial=f"{cfg.master_seed}/session/0/{t}"):
                    outcomes.append(_one_session(cfg, plan, t))
        except Exception as exc:
            tally.fail(1, f"session {t} raised {exc!r}")
    wall = time.perf_counter() - start
    for outcome in outcomes:
        check_session(cfg, plan, outcome[:6], tally)
    return n, wall, "\n".join(o[6] for o in outcomes)


def check_digest(wl, seed, text, tally):
    """Compare the default seed's first-batch output with the recorded digest.

    Returns False, and names the workload, on a mismatch.
    """
    if seed != DEFAULT_SEED:
        return True
    want = DIGESTS[wl.name]
    got = hashlib.sha256(text.encode()).hexdigest()
    if got == want:
        return True
    what = "session records" if wl.is_session else "metrics.csv"
    tally.problems.append(f"digest mismatch: {wl.name} {what} (seed {seed}, batch 0): "
                          f"recorded {want}, got {got}")
    return False


def _sizes(wl, quick):
    if quick:
        return QUICK["batch_trials"], QUICK["fixed_batches"], QUICK["trace_batches"]
    return wl.batch_trials, wl.fixed_batches, wl.trace_batches


def _warm_up(wl, seed, tally):
    """One single-trial batch: fills lazy caches and pages code in, untimed."""
    run_batch(wl, seed, WARMUP_BATCH, 1, tally)


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def peak_rss_mb(workers):
    """Peak RSS of this process plus ``workers`` children at the largest
    child's peak (an upper bound on concurrent pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(wl, probes):
    """Median set-up time over ``probes`` fresh interpreters."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--k", str(wl.k),
             "--workers", str(wl.workers)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), times


def tenth_percentile(values):
    return statistics.quantiles(values, n=10)[0] if len(values) > 1 else values[0]


def run_end_to_end(wl, seed, seconds, quick=False):
    """Timed batches for ``seconds`` (at least the fixed ones), then set-up probes.

    Quality metrics come from the fixed batches only, so a seed repeats them
    exactly. Throughput is the 10th percentile of the per-batch rates: the
    host's speed drifts in phases of seconds to minutes, and the run's median
    follows whichever phase lasted longest, while the rate of the most
    contended phase repeats from run to run. A single slow batch does not set
    the 10th percentile, as it would the minimum.
    """
    trials, fixed, _ = _sizes(wl, quick)
    fixed_tally, extra_tally = Tally(), Tally()
    _warm_up(wl, seed, extra_tally)
    rates, digest_ok = [], True
    loop_start = time.perf_counter()
    batch = 0
    while batch < fixed or time.perf_counter() - loop_start < seconds:
        digest = batch == 0 and not quick
        n, wall, text = run_batch(wl, seed, batch, trials,
                                  fixed_tally if batch < fixed else extra_tally,
                                  want_digest=digest)
        rates.append(n / wall)
        if digest:
            digest_ok = check_digest(wl, seed, text, fixed_tally)
        batch += 1
    rss = peak_rss_mb(wl.workers)
    setup_s, setup_samples = measure_setup(wl, 1 if quick else SETUP_PROBES)
    attempted = fixed_tally.attempted + extra_tally.attempted
    failed = fixed_tally.failed + extra_tally.failed
    quality = fixed_tally.quality()
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and digest_ok,
        "problems": fixed_tally.problems + extra_tally.problems,
        "notes": {"batches": batch, "batch_rates": rates, "setup_samples_s": setup_samples,
                  "undetected_errors": fixed_tally.undetected + extra_tally.undetected},
        "metrics": {
            "trials_per_s": (tenth_percentile(rates), "trials/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MiB"),
            "bit_accuracy": (quality["bit_accuracy"], "fraction"),
            "effective_rate": (quality["effective_rate"], "bit/bit"),
        },
        "report": {
            "goodput": (quality["goodput"], "bit/bit"),
            "prr": (quality["prr"], "fraction"),
            "brr": (quality["brr"], "fraction"),
            "fail_ratio": (failed / attempted, "fraction"),
        },
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def run_traced(wl, seed, quick=False):
    """Each trace batch twice, untraced and traced, in alternating order.

    Alternating cancels the host's speed drift out of
    ``trace.overhead_ratio``, and the traced outputs must equal the untraced
    ones. The tracer is installed before the first ``plan_session`` call, so
    ``construction.design_code`` shows the set-up work. Spans are written to
    ``.perfbench_out/`` at the end.
    """
    trials, _, batches = _sizes(wl, quick)
    OUT_DIR.mkdir(exist_ok=True)
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=OUT_DIR))
    tracer = spans.Tracer(spool)
    plain, traced = Tally(), Tally()
    n_plain = n_traced = 0
    wall_plain = wall_traced = 0.0
    plain_texts, traced_texts = [], []
    try:
        tracer.install()
        simulate.plan_session(wl.k)
        tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []
        _warm_up(wl, seed, plain)
        for b in range(batches):
            for with_trace in ((False, True) if b % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        n, wall, text = run_batch(wl, seed, b, trials, traced, tracer, True)
                    finally:
                        tracer.uninstall()
                    n_traced += n
                    wall_traced += wall
                    traced_texts.append(text)
                else:
                    n, wall, text = run_batch(wl, seed, b, trials, plain, want_digest=True)
                    n_plain += n
                    wall_plain += wall
                    plain_texts.append(text)
    finally:
        tracer.uninstall()
        shutil.rmtree(spool)

    digest_ok = quick or check_digest(wl, seed, plain_texts[0], plain)
    same = traced_texts == plain_texts
    if not same:
        traced.problems.append("traced outputs differ from untraced outputs")
    metrics = spans.layer_metrics(tracer.spans, setup_spans, wl.workers, wall_traced)
    metrics["protocol.undetected_errors"] = (traced.undetected, "count")
    metrics["trace.overhead_ratio"] = ((n_plain / wall_plain) / (n_traced / wall_traced), "ratio")
    dump = OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl"
    with open(dump, "w") as fh:
        for s in setup_spans + tracer.spans:
            fh.write(json.dumps(s) + "\n")
    failed = plain.failed + traced.failed
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "correct": failed == 0 and digest_ok and same,
        "problems": plain.problems + traced.problems,
        "notes": {"spans": len(setup_spans) + len(tracer.spans), "spans_file": str(dump)},
        "metrics": metrics,
    }
