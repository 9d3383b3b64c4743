"""Belief-propagation decoding on the polar factor graph.

The graph mirrors the encoder circuit: layer 0 holds the pre-transform bits u
(frozen positions pinned to 0 by a large finite prior), layer n holds the
channel LLRs, and stage s connects layers s and s+1 through N/2 butterflies
pairing positions p and p + 2^s.  Positive LLRs favor bit 0 throughout, and a
posterior of exactly zero decides bit 0.

The decoder runs a batch of codewords of one code in lockstep: the messages
are (n_log2 + 1, B, N), one row per codeword within each layer.  The
butterflies are addressed as strided views, a layer's rows end to end
reshaped to (-1, 2, 2^s) and split into top and bottom halves, never as
index arrays.  One iteration runs one stacked box-plus per stage half over
every running row, into buffers allocated once per batch size, so a batch
pays the per-call cost of each numpy kernel once.  It keeps a bit-identity
contract: every message the decoder reads, and so every result field and
stop, equals that of the plain per-butterfly update rules, signed zeros
included, since the fixed-point stop compares messages as bits.  The test
suite checks this against an index-pair reference loop.

Each row stops on its own rule and is read out when it stops; the rows still
running are then compacted into smaller arrays, so the work follows them.
bp_decode is the one-row batch, so a row's result does not depend on the
rows decoded beside it.

Frozen-position hard decisions are taken from a prior-free leftward pass
that uses channel evidence only: the frozen bits act as known pilots, so any
prior influence (their own or each other's) would drag the statistic to zero
regardless of channel quality and the frozen error ratio could not track it.
No separate sweep computes it.  In iteration 1 every rightward message above
layer 0 is still zero, so the leftward pass leaves in layers n_log2..1 what
the prior-free pass would, up to the sign of zeros, which neither the hard
decision (< 0) nor the observed mask (|x| > 0) reads; the pilot is iteration
1's layer 1 plus one prior-free stage-0 box-plus.

Work whose output nothing reads is skipped: the stop rule reads only left[0]
and the constant right[0], both final once leftward stage 0 has run, so it
is checked between the halves and a stop skips the rightward half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .construction import CodeSpec
from .encoding import encode_systematic, polar_transform

__all__ = [
    "FROZEN_PRIOR_LLR",
    "BpConfig",
    "DecodeResult",
    "bp_decode",
    "bp_decode_many",
    "combine_llrs",
    "ml_decode_oracle",
]

# Finite stand-in for the +inf frozen prior; e^40 dwarfs any simulated channel
# evidence while keeping the tanh-rule arithmetic NaN-free.
FROZEN_PRIOR_LLR = 40.0


@dataclass(frozen=True)
class BpConfig:
    """Decoder iteration settings.

    update_rule 'exact' uses the exact pairwise LLR combination (tanh rule in
    its numerically stable log form); 'minsum' uses the sign-min
    approximation.  early_stop 'frozen' stops once every frozen position's
    extrinsic decision agrees with the known zero (and, when bp_decode gets a
    crc_check, once that passes too); 'none' applies no decision rule, so
    its decodes never report converged.  In every mode the decoder also
    stops at an exact fixed point, an iteration that leaves its messages
    bit-identical, because every later iteration would repeat it; results
    equal those of running on to max_iters.
    """

    max_iters: int = 60
    update_rule: str = "exact"
    early_stop: str = "frozen"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.update_rule not in ("exact", "minsum"):
            raise ValueError(f"unknown update_rule {self.update_rule!r}")
        if self.early_stop not in ("none", "frozen"):
            raise ValueError(f"unknown early_stop {self.early_stop!r}")


@dataclass
class DecodeResult:
    """Decode output.

    frozen_hard holds the prior-free pilot decision at every frozen
    position.  fber is the share decided 1 among the pilots whose
    channel-only evidence is nonzero (0.0 when none is): puncturing leaves
    most frozen pilots unobservable, tied to 0, and counting them would
    dilute the ratio the rate estimator reads.

    iterations_used counts the iterations actually computed; an iteration
    the early-stop rule ends is counted, though only its leftward half ran,
    since the rule reads nothing the rightward half writes.  stop_reason
    says why the loop ended: 'frozen' or 'crc' when the early-stop rule
    fired, 'fixed_point' when an iteration left the messages bit-identical,
    and 'max_iters' when the budget ran out.  converged is true exactly
    when the early-stop rule fired.
    """

    info_bits: np.ndarray
    frozen_hard: np.ndarray
    fber: float
    iterations_used: int
    stop_reason: str
    u_posterior: np.ndarray = field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("frozen", "crc")


def _boxplus(x, out, t, d, exact):
    """out = x[0] boxplus x[1] elementwise, written through the scratch t and d.

    x, t and d share one shape (2, ...) and out has the shape of x[0]; out
    may alias x[0], as every read of x comes before the write.  The exact
    rule is ln((1 + e^(a+b)) / (e^a + e^b)) in the stable form
    sign(a)sign(b)min(|a|,|b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|), with
    both correction terms taken in one pass over d.  Its leading term is
    taken as copysign(min(|a|,|b|), a*b): that differs from the sign product
    only in the sign of a zero, which the following + log1p(...) >= +0 turns
    into +0.  Min-sum has no such term and np.sign(-0.0) is +0, so it keeps
    the sign product.  Both rules are symmetric in a and b bit for bit.
    """
    a, b = x
    m, u = t
    np.abs(x, out=t)
    np.minimum(m, u, out=m)
    if exact:
        np.multiply(a, b, out=u)
        np.copysign(m, u, out=m)
        np.add(a, b, out=d[0])
        np.subtract(a, b, out=d[1])
        # -|a +- b|: the same bits as copysign(d, -1.0), which numpy runs
        # at half the speed of these two
        np.abs(d, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        np.log1p(d, out=d)
        np.add(m, d[0], out=m)
        np.subtract(m, d[1], out=out)
    else:
        np.sign(x, out=d)
        np.multiply(d[0], d[1], out=u)
        np.multiply(u, m, out=out)


def _halves(layer, s):
    """Stage-s butterfly view of a layer: [top; bottom] at positions p and p + 2^s.

    layer is (B, N), one row per codeword, and C-contiguous, so its rows
    run end to end and each half is (B*N/2^(s+1), 2^s) in position order: a
    butterfly never crosses a row, since N is a multiple of 2^(s+1).  numpy
    loops fastest over the last axis, so where 2^s is the shorter side the
    halves are transposed to let the inner loop run the long way;
    element-wise kernels see the same pairs either way.
    """
    v = layer.reshape(-1, 2, 1 << s).swapaxes(0, 1)
    return v if v.shape[2] >= v.shape[1] else v.swapaxes(1, 2)


class _Lockstep:
    """The message layers of the rows still decoding, and one iteration's
    stage-half schedule over them.

    left and right are (n_log2 + 1, B, N): leftward and rightward messages
    into each layer, one row per codeword, so each layer of every row is one
    contiguous block.  Each stage half takes one box-plus f over operands
    [a; b] that stack its two outputs,
      left[s]    = [f(lp, rq + lq); f(lp, rp) + lq]
      right[s+1] = [f(rp, rq + lq); f(rp, lp) + rq]
    so both rows of a hold the shared operand (f is symmetric bit for bit).
    The operand and scratch buffers are allocated once per batch size; every
    stage sees them, and the message layers, through butterfly views.
    """

    def __init__(self, left, right, rows, exact):
        # the butterfly views reshape each layer in place, which needs it
        # C-contiguous (a masked copy need not be)
        left, right = np.ascontiguousarray(left), np.ascontiguousarray(right)
        self.left, self.right, self.rows, self.exact = left, right, rows, exact
        layers, b, n = left.shape
        n_log2 = layers - 1
        # the only state one iteration hands the next: left is recomputed
        # from it, left[n_log2] and right[0] are constants, right[n_log2] is
        # never read
        self.state = right[1:n_log2]
        self.prev_state = np.empty_like(self.state)
        x = np.empty((2, 2, b * n // 2))
        self.t = np.empty_like(x)
        self.d = np.empty_like(x)
        leftward, rightward = [], []
        for s in range(n_log2):
            (lp, lq), (rp, rq) = _halves(left[s + 1], s), _halves(right[s], s)
            xs, ts, ds = (buf.reshape((2, 2) + lp.shape) for buf in (x, self.t, self.d))
            for half, out, shared, other, tail in (
                    (leftward, _halves(left[s], s), lp, rp, lq),
                    (rightward, _halves(right[s + 1], s), rp, lp, rq)):
                half.append((xs[0], shared, xs[1, 0], rq, lq, xs[1, 1], other,
                             xs, ts, ds, out, out[1], tail))
        # leftward runs stages n-1..0; rightward 0..n-2, as right[n_log2] is unused
        self.leftward, self.rightward = leftward[::-1], rightward[:-1]

    def run(self, half):
        exact = self.exact
        for a, shared, b0, rq, lq, b1, other, xs, ts, ds, out, out_q, tail in half:
            np.copyto(a, shared)
            np.add(rq, lq, out=b0)
            np.copyto(b1, other)
            _boxplus(xs, out, ts, ds, exact)
            np.add(out_q, tail, out=out_q)

    def drop(self, stopped):
        """The rows not listed in stopped, with a schedule sized to them."""
        keep = np.ones(self.rows.size, dtype=bool)
        keep[stopped] = False
        return _Lockstep(self.left[:, keep], self.right[:, keep], self.rows[keep], self.exact)


def bp_decode_many(llrs, spec: CodeSpec, cfg: BpConfig = BpConfig(),
                   crc_checks=None) -> list:
    """Decode a batch of channel-LLR rows in lockstep; one DecodeResult per row.

    The batch's messages take 2 (n_log2 + 1) B N floats and grow the work
    per row once they leave the cache, so a caller with many codewords
    decodes them in groups (run_point sizes its groups from N).

    Parameters
    ----------
    llrs : array-like of float, shape (B, spec.n)
        One row of channel LLRs per codeword, in codeword-position order;
        untransmitted (punctured) positions carry exactly 0.
    spec : CodeSpec
    cfg : BpConfig
    crc_checks : sequence of B callables or None, optional
        Row i's CRC predicate, as bp_decode's crc_check; None (the whole
        argument or one entry) gives a row none.

    Returns
    -------
    list of DecodeResult
        Row i's result equals bp_decode(llrs[i], spec, cfg, crc_checks[i])
        field for field, bit for bit: every row keeps its own stop and pilot.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != spec.n:
        raise ValueError(f"llrs must have shape (B, {spec.n}), got shape {llrs.shape}")
    if not np.all(np.isfinite(llrs)):
        raise ValueError("llrs must be finite")
    batch = llrs.shape[0]
    checks = [None] * batch if crc_checks is None else list(crc_checks)
    if len(checks) != batch:
        raise ValueError(f"need one crc check per row: {batch} rows, {len(checks)} checks")

    if not batch:
        return []
    n_log2, n = spec.n_log2, spec.n
    left = np.zeros((n_log2 + 1, batch, n))
    right = np.zeros((n_log2 + 1, batch, n))
    right[0][:, spec.frozen_set] = FROZEN_PRIOR_LLR
    left[n_log2] = llrs
    core = _Lockstep(left, right, np.arange(batch), cfg.update_rule == "exact")
    results = [None] * batch

    def info_from(u_post):
        # systematic read-out: hard-decide u at the info positions (frozen
        # stay 0), re-encode, and pull the info bits off the codeword
        u_hat = np.zeros(n, dtype=np.uint8)
        u_hat[spec.info_set] = u_post[spec.info_set] < 0
        return polar_transform(u_hat)[spec.info_set]

    def read_out(i, iterations, stop_reason, u_posterior=None, info_bits=None):
        if u_posterior is None:
            u_posterior = core.left[0, i] + core.right[0, i]
            info_bits = info_from(u_posterior)
        row = core.rows[i]
        frozen_pilot = pilot[row][spec.frozen_set]
        frozen_hard = (frozen_pilot < 0).astype(np.uint8)
        observed = np.abs(frozen_pilot) > 0
        fber = float(frozen_hard[observed].mean()) if observed.any() else 0.0
        results[row] = DecodeResult(info_bits=info_bits, frozen_hard=frozen_hard, fber=fber,
                                    iterations_used=iterations, stop_reason=stop_reason,
                                    u_posterior=u_posterior)

    for iterations in range(1, cfg.max_iters + 1):
        core.run(core.leftward)
        if iterations == 1:
            # the prior-free pilot of every row: iteration 1's layer 1 (see
            # the module docstring) through one stage-0 box-plus with no
            # right[0] prior
            pilot = core.left[1].copy()
            v = _halves(pilot, 0)
            _boxplus(v, v[0], core.t[0].reshape(v.shape), core.d[0].reshape(v.shape), core.exact)

        if cfg.early_stop != "none":
            stopped = []
            for i in (core.left[0][:, spec.frozen_set] >= 0.0).all(axis=1).nonzero()[0]:
                check = checks[core.rows[i]]
                if check is None:
                    read_out(i, iterations, "frozen")
                    stopped.append(i)
                    continue
                u_posterior = core.left[0, i] + core.right[0, i]
                info_bits = info_from(u_posterior)
                if check(info_bits):
                    read_out(i, iterations, "crc", u_posterior, info_bits)
                    stopped.append(i)
            if len(stopped) == core.rows.size:
                break
            if stopped:
                core = core.drop(stopped)

        np.copyto(core.prev_state, core.state)
        core.run(core.rightward)
        # compared as bits, so a sign flip of a zero also counts as a change
        moved = np.not_equal(core.prev_state.view(np.uint64),
                             core.state.view(np.uint64)).any(axis=(0, 2))
        if not moved.all():
            stopped = (~moved).nonzero()[0]
            for i in stopped:
                read_out(i, iterations, "fixed_point")
            if len(stopped) == core.rows.size:
                break
            core = core.drop(stopped)
    else:
        for i in range(core.rows.size):
            read_out(i, cfg.max_iters, "max_iters")
    return results


def bp_decode(llrs, spec: CodeSpec, cfg: BpConfig = BpConfig(),
              crc_check=None) -> DecodeResult:
    """Iteratively decode channel LLRs into info bits and frozen-side statistics.

    Parameters
    ----------
    llrs : array-like of float, length spec.n
        Channel LLRs in codeword-position order; untransmitted (punctured)
        positions carry exactly 0.
    spec : CodeSpec
    cfg : BpConfig
    crc_check : callable(info_bits) -> bool, optional
        Under early_stop 'frozen', the stop also waits for this to pass and
        then reports stop_reason 'crc', returning the info bits it passed;
        under 'none' it is unused.  It must be a pure function of its input
        (see the fixed-point stop).

    Returns
    -------
    DecodeResult
        info_bits in ascending info-position order; frozen_hard holds the
        prior-free hard decisions at frozen positions (ascending order), and
        fber is their mean over the observed ones.  It is the one-row batch
        of bp_decode_many.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (spec.n,):
        raise ValueError(f"llrs must have length {spec.n}, got shape {llrs.shape}")
    return bp_decode_many(llrs[None], spec, cfg, [crc_check])[0]


def combine_llrs(frames) -> np.ndarray:
    """Positionwise sum of per-frame channel LLRs.

    Positions carried in several frames accumulate evidence; positions never
    transmitted stay at 0.  Order-invariant and idempotent over the empty
    contribution.
    """
    frames = [np.asarray(fr, dtype=np.float64) for fr in frames]
    if not frames:
        raise ValueError("need at least one frame")
    length = frames[0].shape
    if any(fr.shape != length for fr in frames):
        raise ValueError("all frames must have the same length")
    return np.sum(frames, axis=0)


def ml_decode_oracle(llrs, spec: CodeSpec) -> np.ndarray:
    """Exhaustive maximum-likelihood decode for small codes (test oracle).

    Scores every codeword by LLR correlation sum((1-2x) * L) and returns the
    info bits of the best one; ties go to the lexicographically smallest info
    word.  Enumeration is bounded at K <= 16.
    """
    if spec.k > 16:
        raise ValueError("ml oracle limited to k <= 16")
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (spec.n,):
        raise ValueError(f"llrs must have length {spec.n}")
    m = np.arange(1 << spec.k, dtype=np.int64)
    # info words in lexicographic order, first bit most significant
    info_words = ((m[:, None] >> np.arange(spec.k - 1, -1, -1)) & 1).astype(np.uint8)
    codewords = np.empty((m.size, spec.n), dtype=np.uint8)
    for i in range(m.size):
        codewords[i] = encode_systematic(info_words[i], spec)
    scores = (1.0 - 2.0 * codewords) @ llrs
    best = int(np.argmax(scores))  # argmax keeps the first (lexicographically smallest) tie
    return info_words[best]
