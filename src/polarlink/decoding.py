"""Belief-propagation decoding on the polar factor graph.

The graph mirrors the encoder circuit: layer 0 holds the pre-transform bits u
(frozen positions pinned to 0 by a large finite prior), layer n holds the
channel LLRs, and stage s connects layers s and s+1 through N/2 butterflies
pairing positions p and p + 2^s.  Positive LLRs favor bit 0 throughout, and a
posterior of exactly zero decides bit 0.

The butterflies are addressed as strided views, layer.reshape(-1, 2, 2^s)
split into its top and bottom halves, never as index arrays.  One iteration
runs one stacked box-plus per stage half into buffers allocated once per
decode, and it keeps a bit-identity contract: every message the decoder
reads, and so every result field and stop, equals that of the plain
per-butterfly update rules, signed zeros included, since the fixed-point
stop compares messages as bits.  The test suite checks this against an
index-pair reference loop.

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
        np.copysign(d, -1.0, out=d)   # -|a +- b|
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

    Each half is (N/2^(s+1), 2^s) in position order.  numpy loops fastest
    over the last axis, so where 2^s is the shorter side the halves are
    transposed to let the inner loop run the long way; element-wise kernels
    see the same pairs either way.
    """
    v = layer.reshape(-1, 2, 1 << s).swapaxes(0, 1)
    return v if v.shape[2] >= v.shape[1] else v.swapaxes(1, 2)


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
        fber is their mean over the observed ones.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (spec.n,):
        raise ValueError(f"llrs must have length {spec.n}, got shape {llrs.shape}")
    if not np.all(np.isfinite(llrs)):
        raise ValueError("llrs must be finite")

    exact = cfg.update_rule == "exact"
    n_log2, n = spec.n_log2, spec.n

    left = np.zeros((n_log2 + 1, n))   # leftward messages into each layer
    right = np.zeros((n_log2 + 1, n))  # rightward messages into each layer
    right[0, spec.frozen_set] = FROZEN_PRIOR_LLR
    left[n_log2] = llrs
    # the only state one iteration hands the next: left is recomputed from
    # it, left[n_log2] and right[0] are constants, right[n_log2] is unused
    state = right[1:n_log2]
    prev_state = np.empty_like(state)

    # One iteration is a leftward pass over stages n-1..0, the stop rule,
    # then a rightward pass over 0..n-2, since right[n_log2] is never read.
    # Each stage half takes one box-plus f over operands [a; b] that stack
    # its two outputs,
    #   left[s]    = [f(lp, rq + lq); f(lp, rp) + lq]
    #   right[s+1] = [f(rp, rq + lq); f(rp, lp) + rq]
    # so both rows of a hold the shared operand (f is symmetric bit for
    # bit).  The operand and scratch buffers are allocated once; every stage
    # sees them, and the message layers, through butterfly views.
    x = np.empty((2, 2, n // 2))
    t = np.empty_like(x)
    d = np.empty_like(x)

    leftward, rightward = [], []
    for s in range(n_log2):
        (lp, lq), (rp, rq) = _halves(left[s + 1], s), _halves(right[s], s)
        xs, ts, ds = (buf.reshape((2, 2) + lp.shape) for buf in (x, t, d))
        for half, out, shared, other, tail in (
                (leftward, _halves(left[s], s), lp, rp, lq),
                (rightward, _halves(right[s + 1], s), rp, lp, rq)):
            half.append((xs[0], shared, xs[1, 0], rq, lq, xs[1, 1], other,
                         xs, ts, ds, out, out[1], tail))
    leftward, rightward = leftward[::-1], rightward[:-1]

    def run(half):
        for a, shared, b0, rq, lq, b1, other, xs, ts, ds, out, out_q, tail in half:
            np.copyto(a, shared)
            np.add(rq, lq, out=b0)
            np.copyto(b1, other)
            _boxplus(xs, out, ts, ds, exact)
            np.add(out_q, tail, out=out_q)

    def info_from(u_post):
        # systematic read-out: hard-decide u at the info positions (frozen
        # stay 0), re-encode, and pull the info bits off the codeword
        u_hat = np.zeros(n, dtype=np.uint8)
        u_hat[spec.info_set] = u_post[spec.info_set] < 0
        return polar_transform(u_hat)[spec.info_set]

    stop_reason = "max_iters"
    for iterations in range(1, cfg.max_iters + 1):
        run(leftward)
        if iterations == 1:
            # the prior-free pilot: iteration 1's layer 1 (see the module
            # docstring) through one stage-0 box-plus with no right[0] prior
            pilot = left[1].copy()
            v = _halves(pilot, 0)
            _boxplus(v, v[0], t[0].reshape(v.shape), d[0].reshape(v.shape), exact)

        if cfg.early_stop != "none" and np.all(left[0, spec.frozen_set] >= 0.0):
            if crc_check is None:
                stop_reason = "frozen"
                break
            u_posterior = left[0] + right[0]
            info_bits = info_from(u_posterior)
            if crc_check(info_bits):
                stop_reason = "crc"
                break

        np.copyto(prev_state, state)
        run(rightward)
        # compared as bits, so a sign flip of a zero also counts as a change
        if np.array_equal(prev_state.view(np.uint64), state.view(np.uint64)):
            stop_reason = "fixed_point"
            break

    if stop_reason != "crc":
        u_posterior = left[0] + right[0]
        info_bits = info_from(u_posterior)
    frozen_pilot = pilot[spec.frozen_set]
    frozen_hard = (frozen_pilot < 0).astype(np.uint8)
    observed = np.abs(frozen_pilot) > 0
    fber = float(frozen_hard[observed].mean()) if observed.any() else 0.0
    return DecodeResult(
        info_bits=info_bits,
        frozen_hard=frozen_hard,
        fber=fber,
        iterations_used=iterations,
        stop_reason=stop_reason,
        u_posterior=u_posterior,
    )


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
