"""Belief-propagation decoding on the polar factor graph.

The graph mirrors the encoder circuit: layer 0 holds the pre-transform bits u
(frozen positions pinned to 0 by a large finite prior), layer n holds the
channel LLRs, and stage s connects layers s and s+1 through N/2 butterflies
pairing positions p and p + 2^s.  Positive LLRs favor bit 0 throughout, and a
posterior of exactly zero decides bit 0.

The decoder runs a batch of codewords of one code in lockstep: the leftward
and rightward messages are (n_log2 + 1, B, N) each, one row per codeword
within each layer.  One iteration runs one stacked box-plus per stage half
over every running row, on the butterflies that half's gather plan lists,
taken from the messages by one flat gather into buffers allocated once per
batch size and written back by one scatter, so a batch pays the per-call
cost of each numpy kernel once.  Every view a stage half's kernels touch
(gathered operands, scratch, tail and output rows) is built once, with the
schedule, rather than on each call, and the stop rule tests left[0] through
a frozen-position mask rather than gathering its frozen columns: at the
batch sizes of a sweep (B = 1 to 8) an iteration's cost is mostly fixed per
numpy call.  It keeps a bit-identity contract: every message the decoder
reads, and so every result field and stop, equals that of the plain
per-butterfly update rules, signed zeros included, since the fixed-point
stop compares messages as bits.  The test suite checks this against an
index-pair reference loop.

Each row stops on its own rule and is read out when it stops; the rows still
running are then compacted into smaller arrays, so the work follows them,
and a row's result does not depend on the rows decoded beside it.
bp_decode decodes one codeword, as a one-row batch.

Frozen-position hard decisions are taken from a prior-free leftward pass
that uses channel evidence only: the frozen bits act as known pilots, so any
prior influence (their own or each other's) would drag the statistic to zero
regardless of channel quality and the frozen error ratio could not track it.
No separate sweep computes it.  In iteration 1 every rightward message above
layer 0 is still zero, so the leftward pass leaves in layers n_log2..1 what
the prior-free pass would, up to the sign of zeros, which neither the hard
decision (< 0) nor the observed mask (|x| > 0) reads; the pilot is iteration
1's layer 1 plus one prior-free stage-0 box-plus.

Work whose output nothing reads, or whose output is known, is skipped.  The
stop rule reads only left[0] and the constant right[0], both final once
leftward stage 0 has run, so it is checked between the halves and a stop
skips the rightward half, whose schedule is then never built; the last
iteration of the budget skips it too, as no leftward half follows.
Puncturing pins most channel LLRs at exactly 0 (Niu, Chen & Lin, ICC 2013),
and under the exact rule f(+-0, y) = +0, so a leftward butterfly with two
zero inputs outputs +0.  The positions zero in every row of the batch
propagate stage by stage: a top output is zero when its top input is, a
bottom output when both inputs are.  The set is derived per stage, as it can
shrink from layer to layer (at rate 1/8 it does for about a third of the
session sizes).  By the same rule a leftward butterfly whose top input lp is
zero reads nothing of right, and the bottom output f(rp, lp) + rq of a
rightward one reads rp only where lp is nonzero, so most rightward messages
feed no leftward update: at K=96, rate 3/4, an iteration needs 650 of its
4608 rightward butterflies.  Each stage half runs its box-plus on the
butterflies it needs alone; the plan of each zero pattern is built once and
kept.  Min-sum's f(0, y) can be -0, so under min-sum, as for a batch with no
zero position, the plan is that of the empty zero set, which lists every
butterfly.  The messages the rightward half skips go stale, but the leftward
ones never do: a skipped leftward butterfly holds the +0 its update would
write.  So the fixed-point stop compares left[1..n_log2 - 1] as bits before
and after an iteration's leftward half.  left[0] follows from left[1], as
right[0] is constant, and the whole right state from left[1..n_log2 - 1], so
when those repeat in iteration t >= 2, iteration t leaves every message of
the full schedule as t - 1 left it.  The stop is tested beside the stop
rule, and a row it ends skips its rightward half too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

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
    extrinsic decision agrees with the known zero (and, for a row that
    bp_decode_many is given a CRC check for, once that passes too); 'none'
    applies no decision rule, so its decodes never report converged.  In
    every mode the decoder also stops at an exact fixed point, an iteration
    after the first that leaves its messages bit-identical, because every
    later iteration would repeat it; results equal those of running on to
    max_iters.
    max_iters is a Python int >= 1.
    """

    max_iters: int = 60
    update_rule: str = "exact"
    early_stop: str = "frozen"

    def __post_init__(self):
        if type(self.max_iters) is not int or self.max_iters < 1:  # bool is not int
            raise ValueError(f"max_iters must be an int >= 1, got {self.max_iters!r}")
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

    iterations_used is the iteration the decode ended in.  An iteration the
    early-stop rule, the fixed-point stop or the budget ends is counted,
    though only its leftward half ran, since nothing reads what its
    rightward half would write (see the module docstring).  stop_reason
    says why the loop ended: 'frozen' or 'crc' when the early-stop rule
    fired, 'fixed_point' when an iteration left the messages bit-identical,
    and 'max_iters' when the budget ran out.  converged is true exactly when
    the early-stop rule fired.
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


def _boxplus(x, a, b, t, m, u, d, d0, d1, out, exact):
    """out = a boxplus b elementwise, written through the scratch t and d.

    x = [a; b], t = [m; u] and d = [d0; d1] share one shape (2, ...), and
    out has the shape of a; out may alias a, as every read of x comes before
    the write.  Each stage half builds these views once, with its schedule
    (_box_views), so a call indexes nothing and passes every out
    positionally, which numpy parses faster than the keyword.  The exact
    rule is ln((1 + e^(a+b)) / (e^a + e^b)) in the stable form
    sign(a)sign(b)min(|a|,|b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|), with
    both correction terms taken in one pass over d.  Its leading term is
    taken as copysign(min(|a|,|b|), a*b): that differs from the sign product
    only in the sign of a zero, which the following + log1p(...) >= +0 turns
    into +0.  Min-sum has no such term and np.sign(-0.0) is +0, so it keeps
    the sign product.  Both rules are symmetric in a and b bit for bit.
    """
    np.abs(x, t)
    # numpy deprecates a positional out for minimum and maximum
    np.minimum(m, u, out=m)
    if exact:
        np.multiply(a, b, u)
        np.copysign(m, u, m)
        np.add(a, b, d0)
        np.subtract(a, b, d1)
        # -|a +- b|: the same bits as copysign(d, -1.0), which numpy runs
        # at half the speed of these two
        np.abs(d, d)
        np.negative(d, d)
        np.exp(d, d)
        np.log1p(d, d)
        np.add(m, d0, m)
        np.subtract(m, d1, out)
    else:
        np.sign(x, d)
        np.multiply(d0, d1, u)
        np.multiply(u, m, out)


def _box_views(x, t, d, out, exact):
    """_boxplus's arguments over the operands x, the scratch t and d, and out."""
    return x, x[0], x[1], t, t[0], t[1], d, d[0], d[1], out, exact


def _gathered(src, index, g, b1, tail, box, a0, dst, scatter, out):
    """One stage half over the butterflies that index lists.

    src[index], taken into g, is [yq; yp; yp; xp; xq] of each butterfly,
    where y is the side the half updates (left leftward, right rightward,
    so yp is its shared operand and yq its tail) and x the other side.  g's
    last four rows are then the operands [a; b], b1 = g[4] and a0 = g[1];
    the outputs overwrite a, out = g[1:3], in the order [bottom; top], and
    dst[scatter] takes them to q and p of the layer written.  take's
    mode="wrap" skips the bounds check of mode="raise", which would buffer
    the copy; every index is in range.
    """
    src.take(index, out=g, mode="wrap")
    np.add(b1, tail, b1)
    _boxplus(*box)
    np.add(a0, tail, a0)
    dst[scatter] = out


def _stage_zeros(n_log2, zero):
    """For leftward stages s = n_log2 - 1, ..., 0: (s, top, both), whether
    each butterfly's top input, and both its inputs, are in the zero set of
    layer s + 1, as (N / 2^(s+1), 2^s) arrays valid until the next stage.

    zero is the channel layer's: the positions zero in every row, as bool
    bytes.  A zero top input makes both f terms +0, so the top output is +0
    and the bottom one is +0 + lq: zeros propagate leftward stage by stage.
    """
    zero = np.frombuffer(zero, dtype=bool).copy()
    for s in reversed(range(n_log2)):
        z = zero.reshape(-1, 2, 1 << s)
        yield s, z[:, 0], z[:, 0] & z[:, 1]
        z[:, 1] &= z[:, 0]


def _tops(n, s, run):
    """The top positions p of the stage-s butterflies that run selects."""
    return np.arange(n).reshape(-1, 2, 1 << s)[:, 0][run]


class _GatherPlan:
    """Which butterflies each stage half runs, for one zero pattern.

    leftward[s] holds the top positions p of the stage-s butterflies with a
    nonzero input: a butterfly with two zero inputs writes the +0 its
    outputs already hold.  rightward[s] (stages 0..n_log2 - 2) holds those
    of the butterflies with an output that some later stage half reads.  A
    zero lp makes f(lp, y) = f(y, lp) = +0 whatever y is, so leftward stage
    s reads right[s] at p and q only where left[s + 1][p] is outside the
    zero set.  Rightward stage s runs the butterflies with a read output in
    right[s + 1]: the top one, f(rp, rq + lq), reads rp and rq, and the
    bottom one, f(rp, lp) + rq, reads rq, and rp only where lp is outside
    the zero set.  A read message of any layer lies outside that layer's
    zero set (by induction from right[n_log2 - 1]), so a read top output
    adds no read to the leftward stage's.  Both halves come from one pass
    over the stages; the empty zero set lists every butterfly.  The gather
    index of each stage half is kept per batch size (see index).
    """

    def __init__(self, n_log2, zero):
        self.n_log2 = n_log2
        n = 1 << n_log2
        self.leftward, self.rightward = [None] * n_log2, [None] * (n_log2 - 1)
        read = np.zeros((n_log2, n), dtype=bool)
        for s, top, both in _stage_zeros(n_log2, zero):
            self.leftward[s] = _tops(n, s, ~both)
            r = read[s].reshape(-1, 2, 1 << s)
            r[:, 0] = r[:, 1] = ~top
            if s < n_log2 - 1:
                out = read[s + 1].reshape(-1, 2, 1 << s)
                self.rightward[s] = _tops(n, s, out[:, 0] | out[:, 1])
                r[:, 1] |= out[:, 1]
        self._index = {}

    def index(self, s, direction, b):
        """The (5, b * live) gather index of stage s's half in a b-row batch.

        Row by row, [yq, yp, yp, xp, xq] of each butterfly it runs (y =
        left leftward, right rightward), as offsets from the start of left[s
        + 1] in the (2, n_log2 + 1, b, N) messages: q = p + 2^s, and right[s]
        lies n_log2 layers on.  Built on first use and kept, so a decode of
        a known pattern and batch size builds only views.
        """
        key = s, direction, b
        if key not in self._index:
            n = 1 << self.n_log2
            leftward = direction == "leftward"
            p = self.leftward[s] if leftward else self.rightward[s]
            right, q = self.n_log2 * b * n, 1 << s
            y, x = (0, right) if leftward else (right, 0)
            at = np.array([y + q, y, y, x, x + q])[:, None, None] + (np.arange(b) * n)[:, None]
            self._index[key] = (at + p).reshape(5, -1)
        return self._index[key]


@lru_cache(maxsize=16)
def _gather_plan(n_log2, zero):
    """The _GatherPlan of the positions zero in every row's channel LLRs
    (zero, a bool mask as bytes), kept for the next decodes of the pattern."""
    return _GatherPlan(n_log2, zero)


def _frozen_pass(left0, frozen):
    """Per row of left0 (B, N), whether no frozen position (frozen, a bool
    mask over N) holds a message < 0: the frozen stop's test, in which -0.0
    passes as +0.0 does.  On finite messages it equals
    (left0[:, frozen_set] >= 0).all(axis=1) without that column gather,
    which numpy runs about 8x slower than the masked test at B = 2."""
    return ~(np.less(left0, 0.0) & frozen).any(axis=1)


class _Step(NamedTuple):
    """One stage half of a schedule: kernel(*args) runs it, over views built
    with the schedule; direction is 'leftward', 'rightward' or, for the
    pilot's stage-0 box-plus, 'pilot'."""

    kernel: Callable
    args: tuple
    direction: str


class _Lockstep:
    """The message layers of the rows still decoding, and one iteration's
    stage-half schedule over them.

    msgs is (2, n_log2 + 1, B, N): left and right, the leftward and
    rightward messages into each layer, one row per codeword, so each layer
    of every row is one contiguous block.  Each stage half takes one
    box-plus f over operands [a; b] that stack its two outputs,
      left[s]    = [f(lp, rq + lq); f(lp, rp) + lq]
      right[s+1] = [f(rp, rq + lq); f(rp, lp) + rq]
    so both rows of a hold the shared operand (f is symmetric bit for bit).
    It runs on the butterflies its _GatherPlan lists, through one flat
    gather over left[s + 1] and right[s] into the buffer g and one scatter
    into the layer it writes.  g and the scratch are allocated once per
    batch size.  A schedule is a list of _Step, one per stage half, each
    holding its kernel and every view the kernel and its box-plus touch,
    built with the step, and its direction; run calls the kernels and does
    nothing else.

    Under the exact rule the plan is that of the positions zero in every
    row.  A leftward stage skips the butterflies with two zero inputs, whose
    outputs stay at the +0 the full update would write, since f(+-0, y) = +0
    and msgs starts at +0.  A rightward stage skips the butterflies whose
    outputs no later stage half reads.  Those messages go stale but stay
    finite, and a stage half that takes one in anyway writes what it would
    from a fresh one: it takes it only into f beside a zero lp, which gives
    +0 whatever it holds, or into an output nothing reads.  Under min-sum,
    whose f(0, y) can be -0, the plan is the empty zero set's, which lists
    every butterfly.  The schedules are built when a half first runs, so a
    decode the stop rule ends in iteration 1 never builds the rightward
    one, and take their gather indices from the plan, which keeps them per
    batch size: a known pattern's schedule builds only views.

    The fixed-point stop reads only left, which no skipped butterfly leaves
    stale: remember keeps state, left[1..n_log2 - 1], before a leftward
    half, and repeated compares it after.
    """

    def __init__(self, msgs, rows, exact):
        self.msgs, self.rows, self.exact = msgs, rows, exact
        self.left, self.right = msgs
        _, layers, b, n = msgs.shape
        self.n_log2 = n_log2 = layers - 1
        # the messages every other one follows from: right from these, left[0]
        # from left[1], as left[n_log2] and right[0] are constants
        self.state = self.left[1:n_log2]
        self.prev_state = np.empty_like(self.state)
        # a stage half gathers 5 rows of at most b * n / 2 butterflies into
        # g, and its box-plus takes 4 of them through each scratch buffer
        self.g = np.empty(5 * b * n // 2)
        self.t, self.d = np.empty(2 * b * n), np.empty(2 * b * n)
        zero = ~self.left[n_log2].any(axis=0) if exact else np.zeros(n, dtype=bool)
        self.plan = _gather_plan(n_log2, zero.tobytes())
        self._leftward = self._rightward = None

    @property
    def leftward(self):
        if self._leftward is None:
            self._leftward = [self._step(s, "leftward") for s in reversed(range(self.n_log2))]
        return self._leftward

    @property
    def rightward(self):
        # stages 0..n-2, as right[n_log2] is unused
        if self._rightward is None:
            self._rightward = [self._step(s, "rightward") for s in range(self.n_log2 - 1)]
        return self._rightward

    def _step(self, s, direction):
        # the outputs' positions, index[:2], land one layer down from
        # left[s + 1] in left[s], or one layer up from right[s] in right[s + 1]
        index = self.plan.index(s, direction, self.left.shape[1])
        layer, w = self.left[0].size, index.shape[1]
        g = self.g[:5 * w].reshape(5, w)
        xs = g[1:].reshape(2, 2, w)
        ts, ds = (buf[:4 * w].reshape(2, 2, w) for buf in (self.t, self.d))
        flat = self.msgs.reshape(-1)
        dst = s if direction == "leftward" else s + 2
        return _Step(_gathered, (flat[(s + 1) * layer:], index, g, xs[1, 1], g[0],
                                 _box_views(xs, ts, ds, xs[0], self.exact), xs[0, 0],
                                 flat[dst * layer:], index[:2], xs[0]), direction)

    def run(self, half):
        for kernel, args, _ in half:
            kernel(*args)

    def pilot(self):
        """The prior-free pilot of every row: iteration 1's left[1] (see the
        module docstring) through one stage-0 box-plus with no right[0]
        prior, run as a one-step half."""
        pilot = self.left[1].copy()
        v = pilot.reshape(-1, 2).T  # [top; bottom] of every stage-0 butterfly
        t, d = (buf[:pilot.size].reshape(v.shape) for buf in (self.t, self.d))
        self.run([_Step(_boxplus, _box_views(v, t, d, v[0], self.exact), "pilot")])
        return pilot

    def remember(self):
        """Keep state, before the leftward half overwrites it."""
        np.copyto(self.prev_state, self.state)

    def repeated(self):
        """Per row, whether the leftward half left state as remember kept
        it, as bits (so a sign flip of a zero counts)."""
        return ~np.not_equal(self.prev_state.view(np.uint64),
                             self.state.view(np.uint64)).any(axis=(0, 2))

    def drop(self, stopped):
        """The rows not listed in stopped, with a schedule sized to them."""
        keep = np.delete(np.arange(self.rows.size), stopped)
        # the schedule's views go before the next one is built (its index arrays
        # stay with the plan)
        self._leftward = self._rightward = None
        # take, unlike an indexed copy, returns msgs C-contiguous, as the flat
        # gathers need
        return _Lockstep(np.take(self.msgs, keep, axis=2), self.rows[keep], self.exact)


def bp_decode_many(llrs, spec: CodeSpec, cfg: BpConfig = BpConfig(),
                   crc_checks=None) -> list:
    """Decode a batch of channel-LLR rows in lockstep; one DecodeResult per row.

    The batch's messages take 2 (n_log2 + 1) B N floats, and (n_log2 - 1) B N
    more keep left[1..n_log2 - 1] from before each leftward half for the
    fixed-point stop; they grow the work per row once they leave the cache,
    so a caller with many codewords decodes them in groups (run_point sizes
    its groups from N).  Under the exact rule, the positions zero in every
    row decide which leftward butterflies run (see the module docstring): a
    batch of punctured frames decodes faster when its rows share their
    zeros, and a row that carries a position the others puncture makes every
    row run it.  The zeros also decide which rightward butterflies run: only
    those whose messages some leftward update reads, directly or through
    later rightward stages.  The gather plan of a zero pattern, both halves,
    is built on its first decode and kept for the next ones (the 16 most
    recent patterns), with the index arrays of each batch size it has run.

    Parameters
    ----------
    llrs : array-like of float, shape (B, spec.n)
        One row of channel LLRs per codeword, in codeword-position order;
        untransmitted (punctured) positions carry exactly 0.
    spec : CodeSpec
    cfg : BpConfig
    crc_checks : sequence of B callables or None, optional
        Row i's CRC predicate, callable(info_bits) -> bool; None (the whole
        argument or one entry) gives a row none.  Under early_stop 'frozen',
        the row's stop also waits for it to pass and then reports
        stop_reason 'crc', returning the info bits it passed; under 'none'
        it is unused.  It must be a pure function of its input (see the
        fixed-point stop).

    Returns
    -------
    list of DecodeResult
        Row i's info_bits are in ascending info-position order; frozen_hard
        holds its prior-free hard decisions at frozen positions (ascending
        order), and fber is their mean over the observed ones.  Row i's
        result equals that of the one-row batch llrs[i:i + 1] field for
        field, bit for bit: every row keeps its own stop and pilot.
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
    msgs = np.zeros((2, n_log2 + 1, batch, n))
    left, right = msgs
    right[0][:, spec.frozen_set] = FROZEN_PRIOR_LLR
    left[n_log2] = llrs
    core = _Lockstep(msgs, np.arange(batch), cfg.update_rule == "exact")
    results = [None] * batch
    frozen = np.zeros(n, dtype=bool)
    frozen[spec.frozen_set] = True

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
        if iterations > 1:
            core.remember()
        core.run(core.leftward)
        if iterations == 1:
            pilot = core.pilot()

        stopped = []
        if cfg.early_stop != "none":
            for i in _frozen_pass(core.left[0], frozen).nonzero()[0]:
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
        if iterations > 1:
            # a row whose left repeats holds the left[0] the rule did not
            # pass in the last iteration, so the rule stopped none of these
            for i in core.repeated().nonzero()[0]:
                read_out(i, iterations, "fixed_point")
                stopped.append(i)
        if len(stopped) == core.rows.size:
            break
        if stopped:
            core = core.drop(stopped)
        # no leftward half follows the budget's last iteration to read this one
        if iterations < cfg.max_iters:
            core.run(core.rightward)
    else:
        for i in range(core.rows.size):
            read_out(i, cfg.max_iters, "max_iters")
    return results


def bp_decode(llrs, spec: CodeSpec, cfg: BpConfig = BpConfig()) -> DecodeResult:
    """Decode one row of spec.n channel LLRs, with no CRC check: the
    one-row batch of bp_decode_many, which documents the result."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (spec.n,):
        raise ValueError(f"llrs must have length {spec.n}, got shape {llrs.shape}")
    return bp_decode_many(llrs[None], spec, cfg)[0]


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
