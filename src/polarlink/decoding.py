"""Belief-propagation decoding on the polar factor graph.

The graph mirrors the encoder circuit: layer 0 holds the pre-transform bits u
(frozen positions pinned to 0 by a large finite prior), layer n holds the
channel LLRs, and stage s connects layers s and s+1 through N/2 butterflies
pairing positions p and p + 2^s.  Positive LLRs favor bit 0 throughout, and a
posterior of exactly zero decides bit 0.

The decoder runs a batch of codewords of one code in lockstep: the leftward
and rightward messages are (n_log2 + 1, B, N) each, one row per codeword
within each layer.  One iteration runs one box-plus per stage half over
every running row, on the output messages that half's gather plan says need
one, taken from the messages by one flat gather into buffers allocated once
per decode and written back by one scatter, so a batch pays the
per-call cost of each numpy kernel once.  Every view a stage half's kernels
touch (gathered operands, scratch, tail and output spans) is built once,
with the schedule, rather than on each call, and the stop rule tests left[0]
through a frozen-position mask rather than gathering its frozen columns: at the
batch sizes of a sweep (B = 1 to 8) an iteration's cost is mostly fixed per
numpy call.  It keeps a bit-identity contract: every message the decoder
reads, and so every result field and stop, equals that of the plain
per-butterfly update rules, signed zeros included, since the fixed-point
stop compares messages as bits.  The test suite checks this against an
index-pair reference loop.

Each row stops on its own rule and is read out when it stops; the rows still
running then move up to the first rows of the arrays, so the work follows
them, and a row's result does not depend on the rows decoded beside it.
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
and under the exact rule f(+-0, y) = +0, so a butterfly whose top input lp
is zero outputs +0 at the top and +0 + lq at the bottom: a known output and
a copy, neither of which needs a box-plus.  The positions zero in every row
of the batch propagate stage by stage: a top output is zero when its top
input is, a bottom output when both inputs are.  The set is derived per
stage, as it can shrink from layer to layer (at rate 1/8 it does for about
a third of the session sizes).  By the same rule a leftward butterfly whose
lp is zero reads nothing of right, and the bottom output f(rp, lp) + rq of a
rightward one reads rp only where lp is nonzero and is a copy of rq
elsewhere, so most rightward messages feed no leftward update.  Each stage
half box-plusses only the outputs that need it, copies those that are a
zero plus a tail, and skips the rest: at K=96, rate 3/4, an iteration
box-plusses 1172 of its 19456 output messages, 650 leftward and 522
rightward, and copies 987.  The plan of each zero pattern is built once and
kept, with one gather index per stage half that holds no batch size: a
batch derives its own from it, in one pass per direction, when it builds
its schedule, and the plan keeps the one of the last batch size a decode
started with.  A process that forks workers can build the plans they will
use before it forks (prepare_decoder; run_sweep does).  Min-sum's f(0, y)
can be -0, so under min-sum, as for a batch with no zero position, the
plan is that of the empty zero set, which box-plusses both outputs of
every butterfly.
The messages the rightward half skips go stale, but the leftward ones never
do: a skipped leftward output holds the +0 its update would write.  So the
fixed-point stop compares left[1..n_log2 - 1] as bits before and after an
iteration's leftward half.  left[0] follows from left[1], as right[0] is
constant, and the whole right state from left[1..n_log2 - 1], so when those
repeat in iteration t >= 2, iteration t leaves every message of the full
schedule as t - 1 left it.  The stop is tested beside the stop rule, and a
row it ends skips its rightward half too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .construction import CodeSpec
from .encoding import polar_transform

__all__ = [
    "FROZEN_PRIOR_LLR",
    "BpConfig",
    "DecodeResult",
    "bp_decode",
    "bp_decode_many",
    "combine_llrs",
    "prepare_decoder",
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


def _box_views(x, a, b, t, d, out, exact):
    """_boxplus's arguments over the operands x (a and b its rows, in either
    order), the scratch t and d, and out."""
    return x, a, b, t, t[0], t[1], d, d[0], d[1], out, exact


def _gathered(src, index, g, xq, tail_xq, box, bottom, tail_bottom, dst, scatter, out):
    """One stage half over the output messages its plan lists.

    y is the side the half updates (left leftward, right rightward), so yp
    is each butterfly's shared operand and yq its tail, and x is the other
    side.  T, F and B are the butterflies that box-plus their top output
    only, both outputs and their bottom output only, and C those whose
    bottom output is a copy.  src[index], taken into g, is [yq(T|F|B|C) |
    xq(T|F) xp(F|B) | yp(T|F) yp(F|B) | +0(C)].  The pre-add makes xq = xq
    + yq, the tail of a top output; the box-plus overwrites the yp row, a,
    with f(a, b) over the row b before it; the post-add adds yq to each
    bottom output and to the +0 of each copy, which so turns a -0 tail into
    +0 as f(+-0, y) + yq = +0 + yq does.  out = [a | copies] is then one
    span, and dst[scatter] takes it to the layer written.  take's
    mode="wrap" skips the bounds check of mode="raise", which would buffer
    the copy; every index is in range.
    """
    src.take(index, out=g, mode="wrap")
    np.add(xq, tail_xq, xq)
    _boxplus(*box)
    np.add(bottom, tail_bottom, bottom)
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


class _Outputs(NamedTuple):
    """The top positions p of a stage half's butterflies, by the outputs
    they box-plus (top only, both, bottom only) and by whether their bottom
    output is a copy; a butterfly in none of them writes nothing."""

    top: np.ndarray
    both: np.ndarray
    bottom: np.ndarray
    copy: np.ndarray


def _outputs(s, n, top, bottom, copy):
    """_Outputs from stage s's masks over its butterflies: which box-plus
    their top and bottom outputs, and which copy their bottom one."""
    p = np.arange(n).reshape(-1, 2, 1 << s)[:, 0]
    both = top & bottom
    return _Outputs(p[top ^ both], p[both], p[bottom ^ both], p[copy])


class _GatherPlan:
    """Which output messages each stage half writes, for one zero pattern.

    A stage half's outputs are of three kinds.  A box-plus output is f(yp,
    xp) + yq at the bottom q or f(yp, xq + yq) at the top p, where y is the
    side the half updates.  A copy is the bottom output +0 + yq of a
    butterfly whose top input lp is in the zero set, since f(+-0, y) = +0
    under the exact rule.  A skipped output is a top output known to be +0,
    which holds the +0 msgs starts with, or a rightward output that no
    later stage half reads, which goes stale.  leftward[s] and rightward[s]
    (stages 0..n_log2 - 2) hold each half's _Outputs.

    Leftward, a butterfly with a nonzero lp box-plusses both outputs, one
    with a zero lp copies its bottom output when lq is nonzero, and one
    with two zero inputs writes nothing, as its outputs hold the +0 they
    would be set to.  So leftward stage s reads right[s] at p and q only
    where lp is nonzero.  Rightward stage s writes the outputs in right[s +
    1] that some later stage half reads: the top one, f(rp, rq + lq),
    reads rp and rq, and the bottom one, f(rp, lp) + rq, reads rq, and rp
    only where lp is nonzero, elsewhere being a copy of rq.  A read message
    of any layer lies outside that layer's zero set (by induction from
    right[n_log2 - 1]), so a read top output adds no read to the leftward
    stage's.  Both halves come from one pass over the stages; the empty
    zero set box-plusses both outputs of every butterfly.  Each stage half
    keeps one gather index, that of a one-row batch, from which a batch of
    any size derives its own (see index and _batch_index); the plan also
    keeps the indices derived for the last batch size a decode started
    with (see batch_index).
    """

    def __init__(self, n_log2, zero):
        self.n_log2 = n_log2
        n = 1 << n_log2
        self.leftward, self.rightward = [None] * n_log2, [None] * (n_log2 - 1)
        read = np.zeros((n_log2, n), dtype=bool)
        for s, top, both in _stage_zeros(n_log2, zero):
            self.leftward[s] = _outputs(s, n, ~top, ~top, top & ~both)
            r = read[s].reshape(-1, 2, 1 << s)
            r[:, 0] = r[:, 1] = ~top
            if s < n_log2 - 1:
                out = read[s + 1].reshape(-1, 2, 1 << s)
                self.rightward[s] = _outputs(s, n, out[:, 0], out[:, 1] & ~top, out[:, 1] & top)
                r[:, 1] |= out[:, 1]
        self._index, self._batch = {}, {}

    def index(self, direction):
        """The one-row indices of every stage half of one direction, as
        (index, spans): one array, and per stage s spans[s] = (lo, mid, hi,
        counts), stage s's gather index being index[lo:mid], its scatter
        index index[mid:hi] and counts how many butterflies (T, F, B, C) of
        _gathered it has.

        The gather index lists [yq(T|F|B|C) | xq(T|F) xp(F|B) | yp(T|F)
        yp(F|B) | +0(C)] (see _gathered; y = left leftward, right
        rightward) as offsets from the start of left[s + 1] in the (2,
        n_log2 + 1, 1, N) messages: q = p + 2^s, right[s] lies n_log2 layers
        on, and each +0 is taken from right[n_log2], which no stage half
        writes.  The scatter index lists the positions [p(T|F) | q(F|B|C)]
        of the outputs, offset as their yq and yp are, so from the start of
        the layer written one layer down (leftward) or up (rightward).  So
        every entry is layer * N + position, and each kind is one slice.
        Built on first use and kept: a batch of any size derives its own
        from it, for the whole direction at once (batch_index).
        """
        if direction not in self._index:
            n_log2 = self.n_log2
            n = 1 << n_log2
            leftward = direction == "leftward"
            parts, spans, lo = [np.empty(0, dtype=np.intp)], [], 0  # n_log2 = 1 has no rightward
            for s, kinds in enumerate(self.leftward if leftward else self.rightward):
                nt, nf, nb, nc = counts = tuple(p.size for p in kinds)
                tops = np.concatenate(kinds)  # [T | F | B | C]
                tf, fb = tops[:nt + nf], tops[nt:nt + nf + nb]
                right, q = n_log2 * n, 1 << s
                y, x = (0, right) if leftward else (right, 0)
                gather = np.concatenate([tops + (y + q), tf + (x + q), fb + x, tf + y, fb + y,
                                         np.full(nc, (2 * n_log2 - s) * n)])
                scatter = np.concatenate([tf + y, gather[nt:nt + nf + nb + nc]])
                parts += gather, scatter
                mid = lo + gather.size
                spans.append((lo, mid, mid + scatter.size, counts))
                lo = mid + scatter.size
            self._index[direction] = np.concatenate(parts), spans
        return self._index[direction]

    def batch_index(self, direction, stride, rows):
        """The indices of direction for the first rows rows of a batch whose
        messages are (2, n_log2 + 1, stride, N), as (index, spans); the
        spans count one row, as those of index(direction) do.

        The plan keeps the index of all rows of the last stride a decode
        started with here, so a decode of a known pattern and batch size
        derives nothing.  Once more than half its rows are left after a
        drop (their stride stays), it copies their entries from the kept
        index, which is faster than deriving them; fewer rows, and rows
        that drop into this pattern from a batch of another pattern or
        stride, derive theirs (_batch_index).
        """
        index, spans = self.index(direction)
        if stride == 1:
            return index, spans
        kept = self._batch.get(direction)
        if rows == stride:
            if kept is None or kept[0] != stride:
                kept = self._batch[direction] = stride, _batch_index(index, self.n_log2, stride, rows)
            return kept[1], spans
        if kept is not None and kept[0] == stride and 2 * rows > stride:
            return np.ascontiguousarray(kept[1].reshape(-1, stride)[:, :rows]).reshape(-1), spans
        return _batch_index(index, self.n_log2, stride, rows), spans


def _batch_index(index, n_log2, stride, rows):
    """A one-row index of _GatherPlan.index, for rows rows of a batch whose
    messages are (2, n_log2 + 1, stride, N).

    There a layer spans stride rows, so the one-row entry e = layer * N + p
    of row r lies at e + layer * (stride - 1) * N + r * N.  The entries are
    listed position by position, the rows of each innermost, so each slice
    of the one-row index is one slice rows times as long here.  The +0
    entries of the copies land on row r of right[n_log2], which holds +0 in
    every row.  Each row is one strided add over the whole index; the
    alternatives run numpy's inner loop over the rows.
    """
    n = 1 << n_log2
    base = index >> n_log2
    base *= (stride - 1) * n
    base += index
    out = np.empty((index.size, rows), dtype=index.dtype)
    for r in range(rows):
        np.add(base, r * n, out[:, r])
    return out.reshape(-1)


@lru_cache(maxsize=16)
def _gather_plan(n_log2, zero):
    """The _GatherPlan of the positions zero in every row's channel LLRs
    (zero, a bool mask as bytes), kept for the next decodes of the pattern."""
    return _GatherPlan(n_log2, zero)


def prepare_decoder(spec: CodeSpec, sent) -> None:
    """Build and keep what the first exact-rule decode of rows whose nonzero
    channel LLRs lie at the positions sent would build: the gather plan of
    their zero pattern, with every stage half's one-row index.  A process
    that forks workers calls it before the fork, so that each worker starts
    with the plans its decodes use."""
    zero = np.ones(spec.n, dtype=bool)
    zero[sent] = False
    plan = _gather_plan(spec.n_log2, zero.tobytes())
    for direction in ("leftward", "rightward"):
        plan.index(direction)


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
    of every row is one contiguous block.  The rows still decoding are the
    first rows.size of its B: when rows stop, drop moves the others up, and
    msgs keeps its stride B for the whole decode, as do g and the scratch,
    which are allocated once per decode.  The two outputs of a stage-s
    butterfly are
      left[s]    = [f(lp, rq + lq); f(lp, rp) + lq]
      right[s+1] = [f(rp, rq + lq); f(rp, lp) + rq]
    at [p; q], so both box-plusses share an operand.  Each stage half runs
    one box-plus f, over the outputs its _GatherPlan says need one, and
    copies the outputs that are +0 plus a tail, through one flat gather
    over left[s + 1] and right[s] into the buffer g and one scatter into
    the layer it writes (see _gathered).  A schedule is a list of _Step,
    one per stage half, each holding its kernel and every view the kernel
    and its box-plus touch, built with the step, and its direction; run
    calls the kernels and does nothing else.

    Under the exact rule the plan is that of the positions zero in every
    row.  The top output of a butterfly whose lp is zero is never written:
    it stays at the +0 the full update would write, since f(+-0, y) = +0
    and msgs starts at +0, and a row's zeros include the batch's, so an
    earlier plan of a larger batch wrote +0 there too.  A rightward stage
    skips the outputs that no later stage half reads.  Those messages go
    stale but stay finite, and no stage half takes one in: every operand
    gathered is one its plan reads, and dropping rows only grows the zero
    set, which shrinks what the plan reads.  right[n_log2], which no stage
    half writes, holds +0 throughout; the copies take their +0 from it.
    Under min-sum, whose f(0, y) can be -0, the plan is the empty zero
    set's, which box-plusses both outputs of every butterfly.  The
    schedules are built when a half first runs, so a decode the stop rule
    ends in iteration 1 never builds the rightward one.  Each takes its
    gather and scatter indices for its rows from the plan
    (_GatherPlan.batch_index), which derives none for a known pattern and
    batch size, and builds views over them.

    The fixed-point stop reads only left, which no skipped output leaves
    stale: remember keeps state, left[1..n_log2 - 1], before a leftward
    half, and repeated compares it after.
    """

    def __init__(self, msgs, rows, exact, scratch=None):
        self.msgs, self.rows, self.exact = msgs, rows, exact
        # the batch's rows are the first rows.size of the stride msgs has
        self.left, self.right = msgs[:, :, :rows.size]
        _, layers, stride, n = msgs.shape
        self.n_log2 = n_log2 = layers - 1
        # the messages every other one follows from: right from these, left[0]
        # from left[1], as left[n_log2] and right[0] are constants
        self.state = self.left[1:n_log2]
        self.prev_state = np.empty_like(self.state)
        # a stage half gathers at most 5 operands of each of its stride * n / 2
        # butterflies into g, and its box-plus takes at most 2 * stride * n of
        # them through each scratch buffer
        self.g, self.t, self.d = scratch or (np.empty(5 * stride * n // 2),
                                             np.empty(2 * stride * n), np.empty(2 * stride * n))
        zero = ~self.left[n_log2].any(axis=0) if exact else np.zeros(n, dtype=bool)
        self.plan = _gather_plan(n_log2, zero.tobytes())
        self._leftward = self._rightward = None

    @property
    def leftward(self):
        if self._leftward is None:
            self._leftward = self._schedule("leftward", reversed(range(self.n_log2)))
        return self._leftward

    @property
    def rightward(self):
        # stages 0..n-2, as right[n_log2] is unused
        if self._rightward is None:
            self._rightward = self._schedule("rightward", range(self.n_log2 - 1))
        return self._rightward

    def _schedule(self, direction, stages):
        """The steps of one direction's stage halves, in the order given,
        over the plan's indices for these rows."""
        b = self.rows.size
        index, spans = self.plan.batch_index(direction, self.msgs.shape[2], b)
        steps = []
        for s in stages:
            lo, mid, hi, counts = spans[s]
            steps.append(self._step(s, direction, index[b * lo:b * mid], index[b * mid:b * hi],
                                    [b * c for c in counts]))
        return steps

    def _step(self, s, direction, index, scatter, counts):
        nt, nf, nb, nc = counts
        layer = self.msgs[0, 0].size
        tails, m = nt + nf + nb + nc, nt + 2 * nf + nb
        g = self.g[:index.size]
        x = g[tails:tails + 2 * m].reshape(2, m)  # [b; a], the box-plus operands
        t, d = (buf[:2 * m].reshape(2, m) for buf in (self.t, self.d))
        flat = self.msgs.reshape(-1)
        # the outputs land one layer down from left[s + 1] in left[s], or one
        # layer up from right[s] in right[s + 1]
        dst = s if direction == "leftward" else s + 2
        return _Step(_gathered, (flat[(s + 1) * layer:], index, g, x[0, :nt + nf], g[:nt + nf],
                                 _box_views(x, x[1], x[0], t, d, x[1], self.exact),
                                 g[tails + m + nt + nf:], g[nt:tails],
                                 flat[dst * layer:], scatter, g[tails + m:]), direction)

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
        self.run([_Step(_boxplus, _box_views(v, v[0], v[1], t, d, v[0], self.exact), "pilot")])
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
        """The rows not listed in stopped, with a schedule sized to them:
        they move up to the first rows of msgs, whose stride stays."""
        keep = np.delete(np.arange(self.rows.size), stopped)
        # the schedule's views and indices go before the next one is built
        self._leftward = self._rightward = None
        # keep ascends, so no row is overwritten before it moves
        for i, row in enumerate(keep):
            if i != row:
                self.msgs[:, :, i] = self.msgs[:, :, row]
        return _Lockstep(self.msgs, self.rows[keep], self.exact, (self.g, self.t, self.d))


def bp_decode_many(llrs, spec: CodeSpec, cfg: BpConfig = BpConfig(),
                   crc_checks=None) -> list:
    """Decode a batch of channel-LLR rows in lockstep; one DecodeResult per row.

    The batch's messages take 2 (n_log2 + 1) B N floats, and (n_log2 - 1) B N
    more keep left[1..n_log2 - 1] from before each leftward half for the
    fixed-point stop; they grow the work per row once they leave the cache,
    so a caller with many codewords decodes them in groups (run_point sizes
    its groups from N).  Under the exact rule, the positions zero in every
    row decide which output messages need a box-plus (see the module
    docstring): a butterfly whose top input is zero in every row copies its
    bottom output and leaves its top one at +0, so a batch of punctured
    frames decodes faster when its rows share their zeros, and a row that
    carries a position the others puncture makes every row box-plus it.
    The zeros also decide which rightward outputs are written at all: only
    those some leftward update reads, directly or through later rightward
    stages.  The gather plan of a zero pattern, both halves, is built on
    its first decode and kept for the next ones (the 16 most recent
    patterns), with one index per stage half from which each batch size
    derives its own, and with the indices of the last batch size a decode
    of the pattern started with.

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
