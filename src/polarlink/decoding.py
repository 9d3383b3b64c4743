"""Belief-propagation decoding on the polar factor graph.

The graph mirrors the encoder circuit: layer 0 holds the pre-transform bits u
(frozen positions pinned to 0 by a large finite prior), layer n holds the
channel LLRs, and stage s connects layers s and s+1 through N/2 butterflies
pairing positions p and p + 2^s.  Positive LLRs favor bit 0 throughout, and a
posterior of exactly zero decides bit 0.

bp_decode_many runs a batch of codewords of one code in lockstep
(_Lockstep): each stage half is one gather, one box-plus and one scatter
over every running row, so a batch pays the per-call cost of each numpy
kernel once, which at a sweep's batch sizes (B = 1 to 8) is most of an
iteration's cost.  Each row skips the outputs that are known or that
nothing reads for its own zero pattern (_GatherPlan), yet the decoder
keeps a bit-identity contract: every
message it reads, and so every result field and stop, equals that of the
plain per-butterfly update rules, signed zeros included, since the
fixed-point stop compares messages as bits.  The test suite checks this
against an index-pair reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
    applies no decision rule, so its decodes never report converged.  The
    frozen rule needs evidence to agree with: a row with no nonzero channel
    LLR, whose frozen decisions are all the +0 of silence, and a code with
    no frozen position, which would pass it vacuously, never stop on it.  In
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
    rightward half would write.  stop_reason says why the loop ended:
    'frozen' or 'crc' when the early-stop rule fired, 'fixed_point' when an
    iteration left the messages bit-identical, and 'max_iters' when the
    budget ran out.  converged is true exactly when the early-stop rule
    fired.
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
    the write.  The caller builds these views once (_box_views), so a call
    indexes nothing and passes every out positionally, which numpy parses
    faster than the keyword.  The exact rule is ln((1 + e^(a+b)) / (e^a +
    e^b)) in the stable form sign(a)sign(b)min(|a|,|b|) + log1p(e^-|a+b|) -
    log1p(e^-|a-b|), with both correction terms taken in one pass over d.
    Its leading term is taken as copysign(min(|a|,|b|), a*b): that differs
    from the sign product only in the sign of a zero, which the following +
    log1p(...) >= +0 turns into +0.  Min-sum has no such term and
    np.sign(-0.0) is +0, so it keeps the sign product.  Both rules are
    symmetric in a and b bit for bit.
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

    zero is the channel layer's: the positions zero in a row, as bool
    bytes.  Puncturing pins most channel LLRs at exactly 0 (Niu, Chen & Lin,
    ICC 2013), and under the exact rule f(+-0, y) = +0, so a butterfly whose
    top input lp is zero outputs +0 at the top and +0 + lq at the bottom: a
    top output is zero when its top input is, a bottom one when both inputs
    are.  The set can shrink from layer to layer (at rate 1/8 it does for
    about a third of the session sizes), so it is derived per stage.
    """
    zero = np.frombuffer(zero, dtype=bool).copy()
    for s in reversed(range(n_log2)):
        z = zero.reshape(-1, 2, 1 << s)
        yield s, z[:, 0], z[:, 0] & z[:, 1]
        z[:, 1] &= z[:, 0]


def _outputs(s, n, top, bottom, copy):
    """The top positions p of stage s's butterflies (T, F, B, C) that
    box-plus their top output only, both and their bottom output only, and
    whose bottom output is a copy, from masks over the butterflies of which
    box-plus their top and bottom outputs and which copy their bottom one.
    A butterfly in none of them writes nothing."""
    p = np.arange(n).reshape(-1, 2, 1 << s)[:, 0]
    both = top & bottom
    return p[top ^ both], p[both], p[bottom ^ both], p[copy]


def _one_row_index(halves, n_log2, leftward):
    """The one-row (index, spans, slices) of one direction, from each
    stage's (T, F, B, C) of _outputs: one array, per stage s spans[s] =
    (lo, mid, hi, counts), stage s's gather index being index[lo:mid], its
    scatter index index[mid:hi] and counts its butterfly counts (T, F, B,
    C), and the length of each slice of the index that lists one kind of
    one operand or output.

    The gather index lists [yq(T|F|B|C) | xq(T|F) xp(F|B) | yp(T|F) yp(F|B)
    | +0(C)] (see _gathered) as offsets from the start of left[s + 1] in
    the (2, n_log2 + 1, 1, N) messages: q = p + 2^s, right[s] lies n_log2
    layers on, and each +0 is taken from right[n_log2], which no stage half
    writes.  The scatter index lists the positions [p(T|F) | q(F|B|C)] of
    the outputs, offset as their yq and yp are, so from the start of the
    layer written one layer down (leftward) or up (rightward).  So every
    entry is layer * N + position.
    """
    n = 1 << n_log2
    parts, spans, slices, lo = [np.empty(0, dtype=np.intp)], [], [], 0  # n_log2 = 1 has no rightward
    for s, kinds in enumerate(halves):
        nt, nf, nb, nc = counts = tuple(p.size for p in kinds)
        tops = np.concatenate(kinds)  # [T | F | B | C]
        tf, fb = tops[:nt + nf], tops[nt:nt + nf + nb]
        right, q = n_log2 * n, 1 << s
        y, x = (0, right) if leftward else (right, 0)
        gather = np.concatenate([tops + (y + q), tf + (x + q), fb + x, tf + y, fb + y,
                                 np.full(nc, (2 * n_log2 - s) * n)])
        scatter = np.concatenate([tf + y, gather[nt:nt + nf + nb + nc]])
        parts += gather, scatter
        # yq(T|F|B|C) xq(T|F) xp(F|B) yp(T|F) yp(F|B) +0(C), then p(T|F) q(F|B|C)
        slices += [nt, nf, nb, nc, nt, nf, nf, nb, nt, nf, nf, nb, nc, nt, nf, nf, nb, nc]
        mid = lo + gather.size
        spans.append((lo, mid, mid + scatter.size, counts))
        lo = mid + scatter.size
    return np.concatenate(parts), spans, np.array(slices, dtype=np.intp)


class _GatherPlan:
    """Which output messages each stage half writes, for one zero pattern:
    one_row maps 'leftward' and 'rightward' to their one-row (index, spans)
    and slices to the lengths of that index's slices (_one_row_index), all
    built with the plan.

    A stage half's outputs are of three kinds.  A box-plus output is f(yp,
    xp) + yq at the bottom q or f(yp, xq + yq) at the top p, where y is the
    side the half updates.  A copy is the bottom output +0 + yq of a
    butterfly whose top input lp is in the zero set (_stage_zeros).  A
    skipped output is a top output known to be +0, or a rightward output
    that no later stage half reads.

    Leftward, a butterfly with a nonzero lp box-plusses both outputs, one
    with a zero lp copies its bottom output when lq is nonzero, and one
    with two zero inputs writes nothing.  So leftward stage s reads right[s]
    at p and q only where lp is nonzero.  Rightward stage s writes the
    outputs in right[s + 1] that some later stage half reads: the top one,
    f(rp, rq + lq), reads rp and rq, and the bottom one, f(rp, lp) + rq,
    reads rq, and rp only where lp is nonzero, elsewhere being a copy of
    rq.  A read message of any layer lies outside that layer's zero set (by
    induction from right[n_log2 - 1]), so a read top output adds no read to
    the leftward stage's.  The empty zero set box-plusses both outputs of
    every butterfly.  At K=96, rate 3/4, an iteration box-plusses 1172 of
    its 19456 output messages, 650 leftward and 522 rightward, and copies
    987.
    """

    def __init__(self, n_log2, zero):
        self.n_log2 = n_log2
        n = 1 << n_log2
        leftward, rightward = [None] * n_log2, [None] * (n_log2 - 1)
        read = np.zeros((n_log2, n), dtype=bool)
        for s, top, both in _stage_zeros(n_log2, zero):
            leftward[s] = _outputs(s, n, ~top, ~top, top & ~both)
            r = read[s].reshape(-1, 2, 1 << s)
            r[:, 0] = r[:, 1] = ~top
            if s < n_log2 - 1:
                out = read[s + 1].reshape(-1, 2, 1 << s)
                rightward[s] = _outputs(s, n, out[:, 0], out[:, 1] & ~top, out[:, 1] & top)
                r[:, 1] |= out[:, 1]
        self.one_row, self.slices = {}, {}
        for direction, halves in (("leftward", leftward), ("rightward", rightward)):
            index, spans, slices = _one_row_index(halves, n_log2, direction == "leftward")
            self.one_row[direction], self.slices[direction] = (index, spans), slices


def _derive_batch_index(plans, direction, stride):
    """The (index, spans) of direction for a batch whose row r runs
    plans[r] and whose messages are (2, n_log2 + 1, stride, N).

    Each slice of a one-row index lists one kind of one operand or output
    of a stage half (_one_row_index); here it lists that of every row, so
    each stage half is still one gather, one box-plus and one scatter, and
    its span sums the rows' spans.  Within a slice the rows of one plan
    come together, entry by entry with their rows innermost, and the plans
    in the order they first run, so every slice of one kind lists its
    butterflies in one order, as _gathered pairs them.  A layer here spans
    stride rows, so row r's one-row entry e = layer * N + p lies at e +
    layer * (stride - 1) * N + r * N, and the +0 entries of its copies land
    on row r of right[n_log2], which holds +0 in every row.  Each row takes
    one strided add, and a batch of several plans one permutation more,
    which interleaves their slices.
    """
    n_log2 = plans[0].n_log2
    n = 1 << n_log2
    rows = {}  # each plan's rows, the plans in the order they first run
    for r, plan in enumerate(plans):
        rows.setdefault(plan, []).append(r)
    parts = []
    for plan, at in rows.items():
        index = plan.one_row[direction][0]
        base = index >> n_log2
        base *= (stride - 1) * n
        base += index
        # a broadcast over so few rows would run numpy's inner loop over them
        part = np.empty((index.size, len(at)), dtype=index.dtype)
        for k, r in enumerate(at):
            np.add(base, r * n, part[:, k])
        parts.append(part.reshape(-1))
    index = parts[0]
    if len(parts) > 1:
        lengths = np.array([plan.slices[direction] * len(at) for plan, at in rows.items()])
        # slice j of plan g starts at place in index, and moves to after
        # slice j of the plans before it, all of slice j - 1 before that
        place = lengths.cumsum().reshape(lengths.shape) - lengths
        moved = lengths.T.ravel()
        perm = np.repeat(place.T.ravel() - (moved.cumsum() - moved), moved)
        perm += np.arange(perm.size)
        index = np.concatenate(parts)[perm]
    spans = []
    for stage in zip(*(plan.one_row[direction][1] for plan in plans)):
        lo, mid, hi, counts = zip(*stage)
        spans.append((sum(lo), sum(mid), sum(hi), tuple(map(sum, zip(*counts)))))
    return index, spans


# The batch index of the composition of plans and stride each direction ran
# last, so a decode that repeats it derives nothing, and no more than that
# one index per direction is kept.
_last_batch = {}


def _batch_index(plans, direction, stride):
    """The (index, spans) of direction for the rows running plans, in
    messages of stride rows (_derive_batch_index); a one-row batch's is its
    plan's own."""
    if stride == 1:
        return plans[0].one_row[direction]
    key = stride, plans
    last = _last_batch.get(direction)
    if last is None or last[0] != key:
        last = _last_batch[direction] = key, _derive_batch_index(plans, direction, stride)
    return last[1]


@lru_cache(maxsize=16)
def _gather_plan(n_log2, zero):
    """The _GatherPlan of the positions zero in a row's channel LLRs (zero,
    a bool mask as bytes), kept for the next decodes of the pattern (the 16
    most recent)."""
    return _GatherPlan(n_log2, zero)


def prepare_decoder(spec: CodeSpec, sent) -> None:
    """Build and keep the gather plan that the first exact-rule decode of a
    row whose nonzero channel LLRs lie at the positions sent would build.
    A process that forks workers calls it before the fork, so that each
    worker starts with the plans its decodes use."""
    zero = np.ones(spec.n, dtype=bool)
    zero[sent] = False
    _gather_plan(spec.n_log2, zero.tobytes())


def _frozen_pass(left0, frozen):
    """Per row of left0 (B, N), whether no frozen position (frozen, a bool
    mask over N) holds a message < 0: the frozen stop's test, in which -0.0
    passes as +0.0 does.  On finite messages it equals
    (left0[:, frozen_set] >= 0).all(axis=1) without that column gather,
    which numpy runs about 8x slower than the masked test at B = 2."""
    return ~(np.less(left0, 0.0) & frozen).any(axis=1)


class _Lockstep:
    """The message layers of the rows still decoding, and the stage-half
    schedules of one iteration over them.

    msgs is (2, n_log2 + 1, B, N): left and right, the leftward and
    rightward messages into each layer, one row per codeword, so each layer
    of every row is one contiguous block.  The rows still decoding are the
    first rows.size of its B (see drop).  The two outputs of a stage-s
    butterfly are
      left[s]    = [f(lp, rq + lq); f(lp, rp) + lq]
      right[s+1] = [f(rp, rq + lq); f(rp, lp) + rq]
    at [p; q], so both box-plusses share an operand.

    Row r runs plans[r]: under the exact rule that of its own channel
    zeros, under min-sum, whose f(0, y) can be -0, that of the empty zero
    set.  A row's pattern holds for its whole decode, and its messages move
    with it when rows drop, so each row writes and reads exactly what its
    one-row decode would: a top output its plan skips stays at the +0 the
    full update would write, since f(+-0, y) = +0 and msgs starts at +0,
    and a skipped rightward output goes stale but stays finite, and no
    stage half takes one in.
    """

    def __init__(self, msgs, rows, plans, exact, scratch=None):
        self.msgs, self.rows, self.plans, self.exact = msgs, rows, plans, exact
        self.left, self.right = msgs[:, :, :rows.size]
        _, layers, stride, n = msgs.shape
        self.n_log2 = n_log2 = layers - 1
        self.state = self.left[1:n_log2]  # every other message follows from these (repeated)
        self.prev_state = np.empty_like(self.state)
        # a stage half gathers at most 5 operands of each of a row's n / 2
        # butterflies into g, and its box-plus takes at most 2 * n of them per
        # row through each scratch buffer
        self.g, self.t, self.d = scratch or (np.empty(5 * stride * n // 2),
                                             np.empty(2 * stride * n), np.empty(2 * stride * n))
        self._halves = {}

    def run(self, direction):
        """Run the stage halves of direction, 'leftward' or 'rightward'.  Its
        schedule is built when it first runs, so a decode the stop rule ends
        in iteration 1 never builds the rightward one."""
        half = self._halves.get(direction)
        if half is None:
            half = self._halves[direction] = self._schedule(direction)
        for args in half:
            _gathered(*args)

    def _schedule(self, direction):
        """_gathered's arguments for each stage half of direction, in the
        order they run, over views of the plan's indices for these rows."""
        leftward = direction == "leftward"
        index, spans = _batch_index(self.plans, direction, self.msgs.shape[2])
        layer = self.msgs[0, 0].size
        flat = self.msgs.reshape(-1)
        half = []
        # rightward stops at stage n_log2 - 2, as right[n_log2] is unused
        for s in reversed(range(self.n_log2)) if leftward else range(self.n_log2 - 1):
            lo, mid, hi, (nt, nf, nb, nc) = spans[s]
            tails, m = nt + nf + nb + nc, nt + 2 * nf + nb
            g = self.g[:mid - lo]
            x = g[tails:tails + 2 * m].reshape(2, m)  # [b; a], the box-plus operands
            t, d = (buf[:2 * m].reshape(2, m) for buf in (self.t, self.d))
            # the outputs land one layer down from left[s + 1] in left[s], or
            # one layer up from right[s] in right[s + 1]
            dst = s if leftward else s + 2
            half.append((flat[(s + 1) * layer:], index[lo:mid], g, x[0, :nt + nf],
                         g[:nt + nf], _box_views(x, x[1], x[0], t, d, x[1], self.exact),
                         g[tails + m + nt + nf:], g[nt:tails], flat[dst * layer:],
                         index[mid:hi], g[tails + m:]))
        return half

    def pilot(self):
        """The prior-free pilot of every row, whose frozen positions give
        the frozen hard decisions: a leftward pass on channel evidence only.
        The frozen bits act as known pilots, so any prior influence (their
        own or each other's) would drag the statistic to zero regardless of
        channel quality, and the frozen error ratio could not track it.  In
        iteration 1 every rightward message above layer 0 is still zero, so
        its leftward half leaves in layers n_log2..1 what the prior-free
        pass would, up to the sign of zeros, which neither the hard decision
        (< 0) nor the observed mask (|x| > 0) reads: the pilot is iteration
        1's left[1] through one stage-0 box-plus with no right[0] prior."""
        pilot = self.left[1].copy()
        v = pilot.reshape(-1, 2).T  # [top; bottom] of every stage-0 butterfly
        t, d = (buf[:pilot.size].reshape(v.shape) for buf in (self.t, self.d))
        _boxplus(*_box_views(v, v[0], v[1], t, d, v[0], self.exact))
        return pilot

    def remember(self):
        """Keep state, before the leftward half overwrites it."""
        np.copyto(self.prev_state, self.state)

    def repeated(self):
        """Per row, whether the leftward half left state, left[1..n_log2 -
        1], as remember kept it, as bits (so a sign flip of a zero counts).

        The messages the rightward half skips go stale, but the leftward
        ones never do: a skipped leftward output holds the +0 its update
        would write.  left[0] follows from left[1], as right[0] is constant,
        and the whole right state from left[1..n_log2 - 1], so when those
        repeat in iteration t >= 2, iteration t leaves every message of the
        full schedule as t - 1 left it.
        """
        return ~np.not_equal(self.prev_state.view(np.uint64),
                             self.state.view(np.uint64)).any(axis=(0, 2))

    def drop(self, stopped):
        """The rows not listed in stopped, with no schedule built: they move
        up to the first rows of msgs, whose stride stays for the whole
        decode, as do g and the scratch, allocated once per decode."""
        keep = np.delete(np.arange(self.rows.size), stopped)
        # keep ascends, so no row is overwritten before it moves
        for i, row in enumerate(keep):
            if i != row:
                self.msgs[:, :, i] = self.msgs[:, :, row]
        return _Lockstep(self.msgs, self.rows[keep], tuple(self.plans[i] for i in keep),
                         self.exact, (self.g, self.t, self.d))


def bp_decode_many(llrs, spec: CodeSpec, cfg: BpConfig = BpConfig(),
                   crc_checks=None) -> list:
    """Decode a batch of channel-LLR rows in lockstep; one DecodeResult per row.

    The batch's messages take 2 (n_log2 + 1) B N floats, and (n_log2 - 1) B N
    more keep left[1..n_log2 - 1] from before each leftward half for the
    fixed-point stop; they grow the work per row once they leave the cache,
    so a caller with many codewords decodes them in groups (a sweep's
    lockstep sessions size theirs from N).  Under the exact rule each row's
    own zero positions decide which of its output messages need a box-plus
    (_GatherPlan), so a punctured row costs its own pattern's work, whatever
    the rows beside it send.

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
        field, bit for bit: every row keeps its own stop and pilot, and
        leaves the batch when it stops.
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
    exact = cfg.update_rule == "exact"
    plans = (tuple(_gather_plan(n_log2, zero.tobytes()) for zero in llrs == 0) if exact
             else (_gather_plan(n_log2, bytes(n)),) * batch)
    core = _Lockstep(msgs, np.arange(batch), plans, exact)
    results = [None] * batch
    frozen = np.zeros(n, dtype=bool)
    frozen[spec.frozen_set] = True
    # the rows without evidence for the frozen rule to agree with (BpConfig)
    silent = ~llrs.any(axis=1) if spec.frozen_set.size else np.ones(batch, dtype=bool)
    silent = silent if silent.any() else None

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
        core.run("leftward")
        if iterations == 1:
            pilot = core.pilot()

        # the stops read only left[0] and left[1..n_log2 - 1], final once the
        # leftward half has run, and the constant right[0], so a stopped row
        # skips the rightward half
        stopped = []
        if cfg.early_stop != "none":
            passed = _frozen_pass(core.left[0], frozen)
            if silent is not None:
                passed &= ~silent[core.rows]
            for i in passed.nonzero()[0]:
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
            core.run("rightward")
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
