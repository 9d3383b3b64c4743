"""Systematic polar encoding with on-the-fly generator elements and bounded memory.

The generator matrix G_N (the n-th Kronecker power of [[1,0],[1,1]]) is never
materialized on the encode path: each element is derived from the bit patterns
of its row and column index, and the encoder works through the matrix one
column at a time with two K-bit buffers.  A dense Kronecker-product encoder is
provided as a test oracle, together with a storage model contrasting the two.
The simulator encodes with ``encode_transform_pair``, two butterfly passes over
an N-bit word, which gives the same codeword in O(N log N) bit operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .construction import CodeSpec

__all__ = [
    "AllocationMeter",
    "StorageAccount",
    "g_element",
    "polar_transform",
    "encode_systematic",
    "encode_transform_pair",
    "encode_dense_oracle",
    "kronecker_generator",
    "storage_report",
]


class AllocationMeter:
    """Counts the logical working-buffer bits an encode call requests.

    The streaming encoder routes every working-buffer allocation through
    this hook so tests can assert the O(K) memory contract without OS-level
    inspection.  Each buffer is counted at one bit per stored bit value.
    """

    def __init__(self):
        self.live_bits = 0
        self.peak_bits = 0

    def alloc(self, nbits: int, dtype=np.uint8) -> np.ndarray:
        self.live_bits += nbits
        self.peak_bits = max(self.peak_bits, self.live_bits)
        return np.zeros(nbits, dtype=dtype)

    def release(self, buf: np.ndarray):
        self.live_bits -= buf.size


def g_element(row: int, col: int, n_log2: int) -> int:
    """Element [G_N]_{row,col} of the Kronecker-power generator, 0-based.

    Equals 1 iff every bit set in ``col`` is also set in ``row``, i.e.
    (row AND col) == col.
    """
    n = 1 << n_log2
    if not (0 <= row < n and 0 <= col < n):
        raise ValueError(f"indices must be in [0, {n}), got ({row}, {col})")
    return 1 if (row & col) == col else 0


def _binary(bits) -> np.ndarray:
    """bits as a 1-D uint8 array of 0s and 1s; ValueError on any other shape
    or value.  A uint8 array, as every array of the session path is, costs
    one max."""
    x = np.asarray(bits)
    if x.ndim != 1:
        raise ValueError(f"bits must be 1-D, got shape {x.shape}")
    if x.dtype == np.uint8:
        if x.size and x.max() > 1:
            raise ValueError("bits must be 0 or 1")
        return x
    if not ((x == 0) | (x == 1)).all():
        raise ValueError("bits must be 0 or 1")
    return x.astype(np.uint8)


@lru_cache(maxsize=16)
def _stage_masks(n: int) -> tuple:
    """(step, mask) for each butterfly stage over an n-bit word: mask has
    bit p set for each top position p of the stage, the p whose bit of
    value step is clear, so step ones and step zeros in turn."""
    masks, step = [], 1
    while step < n:
        # (2^step - 1) (1 + 2^(2 step) + 2^(4 step) + ...), up to bit n - 1
        masks.append((step, ((1 << step) - 1) * (((1 << n) - 1) // ((1 << 2 * step) - 1))))
        step <<= 1
    return tuple(masks)


def _pack(bits) -> int:
    """A 0/1 (or bool) array as one integer, bit p of which is bits[p]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack(word: int, n: int) -> np.ndarray:
    """The low n bits of word as a uint8 array, inverse to _pack."""
    packed = np.frombuffer(word.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def _butterflies(word: int, n: int) -> int:
    """x = u . G_N on an n-bit word: per stage, every top bit ^= its bottom."""
    for step, mask in _stage_masks(n):
        word ^= (word >> step) & mask
    return word


def _transform(bits) -> np.ndarray:
    """polar_transform of a 1-D 0/1 array of power-of-two length, unchecked."""
    return _unpack(_butterflies(_pack(bits), bits.size), bits.size)


def polar_transform(u) -> np.ndarray:
    """Apply the butterfly circuit x = u . G_N without materializing G_N.

    The transform is an involution over GF(2): applying it twice returns the
    input.  The N bits are packed into one Python integer, and each of the
    log2 N stages is one shift, mask and XOR of that integer (the masks are
    kept per N), so the whole transform costs a few big-integer operations
    plus the pack and unpack.  u must be 1-D, of power-of-two length, and
    hold only 0s and 1s; anything else raises ValueError.  Returns a new
    uint8 array.
    """
    x = _binary(u)
    n = x.size
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    return _transform(x)


def encode_systematic(info, spec: CodeSpec, meter: AllocationMeter | None = None) -> np.ndarray:
    """Systematic polar encode: info bits land verbatim at the info positions.

    Computes the parity x_B = (x_A . G_AA) . G_AB column by column, generating
    each needed K-bit column of the generator from index arithmetic.  Working
    memory beyond inputs and the output codeword is two K-bit buffers (the
    column buffer and the intermediate vector), regardless of N.

    The info set must come from a reliability order over a non-degenerate
    design channel, so that G_AA is its own GF(2) inverse (the set is closed
    under bit domination); this is what makes the info positions carry the
    info bits unchanged.

    Parameters
    ----------
    info : array-like of {0,1}, length spec.k
        Information bits, ordered by ascending info-set position.
    spec : CodeSpec
    meter : AllocationMeter, optional
        Test hook that records working-buffer allocations.

    Returns
    -------
    ndarray of uint8, length spec.n
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.shape != (spec.k,):
        raise ValueError(f"info must have length {spec.k}, got shape {info.shape}")
    if meter is None:
        meter = AllocationMeter()
    a = spec.info_set  # ascending, int64
    b = spec.frozen_set
    k = spec.k

    colbuf = meter.alloc(k, dtype=np.int64)  # one generator column, K bit values
    t = meter.alloc(k, dtype=np.uint8)       # intermediate vector x_A . G_AA

    # t[j] = parity over i of info[i] * G[a_i, a_j]
    for j in range(k):
        np.bitwise_and(a, a[j], out=colbuf)
        t[j] = (info[colbuf == a[j]].sum()) & 1

    codeword = np.zeros(spec.n, dtype=np.uint8)
    codeword[a] = info
    # parity: x[b_j] = parity over i of t[i] * G[a_i, b_j]
    for bj in b:
        np.bitwise_and(a, bj, out=colbuf)
        codeword[bj] = (t[colbuf == bj].sum()) & 1

    meter.release(t)
    meter.release(colbuf)
    return codeword


def encode_transform_pair(info, spec: CodeSpec) -> np.ndarray:
    """Systematic polar encode with two butterfly transforms.

    Sets u[info_set] = info, transforms, zeroes the frozen positions and
    transforms again (Sarkis et al., "Flexible and low-complexity encoding
    and decoding of systematic polar codes", IEEE Trans. Commun. 2016).  The
    result equals ``encode_systematic(info, spec)`` when the info set is
    closed under bit domination (every index whose bits cover an info
    index's bits is an info index), as every ``plan_session`` spec is.

    The output is always a codeword of the code, so the systematic check
    after the second transform is complete: if x[info_set] == info, x is the
    unique systematic codeword.  Raises ValueError when that check fails
    (an info set that is not closed), on an info length other than spec.k
    and on an info bit other than 0 or 1.  Both transforms run on one N-bit
    integer word (polar_transform), which stays an integer between them:
    the frozen positions are zeroed with a mask word kept per info set.
    Stores a full N-bit vector, unlike the streaming encoder.
    """
    info = _binary(info)
    if info.shape != (spec.k,):
        raise ValueError(f"info must have length {spec.k}, got shape {info.shape}")
    u = np.zeros(spec.n, dtype=np.uint8)
    u[spec.info_set] = info
    v = _butterflies(_pack(u), spec.n) & _info_word(spec.n, spec.info_set.tobytes())
    codeword = _unpack(_butterflies(v, spec.n), spec.n)
    if not np.array_equal(codeword[spec.info_set], info):
        raise ValueError("info set is not closed under bit domination; "
                         "the transform pair is not systematic for this code")
    return codeword


@lru_cache(maxsize=16)
def _info_word(n: int, info_set: bytes) -> int:
    """The n-bit word with the bits of info_set (int64 positions, as bytes)
    set, which zeroes the frozen positions between the two transforms."""
    mask = np.zeros(n, dtype=bool)
    mask[np.frombuffer(info_set, dtype=np.int64)] = True
    return _pack(mask)


@lru_cache(maxsize=8)
def kronecker_generator(n_log2: int) -> np.ndarray:
    """Dense G_N built literally as repeated Kronecker products of the kernel."""
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    for _ in range(n_log2):
        g = np.kron(g, f)
    return g


def encode_dense_oracle(u, n_log2: int) -> np.ndarray:
    """Reference encode x = u . G_N with the materialized Kronecker matrix.

    Intended for tests and small N (N <= 4096); the streaming encoder never
    calls this.
    """
    u = np.asarray(u, dtype=np.uint8)
    n = 1 << n_log2
    if n > 4096:
        raise ValueError("dense oracle supports N <= 4096")
    if u.shape != (n,):
        raise ValueError(f"u must have length {n}, got shape {u.shape}")
    return (u @ kronecker_generator(n_log2)) % 2


@dataclass(frozen=True)
class StorageAccount:
    """Encoder storage model, in bits.

    conventional: a stored dense N x N generator.
    lowcost: the N-entry reliability order table at log2(N) bits per entry,
    plus the two K-bit working buffers of the streaming encoder.
    """

    n_log2: int
    k: int
    conventional_bits: int
    lowcost_bits: int

    @property
    def ratio(self) -> float:
        return self.conventional_bits / self.lowcost_bits


def storage_report(n_log2: int, k: int) -> StorageAccount:
    """Storage comparison between dense-matrix and streaming encoders."""
    if not 3 <= n_log2 <= 12:
        raise ValueError(f"n_log2 must be in [3, 12], got {n_log2}")
    n = 1 << n_log2
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return StorageAccount(
        n_log2=n_log2,
        k=k,
        conventional_bits=n * n,
        lowcost_bits=n * n_log2 + 2 * k,
    )
