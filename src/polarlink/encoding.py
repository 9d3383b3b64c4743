"""Systematic polar encoding with on-the-fly generator elements and bounded memory.

The generator matrix G_N (the n-th Kronecker power of [[1,0],[1,1]]) is never
materialized on the encode path: each element is derived from the bit patterns
of its row and column index, and the encoder works through the matrix one
column at a time with two K-bit buffers.  A dense Kronecker-product encoder is
provided as a test oracle, together with a storage model contrasting the two.
The simulator encodes with ``encode_transform_pair``, two butterfly passes over
an N-bit vector, which gives the same codeword in O(N log N) vectorized work.
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


def polar_transform(u) -> np.ndarray:
    """Apply the butterfly circuit x = u . G_N without materializing G_N.

    The transform is an involution over GF(2): applying it twice returns the
    input.  O(N log N) XORs on a copy of the input, one vectorized XOR per
    stage.
    """
    x = np.array(u, dtype=np.uint8, copy=True)
    n = x.size
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    step = 1
    while step < n:
        # each row is one block of 2*step: top half ^= bottom half, in place
        blocks = x.reshape(-1, 2, step)
        blocks[:, 0] ^= blocks[:, 1]
        step <<= 1
    return x


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
    (an info set that is not closed) and on an info length other than
    spec.k.  Stores a full N-bit vector, unlike the streaming encoder.
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.shape != (spec.k,):
        raise ValueError(f"info must have length {spec.k}, got shape {info.shape}")
    u = np.zeros(spec.n, dtype=np.uint8)
    u[spec.info_set] = info
    v = polar_transform(u)
    v[spec.frozen_set] = 0
    codeword = polar_transform(v)
    if not np.array_equal(codeword[spec.info_set], info):
        raise ValueError("info set is not closed under bit domination; "
                         "the transform pair is not systematic for this code")
    return codeword


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
