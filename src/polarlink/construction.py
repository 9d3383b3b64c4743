"""Virtual-channel reliability construction for polar codes over a BEC design channel."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ReliabilityOrder",
    "CodeSpec",
    "bhattacharyya_evolve",
    "capacity_evolve",
    "build_reliability_order",
    "design_code",
]

MAX_N_LOG2 = 16


@dataclass(frozen=True)
class ReliabilityOrder:
    """Permutation of {0, ..., N-1} sorted most-reliable-first.

    ``order[0]`` is the index of the most reliable virtual channel; ties in
    the underlying reliability metric are broken toward the lower index.
    N is ``len(order)``, a power of two.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if n < 2 or n & (n - 1):
            raise ValueError(f"length must be a power of two >= 2, got {n}")
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..N-1")

    @property
    def n_log2(self) -> int:
        return len(self.order).bit_length() - 1


@dataclass(frozen=True)
class CodeSpec:
    """An (N, K) polar code: info positions are the K most reliable channels.

    N and n_log2 are read off the reliability order.  ``info_set`` /
    ``frozen_set`` are ascending index arrays; ``parity_schedule`` holds the
    frozen positions in descending reliability (strongest first), the order
    in which parity is sent.  Specs for a smaller K from the same order are
    prefix-nested in this one.
    """

    reliability: ReliabilityOrder
    k: int
    info_set: np.ndarray = field(init=False, repr=False)
    frozen_set: np.ndarray = field(init=False, repr=False)
    parity_schedule: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must be in [1, {self.n}], got {self.k}")
        order = np.asarray(self.reliability.order, dtype=np.int64)
        object.__setattr__(self, "info_set", np.sort(order[: self.k]))
        object.__setattr__(self, "frozen_set", np.sort(order[self.k :]))
        object.__setattr__(self, "parity_schedule", order[self.k :])

    @property
    def n(self) -> int:
        return len(self.reliability.order)

    @property
    def n_log2(self) -> int:
        return self.reliability.n_log2


def _check_n_log2(n_log2):
    if not 1 <= n_log2 <= MAX_N_LOG2:
        raise ValueError(f"n_log2 must be in [1, {MAX_N_LOG2}], got {n_log2}")


def bhattacharyya_evolve(eps: float, n_log2: int) -> np.ndarray:
    """Per-channel Bhattacharyya parameters after n_log2 polarization levels.

    Starts from a BEC with erasure probability ``eps`` (for which Z = eps)
    and applies the butterfly recursion Z- = 2Z - Z^2, Z+ = Z^2.  Returned in
    natural index order: the bits of index i, most significant first, select
    the minus (0) or plus (1) branch at each level.  Smaller Z means a more
    reliable channel.

    Parameters
    ----------
    eps : float
        Erasure probability of the design channel, in [0, 1].
    n_log2 : int
        Number of polarization levels; output length is 2**n_log2.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    _check_n_log2(n_log2)
    z = np.array([eps], dtype=np.float64)
    for _ in range(n_log2):
        minus = 2.0 * z - z * z
        plus = z * z
        nxt = np.empty(2 * z.size, dtype=np.float64)
        nxt[0::2] = minus
        nxt[1::2] = plus
        z = nxt
    return z


def capacity_evolve(capacity: float, n_log2: int) -> np.ndarray:
    """Per-channel BEC capacities after n_log2 polarization levels.

    Recursion I- = I^2, I+ = 2I - I^2, same index convention as
    :func:`bhattacharyya_evolve`.  The arithmetic mean of the output equals
    the input capacity (polarization conserves total capacity).
    """
    if not 0.0 <= capacity <= 1.0:
        raise ValueError(f"capacity must be in [0, 1], got {capacity}")
    _check_n_log2(n_log2)
    # On a BEC, Z = eps = 1 - I and the two recursions are duals.
    return 1.0 - bhattacharyya_evolve(1.0 - capacity, n_log2)


def build_reliability_order(z) -> ReliabilityOrder:
    """Sort channel indices ascending by Z (descending reliability).

    Ties are resolved toward the smaller index (stable sort), so the result
    is deterministic for degenerate inputs such as an all-equal Z vector.
    The length must be a power of two >= 2 (checked by ReliabilityOrder).
    """
    order = np.argsort(np.asarray(z, dtype=np.float64), kind="stable")
    return ReliabilityOrder(tuple(int(i) for i in order))


@lru_cache(maxsize=64)
def _cached_order(eps: float, n_log2: int) -> ReliabilityOrder:
    return build_reliability_order(bhattacharyya_evolve(eps, n_log2))


def design_code(n_log2: int, k: int, eps: float = 0.5) -> CodeSpec:
    """Construct an (N, K) code from the BEC design channel in one step.

    The reliability order is cached per (eps, n_log2), so every rate drawn
    from the same mother length shares one order table and the info sets for
    smaller K are prefixes of those for larger K.  n_log2 and k must be
    integers (Python or numpy, not bool); anything else raises ValueError.
    """
    for name, value in (("n_log2", n_log2), ("k", k)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    return CodeSpec(_cached_order(float(eps), int(n_log2)), int(k))
