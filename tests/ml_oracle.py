"""Exhaustive maximum-likelihood decoding, used only as an independent test
oracle for the BP decoder."""

import numpy as np

from polarlink.construction import CodeSpec
from polarlink.encoding import encode_systematic


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
