"""Encoding: generator elements, streaming systematic encoder, storage model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlink.construction import design_code
from polarlink.encoding import (
    AllocationMeter,
    encode_dense_oracle,
    encode_systematic,
    encode_transform_pair,
    g_element,
    kronecker_generator,
    polar_transform,
    storage_report,
)
from polarlink.protocol import plan_session

from gf2 import gf2_inverse, gf2_matmul


class TestGElement:
    def test_worked_cell_n8(self):
        # row 4, col 2 (0-based): 100 AND 010 != 010
        assert g_element(4, 2, 3) == 0

    def test_diagonal_and_first_column(self):
        for m in range(16):
            assert g_element(m, m, 4) == 1
            assert g_element(m, 0, 4) == 1

    def test_matches_kronecker_n8(self):
        g = kronecker_generator(3)
        for r in range(8):
            for c in range(8):
                assert g_element(r, c, 3) == g[r, c]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            g_element(8, 0, 3)
        with pytest.raises(ValueError):
            g_element(0, -1, 3)

    @pytest.mark.parametrize("n_log2", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_kronecker_exhaustively(self, n_log2):
        g = kronecker_generator(n_log2)
        n = 1 << n_log2
        rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        via_bits = ((rows & cols) == cols).astype(np.uint8)
        assert np.array_equal(via_bits, g)


class TestDenseOracle:
    def test_unit_vectors_give_rows(self):
        g = kronecker_generator(4)
        for m in range(16):
            u = np.zeros(16, dtype=np.uint8)
            u[m] = 1
            assert np.array_equal(encode_dense_oracle(u, 4), g[m])

    @pytest.mark.parametrize("n_log2", [1, 2, 3, 4, 5, 6])
    def test_generator_is_involution(self, n_log2):
        g = kronecker_generator(n_log2)
        assert np.array_equal(gf2_matmul(g, g), np.eye(1 << n_log2, dtype=np.int64))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            encode_dense_oracle(np.zeros(7, dtype=np.uint8), 3)


class TestPolarTransform:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for n_log2 in (1, 3, 5, 7):
            u = rng.integers(0, 2, 1 << n_log2).astype(np.uint8)
            assert np.array_equal(polar_transform(u), encode_dense_oracle(u, n_log2))

    @pytest.mark.parametrize("n_log2", range(1, 13))
    def test_matches_dense_oracle_at_every_size(self, n_log2):
        # N = 2 to 2^12: random words, and each unit vector's row of G_N
        # at the first and last positions and at the packing's byte edges
        rng = np.random.default_rng(50 + n_log2)
        n = 1 << n_log2
        for _ in range(3):
            u = rng.integers(0, 2, n).astype(np.uint8)
            x = polar_transform(u)
            assert x.dtype == np.uint8 and x.shape == (n,)
            assert np.array_equal(x, encode_dense_oracle(u, n_log2))
        for p in {0, 7 % n, 8 % n, n // 2, n - 1}:
            u = np.zeros(n, dtype=np.uint8)
            u[p] = 1
            assert np.array_equal(polar_transform(u), kronecker_generator(n_log2)[p])

    def test_involution(self):
        rng = np.random.default_rng(6)
        u = rng.integers(0, 2, 256).astype(np.uint8)
        assert np.array_equal(polar_transform(polar_transform(u)), u)

    def test_involution_at_2_16(self):
        rng = np.random.default_rng(7)
        u = rng.integers(0, 2, 1 << 16).astype(np.uint8)
        x = polar_transform(u)
        assert not np.array_equal(x, u)
        assert np.array_equal(polar_transform(x), u)

    def test_accepts_lists_and_bools_and_copies(self):
        u = np.array([1, 0, 1, 1], dtype=np.uint8)
        want = encode_dense_oracle(u, 2)
        assert np.array_equal(polar_transform(u.tolist()), want)
        assert np.array_equal(polar_transform(u.astype(bool)), want)
        assert np.array_equal(polar_transform(u.astype(np.float64)), want)
        x = polar_transform(u)
        x[0] ^= 1
        assert u.tolist() == [1, 0, 1, 1]

    @pytest.mark.parametrize("bad", [[2, 0, 0, 0], [0, 1, 0, -1], [0.5, 0, 0, 0], [0, 0, 0, np.nan],
                                     np.array([0, 0, 0, 255], dtype=np.uint8), ["a", "b", "c", "d"]],
                             ids=["two", "minus_one", "half", "nan", "uint8_255", "strings"])
    def test_refuses_values_other_than_0_1(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            polar_transform(bad)

    @pytest.mark.parametrize("bad", [np.zeros((2, 2), dtype=np.uint8), np.zeros((1, 4), dtype=np.uint8),
                                     np.uint8(1)], ids=["2x2", "1x4", "scalar"])
    def test_refuses_non_1d(self, bad):
        with pytest.raises(ValueError, match="1-D"):
            polar_transform(bad)

    @pytest.mark.parametrize("n", [0, 3, 6, 12])
    def test_refuses_other_lengths(self, n):
        with pytest.raises(ValueError, match="power of two"):
            polar_transform(np.zeros(n, dtype=np.uint8))


def systematic_parity_oracle(info, spec):
    """Independent route: GF(2)-solve for u, then the dense Kronecker product."""
    g = kronecker_generator(spec.n_log2)
    a, b = spec.info_set, spec.frozen_set
    g_aa = g[np.ix_(a, a)]
    u_a = gf2_matmul(info, gf2_inverse(g_aa))
    u = np.zeros(spec.n, dtype=np.int64)
    u[a] = u_a
    x = encode_dense_oracle(u.astype(np.uint8), spec.n_log2)
    assert np.array_equal(x[a], np.asarray(info)), "oracle self-check: systematic property"
    return x[b]


class TestSystematicEncoder:
    def test_hand_example_n4(self):
        # info (x2, x3) = (0, 1) -> codeword [0, 1, 0, 1]
        spec = design_code(2, 2)
        assert set(spec.info_set) == {2, 3}
        codeword = encode_systematic(np.array([0, 1], dtype=np.uint8), spec)
        assert codeword.tolist() == [0, 1, 0, 1]

    def test_all_zero_info(self):
        spec = design_code(4, 7)
        assert np.all(encode_systematic(np.zeros(7, dtype=np.uint8), spec) == 0)

    def test_rejects_length_mismatch(self):
        spec = design_code(3, 4)
        with pytest.raises(ValueError):
            encode_systematic(np.zeros(5, dtype=np.uint8), spec)

    @pytest.mark.parametrize("n_log2,k", [(3, 4), (5, 16), (7, 64), (9, 256), (10, 512)])
    def test_matches_independent_oracle(self, n_log2, k):
        spec = design_code(n_log2, k)
        rng = np.random.default_rng(n_log2 * 1000 + k)
        for _ in range(20):
            info = rng.integers(0, 2, k).astype(np.uint8)
            cw = encode_systematic(info, spec)
            assert np.array_equal(cw[spec.info_set], info)
            assert np.array_equal(cw[spec.frozen_set], systematic_parity_oracle(info, spec))

    def test_codeword_validity_roundtrip(self):
        # transforming back must give u that is zero on the frozen set
        spec = design_code(6, 20)
        rng = np.random.default_rng(8)
        for _ in range(10):
            info = rng.integers(0, 2, 20).astype(np.uint8)
            cw = encode_systematic(info, spec)
            u = polar_transform(cw)  # involution recovers u from x
            assert np.all(u[spec.frozen_set] == 0)
            assert np.array_equal(polar_transform(u), cw)

    def test_working_memory_stays_two_k_bits(self):
        for n_log2, k in [(5, 16), (8, 100), (10, 512)]:
            spec = design_code(n_log2, k)
            meter = AllocationMeter()
            encode_systematic(np.ones(k, dtype=np.uint8), spec, meter=meter)
            assert meter.peak_bits <= 2 * k + 64
            assert meter.live_bits == 0


class TestTransformPair:
    """The simulator's encoder against the streaming one it replaces there."""

    # each side of every mother-length step of plan_session (N = 16 .. 1024)
    @pytest.mark.parametrize("k", [8, 9, 16, 17, 32, 33, 64, 65, 96, 128, 129,
                                   256, 257, 511, 512])
    def test_equals_streaming_encoder_on_plans(self, k):
        spec = plan_session(k).spec
        rng = np.random.default_rng(k)
        for _ in range(10):
            info = rng.integers(0, 2, k).astype(np.uint8)
            assert np.array_equal(encode_transform_pair(info, spec),
                                  encode_systematic(info, spec))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(8, 512), seed=st.integers(0, 2**32 - 1))
    def test_equals_streaming_encoder_property(self, k, seed):
        spec = plan_session(k).spec
        info = np.random.default_rng(seed).integers(0, 2, k).astype(np.uint8)
        assert np.array_equal(encode_transform_pair(info, spec),
                              encode_systematic(info, spec))

    def test_rejects_info_set_not_closed_under_domination(self):
        # the streaming encoder stays systematic here; the pair would not be
        spec = design_code(7, 124)
        info = np.random.default_rng(3).integers(0, 2, 124).astype(np.uint8)
        assert np.array_equal(encode_systematic(info, spec)[spec.info_set], info)
        with pytest.raises(ValueError):
            encode_transform_pair(info, spec)

    def test_rejects_length_mismatch(self):
        spec = plan_session(96).spec
        with pytest.raises(ValueError):
            encode_transform_pair(np.zeros(95, dtype=np.uint8), spec)

    def test_rejects_bits_other_than_0_1(self):
        # a 2 would otherwise be read as 1 in the packed word and end in the
        # systematic check's message
        spec = plan_session(96).spec
        info = np.zeros(96, dtype=np.uint8)
        info[5] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            encode_transform_pair(info, spec)


class TestStorageReport:
    def test_n1024(self):
        account = storage_report(10, 512)
        assert account.conventional_bits == 1024 * 1024
        assert account.lowcost_bits == 10240 + 2 * 512
        assert account.ratio > 30

    def test_n8(self):
        account = storage_report(3, 4)
        assert account.conventional_bits == 64
        assert account.lowcost_bits == 24 + 8

    def test_ratio_monotone_in_n_at_fixed_rate(self):
        ratios = [storage_report(n, (1 << n) // 2).ratio for n in range(3, 13)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            storage_report(2, 2)
        with pytest.raises(ValueError):
            storage_report(13, 8)
