"""Construction: polarization recursions, ordering, code specs."""

import numpy as np
import pytest

from polarlink.construction import (
    CodeSpec,
    bhattacharyya_evolve,
    build_reliability_order,
    capacity_evolve,
    design_code,
)


class TestBhattacharyyaEvolve:
    def test_hand_recursion_n4(self):
        # Z=0.5 through two levels: minus then plus on each branch
        z = bhattacharyya_evolve(0.5, 2)
        assert z.tolist() == [0.9375, 0.5625, 0.4375, 0.0625]

    def test_perfect_channel_stays_perfect(self):
        assert np.all(bhattacharyya_evolve(0.0, 3) == 0.0)

    def test_useless_channel_stays_useless(self):
        assert np.all(bhattacharyya_evolve(1.0, 3) == 1.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bhattacharyya_evolve(0.5, 0)
        with pytest.raises(ValueError):
            bhattacharyya_evolve(0.5, 17)
        with pytest.raises(ValueError):
            bhattacharyya_evolve(1.2, 3)


class TestCapacityEvolve:
    def test_single_level(self):
        caps = capacity_evolve(0.6, 1)
        assert caps == pytest.approx([0.36, 0.84], abs=1e-15)

    def test_mean_conservation_across_inputs(self):
        for cap10 in range(0, 11):
            cap = cap10 / 10.0
            for n in (1, 4, 7, 10):
                vals = capacity_evolve(cap, n)
                assert abs(vals.mean() - cap) < 1e-12, (cap, n)

    def test_all_perfect(self):
        assert np.all(capacity_evolve(1.0, 4) == 1.0)

    def test_duality_with_bhattacharyya(self):
        # On a BEC, Z = eps and I = 1 - eps stay duals at every level.
        for eps in (0.1, 0.4, 0.5, 0.9):
            z = bhattacharyya_evolve(eps, 6)
            caps = capacity_evolve(1.0 - eps, 6)
            assert np.max(np.abs(caps - (1.0 - z))) < 1e-12

    def test_polarized_fraction_nondecreasing(self):
        # capacity 0.6 (eps 0.4): share of near-perfect channels grows with n
        fracs = [np.mean(capacity_evolve(0.6, n) > 0.99) for n in range(2, 11)]
        assert all(a <= b + 1e-15 for a, b in zip(fracs, fracs[1:]))


class TestReliabilityOrder:
    def test_sorts_descending_reliability(self):
        order = build_reliability_order([0.9375, 0.5625, 0.4375, 0.0625])
        assert order.order == (3, 2, 1, 0)

    def test_all_equal_gives_identity(self):
        order = build_reliability_order(np.zeros(8))
        assert order.order == tuple(range(8))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_reliability_order(np.zeros(6))

    def test_paper_table_rate_half_set_n32(self):
        # published N=32 top-16 indices (1-based in the source table)
        published_1based = [32, 31, 30, 28, 24, 16, 29, 27, 26, 23, 22, 15, 20, 14, 12, 25]
        expected = {v - 1 for v in published_1based}
        order = build_reliability_order(bhattacharyya_evolve(0.5, 5))
        assert set(order.order[:16]) == expected


class TestCodeSpec:
    def test_info_and_frozen_partition(self):
        order = build_reliability_order([0.9375, 0.5625, 0.4375, 0.0625])
        spec = CodeSpec(order, 2)
        assert set(spec.info_set) == {3, 2}
        assert set(spec.frozen_set) == {1, 0}
        assert sorted(np.concatenate([spec.info_set, spec.frozen_set])) == [0, 1, 2, 3]

    def test_full_rate_empty_frozen(self):
        order = build_reliability_order(bhattacharyya_evolve(0.5, 3))
        spec = CodeSpec(order, 8)
        assert spec.frozen_set.size == 0

    def test_rejects_bad_k(self):
        order = build_reliability_order(bhattacharyya_evolve(0.5, 3))
        with pytest.raises(ValueError):
            CodeSpec(order, 0)
        with pytest.raises(ValueError):
            CodeSpec(order, 9)

    @pytest.mark.parametrize("k_small,k_big", [(4, 8), (8, 16), (16, 24), (4, 24)])
    def test_nesting_n32(self, k_small, k_big):
        small = design_code(5, k_small)
        big = design_code(5, k_big)
        assert set(small.info_set) < set(big.info_set)

    def test_parity_schedule_is_frozen_by_reliability(self):
        spec = design_code(5, 16)
        sched = spec.parity_schedule
        assert set(sched) == set(spec.frozen_set)
        # schedule order follows the overall reliability order
        assert list(sched) == [i for i in spec.reliability.order if i in set(spec.frozen_set)]

    @pytest.mark.parametrize("n_log2, k, name", [
        (10.7, 96, "n_log2"), (4.0, 8, "n_log2"), (True, 1, "n_log2"), ("4", 8, "n_log2"),
        (3, True, "k"), (4, 8.0, "k"), (4, None, "k"), (4, np.float64(8), "k")])
    def test_design_code_takes_integer_sizes(self, n_log2, k, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            design_code(n_log2, k)

    def test_design_code_accepts_numpy_integers(self):
        spec = design_code(np.int64(5), np.int32(16))
        assert (spec.n, spec.k) == (32, 16) and type(spec.k) is int
        assert np.array_equal(spec.info_set, design_code(5, 16).info_set)

    def test_design_code_caches_one_order_per_length(self):
        a = design_code(6, 16)
        b = design_code(6, 40)
        assert a.reliability is b.reliability
