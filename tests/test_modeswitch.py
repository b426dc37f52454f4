import math

import numpy as np
import pytest

from dualpol.errors import InvalidInputError
from dualpol.modeswitch import (
    FeedbackBudget,
    chi_crossover_scale,
    switch_threshold_bits,
    tau_from_bits,
)
from dualpol.rmt import asym_bds


@pytest.fixture(scope="module")
def base(fig4_scenario):
    return asym_bds(fig4_scenario.with_power_db(15.0))


class TestTauFromBits:
    def test_half_distortion_points(self):
        assert tau_from_bits(FeedbackBudget(n_bits=2 * 9 - 1, r=9), "BD") == 0.5
        assert tau_from_bits(FeedbackBudget(n_bits=9 - 1, r=9), "BDS") == 0.5

    def test_frozen_value(self):
        # 2^(-50/27) for r = 14
        t = tau_from_bits(FeedbackBudget(n_bits=50, r=14), "BD")
        assert t == pytest.approx(0.27703653396, abs=1e-9)

    def test_bds_more_accurate_than_bd(self):
        budget = FeedbackBudget(n_bits=40, r=10)
        assert tau_from_bits(budget, "BDS") < tau_from_bits(budget, "BD")

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidInputError):
            tau_from_bits(FeedbackBudget(n_bits=10, r=1), "BDS")
        with pytest.raises(InvalidInputError):
            tau_from_bits(FeedbackBudget(n_bits=10, r=4), "ZF")
        with pytest.raises(InvalidInputError):
            FeedbackBudget(n_bits=0, r=4)


class TestThreshold:
    def test_chi_zero_is_infinite(self, base):
        assert switch_threshold_bits(base, 0.0, 11) == math.inf

    def test_halving_chi_adds_2r_minus_1_bits(self, base):
        r = 11
        t1 = switch_threshold_bits(base, 0.2, r)
        t2 = switch_threshold_bits(base, 0.1, r)
        assert t2 - t1 == pytest.approx(2 * r - 1, abs=1e-9)

    def test_monotone_in_chi_and_r(self, base):
        ts = [switch_threshold_bits(base, chi, 11)
              for chi in [0.05, 0.1, 0.2, 0.4]]
        assert all(b < a for a, b in zip(ts, ts[1:]))
        assert switch_threshold_bits(base, 0.1, 14) > switch_threshold_bits(base, 0.1, 11)


class TestSelectMode:
    """The pick rule: BDS iff n_bits <= switch_threshold_bits(base, chi, r)."""

    def test_bit_form_agrees_with_chi_form(self, base):
        # identical algebra: BDS iff chi <= scale * tau_BD^2
        scale = chi_crossover_scale(base)
        for n_bits in [20, 45, 60, 90]:
            budget = FeedbackBudget(n_bits, 11)
            tau_sq = tau_from_bits(budget, "BD")
            for chi in [0.02, 0.1, 0.3]:
                bds = n_bits <= switch_threshold_bits(base, chi, budget.r)
                assert bds == (chi <= scale * tau_sq)

    def test_single_transition_in_each_axis(self, base):
        bds = [55 <= switch_threshold_bits(base, chi, 11)
               for chi in np.linspace(0.01, 0.8, 40)]
        flips = sum(a != b for a, b in zip(bds, bds[1:]))
        assert bds[0] and flips == 1
        bds_b = [nb <= switch_threshold_bits(base, 0.15, 11)
                 for nb in range(5, 150, 5)]
        flips_b = sum(a != b for a, b in zip(bds_b, bds_b[1:]))
        assert bds_b[0] and flips_b == 1

    def test_high_b0_crossing_near_tau_sq(self, base):
        # strong intra-interference regime: the chi crossover sits close to
        # tau^2 itself (scale slightly above 1)
        scale = chi_crossover_scale(base)
        assert 1.0 < scale < 2.0
