import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlr.calibration import (
    EXCLUSIONS_EXCLUDED,
    EXCLUSIONS_LOWEST,
    HA_LABEL,
    HP_LABEL,
    calibrate,
    expected_posterior_bounds,
    frequency_interval,
    inverse_logit,
    logit,
    observed_frequency,
    posterior_probability,
)

# label totals of the published two-system benchmark
N_HP, N_HA = 338, 31912


class TestPosterior:
    def test_expected_bounds_published_rows(self):
        lo, hi = expected_posterior_bounds(1.0, 2.0, N_HP, N_HA)
        assert round(lo, 3) == 0.096 and round(hi, 3) == 0.514
        lo, hi = expected_posterior_bounds(3.0, 4.0, N_HP, N_HA)
        assert round(lo, 3) == 0.914 and round(hi, 3) == 0.991

    def test_unit_posterior_at_balanced_odds(self):
        pi = N_HP / N_HA
        # LR exactly cancelling the prior odds gives posterior 1/2
        assert posterior_probability(-math.log10(pi), pi) == pytest.approx(0.5)

    def test_bounds_monotone(self):
        prev_hi = None
        for a in range(-4, 8):
            lo, hi = expected_posterior_bounds(float(a), a + 1.0, N_HP, N_HA)
            assert lo < hi
            if prev_hi is not None:
                # adjacent bands meet exactly at the shared edge
                assert lo == pytest.approx(prev_hi, rel=1e-12)
            prev_hi = hi

    def test_requires_positive_totals(self):
        with pytest.raises(ValueError):
            expected_posterior_bounds(0.0, 1.0, 0, 10)


class TestFrequencies:
    def test_observed_published_cells(self):
        assert observed_frequency(2, 18) == pytest.approx(0.1000)
        assert observed_frequency(3, 2073) == pytest.approx(3 / 2076)
        assert observed_frequency(0, 0) is None

    def test_clopper_pearson_zero_successes(self):
        lo, hi = frequency_interval(0, 20)
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.025 ** (1 / 20), rel=1e-9)

    def test_clopper_pearson_all_successes(self):
        lo, hi = frequency_interval(20, 20)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1 / 20), rel=1e-9)

    def test_interval_contains_point_estimate(self):
        lo, hi = frequency_interval(2, 20)
        assert lo < 0.1 < hi

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            frequency_interval(1, 0)
        with pytest.raises(ValueError):
            frequency_interval(5, 4)

    @settings(max_examples=50, deadline=None)
    @given(p=st.floats(1e-6, 1 - 1e-6))
    def test_logit_round_trip(self, p):
        assert inverse_logit(logit(p)) == pytest.approx(p, abs=1e-12)


class TestCalibrate:
    def test_counts_conserved(self):
        records = [(0.3, HP_LABEL), (0.7, HA_LABEL), (1.4, HP_LABEL), (None, HA_LABEL)]
        out = calibrate(records)
        binned = sum(b.count_hp + b.count_ha for b in out["bins"])
        assert binned + sum(out["excluded_counts"].values()) == len(records)
        assert out["excluded_counts"][HA_LABEL] == 1
        assert out["n_hp"] == 2 and out["n_ha"] == 2

    def test_bin_edges_floor_aligned(self):
        out = calibrate([(1.2, HP_LABEL), (-0.4, HA_LABEL)], bin_width=1.0)
        assert [(b.lo, b.hi) for b in out["bins"]] == [
            (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)
        ]
        assert out["bins"][1].verdict == "EMPTY"

    def test_lowest_policy_folds_exclusions(self):
        records = [(1.2, HP_LABEL), (-0.4, HA_LABEL), (None, HA_LABEL)]
        out = calibrate(records, exclusion_policy=EXCLUSIONS_LOWEST)
        assert out["excluded_counts"] == {HP_LABEL: 0, HA_LABEL: 0}
        assert out["bins"][0].count_ha == 2

    def test_miss_detection(self):
        # many Hp-true results in a strongly Ha-favouring bin: the binomial
        # interval sits far above the expected posterior band
        records = [(-3.5, HP_LABEL)] * 50 + [(-3.5, HA_LABEL)] * 50
        records += [(5.0, HP_LABEL), (5.0, HA_LABEL)]
        out = calibrate(records)
        low_bin = out["bins"][0]
        assert low_bin.verdict == "MISS"
        assert out["n_miss"] >= 1

    def test_label_validation(self):
        with pytest.raises(ValueError):
            calibrate([(0.1, "WHAT"), (0.2, HA_LABEL), (0.3, HP_LABEL)])
        with pytest.raises(ValueError):
            calibrate([(0.1, HP_LABEL)])  # no HA records
        with pytest.raises(ValueError):
            calibrate([(None, HP_LABEL), (None, HA_LABEL)])  # nothing to bin
        with pytest.raises(ValueError):
            calibrate([(0.1, HP_LABEL), (0.2, HA_LABEL)], bin_width=0.0)

    @pytest.mark.parametrize("l", [math.inf, -math.inf, math.nan])
    def test_non_finite_lr_is_rejected(self, l):
        with pytest.raises(ValueError, match=str(l)):
            calibrate([(0.1, HP_LABEL), (l, HA_LABEL), (0.2, HA_LABEL)])

    @pytest.mark.parametrize("width", [math.inf, math.nan])
    def test_non_finite_bin_width_is_rejected(self, width):
        with pytest.raises(ValueError, match=str(width)):
            calibrate([(0.1, HP_LABEL), (0.2, HA_LABEL)], bin_width=width)

    def test_well_calibrated_generator_has_no_misses(self):
        # scores drawn from the model that the posterior mapping assumes:
        # log10 LR ~ N(+mu, s) under Hp and N(-mu, s) under Ha with equal
        # label counts is perfectly calibrated for mu = s^2 ln(10) / 2
        rng = np.random.default_rng(2024)
        s2 = 2.0
        mu = s2 * math.log(10.0) / 2.0
        n = 4000
        records = [
            (float(x), HP_LABEL)
            for x in rng.normal(mu, math.sqrt(s2), size=n)
        ] + [
            (float(x), HA_LABEL)
            for x in rng.normal(-mu, math.sqrt(s2), size=n)
        ]
        out = calibrate(records, bin_width=1.0)
        assert out["n_miss"] == 0
        # and the mapping is exercised across many occupied bins
        occupied = [b for b in out["bins"] if b.verdict != "EMPTY"]
        assert len(occupied) >= 8
