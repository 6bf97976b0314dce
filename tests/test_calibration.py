import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import beta

import mixlr
from mixlr.calibration import (
    HA_LABEL,
    HP_LABEL,
    MAX_BINS,
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

    def test_posterior_beyond_the_float_range(self):
        # 10**400 overflows; the posterior is then 1, and ordinary values
        # keep the plain formula's bits
        assert posterior_probability(400.0, 0.5) == 1.0
        assert posterior_probability(308.0, 1e10) == 1.0
        assert posterior_probability(-400.0, 0.5) == 0.0
        for l in (-3.25, 0.0, 1.5, 16.5):
            odds = 10.0**l * 0.5
            assert posterior_probability(l, 0.5) == odds / (odds + 1.0)

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

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 101, 399])
    def test_clopper_pearson_is_the_beta_quantile(self, n):
        # the endpoints are beta quantiles, to the bit
        alpha = 1.0 - 0.95
        for count in range(n + 1):
            lo, hi = frequency_interval(count, n)
            want_lo = 0.0 if count == 0 else beta.ppf(alpha / 2, count, n - count + 1)
            want_hi = 1.0 if count == n else beta.ppf(1 - alpha / 2, count + 1, n - count)
            assert (lo, hi) == (want_lo, want_hi)

    def test_import_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(mixlr.__file__))
        code = "import sys, mixlr; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            frequency_interval(1, 0)
        with pytest.raises(ValueError):
            frequency_interval(5, 4)

    @settings(max_examples=50, deadline=None)
    @given(p=st.floats(1e-6, 1 - 1e-6))
    def test_logit_round_trip(self, p):
        assert inverse_logit(logit(p)) == pytest.approx(p, abs=1e-12)

    def test_inverse_logit_beyond_the_float_range(self):
        assert inverse_logit(-400.0) == 0.0
        assert inverse_logit(400.0) == 1.0
        assert inverse_logit(-float("inf")) == 0.0
        assert inverse_logit(float("inf")) == 1.0
        # ordinary inputs keep their bits
        for x in (-300.0, -2.5, 0.0, 0.3, 16.2):
            assert inverse_logit(x) == 1.0 / (1.0 + 10.0**-x)


class TestCalibrate:
    def test_counts_conserved(self):
        records = [(0.3, HP_LABEL), (0.7, HA_LABEL), (1.4, HP_LABEL), (None, HA_LABEL)]
        out = calibrate(records)
        binned = sum(b.count_hp + b.count_ha for b in out["bins"])
        assert binned + sum(out["excluded_counts"].values()) == len(records)
        assert out["excluded_counts"][HA_LABEL] == 1
        assert out["n_hp"] == 2 and out["n_ha"] == 2
        assert out["level"] == 0.95

    def test_bin_edges_floor_aligned(self):
        out = calibrate([(1.2, HP_LABEL), (-0.4, HA_LABEL)], bin_width=1.0)
        assert [(b.lo, b.hi) for b in out["bins"]] == [
            (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)
        ]
        assert out["bins"][1].verdict == "EMPTY"

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

    @pytest.mark.parametrize("width", [1e-5, 1e-12])
    def test_bin_table_is_bounded(self, width):
        # four records over [-0.5, 1.0]: 15,001 bins at width 1e-4 take about
        # 7 MB, 150,000 at 1e-5 about 67 MB, and 1e-12 would exhaust memory
        records = [(1.0, HP_LABEL), (-0.5, HA_LABEL), (0.3, HP_LABEL), (0.2, HA_LABEL)]
        with pytest.raises(ValueError, match=f"of width {width} exceed the limit of {MAX_BINS}"):
            calibrate(records, bin_width=width)
        assert len(calibrate(records, bin_width=1e-4)["bins"]) == 15001

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
