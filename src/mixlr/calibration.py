"""Calibration audit for binned likelihood ratios.

Given labelled Hp-true / Ha-true test results, the prior odds are known
(the label counts), so each log10 LR bin implies a band of expected
posterior probabilities. The audit compares that band against the
observed frequency of Hp-true results in the bin, with exact binomial
intervals, and flags bins where interval and band do not overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from scipy.special import betaincinv

from .likelihood import lr_from_log10

HP_LABEL = "HP"
HA_LABEL = "HA"

LEVEL = 0.95  # coverage of each bin's Clopper-Pearson interval
MAX_BINS = 100_000  # the table is built whole, at about 0.45 KB and 6 us a bin


@dataclass(frozen=True)
class CalibrationBin:
    """One log10 LR bin [lo, hi) of the calibration table."""

    lo: float
    hi: float
    count_hp: int
    count_ha: int
    p_lo: float
    p_hi: float
    observed: Optional[float]  # None when the bin is empty
    ci_lo: Optional[float]
    ci_hi: Optional[float]
    verdict: str  # OK | MISS | EMPTY

    @property
    def n(self) -> int:
        return self.count_hp + self.count_ha


def posterior_probability(log10_lr: float, prior_odds: float) -> float:
    """Posterior P(Hp) from a log10 LR and prior odds; 1.0 where the
    posterior odds are beyond the float range."""
    odds = lr_from_log10(log10_lr) * prior_odds
    return 1.0 if odds == math.inf else odds / (odds + 1.0)


def expected_posterior_bounds(
    lo: float, hi: float, n_hp_total: int, n_ha_total: int
) -> tuple[float, float]:
    """Expected posterior-probability band for LRs in [lo, hi).

    The prior odds are the known label ratio of the test set.
    """
    if n_hp_total <= 0 or n_ha_total <= 0:
        raise ValueError("both label totals must be positive")
    pi = n_hp_total / n_ha_total
    return posterior_probability(lo, pi), posterior_probability(hi, pi)


def observed_frequency(count_hp: int, count_ha: int) -> Optional[float]:
    """Empirical fraction of Hp-true results; None for an empty bin."""
    n = count_hp + count_ha
    if n == 0:
        return None
    return count_hp / n


def frequency_interval(count_hp: int, n: int) -> tuple[float, float]:
    """Exact (Clopper-Pearson) 95% binomial interval for the bin frequency."""
    if n < 1:
        raise ValueError("need at least one observation")
    if not 0 <= count_hp <= n:
        raise ValueError("count out of range")
    alpha = 1.0 - LEVEL
    lo = 0.0 if count_hp == 0 else float(betaincinv(count_hp, n - count_hp + 1, alpha / 2))
    hi = 1.0 if count_hp == n else float(betaincinv(count_hp + 1, n - count_hp, 1 - alpha / 2))
    return lo, hi


def logit(p: float) -> float:
    if not 0 < p < 1:
        raise ValueError("logit needs p in (0,1)")
    return math.log10(p / (1 - p))


def inverse_logit(x: float) -> float:
    """The probability whose log10 odds are x; 0.0 or 1.0 beyond the float range."""
    return 1.0 / (1.0 + lr_from_log10(-x))


def calibrate(
    records: Sequence[tuple[Optional[float], str]],
    bin_width: float = 1.0,
) -> dict:
    """Build the full calibration table from (log10 LR, label) records.

    log10 LR None encodes an exclusion (LR = 0); every other log10 LR must
    be finite. Exclusions are reported as counts outside the table (there
    is no bin for -inf). Bin edges are multiples of bin_width; a table of
    more than MAX_BINS bins is a ValueError. A bin MISSes when its 95%
    Clopper-Pearson interval does not intersect the expected posterior band.
    """
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin width must be positive and finite, got {bin_width}")
    n_hp = sum(1 for _, label in records if label == HP_LABEL)
    n_ha = sum(1 for _, label in records if label == HA_LABEL)
    if n_hp == 0 or n_ha == 0:
        raise ValueError("calibration needs at least one record of each label")
    for l, label in records:
        if label not in (HP_LABEL, HA_LABEL):
            raise ValueError(f"unknown label {label!r}")
        if l is not None and not math.isfinite(l):
            raise ValueError(f"log10 LR must be finite or an exclusion, got {l}")

    finite = [(l, label) for l, label in records if l is not None]
    excluded = {
        HP_LABEL: sum(1 for l, label in records if l is None and label == HP_LABEL),
        HA_LABEL: sum(1 for l, label in records if l is None and label == HA_LABEL),
    }
    if not finite:
        raise ValueError("no finite LRs to bin")

    lo_edge = math.floor(min(l for l, _ in finite) / bin_width)
    hi_edge = math.floor(max(l for l, _ in finite) / bin_width)
    n_bins = hi_edge - lo_edge + 1
    if n_bins > MAX_BINS:
        raise ValueError(f"{n_bins} bins of width {bin_width} exceed the limit of {MAX_BINS}")
    counts: dict[int, list[int]] = {i: [0, 0] for i in range(lo_edge, hi_edge + 1)}
    for l, label in finite:
        counts[math.floor(l / bin_width)][0 if label == HP_LABEL else 1] += 1

    bins: list[CalibrationBin] = []
    for i in sorted(counts):
        c_hp, c_ha = counts[i]
        a, b = i * bin_width, (i + 1) * bin_width
        p_lo, p_hi = expected_posterior_bounds(a, b, n_hp, n_ha)
        obs = observed_frequency(c_hp, c_ha)
        if obs is None:
            bins.append(
                CalibrationBin(a, b, 0, 0, p_lo, p_hi, None, None, None, verdict="EMPTY")
            )
            continue
        ci_lo, ci_hi = frequency_interval(c_hp, c_hp + c_ha)
        miss = ci_hi < p_lo or ci_lo > p_hi
        bins.append(
            CalibrationBin(
                a, b, c_hp, c_ha, p_lo, p_hi, obs, ci_lo, ci_hi,
                verdict="MISS" if miss else "OK",
            )
        )
    return {
        "bins": bins,
        "n_hp": n_hp,
        "n_ha": n_ha,
        "prior_odds": n_hp / n_ha,
        "excluded_counts": excluded,
        "level": LEVEL,
        "interval_method": "clopper-pearson",
        "n_miss": sum(1 for b in bins if b.verdict == "MISS"),
    }
