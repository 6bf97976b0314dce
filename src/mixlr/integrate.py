"""Prior-integrated (marginal) likelihoods and LR_int.

Two estimators share one parameter-space description: deterministic
midpoint quadrature with refinement doubling for low dimensionality, and
prior-sampling Monte Carlo for anything bigger or as a cross-check. Both
work in the unit cube and push points through the priors' quantile
functions, so the prior density never appears explicitly and the
marginal is just a (weighted) mean of likelihood values.

Genotype sets are summed exactly inside the integrand through the same
vectorised evaluator the MLE engine uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Optional, Sequence

import numpy as np

from .genotypes import FrequencyTable, RareAllelePolicy, enumerate_sets
from .likelihood import NEG_INF, MixtureEvaluator, log10sumexp
from .model import ModelConfig, Profile, Proposition

QUADRATURE = "QUADRATURE"
MONTE_CARLO = "MONTE_CARLO"

MAX_QUADRATURE_DIMS = 5
# initial points per axis by dimensionality; doubled on refinement
_INIT_N = {1: 128, 2: 48, 3: 16, 4: 8, 5: 6}


class DimensionalityError(ValueError):
    """Quadrature refused: too many active dimensions, use Monte Carlo."""


@dataclass(frozen=True)
class PriorSpec:
    """Independent priors over the active mass parameters.

    Templates are U[0, template_hi] per contributor. c2 is either pinned
    (a point mass) or log-uniform over c2_bounds. Slope and stutter
    proportions are uniform over their boxes and only active when the
    model config enables the feature.
    """

    template_hi: float = 30000.0
    c2: Optional[float] = None
    c2_bounds: tuple[float, float] = (2.0, 50.0)
    slope_bounds: tuple[float, float] = (0.5, 1.0)
    stutter_hi: float = 0.3

    def __post_init__(self):
        if not self.template_hi > 0:
            raise ValueError("template_hi must be > 0")
        for lo, hi in (self.c2_bounds, self.slope_bounds):
            if not (0 < lo < hi and math.isfinite(hi)):
                raise ValueError("prior bounds must be finite and ordered")


@dataclass(frozen=True)
class IntegralResult:
    """Marginal likelihood under one hypothesis plus estimator metadata."""

    hypothesis: str
    marginal: float
    log10_marginal: float
    estimator: str
    resolution: int  # points per axis (quadrature) or sample count (MC)
    converged: bool
    levels: int = 1
    std_error: Optional[float] = None


class _CubeMap:
    """Quantile map from the unit cube to natural parameter space."""

    def __init__(self, noc: int, config: ModelConfig, prior: PriorSpec):
        self.noc = noc
        self.prior = prior
        self.scalars: list[str] = []
        if prior.c2 is None:
            self.scalars.append("c2")
        if config.degradation:
            self.scalars.append("slope")
        if config.back_stutter:
            self.scalars.append("bw")
        if config.forward_stutter:
            self.scalars.append("fw")
        self.ndim = noc + len(self.scalars)

    def map(self, u: np.ndarray):
        """(batch, ndim) unit-cube points -> evaluator arguments."""
        p = self.prior
        templates = p.template_hi * u[:, : self.noc]
        c2 = np.full(len(u), p.c2 if p.c2 is not None else 0.0)
        slope = np.ones(len(u))
        bw = np.zeros(len(u))
        fw = np.zeros(len(u))
        for j, name in enumerate(self.scalars):
            col = u[:, self.noc + j]
            if name == "c2":
                lo, hi = p.c2_bounds
                c2 = np.exp(math.log(lo) + col * (math.log(hi) - math.log(lo)))
            elif name == "slope":
                lo, hi = p.slope_bounds
                slope = lo + col * (hi - lo)
            elif name == "bw":
                bw = col * p.stutter_hi
            elif name == "fw":
                fw = col * p.stutter_hi
        return templates, c2, slope, bw, fw


def prior_dimensions(noc: int, config: Optional[ModelConfig] = None,
                     prior: PriorSpec = PriorSpec()) -> int:
    """Number of active prior dimensions for a contributor count."""
    return _CubeMap(noc, config or ModelConfig(), prior).ndim


def _mean_of_log10(lls: np.ndarray) -> tuple[float, float]:
    """(mean, log10 mean) of 10**lls, stabilised against underflow."""
    m = float(np.max(lls))
    if m == NEG_INF:
        return 0.0, NEG_INF
    scaled = np.power(10.0, lls - m)
    mean = float(np.mean(scaled))
    return 10.0**m * mean, m + math.log10(mean)


def marginal_quadrature(
    profile: Profile,
    proposition: Proposition,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    config: Optional[ModelConfig] = None,
    prior: PriorSpec = PriorSpec(),
    resolution: Optional[int] = None,
    rtol: float = 1e-3,
    max_levels: int = 4,
    evaluator: Optional[MixtureEvaluator] = None,
) -> IntegralResult:
    """Midpoint tensor-product quadrature of the marginal likelihood.

    Refines by doubling every axis until the relative change drops below
    rtol or the level cap. Refuses more than MAX_QUADRATURE_DIMS active
    dimensions (use marginal_monte_carlo there).
    """
    config = config or ModelConfig()
    ev = evaluator if evaluator is not None else MixtureEvaluator(
        profile, enumerate_sets(profile, proposition, table, policy, config), config
    )
    cube = _CubeMap(proposition.noc, config, prior)
    if cube.ndim > MAX_QUADRATURE_DIMS:
        raise DimensionalityError(
            f"{cube.ndim} active dimensions exceed the quadrature cap "
            f"{MAX_QUADRATURE_DIMS}; use marginal_monte_carlo"
        )
    n = resolution or _INIT_N[cube.ndim]
    prev = None
    converged, level = False, 0
    while True:
        level += 1
        axes = [(np.arange(n) + 0.5) / n] * cube.ndim
        mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        lls = ev.marginal_log10(*cube.map(mesh))
        value, log10_value = _mean_of_log10(lls)
        if prev is not None and abs(value - prev) <= rtol * max(abs(value), 1e-300):
            converged = True
        if converged or level >= max_levels:
            break
        prev = value
        n *= 2
    return IntegralResult(
        hypothesis=proposition.label,
        marginal=value,
        log10_marginal=log10_value,
        estimator=QUADRATURE,
        resolution=n,
        converged=converged,
        levels=level,
    )


def marginal_monte_carlo(
    profile: Profile,
    proposition: Proposition,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    config: Optional[ModelConfig] = None,
    prior: PriorSpec = PriorSpec(),
    n_samples: int = 10000,
    seed: int = 0,
    evaluator: Optional[MixtureEvaluator] = None,
) -> IntegralResult:
    """Plain prior-sampling Monte Carlo estimate of the marginal likelihood."""
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    config = config or ModelConfig()
    ev = evaluator if evaluator is not None else MixtureEvaluator(
        profile, enumerate_sets(profile, proposition, table, policy, config), config
    )
    cube = _CubeMap(proposition.noc, config, prior)
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n_samples, cube.ndim))
    lls = ev.marginal_log10(*cube.map(u))
    value, log10_value = _mean_of_log10(lls)
    m = float(np.max(lls))
    if m == NEG_INF:
        se = 0.0
    else:
        scaled = np.power(10.0, lls - m)
        se = 10.0**m * float(np.std(scaled, ddof=1)) / math.sqrt(n_samples)
    return IntegralResult(
        hypothesis=proposition.label,
        marginal=value,
        log10_marginal=log10_value,
        estimator=MONTE_CARLO,
        resolution=n_samples,
        converged=True,
        std_error=se,
    )


def lr_int(num: IntegralResult, den: IntegralResult) -> float:
    """Ratio of marginal likelihoods, with 0 and infinity propagated."""
    if num.log10_marginal == NEG_INF:
        return 0.0
    if den.log10_marginal == NEG_INF:
        return float("inf")
    return 10.0 ** (num.log10_marginal - den.log10_marginal)


def deconvolution_weights(
    profile: Profile,
    noc: int,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    config: Optional[ModelConfig] = None,
    prior: PriorSpec = PriorSpec(),
    resolution: Optional[int] = None,
    max_joint_sets: int = 20000,
) -> list[tuple[dict, float]]:
    """Posterior weight of every joint genotype-set assignment.

    weight_j is proportional to Pr(S_j) * integral of p(O|S_j, M) over the
    prior, normalised to sum 1. Returns (assignment, weight) pairs where
    an assignment maps locus -> GenotypeSet. The joint enumeration is the
    Cartesian product across loci (the integral over shared M does not
    factorise), so the count is capped.
    """
    config = config or ModelConfig()
    prop = Proposition(noc=noc)
    per_locus = enumerate_sets(profile, prop, table, policy, config)
    loci = list(profile.loci)
    n_joint = 1
    for locus in loci:
        n_joint *= len(per_locus[locus])
    if n_joint > max_joint_sets:
        raise ValueError(f"{n_joint} joint genotype sets exceed the cap {max_joint_sets}")

    ev = MixtureEvaluator(profile, per_locus, config)
    cube = _CubeMap(noc, config, prior)
    if cube.ndim > MAX_QUADRATURE_DIMS:
        raise DimensionalityError(
            f"{cube.ndim} dimensions exceed the quadrature cap for deconvolution"
        )
    n = resolution or _INIT_N[cube.ndim]
    axes = [(np.arange(n) + 0.5) / n] * cube.ndim
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    templates, c2, slope, bw, fw = cube.map(mesh)

    # per-locus (nodes, enumerated sets) log10 likelihoods; a set the
    # evaluator pruned is -inf at every node and gets weight exactly 0
    per_ll = {}
    for lev in ev.evaluators:
        ll = np.full((len(mesh), lev.n_enumerated), NEG_INF)
        ll[:, lev.live_sets] = lev.set_log10_likelihoods(templates, c2, slope, bw, fw)
        per_ll[lev.locus] = ll
    log_weights = np.empty(n_joint)
    assignments: list[dict] = []
    for j, combo in enumerate(iter_product(*(range(len(per_locus[l])) for l in loci))):
        total = np.zeros(len(mesh))
        log_prior = 0.0
        assignment = {}
        for locus, si in zip(loci, combo):
            ws = per_locus[locus][si]
            total = total + per_ll[locus][:, si]
            log_prior += math.log10(ws.prior)
            assignment[locus] = ws.set
        log_weights[j] = log_prior + log10sumexp(total) - math.log10(len(mesh))
        assignments.append(assignment)

    if np.all(log_weights == NEG_INF):
        raise ValueError(f"profile inexplicable at NoC={noc}: all weights are zero")
    m = np.max(log_weights)
    w = np.power(10.0, log_weights - m)
    w /= w.sum()
    return list(zip(assignments, (float(x) for x in w)))
