"""Prior-integrated (marginal) likelihoods and LR_int.

The prior is uniform over the parameter box the MLE engine maximises over
(`model.ParamBox`, log-uniform in c2), and both estimators work in that
box's unit cube (`model.ParamSpace.from_cube`): deterministic midpoint
quadrature with refinement doubling for low dimensionality, and
prior-sampling Monte Carlo for anything bigger or as a cross-check. The
cube map is the priors' quantile function, so the prior density never
appears explicitly and the marginal is just a mean of likelihood values.

The quadrature scores each orbit of its mesh once. The unknown contributors
are exchangeable: each has the same U[0, template_hi] template prior, and
their genotype prior is a product over them on every ordered tuple of
genotypes, so the integrand is unchanged when their templates are permuted.
The midpoint mesh is symmetric too, so every mesh point whose unknown-template
indices are a permutation of another's has the same value. The mesh keeps
the points whose unknown-template indices do not decrease, each weighted by
the number of points in its orbit. The weighted mean is the full-mesh midpoint
sum, so only rounding moves; with two unknowns a level of n points per axis
costs n(n+1)/2 evaluations where it cost n**2.

Genotype sets are summed exactly inside the integrand through the same
vectorised evaluator the MLE engine uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .genotypes import FrequencyTable, RareAllelePolicy
from .likelihood import (
    NEG_INF,
    MixtureEvaluator,
    build_evaluator,
    log10_ratio,
    lr_from_log10,
)
from .model import ModelConfig, ParamBox, ParamSpace, Profile, Proposition

QUADRATURE = "QUADRATURE"
MONTE_CARLO = "MONTE_CARLO"

MAX_QUADRATURE_DIMS = 5
# initial points per axis by dimensionality; doubled on refinement
_INIT_N = {1: 128, 2: 48, 3: 16, 4: 8, 5: 6}


class DimensionalityError(ValueError):
    """Quadrature refused: too many active dimensions, use Monte Carlo."""


# Independent priors over the shared parameter box: U[0, template_hi] per
# template, log-uniform c2 over c2_bounds unless pinned, and uniform slope
# and stutter proportions where the model config enables them.
PriorSpec = ParamBox


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


def _midpoint_mesh(
    n: int, ndim: int, exchangeable: Sequence[int] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights): one midpoint of the unit cube's n**ndim equal cells
    per orbit under permutations of the `exchangeable` axes, weighted by the
    orbit's size.

    The representative has non-decreasing cell indices along the exchangeable
    axes; its orbit holds k!/prod(run length!) points for k such axes, where
    the runs are its groups of equal indices. With at most one exchangeable
    axis this is the full mesh, last axis varying fastest, with unit weights.
    """
    # one axis at a time, each row branches into the indices it may take on
    # the next axis: from the last exchangeable index on an exchangeable
    # axis, from 0 on any other
    idx = np.zeros((1, 0), dtype=np.intp)
    prev = None  # the last exchangeable axis placed
    for axis in range(ndim):
        folded = axis in exchangeable and prev is not None
        lo = idx[:, prev] if folded else np.zeros(len(idx), dtype=np.intp)
        counts = n - lo
        parent = np.repeat(np.arange(len(idx)), counts)
        col = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        idx = np.column_stack([idx[parent], col])
        if axis in exchangeable:
            prev = axis
    # prod(run length!) is the product, over the exchangeable indices, of
    # each one's position within its run
    ex = idx[:, sorted(exchangeable)]
    run = np.ones(len(idx))
    runs = np.ones(len(idx))
    for j in range(1, ex.shape[1]):
        run = np.where(ex[:, j] == ex[:, j - 1], run + 1.0, 1.0)
        runs *= run
    return (idx + 0.5) / n, math.factorial(len(exchangeable)) / runs


def _mean_of_log10(
    lls: np.ndarray, weights: Optional[np.ndarray] = None
) -> tuple[float, float, float]:
    """(mean, log10 mean, standard error of the mean) of 10**lls, each term
    counted `weights` times (once by default), stabilised against underflow.
    The mean and its error are inf where they pass the float range; the
    log10 mean stays finite."""
    m = float(np.max(lls))
    if m == NEG_INF:
        return 0.0, NEG_INF, 0.0
    # np.power slows down about tenfold where its result underflows. Raising
    # a term to 1e-300 of the largest, which is 1, moves the mean by less
    # than 1e-300, far below the mean's own rounding error (it is >= 1/n)
    scaled = np.power(10.0, np.maximum(lls - m, -300.0))
    w = np.ones(len(scaled)) if weights is None else weights
    count = float(np.sum(w))
    mean = float(np.sum(w * scaled)) / count
    var = float(np.sum(w * (scaled - mean) ** 2)) / (count - 1) if count > 1 else 0.0
    se = math.sqrt(var) / math.sqrt(count)
    scale = lr_from_log10(m)
    return scale * mean, m + math.log10(mean), scale * se if se > 0 else 0.0


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
    dimensions (use marginal_monte_carlo there). Each level is the full-mesh
    midpoint sum, evaluated once per orbit of the unknown contributors'
    template axes (see the module docstring).
    """
    config = config or ModelConfig()
    space = ParamSpace(proposition.noc, config, prior)
    if space.ndim > MAX_QUADRATURE_DIMS:
        raise DimensionalityError(
            f"{space.ndim} active dimensions exceed the quadrature cap "
            f"{MAX_QUADRATURE_DIMS}; use marginal_monte_carlo"
        )
    n = resolution or _INIT_N[space.ndim]
    ev = evaluator if evaluator is not None else build_evaluator(
        profile, proposition, table, policy, config
    )
    # INT pins no template, so template i is cube axis i
    unknown = proposition.unknown_indices
    prev = None
    converged, level = False, 0
    while True:
        level += 1
        points, weights = _midpoint_mesh(n, space.ndim, unknown)
        lls = ev.marginal_log10(*space.from_cube(points))
        value, log10_value, _ = _mean_of_log10(lls, weights)
        if prev is not None and (math.isinf(value) or math.isinf(prev[0])):
            # beyond the float range inf - inf is nan: the same relative
            # change, |1 - prev / value|, from the log10 marginals
            converged = abs(math.expm1((prev[1] - log10_value) * math.log(10))) <= rtol
        elif prev is not None:
            converged = abs(value - prev[0]) <= rtol * max(abs(value), 1e-300)
        if converged or level >= max_levels:
            break
        prev = value, log10_value
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
    ev = evaluator if evaluator is not None else build_evaluator(
        profile, proposition, table, policy, config
    )
    space = ParamSpace(proposition.noc, config, prior)
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n_samples, space.ndim))
    value, log10_value, se = _mean_of_log10(ev.marginal_log10(*space.from_cube(u)))
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
    return lr_from_log10(log10_ratio(num.log10_marginal, den.log10_marginal))

