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

Each level's mesh is built once per process (`_midpoint_mesh` is cached)
and passes the kernel its points' integer cells with the points, so the
kernel scores each expectation row once per combination of the cells it
reads (see `mixlr.likelihood`).

Genotype sets are summed exactly inside the integrand through the same
vectorised evaluator the MLE engine uses.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

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


@functools.lru_cache(maxsize=16)
def _midpoint_mesh(
    n: int, ndim: int, exchangeable: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, cells, weights): one midpoint of the unit cube's n**ndim
    equal cells per orbit under permutations of the `exchangeable` axes, its
    cell's integer index on every axis, and the orbit's size.

    The representative has non-decreasing cell indices along the exchangeable
    axes; its orbit holds k!/prod(run length!) points for k such axes, where
    the runs are its groups of equal indices. With at most one exchangeable
    axis this is the full mesh, last axis varying fastest, with unit weights.
    A point is (cell + 0.5) / n on every axis. The 16 meshes last used are
    kept, so each is built once per process, and every caller shares its
    arrays: they are read-only.
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
    # the cells in the narrowest integer type that holds n - 1
    cells = idx.astype(np.min_scalar_type(n - 1))
    mesh = (idx + 0.5) / n, cells, math.factorial(len(exchangeable)) / runs
    for array in mesh:
        array.setflags(write=False)
    return mesh


def _check_count(name: str, value, least: int) -> None:
    """Raise unless value is an integer (not a bool) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def _relative_terms(lls: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
    """(m, 10**(lls - m)) for the largest of lls, m; (-inf, None) where
    every term is -inf.

    np.power slows down about tenfold where its result underflows. Raising
    a term to 1e-300 of the largest, which is 1, moves their mean by less
    than 1e-300, far below the mean's own rounding error (it is >= 1/n).
    """
    m = float(np.max(lls))
    if m == NEG_INF:
        return m, None
    return m, np.power(10.0, np.maximum(lls - m, -300.0))


def _mean_of_log10(
    lls: np.ndarray, weights: Optional[np.ndarray] = None
) -> tuple[float, float]:
    """(mean, log10 mean) of 10**lls, each term counted `weights` times
    (once by default), stabilised against underflow. The mean is inf where
    it passes the float range; the log10 mean stays finite."""
    m, scaled = _relative_terms(lls)
    if scaled is None:
        return 0.0, NEG_INF
    count = float(len(scaled) if weights is None else np.sum(weights))
    mean = float(np.sum(scaled if weights is None else weights * scaled)) / count
    return lr_from_log10(m) * mean, m + math.log10(mean)


def _std_error_of_mean(lls: np.ndarray) -> float:
    """The standard error of the mean of 10**lls, each term counted once;
    inf where it passes the float range."""
    m, scaled = _relative_terms(lls)
    if scaled is None:
        return 0.0
    count = len(scaled)
    mean = float(np.sum(scaled)) / count
    var = float(np.sum((scaled - mean) ** 2)) / (count - 1) if count > 1 else 0.0
    se = math.sqrt(var) / math.sqrt(count)
    return lr_from_log10(m) * se if se > 0 else 0.0


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

    resolution is None, for the default points per axis of the dimension,
    or an integer >= 1; max_levels is an integer >= 1 and rtol a finite
    number >= 0. An evaluator given is called as
    `marginal_log10(*space.from_cube(points), cells=cells)` with each
    level's mesh cells.
    """
    if resolution is not None:
        _check_count("resolution", resolution, 1)
    _check_count("max_levels", max_levels, 1)
    if isinstance(rtol, bool) or not isinstance(rtol, numbers.Real):
        raise TypeError(f"rtol must be a number, got {rtol!r}")
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and >= 0, got {rtol!r}")
    config = config or ModelConfig()
    space = ParamSpace(proposition.noc, config, prior)
    if space.ndim > MAX_QUADRATURE_DIMS:
        raise DimensionalityError(
            f"{space.ndim} active dimensions exceed the quadrature cap "
            f"{MAX_QUADRATURE_DIMS}; use marginal_monte_carlo"
        )
    n = _INIT_N[space.ndim] if resolution is None else resolution
    ev = evaluator if evaluator is not None else build_evaluator(
        profile, proposition, table, policy, config
    )
    # INT pins no template, so template i is cube axis i
    unknown = proposition.unknown_indices
    prev = None
    converged, level = False, 0
    while True:
        level += 1
        points, cells, weights = _midpoint_mesh(n, space.ndim, unknown)
        lls = ev.marginal_log10(*space.from_cube(points), cells=cells)
        value, log10_value = _mean_of_log10(lls, weights)
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
    _check_count("n_samples", n_samples, 1000)
    config = config or ModelConfig()
    ev = evaluator if evaluator is not None else build_evaluator(
        profile, proposition, table, policy, config
    )
    space = ParamSpace(proposition.noc, config, prior)
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n_samples, space.ndim))
    lls = ev.marginal_log10(*space.from_cube(u))
    value, log10_value = _mean_of_log10(lls)
    return IntegralResult(
        hypothesis=proposition.label,
        marginal=value,
        log10_marginal=log10_value,
        estimator=MONTE_CARLO,
        resolution=n_samples,
        converged=True,
        std_error=_std_error_of_mean(lls),
    )


def lr_int(num: IntegralResult, den: IntegralResult) -> float:
    """Ratio of marginal likelihoods, with 0 and infinity propagated."""
    return lr_from_log10(log10_ratio(num.log10_marginal, den.log10_marginal))

