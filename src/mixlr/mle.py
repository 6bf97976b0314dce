"""Per-hypothesis maximum-likelihood fitting and the MLE likelihood ratio.

The engine maximises the genotype-marginalised profile likelihood over
the active mass parameters separately under each hypothesis, forms
LR_ML = 10^(logL1 - logL2), and (for same-dimension hypothesis pairs)
the two bounding ratios obtained by freezing the parameters at either
hypothesis's optimum.

Optimisation is derivative-free simplex search (Nelder-Mead) over an
unconstrained space, the logit of the unit cube of the shared
`ParamSpace`, multi-started from stratified random draws. Because the
model is discontinuous at template = 0 (a contributor with exactly zero
template drops out of the likelihood entirely, while an arbitrarily small
template still pays per-position dropout mass), the search additionally
runs boundary passes with each proper subset of templates pinned to
exactly zero. That makes the fit of a nesting hypothesis provably at
least as good as any nested one supplied as a warm start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .genotypes import FrequencyTable, RareAllelePolicy, enumerate_sets
from .likelihood import NEG_INF, MixtureEvaluator
from .model import (
    MassParams,
    ModelConfig,
    ParamBox,
    ParamSpace,
    Profile,
    Proposition,
    tensor_grid,
)

CONTINUOUS = "CONTINUOUS"
GRID = "GRID"


@dataclass(frozen=True)
class SearchSpec(ParamBox):
    """The parameter box of one maximisation, plus its restart policy."""

    mode: str = CONTINUOUS
    n_starts: int = 8
    seed: int = 0
    max_iter: int = 500
    xtol: float = 1e-6
    # GRID mode: one lattice per contributor (a single lattice is shared)
    template_grids: Optional[Sequence[Sequence[float]]] = None
    # warm starts in natural parameter space; zero templates allowed
    extra_starts: tuple[MassParams, ...] = ()
    boundary_passes: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in (CONTINUOUS, GRID):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.n_starts < 1:
            raise ValueError("need at least one start")


@dataclass(frozen=True)
class MleResult:
    """One hypothesis's fitted parameters and maximum log10 likelihood."""

    hypothesis: str
    params: MassParams
    log10_max: float
    converged: bool
    n_starts: int
    iterations: int
    function_evals: int


@dataclass(frozen=True)
class MlLrReport:
    """LR_ML plus the two frozen-parameter bounding ratios.

    lr_bound_low evaluates both hypotheses at the denominator's optimum,
    lr_bound_high at the numerator's; lr_bound_low <= lr_ml <=
    lr_bound_high whenever the hypotheses share a parameter space. The
    bounds are None when the hypotheses disagree on NoC.
    """

    numerator: MleResult
    denominator: MleResult
    lr_ml: float
    log10_lr_ml: float
    lr_bound_low: Optional[float] = None
    lr_bound_high: Optional[float] = None


# The simplex searches all of R^ndim; the sigmoid maps it onto the unit
# cube of a ParamSpace, and the logit back. _logit clips so that a warm
# start on a face of the box encodes to a finite point.
def _sigmoid(u):
    return 1.0 / (1.0 + np.exp(-u))


def _logit(p):
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return np.log(p / (1 - p))


def _stratified_starts(space: ParamSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """n start vectors, each dimension stratified over (0,1) then logit-mapped."""
    if space.ndim == 0:
        return np.zeros((n, 0))
    fracs = np.empty((n, space.ndim))
    for d in range(space.ndim):
        strata = rng.permutation(n)
        fracs[:, d] = (strata + rng.uniform(0.05, 0.95, size=n)) / n
    return _logit(fracs)


def build_evaluator(
    profile: Profile,
    proposition: Proposition,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    config: Optional[ModelConfig] = None,
) -> MixtureEvaluator:
    """Enumerate genotype sets for the proposition and wrap them for batch evaluation."""
    config = config or ModelConfig()
    sets = enumerate_sets(profile, proposition, table, policy, config)
    return MixtureEvaluator(profile, sets, config)


def _objective(ev: MixtureEvaluator, space: ParamSpace):
    """Negated log10 likelihood at an unconstrained point, and an evaluation counter."""
    counter = {"n": 0}

    def f(u: np.ndarray) -> float:
        counter["n"] += 1
        ll = float(ev.marginal_log10(*space.from_cube(_sigmoid(u)[None]))[0])
        return 1e308 if ll == NEG_INF else -ll

    return f, counter


def _run_simplex(ev, space, starts, search):
    """Best (log10, params) over Nelder-Mead runs from each start vector."""
    f, counter = _objective(ev, space)
    best_ll, best_params, iters, ok = NEG_INF, None, 0, False
    # a large negative u overflows exp(-u) and maps a template to exactly 0
    with np.errstate(over="ignore"):
        for u0 in starts:
            if space.ndim == 0:
                ll = -f(np.zeros(0))
                if ll > best_ll:
                    best_ll, best_params, ok = ll, space.params(np.zeros(0)), True
                continue
            r = minimize(
                f,
                np.asarray(u0, dtype=float),
                method="Nelder-Mead",
                options={
                    "xatol": search.xtol,
                    "fatol": 1e-10,
                    "maxiter": search.max_iter * space.ndim,
                },
            )
            iters += r.nit
            val = -float(r.fun)
            if val <= -1e307:  # every evaluation hit a structural exclusion
                continue
            if val > best_ll:
                best_ll, best_params, ok = val, space.params(_sigmoid(r.x)), bool(r.success)
    return best_ll, best_params, iters, counter["n"], ok


def _grid_maximize(ev, proposition, search) -> MleResult:
    if search.c2 is None:
        raise ValueError("GRID mode requires a pinned c2")
    if search.template_grids is None:
        raise ValueError("GRID mode requires template lattices")
    grids = [np.asarray(g, dtype=float) for g in search.template_grids]
    if len(grids) == 1 and proposition.noc > 1:
        grids = grids * proposition.noc
    if len(grids) != proposition.noc:
        raise ValueError(f"{len(grids)} lattices for NoC={proposition.noc}")
    mesh = tensor_grid(grids)
    ll = ev.marginal_log10(mesh, search.c2)
    n_eval = len(mesh)
    i = int(np.argmax(ll))
    best_ll = float(ll[i])
    params = MassParams(templates=tuple(mesh[i]), variance_c2=search.c2)
    return MleResult(
        hypothesis=proposition.label,
        params=params,
        log10_max=best_ll,
        converged=True,
        n_starts=1,
        iterations=n_eval,
        function_evals=n_eval,
    )


def maximize(
    profile: Profile,
    proposition: Proposition,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    config: Optional[ModelConfig] = None,
    search: SearchSpec = SearchSpec(),
    evaluator: Optional[MixtureEvaluator] = None,
) -> MleResult:
    """Maximise the genotype-marginalised likelihood under one proposition.

    Deterministic given the seed. Returns the best of: multi-start simplex
    runs over the full space, boundary passes with template subsets pinned
    to zero, and any warm starts (evaluated raw and then polished), so a
    warm start can never be beaten downward.
    """
    config = config or ModelConfig()
    ev = evaluator if evaluator is not None else build_evaluator(
        profile, proposition, table, policy, config
    )
    if search.mode == GRID:
        return _grid_maximize(ev, proposition, search)

    rng = np.random.default_rng(search.seed)
    space = ParamSpace(proposition.noc, config, search)
    starts = list(_stratified_starts(space, search.n_starts, rng))
    warm_by_pin: dict[frozenset, list[MassParams]] = {}
    best_ll, best_params = NEG_INF, None
    for w in search.extra_starts:
        zeros = frozenset(i for i, t in enumerate(w.templates) if t == 0.0)
        warm_by_pin.setdefault(zeros, []).append(w)
        ll = ev.marginal_log10_params(w)
        if ll > best_ll:
            best_ll, best_params = ll, w
    for w in warm_by_pin.get(frozenset(), ()):
        starts.append(_logit(space.to_cube(w)))

    ll, params, iters, evals, ok = _run_simplex(ev, space, starts, search)
    converged = ok
    if ll > best_ll:
        best_ll, best_params = ll, params

    if search.boundary_passes and proposition.noc > 1:
        n_sub = max(2, search.n_starts // 4)
        for size in range(1, proposition.noc):
            for pin in combinations(range(proposition.noc), size):
                sub = ParamSpace(proposition.noc, config, search, pinned=pin)
                sub_starts = list(_stratified_starts(sub, n_sub, rng))
                for w in warm_by_pin.get(frozenset(pin), ()):
                    sub_starts.append(_logit(sub.to_cube(w)))
                ll, params, it2, ev2, _ = _run_simplex(ev, sub, sub_starts, search)
                iters += it2
                evals += ev2
                if ll > best_ll:
                    best_ll, best_params = ll, params

    if best_params is None:
        # every start and pass stayed at -inf: structural exclusion
        best_params = MassParams(
            templates=tuple(0.0 for _ in range(proposition.noc)),
            variance_c2=search.c2 if search.c2 is not None else search.c2_bounds[0],
        )
        converged = False
    return MleResult(
        hypothesis=proposition.label,
        params=best_params,
        log10_max=best_ll,
        converged=converged,
        n_starts=search.n_starts,
        iterations=iters,
        function_evals=evals,
    )


def lr_ml(num: MleResult, den: MleResult) -> float:
    """LR_ML = 10^(logL_num - logL_den), with exclusions propagated."""
    return lr_from_log10(log10_lr(num, den))


def log10_lr(num: MleResult, den: MleResult) -> float:
    if num.log10_max == NEG_INF:
        return NEG_INF
    if den.log10_max == NEG_INF:
        return float("inf")
    return num.log10_max - den.log10_max


def lr_from_log10(l: float) -> float:
    if l == NEG_INF:
        return 0.0
    if l == float("inf"):
        return float("inf")
    return 10.0**l


def bounded_lrs(
    ev_num: MixtureEvaluator,
    ev_den: MixtureEvaluator,
    m_hat_1: MassParams,
    m_hat_2: MassParams,
) -> tuple[float, float]:
    """The two frozen-parameter ratios bracketing LR_ML.

    lr_at_m2 evaluates both hypotheses at the denominator optimum M2,
    lr_at_m1 at the numerator optimum M1. Hypotheses with different
    contributor counts have different parameter spaces and no shared
    freeze point; that is an error, not a silent number.
    """
    if len(m_hat_1.templates) != len(m_hat_2.templates):
        raise ValueError(
            "bounding LRs need a shared parameter space; "
            f"got {len(m_hat_1.templates)} vs {len(m_hat_2.templates)} contributors"
        )
    lr_at_m2 = lr_from_log10(
        ev_num.marginal_log10_params(m_hat_2) - ev_den.marginal_log10_params(m_hat_2)
    )
    lr_at_m1 = lr_from_log10(
        ev_num.marginal_log10_params(m_hat_1) - ev_den.marginal_log10_params(m_hat_1)
    )
    return lr_at_m2, lr_at_m1


def fit_both(
    profile: Profile,
    hp: Proposition,
    hd: Proposition,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    config: Optional[ModelConfig] = None,
    search: SearchSpec = SearchSpec(),
) -> MlLrReport:
    """Fit both hypotheses and report LR_ML with its bounds.

    When the hypotheses share a contributor count, each fit is polished
    from the other's optimum until neither improves; this enforces the
    bracket lr_at_M2 <= lr_ml <= lr_at_M1 by construction rather than by
    optimizer luck. Bounds are omitted for mismatched NoC.
    """
    config = config or ModelConfig()
    ev_p = build_evaluator(profile, hp, table, policy, config)
    ev_d = build_evaluator(profile, hd, table, policy, config)
    res_p = maximize(profile, hp, table, policy, config, search, evaluator=ev_p)
    res_d = maximize(profile, hd, table, policy, config, search, evaluator=ev_d)

    same_space = hp.noc == hd.noc
    if same_space:
        polish = replace(search, n_starts=1, boundary_passes=False)
        for _ in range(4):
            improved = False
            cand = maximize(
                profile, hp, table, policy, config,
                replace(polish, extra_starts=(res_d.params,)), evaluator=ev_p,
            )
            if cand.log10_max > res_p.log10_max + 1e-12:
                res_p, improved = cand, True
            cand = maximize(
                profile, hd, table, policy, config,
                replace(polish, extra_starts=(res_p.params,)), evaluator=ev_d,
            )
            if cand.log10_max > res_d.log10_max + 1e-12:
                res_d, improved = cand, True
            if not improved:
                break

    l = log10_lr(res_p, res_d)
    lo = hi = None
    if same_space and res_p.log10_max > NEG_INF and res_d.log10_max > NEG_INF:
        lo, hi = bounded_lrs(ev_p, ev_d, res_p.params, res_d.params)
    return MlLrReport(
        numerator=res_p,
        denominator=res_d,
        lr_ml=lr_from_log10(l),
        log10_lr_ml=l,
        lr_bound_low=lo,
        lr_bound_high=hi,
    )


def table3_report(report: MlLrReport) -> dict:
    """Summary layout mirroring a per-hypothesis software output table."""

    def side(res: MleResult) -> dict:
        p = res.params
        return {
            "mixture_proportions": list(p.mixture_proportions),
            "templates_rfu": list(p.templates),
            "peak_height_variability_c2": p.variance_c2,
            "degradation_slope": p.degradation_slope,
            "bw_stutter_prop": p.bw_stutter_prop,
            "fw_stutter_prop": p.fw_stutter_prop,
            "log10_likelihood": res.log10_max,
            "converged": res.converged,
        }

    return {
        "hp": side(report.numerator),
        "hd": side(report.denominator),
        "lr_ml": report.lr_ml,
        "log10_lr_ml": report.log10_lr_ml,
        "lr_bound_low": report.lr_bound_low,
        "lr_bound_high": report.lr_bound_high,
    }
