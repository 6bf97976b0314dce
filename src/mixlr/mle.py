"""Per-hypothesis maximum-likelihood fitting and the MLE likelihood ratio.

The engine maximises the genotype-marginalised profile likelihood over
the active mass parameters separately under each hypothesis, forms
LR_ML = 10^(logL1 - logL2), and (for same-dimension hypothesis pairs)
the two bounding ratios obtained by freezing the parameters at either
hypothesis's optimum.

Optimisation is bounded quasi-Newton search (L-BFGS-B) on the unit cube of
the shared `ParamSpace`, multi-started from stratified random draws, as
EuroForMix fits its MLE (Bleka, Storvik & Gill 2016). Each objective call
is one batched kernel call that returns the value together with a
central-difference gradient, one-sided at a bound. A face optimum is
reached exactly and reported in `MleResult.faces`.

Because the model is discontinuous at template = 0 (a contributor with
exactly zero template drops out of the likelihood entirely, while an
arbitrarily small template still pays per-position dropout mass), a free
template axis stops at a small positive floor, and the search additionally
runs boundary passes with each proper subset of templates pinned to
exactly zero. That makes the fit of a nesting hypothesis provably at
least as good as any nested one supplied as a warm start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .genotypes import FrequencyTable, RareAllelePolicy
from .likelihood import NEG_INF, MixtureEvaluator, build_evaluator, log10_ratio
from .model import (
    MassParams,
    ModelConfig,
    ParamBox,
    ParamSpace,
    Profile,
    Proposition,
)

# Lower bound of a free template axis in the cube. Exactly 0 is the jump
# the boundary passes handle, and the corner where every template is 0
# explains no peak (log10 likelihood -inf).
_TEMPLATE_FLOOR = 1e-6
# Finite-difference step on each cube axis.
_FD_STEP = 1e-6
# A point the model excludes (log10 likelihood -inf) scores this many times
# max(1, |f0|) above the value f0 at the run's start. The line search
# interpolates between values, so a finite penalty on the scale of the
# objective makes it back off by a usable factor, where a huge one would
# shrink its next step to nothing and end the run at its start.
_EXCLUDED_SCALE = 1e3
# A re-polished optimum replaces the one it was started from only when its
# log10 likelihood is higher by more than this. A smaller rise is rounding
# in the objective, yet taking it would re-run every fit warm-started from
# the old optimum.
POLISH_MARGIN = 1e-12


@dataclass(frozen=True)
class SearchSpec(ParamBox):
    """The parameter box of one maximisation, plus its restart policy.

    Each start runs L-BFGS-B on the box's unit cube: `max_iter` is its
    iteration limit, and `xtol` its projected-gradient tolerance, so a run
    stops once no component of the projected cube gradient of -log10 L
    exceeds xtol. A run also stops when an iteration lowers -log10 L by a
    relative 2.2e-9 or less (L-BFGS-B's default `ftol`).
    """

    n_starts: int = 8
    seed: int = 0
    max_iter: int = 500
    xtol: float = 1e-6
    # warm starts in natural parameter space; zero templates allowed
    extra_starts: tuple[MassParams, ...] = ()
    boundary_passes: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.n_starts < 1:
            raise ValueError("need at least one start")


@dataclass(frozen=True)
class MleResult:
    """One hypothesis's fitted parameters and maximum log10 likelihood.

    function_evals counts the parameter points evaluated. faces names the
    box faces the optimum touches, as "<axis>_lo" or "<axis>_hi" with the
    axes of `ParamSpace.axes`; a template pinned to exactly 0 is on its
    "_lo" face.
    """

    hypothesis: str
    params: MassParams
    log10_max: float
    converged: bool
    n_starts: int
    iterations: int
    function_evals: int
    faces: tuple[str, ...] = ()


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


def _lower_bounds(space: ParamSpace) -> np.ndarray:
    lower = np.zeros(space.ndim)
    lower[: len(space.free_templates)] = _TEMPLATE_FLOOR
    return lower


def _stratified_starts(space: ParamSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """n cube points, each dimension stratified over (0,1)."""
    fracs = np.empty((n, space.ndim))
    for d in range(space.ndim):
        strata = rng.permutation(n)
        fracs[:, d] = (strata + rng.uniform(0.05, 0.95, size=n)) / n
    return fracs


def _faces(space: ParamSpace, u: np.ndarray) -> tuple[str, ...]:
    """The box faces a cube point of `space` touches, pinned templates included."""
    lower = _lower_bounds(space)
    faces = [f"template{i}_lo" for i in space.pinned]
    for name, x, lo in zip(space.axes, u, lower):
        if x <= lo:
            faces.append(f"{name}_lo")
        elif x >= 1.0:
            faces.append(f"{name}_hi")
    return tuple(sorted(faces))


def _run_lbfgsb(ev, space, starts, search):
    """Best (log10, cube point, converged) over L-BFGS-B runs from each
    start, plus the iterations and parameter points they took."""
    lower, upper = _lower_bounds(space), np.ones(space.ndim)
    n = space.ndim
    evals = 0
    excluded = None  # the current run's penalty; set at its start point

    def value_and_gradient(u):
        # one batch: u, then a step up each axis, then a step down each axis,
        # each step stopping at the bound
        nonlocal evals, excluded
        up, down = np.minimum(u + _FD_STEP, upper), np.maximum(u - _FD_STEP, lower)
        pts = np.repeat(u[None], 2 * n + 1, axis=0)
        pts[1 : n + 1][np.diag_indices(n)] = up
        pts[n + 1 :][np.diag_indices(n)] = down
        ll = ev.marginal_log10(*space.from_cube(pts))
        evals += len(pts)
        if excluded is None:
            excluded = np.inf if ll[0] == NEG_INF else (
                -ll[0] + _EXCLUDED_SCALE * max(1.0, abs(ll[0]))
            )
        if ll[0] == NEG_INF:
            return excluded, np.zeros(n)
        # a side the model excludes falls back on the centre point
        ll_up, ll_down = ll[1 : n + 1], ll[n + 1 :]
        ok_up, ok_down = ll_up > NEG_INF, ll_down > NEG_INF
        rise = np.where(ok_up, ll_up, ll[0]) - np.where(ok_down, ll_down, ll[0])
        width = np.where(ok_up, up, u) - np.where(ok_down, down, u)
        grad = np.divide(rise, width, out=np.zeros(n), where=width > 0)
        return -ll[0], -grad

    best_ll, best_u, iters, ok = NEG_INF, None, 0, False
    for u0 in starts:
        excluded = None
        r = minimize(
            value_and_gradient,
            np.clip(u0, lower, upper),
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lower, upper)),
            options={"gtol": search.xtol, "maxiter": search.max_iter},
        )
        iters += r.nit
        if excluded == np.inf:  # the run started on a structural exclusion
            continue
        if -r.fun > best_ll:
            best_ll, best_u, ok = -float(r.fun), r.x, bool(r.success)
    return best_ll, best_u, iters, evals, ok


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

    Deterministic given the seed. Returns the best of: multi-start
    L-BFGS-B runs over the full space, boundary passes with template
    subsets pinned to zero, and any warm starts (evaluated raw and then
    polished), so a warm start can never be beaten downward.
    """
    config = config or ModelConfig()
    ev = evaluator if evaluator is not None else build_evaluator(
        profile, proposition, table, policy, config
    )
    rng = np.random.default_rng(search.seed)
    space = ParamSpace(proposition.noc, config, search)
    starts = list(_stratified_starts(space, search.n_starts, rng))
    warm_by_pin: dict[frozenset, list[MassParams]] = {}
    best_ll, best_params, best_faces = NEG_INF, None, ()
    for w in search.extra_starts:
        zeros = frozenset(i for i, t in enumerate(w.templates) if t == 0.0)
        warm_by_pin.setdefault(zeros, []).append(w)
        ll = ev.marginal_log10_params(w)
        if ll > best_ll:
            sub = ParamSpace(proposition.noc, config, search, pinned=zeros)
            best_ll, best_params, best_faces = ll, w, _faces(sub, sub.to_cube(w))
    for w in warm_by_pin.get(frozenset(), ()):
        starts.append(space.to_cube(w))

    ll, u, iters, evals, converged = _run_lbfgsb(ev, space, starts, search)
    if ll > best_ll:
        best_ll, best_params, best_faces = ll, space.params(u), _faces(space, u)

    if search.boundary_passes and proposition.noc > 1:
        n_sub = max(2, search.n_starts // 4)
        for size in range(1, proposition.noc):
            for pin in combinations(range(proposition.noc), size):
                sub = ParamSpace(proposition.noc, config, search, pinned=pin)
                sub_starts = list(_stratified_starts(sub, n_sub, rng))
                for w in warm_by_pin.get(frozenset(pin), ()):
                    sub_starts.append(sub.to_cube(w))
                ll, u, it2, ev2, _ = _run_lbfgsb(ev, sub, sub_starts, search)
                iters += it2
                evals += ev2
                if ll > best_ll:
                    best_ll, best_params, best_faces = ll, sub.params(u), _faces(sub, u)

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
        faces=best_faces,
    )


def lr_ml(num: MleResult, den: MleResult) -> float:
    """LR_ML = 10^(logL_num - logL_den), with exclusions propagated."""
    return lr_from_log10(log10_lr(num, den))


def log10_lr(num: MleResult, den: MleResult) -> float:
    return log10_ratio(num.log10_max, den.log10_max)


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
            if cand.log10_max > res_p.log10_max + POLISH_MARGIN:
                res_p, improved = cand, True
            cand = maximize(
                profile, hd, table, policy, config,
                replace(polish, extra_starts=(res_p.params,)), evaluator=ev_d,
            )
            if cand.log10_max > res_d.log10_max + POLISH_MARGIN:
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
            "function_evals": res.function_evals,
            "faces": list(res.faces),
        }

    return {
        "hp": side(report.numerator),
        "hd": side(report.denominator),
        "lr_ml": report.lr_ml,
        "log10_lr_ml": report.log10_lr_ml,
        "lr_bound_low": report.lr_bound_low,
        "lr_bound_high": report.lr_bound_high,
    }
