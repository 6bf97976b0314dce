"""Per-hypothesis maximum-likelihood fitting and the MLE likelihood ratio.

The engine maximises the genotype-marginalised profile likelihood over
the active mass parameters separately under each hypothesis, forms
LR_ML = 10^(logL1 - logL2), and (for same-dimension hypothesis pairs)
the two bounding ratios obtained by freezing the parameters at either
hypothesis's optimum.

Optimisation is bounded quasi-Newton search (L-BFGS-B) on the unit cube of
the shared `ParamSpace`, multi-started from stratified random draws, as
EuroForMix fits its MLE (Bleka, Storvik & Gill 2016). L-BFGS-B asks for
one point at a time (Byrd, Lu, Nocedal & Zhu 1995), so `maximize` runs
every start in lockstep: each round maps one block of points through the
cube once and scores it in one batched kernel call, the pending point of
every live run together with the steps of its central-difference
gradient, one-sided at a bound. A face optimum is reached exactly and
reported in `MleResult.faces`.

Because the model is discontinuous at template = 0 (a contributor with
exactly zero template drops out of the likelihood entirely, while an
arbitrarily small template still pays per-position dropout mass), a free
template axis stops at a small positive floor, and the search runs over
faces of the one cube: a face holds a set of template axes at exactly 0,
and its runs move along the other axes only. Boundary passes search every
proper face, and a warm start is searched in the face its zero templates
define. That makes the fit of a nesting hypothesis provably at least as
good as any nested one supplied as a warm start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

import numpy as np
from scipy.optimize._lbfgsb import setulb

from .genotypes import FrequencyTable, RareAllelePolicy
from .likelihood import (
    NEG_INF,
    MixtureEvaluator,
    build_evaluator,
    log10_ratio,
    lr_from_log10,
)
from .model import (
    MassParams,
    ModelConfig,
    ParamBox,
    ParamSpace,
    Profile,
    Proposition,
)

# Lower bound of a free template axis in the cube. Exactly 0 is the jump
# the faces of `maximize` handle, and the corner where every template is 0
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
# scipy.optimize.minimize's L-BFGS-B defaults: corrections kept, line-search
# steps per iteration, the relative-decrease stop (ftol 2.22e-9 over machine
# epsilon) and the evaluation cap.
_MAXCOR, _MAXLS, _MAXFUN = 10, 20, 15000
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps


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
    # warm starts in natural parameter space; the zero templates of one define its face
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
    axes of `ParamSpace.axes`; a template held at exactly 0 is on its
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
    lower[: space.noc] = _TEMPLATE_FLOOR
    return lower


def _stratified_starts(ndim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n cube points, each of ndim dimensions stratified over (0,1)."""
    fracs = np.empty((n, ndim))
    for d in range(ndim):
        strata = rng.permutation(n)
        fracs[:, d] = (strata + rng.uniform(0.05, 0.95, size=n)) / n
    return fracs


def _faces(space: ParamSpace, u: np.ndarray) -> tuple[str, ...]:
    """The box faces a cube point of `space` touches; a template held at 0
    is on its "_lo" face."""
    faces = []
    for name, x, lo in zip(space.axes, u, _lower_bounds(space)):
        if x <= lo:
            faces.append(f"{name}_lo")
        elif x >= 1.0:
            faces.append(f"{name}_hi")
    return tuple(sorted(faces))


def _lbfgsb(u0, lower, upper, xtol, max_iter):
    """L-BFGS-B on the box [lower, upper] from u0, as a generator.

    It yields each point whose value and gradient it needs, is sent back
    (f, g), and returns (fun, x, nit, success). This is the loop that
    scipy.optimize.minimize(method="L-BFGS-B", jac=True) runs around the
    same reverse-communication core, with its default settings and stop
    rules, so a run takes the same steps and, as scipy caches the last
    point, asks for each distinct point once.
    """
    n = len(u0)
    x = np.clip(u0, lower, upper).astype(float)
    nbd = np.full(n, 2, dtype=np.int32)  # both bounds finite
    wa = np.zeros(2 * _MAXCOR * n + 5 * n + 11 * _MAXCOR**2 + 8 * _MAXCOR)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    last = x.copy()
    f, g = yield last
    nfev, nit = 1, 0
    while True:
        setulb(_MAXCOR, x, lower, upper, nbd, f, g, _FACTR, xtol, wa, iwa,
               task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:  # wants f and g at x
            if not np.array_equal(x, last):
                last = x.copy()
                f, g = yield last
                nfev += 1
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= max_iter:
                task[:] = 5, 504
            elif nfev > _MAXFUN:
                task[:] = 5, 502
        else:
            break
    return f, x, nit, bool(task[0] == 4)


def _search(ev, space, starts, search):
    """L-BFGS-B from every start, all runs in lockstep on the cube of `space`.

    starts is a list of (free axes, cube point on them). A run moves along
    its free axes and holds the other template axes at exactly 0. Each
    round stacks every live run's pending point with a step up, then a step
    down, each of its free axes, each step stopping at the bound, maps the
    whole block through `space` once and scores it in one kernel call. A
    run's value is -log10 L at its point and its gradient the central
    difference, falling back on the centre where a side is excluded. A
    point the model excludes scores the run's penalty, set at its start.
    Kernel values do not depend on the batch, so each run takes the steps
    it would take alone.

    Returns, per start, (-log10 L, cube point, iterations, success, whether
    the run started on an exclusion), and the parameter points evaluated.
    """
    lower = _lower_bounds(space)
    runs = []  # [start index, free axes, driver, pending point, penalty]
    for i, (free, u0) in enumerate(starts):
        driver = _lbfgsb(u0, lower[free], np.ones(len(free)), search.xtol, search.max_iter)
        runs.append([i, free, driver, next(driver), None])
    results = [None] * len(starts)
    evals, n_live = 0, 0
    while runs:
        if len(runs) != n_live:
            # the block's layout, rebuilt only when a run ends: one entry
            # per run and free axis, runs in order; a run's rows are its
            # centre, its up-steps, then its down-steps
            n_live = len(runs)
            k = np.array([len(r[1]) for r in runs])
            axes = np.concatenate([r[1] for r in runs])
            run_of = np.repeat(np.arange(n_live), k)
            first, ends = np.cumsum(2 * k + 1) - (2 * k + 1), np.cumsum(k)
            centre_of = first[run_of]
            up_rows = centre_of + 1 + np.arange(len(axes)) - (ends - k)[run_of]
            down_rows = up_rows + k[run_of]
            lower_axes = lower[axes]
        x = np.concatenate([r[3] for r in runs])
        up = np.minimum(x + _FD_STEP, 1.0)
        down = np.maximum(x - _FD_STEP, lower_axes)
        pts = np.zeros((n_live, space.ndim))
        pts[run_of, axes] = x
        pts = np.repeat(pts, 2 * k + 1, axis=0)
        pts[up_rows, axes] = up
        pts[down_rows, axes] = down
        ll = ev.marginal_log10(*space.from_cube(pts))
        evals += len(ll)
        centre = ll[first]
        ok = centre > NEG_INF
        # no gradient where the centre is excluded; a side the model
        # excludes falls back on the centre point
        rows = slice(None) if ok.all() else ok[run_of]
        c = ll[centre_of[rows]]
        ll_up, ll_down = ll[up_rows[rows]], ll[down_rows[rows]]
        ok_up, ok_down = ll_up > NEG_INF, ll_down > NEG_INF
        rise = np.where(ok_up, ll_up, c) - np.where(ok_down, ll_down, c)
        width = np.where(ok_up, up[rows], x[rows]) - np.where(ok_down, down[rows], x[rows])
        grad = np.zeros(len(axes))
        grad[rows] = -np.divide(rise, width, out=np.zeros_like(rise), where=width > 0)
        for run, f, f_ok, end, n in zip(runs, centre, ok, ends, k):
            if run[4] is None:
                run[4] = np.inf if not f_ok else -f + _EXCLUDED_SCALE * max(1.0, abs(f))
            try:
                run[3] = run[2].send((-f if f_ok else run[4], grad[end - n : end]))
            except StopIteration as stop:
                fun, u, nit, success = stop.value
                point = np.zeros(space.ndim)
                point[run[1]] = u
                results[run[0]] = (fun, point, nit, success, run[4] == np.inf)
                run[3] = None
        runs = [r for r in runs if r[3] is not None]
    return results, evals


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

    Deterministic given the seed. The search covers faces of one cube, where
    a face is a tuple of template axes held at exactly 0: the interior ()
    from n_starts stratified starts; with boundary_passes, every proper face
    from max(2, n_starts // 4) stratified starts; and the face of each warm
    start in extra_starts. Each face runs L-BFGS-B on its free axes from its
    stratified starts plus the warm starts whose zero templates define it,
    and every run goes in lockstep; a face that holds every template at 0
    has nothing to search. The best run wins, faces and starts taken in
    order. Every warm start is also scored as it stands, so a warm start
    can never be beaten downward. converged is that of the run whose point
    is reported; for a warm start reported as it stands, that of the run
    started from it.
    """
    config = config or ModelConfig()
    ev = evaluator if evaluator is not None else build_evaluator(
        profile, proposition, table, policy, config
    )
    space = ParamSpace(proposition.noc, config, search)
    rng = np.random.default_rng(search.seed)
    noc = proposition.noc
    n_strat = {(): search.n_starts}
    if search.boundary_passes:
        n_boundary = max(2, search.n_starts // 4)
        for size in range(1, noc):
            n_strat.update((face, n_boundary) for face in combinations(range(noc), size))
    warm_by_face: dict[tuple, list[int]] = {}
    best_ll, best_params, best_faces, best_warm = NEG_INF, None, (), None
    for j, w in enumerate(search.extra_starts):
        face = tuple(i for i, t in enumerate(w.templates) if t == 0.0)
        warm_by_face.setdefault(face, []).append(j)
        ll = ev.marginal_log10_params(w)
        if ll > best_ll:
            best_ll, best_params, best_warm = ll, w, j
            best_faces = _faces(space, space.to_cube(w))

    starts, warm_run = [], {}
    for face in [*n_strat, *(f for f in warm_by_face if f not in n_strat)]:
        if len(face) == noc:
            continue
        free = np.array([a for a in range(space.ndim) if a not in face])
        starts += [(free, u0) for u0 in _stratified_starts(len(free), n_strat.get(face, 0), rng)]
        for j in warm_by_face.get(face, ()):
            warm_run[j] = len(starts)
            starts.append((free, space.to_cube(search.extra_starts[j])[free]))
    results, evals = _search(ev, space, starts, search)

    # converged is the reported point's run: a warm start reported as it
    # stands takes the run started from it
    converged = best_warm in warm_run and results[warm_run[best_warm]][3]
    iters, won = 0, None
    for fun, u, nit, success, started_excluded in results:
        iters += nit
        if not started_excluded and -fun > best_ll:
            best_ll, won, converged = -float(fun), u, success
    if won is not None:
        best_params, best_faces = space.params(won), _faces(space, won)

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


def polish(
    best: MleResult, start: MassParams, profile: Profile, proposition: Proposition,
    table: FrequencyTable, policy: RareAllelePolicy, config: ModelConfig,
    search: SearchSpec, evaluator: MixtureEvaluator,
) -> MleResult:
    """The fit from `start` alone if it beats `best` by more than
    POLISH_MARGIN, else `best` itself.

    The fit is `maximize` with one stratified start, no boundary passes and
    `start` as its only warm start, which runs in its own face.
    """
    cand = maximize(
        profile, proposition, table, policy, config,
        replace(search, n_starts=1, boundary_passes=False, extra_starts=(start,)),
        evaluator=evaluator,
    )
    return cand if cand.log10_max > best.log10_max + POLISH_MARGIN else best


def lr_ml(num: MleResult, den: MleResult) -> float:
    """LR_ML = 10^(logL_num - logL_den), with exclusions propagated."""
    return lr_from_log10(log10_lr(num, den))


def log10_lr(num: MleResult, den: MleResult) -> float:
    return log10_ratio(num.log10_max, den.log10_max)


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
        for _ in range(4):
            new_p = polish(res_p, res_d.params, profile, hp, table, policy, config, search, ev_p)
            new_d = polish(res_d, new_p.params, profile, hd, table, policy, config, search, ev_d)
            if new_p is res_p and new_d is res_d:
                break
            res_p, res_d = new_p, new_d

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
