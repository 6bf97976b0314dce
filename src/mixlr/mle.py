"""Per-hypothesis maximum-likelihood fitting and the MLE likelihood ratio.

The engine maximises the genotype-marginalised profile likelihood over
the active mass parameters separately under each hypothesis, forms
LR_ML = 10^(logL1 - logL2), and (for same-dimension hypothesis pairs)
the two bounding ratios obtained by freezing the parameters at either
hypothesis's optimum.

Optimisation is bounded quasi-Newton search on the unit cube of the shared
`ParamSpace`, multi-started from stratified random draws, as EuroForMix
fits its MLE (Bleka, Storvik & Gill 2016). The optimiser is a projected
BFGS step with an active set (Bertsekas 1982) and a backtracking Armijo
line search, one driver for every start of a fit, so `maximize` runs them
in lockstep. Each round maps one block of points through the cube once
and scores it in one batched kernel call, the pending point of every live
run together with the steps of its central-difference gradient, one-sided
at a bound. A face optimum is reached exactly and reported in
`MleResult.faces`.

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

import math
import weakref
from dataclasses import dataclass, fields, replace
from itertools import chain, combinations
from operator import mul, ne, sub
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
# A re-polished optimum replaces the one it was started from only when its
# log10 likelihood is higher by more than this. A smaller rise is rounding
# in the objective, yet taking it would re-run every fit warm-started from
# the old optimum.
POLISH_MARGIN = 1e-12
# `_quasi_newton`'s settings: the distance from a bound within which an axis
# that its gradient pushes out is active; Armijo's sufficient-decrease
# fraction; how much steeper than it fell at the start f may rise along the
# step at a trial that lands on a bound; the rejected trials a line search may
# take before its run restarts; the factor that lengthens a run's steps after
# one along which f curves down; and the relative-decrease stop (L-BFGS-B's
# default ftol). On the fits of 40 `study_3p` benchmark rounds, _CURVATURE 2
# or 5 and _CONCAVE_GROWTH 1.5 or 4 change the kernel calls by 2% or less.
_ACTIVE_EPS = 1e-5
_ARMIJO = 1e-4
_CURVATURE = 3.0
_MAX_BACKTRACKS = 20
_CONCAVE_GROWTH = 2.0
_FTOL = 2.2204460492503131e-09
# The outcome of every run `maximize` has finished, per evaluator: a dict
# from the run's settings, free axes and start point to what `_search`
# returned for it. An evaluator's entry dies with the evaluator.
_FINISHED: "weakref.WeakKeyDictionary[MixtureEvaluator, dict]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class SearchSpec(ParamBox):
    """The parameter box of one maximisation, plus its restart policy.

    Each start runs a bounded quasi-Newton search on the box's unit cube:
    `max_iter` is its iteration limit, and `xtol` its projected-gradient
    tolerance, so a run stops once no component of the projected cube
    gradient of -log10 L exceeds xtol. A run also stops when an iteration
    lowers -log10 L, or its next full step predicts it would lower it, by a
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

    function_evals counts the parameter points this fit's own call
    evaluated: a run `maximize` reuses from an earlier call on the same
    evaluator counts none, while its iterations still count. faces names the
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


def _clip(v, lo, hi):
    """v clipped to [lo, hi]."""
    return lo if v < lo else hi if v > hi else v


class _Run:
    """One run of `_quasi_newton`: Python floats over the axes it may move.

    x, g and end are its point, gradient and step's end; H is its
    inverse-Hessian approximation as a list of rows; free marks the axes
    that take the BFGS step; t, step and slope are its pending trial, the
    trial's offset from x and g'step; lam is the fraction of the step the
    line search takes; rose marks a last rejected trial at which f rose;
    tol is its relative-decrease tolerance at x.
    """

    __slots__ = (
        "lo", "hi", "x", "f", "g", "H", "fresh", "free", "pgn", "tol", "nit",
        "lam", "tries", "end", "landed", "t", "step", "slope", "rose", "ok",
    )

    def __init__(self, lo, hi, x, f, g):
        self.lo, self.hi, self.x, self.f, self.g = lo, hi, x, f, g
        self.nit, self.lam, self.tries, self.rose, self.ok = 0, 1.0, 0, False, False
        self.restart()
        self.tol = self.at_point()

    def restart(self):
        """Forget the curvature: the next step runs along -g."""
        n = len(self.x)
        self.H = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        self.fresh, self.lam, self.tries, self.end = True, 1.0, 0, None

    def at_point(self):
        """Set free and pgn at x, and return the relative-decrease tolerance
        there: an axis whose step along -g leaves the box within the active
        distance of that bound is not free."""
        pg = list(map(sub, self.x, map(_clip, map(sub, self.x, self.g), self.lo, self.hi)))
        self.pgn = max(map(abs, pg), default=0.0)
        near = min(self.pgn, _ACTIVE_EPS)
        self.free = [p == g or abs(p) > near for p, g in zip(pg, self.g)]
        return _FTOL * max(abs(self.f), 1.0)

    def plan(self):
        """Set the next trial, or return False where the run stops instead:
        its full step predicts a decrease the relative-decrease stop would
        take (converged), or its line search fails just after a restart."""
        while True:
            x, lo, hi = self.x, self.lo, self.hi
            if self.end is None:
                self._step_end()
            lam = self.lam
            if lam == 1.0:
                t = self.end
            else:
                t = [_clip(a + lam * (e - a), l, h) for a, e, l, h in zip(x, self.end, lo, hi)]
            step = list(map(sub, t, x))
            slope = sum(map(mul, self.g, step))
            if slope < -self.tol:
                self.t, self.step, self.slope = t, step, slope
                return True
            # a trial the bounds turn uphill, or a shrunk one with so small
            # a predicted decrease, is a failed line search. Along -g, where
            # the trials before it rose, the line holds no more decrease than
            # about the relative-decrease stop allows (the interpolating
            # quadratic's minimum is at most 2.5 times the tolerance below
            # f), and the run has converged; a line search that ends on an
            # excluded point or a wall has not
            failed = slope >= 0 or lam < 1.0
            if failed and not self.fresh:
                self.restart()
                continue
            self.ok = not failed or (slope < 0 and self.rose)
            return False

    def _step_end(self):
        """The step's end: -g projected on the box for a fresh run; else
        active axes along -g up to their bound and free axes along -H g,
        cut back where the first of them meets a bound. landed: the end
        touches a bound the step was cut or projected to."""
        x, g, lo, hi = self.x, self.g, self.lo, self.hi
        if self.fresh:
            raw = list(map(sub, x, g))
            end = list(map(_clip, raw, lo, hi))
            self.end, self.landed = end, end != raw
            return
        free = self.free
        gq = [b if q else 0.0 for b, q in zip(g, free)]
        d = [sum(map(mul, row, gq)) for row in self.H]
        raw = [a - (e if q else b) for a, b, e, q in zip(x, g, d, free)]
        end = list(map(_clip, raw, lo, hi))
        if end == raw:
            self.end, self.landed = end, False
            return
        cut = list(map(ne, end, raw))
        if any(c and q for c, q in zip(cut, free)):
            room = [
                ((a - l) if e > 0 else (h - a)) / max(abs(e), 1e-300)
                for a, e, l, h in zip(x, d, lo, hi)
            ]
            reach = min([r for r, q in zip(room, free) if q] + [1.0])
            for i, q in enumerate(free):
                if q:
                    hit = room[i] <= reach
                    raw[i] = (lo[i] if d[i] > 0 else hi[i]) if hit else x[i] - reach * d[i]
                    cut[i] = cut[i] or hit
            end = list(map(_clip, raw, lo, hi))
        self.end, self.landed = end, any(cut)

    def _shrink(self, f_t, g_t, fell):
        """The fraction of a rejected trial's step the next trial takes: the
        minimiser of the cubic through f and its slope at both ends
        (Nocedal & Wright, eq. 3.59), within 0.1-0.5 of the step, or 0.1-0.9
        where f fell but the trial hit a wall; the quadratic's through both
        values and the start's slope where the cubic has no minimiser; 0.1
        where the trial is excluded."""
        slope, rise = self.slope, f_t - self.f
        if rise == math.inf:
            return 0.1
        end_slope = sum(map(mul, g_t, self.step))
        z = slope + end_slope - 3.0 * rise
        rad = z * z - slope * end_slope
        if rad >= 0.0:
            w = math.sqrt(rad)
            den = end_slope - slope + 2.0 * w
            if den != 0.0:
                return min(max(1.0 - (end_slope + w - z) / den, 0.1), 0.9 if fell else 0.5)
        return min(max(-slope / (2.0 * (rise - slope)), 0.1), 0.5)

    def take(self, f_t, g_t, xtol, max_iter):
        """Score the pending trial; return True where the run stops."""
        slope = self.slope
        accept = fell = f_t <= self.f + _ARMIJO * slope
        if accept and self.landed and self.lam == 1.0:
            # a trial on a bound where f climbs steeply along the step has
            # hit a wall there, not a minimum
            accept = sum(map(mul, g_t, self.step)) <= -_CURVATURE * slope
        if not accept:
            # too many rejected trials are a failed line search, which
            # restarts the run, or stops it if it has just restarted
            self.tries += 1
            self.rose = not fell and f_t < math.inf
            if self.tries >= _MAX_BACKTRACKS:
                if self.fresh:
                    return True
                self.restart()
                return False
            self.lam *= self._shrink(f_t, g_t, fell)
            return False

        # BFGS from the step and gradient change along the free axes where
        # s'y > 0: H + a s s' - rho (Hy s' + s y'H) with a = rho (1 + rho
        # y'Hy), written H + v s' + s v' with v = a s / 2 - rho Hy. A fresh
        # run's first such update starts from s'y / y'y times the identity.
        # Where s'y <= 0, f curves down along the step and H grows.
        free = self.free
        s = [a if q else 0.0 for a, q in zip(self.step, free)]
        y = [(a - b) if q else 0.0 for a, b, q in zip(g_t, self.g, free)]
        sy = sum(map(mul, s, y))
        if sy > 0:
            if self.fresh:
                scale = sy / sum(map(mul, y, y))
                n = len(s)
                self.H = [[scale if i == j else 0.0 for j in range(n)] for i in range(n)]
                self.fresh = False
            H = self.H
            rho = 1.0 / sy
            hy = [sum(map(mul, row, y)) for row in H]
            c = 0.5 + 0.5 * (rho * sum(map(mul, y, hy)))
            v = [rho * (c * a - b) for a, b in zip(s, hy)]
            self.H = [
                [h + vi * sj + si * vj for h, sj, vj in zip(row, s, v)]
                for row, vi, si in zip(H, v, s)
            ]
        else:
            self.H = [[h * _CONCAVE_GROWTH for h in row] for row in self.H]
        f_old, tol = self.f, self.tol
        self.x, self.g, self.f = self.t, g_t, f_t
        self.nit += 1
        self.tol = self.at_point()
        self.ok = self.pgn <= xtol or f_old - f_t <= max(tol, self.tol)
        if self.ok or self.nit >= max_iter:
            return True
        self.lam, self.tries, self.end = 1.0, 0, None
        return False


def _quasi_newton(x0, lower, upper, xtol, max_iter):
    """Minimise f from every start of x0 at once, each on its own box, as a
    generator: a projected BFGS step with an active set (Bertsekas 1982) and
    a backtracking Armijo line search for each run, one point per live run
    and round.

    x0, lower and upper hold one list of floats per run, over that run's own
    axes. It yields (runs, points), the indices of the live runs and the
    point of each, as a list, whose value and gradient it needs, and is sent
    back (f, g): one value per live run, f = inf where the point is
    excluded, and one gradient list per live run. It returns (f, x,
    iterations, success, started excluded), lists with one entry per run.

    A run starts, and restarts, with no curvature: it steps along -g
    projected on the box, as L-BFGS-B's first iteration does, and its first
    update scales its inverse-Hessian approximation H to s'y / y'y times the
    identity (Nocedal & Wright, eq. 6.20). After that, an axis whose step
    along -g would leave the box, within _ACTIVE_EPS of that bound (less
    near a stationary point), is active and steps along -g up to the bound;
    the free axes step along -H g, cut back so that the first of them to
    meet a bound stops on it. The line search moves along the segment to
    that step's end. A trial is accepted when f falls by at least _ARMIJO of
    the decrease the step predicts and, where the full step lands on a
    bound, f rises along the step there at most _CURVATURE times as fast as
    it fell at the start; otherwise the next trial shrinks the step by
    cubic interpolation (`_Run._shrink`). An accepted step updates H by BFGS
    from its change in x and g along the free axes where their product is
    positive; where it is not, f curves down along the step, and H grows by
    _CONCAVE_GROWTH.

    A run that starts on an excluded point ends there. A run stops,
    converged, when the infinity norm of its projected gradient is at most
    xtol, or when a step lowers f, or its next full step predicts it would
    lower f, by a relative _FTOL or less. The line search fails when the
    bounds turn a step uphill, when a shrunk trial predicts so small a
    decrease, or after _MAX_BACKTRACKS rejected trials; the run then
    restarts at its point. A line search that fails just after a restart
    stops the run: converged where its shrunk trial followed a trial at
    which f rose, since the line then holds no decrease the relative stop
    would take, and unconverged where it followed an excluded trial or a
    wall, or ran out of trials. A run also stops unconverged after max_iter
    iterations.

    Each run's arithmetic is on Python floats over its own axes, so a run
    takes the same steps whichever runs share its rounds, and no call goes
    to BLAS. With the one to a dozen runs of 2 to 8 axes a fit has, a numpy
    expression over all runs costs more in per-call overhead than the
    arithmetic of every run together.
    """
    point = [list(map(_clip, x, lo, hi)) for x, lo, hi in zip(x0, lower, upper)]
    n_runs = len(point)
    fun, iters, success = [math.inf] * n_runs, [0] * n_runs, [False] * n_runs
    f, g = yield list(range(n_runs)), point
    excluded = [v == math.inf for v in f]

    def end(i, run, ok):
        fun[i], point[i], iters[i], success[i] = run.f, run.x, run.nit, ok

    pending = []
    for i in range(n_runs):
        if excluded[i]:
            continue
        run = _Run(lower[i], upper[i], point[i], f[i], g[i])
        if run.pgn <= xtol:
            end(i, run, True)
        elif run.plan():
            pending.append((i, run))
        else:
            end(i, run, run.ok)
    while pending:
        f, g = yield [i for i, _ in pending], [run.t for _, run in pending]
        still = []
        for (i, run), f_t, g_t in zip(pending, f, g):
            if run.take(f_t, g_t, xtol, max_iter):
                end(i, run, run.ok)
            elif run.plan():
                still.append((i, run))
            else:
                end(i, run, run.ok)
        pending = still
    return fun, point, iters, success, excluded


def _search(ev, space, starts, search):
    """`_quasi_newton` from every start, all runs in lockstep on the cube of
    `space`.

    starts is a list of (free axes, cube point on them). A run moves along
    its free axes and holds the other template axes at exactly 0. Each
    round stacks every live run's pending point with a step up, then a step
    down, each of its free axes, each step stopping at the bound, maps the
    whole block through `space` once and scores it in one kernel call. A
    run's value is -log10 L at its point, +inf where the model excludes it,
    and its gradient the central difference, falling back on the centre
    where a side is excluded. Kernel values do not depend on the batch, so
    each run takes the steps it would take alone. A NaN from the kernel is
    an error, never an exclusion.

    The live runs' points are one flat vector of (run, free axis) entries,
    runs in order; `run_of` and `axes` name each entry's run and axis, and
    `up_rows` and `down_rows` its two step rows in the block. A run's rows
    are its centre, its up-steps, then its down-steps, and every cell of
    them on one of its axes holds that entry's point or step: `cells` and
    `source` scatter the points and steps into the block in one assignment.
    The gradient comes back as the same flat entries, sliced per run.

    Returns, per start, (-log10 L, point on its free axes, iterations,
    success, whether the run started on an exclusion), and the parameter
    points evaluated.
    """
    floor = _lower_bounds(space)
    driver = _quasi_newton(
        [u0.tolist() for _, u0 in starts],
        [floor[free].tolist() for free, _ in starts],
        [[1.0] * len(free) for free, _ in starts],
        search.xtol, search.max_iter,
    )
    runs, x = next(driver)
    evals, n_live = 0, 0
    while True:
        if len(runs) != n_live:
            # the layout, rebuilt only when a run ends
            n_live = len(runs)
            free = [starts[i][0] for i in runs]
            k = np.array([len(a) for a in free])
            run_of, axes = np.repeat(np.arange(n_live), k), np.concatenate(free)
            n_entries, lo = len(axes), floor[axes]
            sizes = 2 * k + 1
            first = np.cumsum(sizes) - sizes
            up_rows = first[run_of] + 1 + np.arange(n_entries) - (np.cumsum(k) - k)[run_of]
            down_rows = up_rows + k[run_of]
            # each entry's cells, one per row of its run; a cell holds the
            # entry of (points, up-steps, down-steps) its row takes
            reps = sizes[run_of]
            entry = np.repeat(np.arange(n_entries), reps)
            rows = np.repeat(first[run_of] - (np.cumsum(reps) - reps), reps) + np.arange(len(entry))
            cells = rows * space.ndim + axes[entry]
            source = entry + n_entries * ((rows == up_rows[entry]) + 2 * (rows == down_rows[entry]))
            n_rows = int(sizes.sum())
            ends = np.cumsum(k).tolist()
            spans = list(zip([0] + ends[:-1], ends))
        flat = np.fromiter(chain.from_iterable(x), float, n_entries)
        up, down = np.minimum(flat + _FD_STEP, 1.0), np.maximum(flat - _FD_STEP, lo)
        pts = np.zeros(n_rows * space.ndim)
        pts[cells] = np.concatenate((flat, up, down)).take(source)
        ll = ev.marginal_log10(*space.from_cube(pts.reshape(n_rows, space.ndim)))
        evals += len(ll)
        if (ll > NEG_INF).all():
            f = -ll[first]
            grad = (ll.take(down_rows) - ll.take(up_rows)) / (up - down)
        else:
            if np.isnan(ll).any():
                i = runs[np.searchsorted(first, np.flatnonzero(np.isnan(ll))[0], side="right") - 1]
                raise FloatingPointError(
                    f"the likelihood is NaN near run {i} of this search, started at cube "
                    f"point {starts[i][1].tolist()} on axes {starts[i][0].tolist()}"
                )
            # no gradient where the centre is excluded; a side the model
            # excludes falls back on the centre point
            centre = ll[first]
            ok = centre > NEG_INF
            f = np.where(ok, -centre, np.inf)
            c = np.where(ok, centre, 0.0)[run_of]
            ll_up, ll_down = ll[up_rows], ll[down_rows]
            ok_up, ok_down = ll_up > NEG_INF, ll_down > NEG_INF
            rise = np.where(ok_up, ll_up, c) - np.where(ok_down, ll_down, c)
            width = np.where(ok_up, up, flat) - np.where(ok_down, down, flat)
            grad = -np.divide(
                rise, width, out=np.zeros(n_entries), where=(width > 0) & ok[run_of]
            )
        g = grad.tolist()
        try:
            runs, x = driver.send((f.tolist(), [g[a:b] for a, b in spans]))
        except StopIteration as stop:
            return list(zip(*stop.value)), evals


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
    start in extra_starts. Each face runs the batched quasi-Newton search
    of `_search` on its free axes from its stratified starts plus the warm
    starts whose zero templates define it, every run of every face in
    lockstep; a face that holds every template at 0 has nothing to search.
    A run that starts on an exclusion does not compete, and a NaN
    likelihood raises FloatingPointError. The best run wins, faces and
    starts taken in order. Every warm start is also scored as it stands, so
    a warm start can never be beaten downward. converged is that of the run
    whose point is reported; for a warm start reported as it stands, that of
    the run started from it.

    A run's path is fixed by the evaluator, the box and model config, xtol,
    max_iter, its free axes and its exact start point; the runs that share
    its rounds do not change it. So every run finished on an evaluator is
    kept for as long as the evaluator lives, and a later call on it takes
    such a run as it ended and searches only the starts it has not seen: the
    result is what a fresh evaluator would give, but for function_evals,
    which counts only the points this call evaluated.
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

    # a run this evaluator has finished before is taken as it ended
    done = _FINISHED.setdefault(ev, {})
    box = tuple(getattr(search, f.name) for f in fields(ParamBox))
    setting = (config, box, search.xtol, search.max_iter)
    keys = [(setting, tuple(free.tolist()), u0.tobytes()) for free, u0 in starts]
    todo = {k: start for k, start in zip(keys, starts) if k not in done}
    evals = 0
    if todo:
        found, evals = _search(ev, space, list(todo.values()), search)
        done.update(zip(todo, found))
    results = [done[k] for k in keys]

    # converged is the reported point's run: a warm start reported as it
    # stands takes the run started from it
    converged = best_warm in warm_run and results[warm_run[best_warm]][3]
    iters, won = 0, None
    for (free, _), (fun, x, nit, success, started_excluded) in zip(starts, results):
        iters += nit
        if not started_excluded and -fun > best_ll:
            best_ll, won, converged = -fun, (free, x), success
    if won is not None:
        u = np.zeros(space.ndim)
        u[won[0]] = won[1]
        best_params, best_faces = space.params(u), _faces(space, u)

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
    `start` as its only warm start, which runs in its own face. On the
    evaluator `best` was fitted with, a stratified start that fit already ran
    is reused, not run again, so the fit evaluates only the warm start's run.
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
