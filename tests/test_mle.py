import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from mixlr import mle, toy
from mixlr.likelihood import NEG_INF, MixtureEvaluator, full_log10_likelihood
from mixlr.genotypes import FrequencyTable, enumerate_sets
from mixlr.mle import (
    MleResult,
    SearchSpec,
    _lbfgsb,
    bounded_lrs,
    build_evaluator,
    fit_both,
    log10_lr,
    lr_from_log10,
    lr_ml,
    maximize,
)
from mixlr.model import (
    Genotype,
    MassParams,
    ModelConfig,
    ParamSpace,
    Peak,
    Profile,
    Proposition,
)

EVERY_FEATURE = ModelConfig(back_stutter=True, forward_stutter=True, degradation=True)


def lattice_argmax(profile, table, policy, prop, lattices):
    """(templates, log10 likelihood) of the kernel's maximum over a lattice
    of templates at c2 = 12."""
    mesh = np.stack([m.ravel() for m in np.meshgrid(*lattices, indexing="ij")], axis=-1)
    ev = build_evaluator(profile, prop, table, policy, ModelConfig())
    ll = ev.marginal_log10(mesh, 12.0)
    i = int(np.argmax(ll))
    return tuple(mesh[i]), float(ll[i])


class TestSearchSpec:
    @pytest.mark.parametrize(
        "box",
        [
            dict(template_hi=-1.0),
            dict(c2_bounds=(50.0, 2.0)),
            dict(slope_bounds=(0.0, 1.0)),
            dict(template_hi=-1.0, c2_bounds=(50.0, 2.0)),
        ],
    )
    def test_rejects_a_bad_box(self, box):
        with pytest.raises(ValueError):
            SearchSpec(**box)


class TestParamSpace:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), noc=st.integers(1, 3))
    def test_cube_round_trip(self, data, noc):
        # every feature on and c2 free: noc templates plus c2, slope, bw and
        # fw; a face holds the drawn template axes at 0
        space = ParamSpace(noc, EVERY_FEATURE, SearchSpec())
        assert space.ndim == noc + 4
        held = sorted(data.draw(st.sets(st.integers(0, noc - 1), max_size=noc - 1)))
        u = np.array(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=space.ndim, max_size=space.ndim))
        )
        u[held] = 0.0
        templates = space.from_cube(u[None])[0]
        assert all(templates[0, i] == 0.0 for i in held)
        params = space.params(u)
        assert all(params.templates[i] == 0.0 for i in held)
        np.testing.assert_allclose(space.to_cube(params), u, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bounds", [(2.0, 50.0), (4.0, 40.0), (0.3, 7.7)])
    def test_faces_decode_to_the_bounds(self, bounds):
        space = ParamSpace(2, EVERY_FEATURE, SearchSpec(c2_bounds=bounds))
        u = np.full((2, space.ndim), 0.5)
        u[:, space.axes.index("c2")] = [0.0, 1.0]
        _, c2, *_ = space.from_cube(u)
        assert c2[0] == bounds[0] and c2[1] == bounds[1]
        assert space.params(u[1]).variance_c2 == bounds[1]


class TestGridMode:
    """The lattice argmax of the toy benchmark, read off the kernel."""

    def test_two_contributor_argmax(self, toy_profile, toy_table, policy, toy_hp):
        templates, ll = lattice_argmax(
            toy_profile, toy_table, policy, toy_hp, [toy.T1_LATTICE, toy.T2_LATTICE]
        )
        # on the lattice the unknown sits at 1025 and the fixed BB at 50
        assert templates == (1025.0, 50.0)
        ev = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        assert ll == pytest.approx(
            ev.marginal_log10_params(MassParams((1025.0, 50.0), 12.0)), abs=1e-12
        )
        # the AB-unknown term alone is a lower bound on the marginal
        assert ll >= math.log10(0.32 * toy.density_pair(1025.0, 50.0))

    def test_one_contributor_argmax(self, toy_profile, toy_table, policy, toy_hd):
        templates, _ = lattice_argmax(toy_profile, toy_table, policy, toy_hd, [toy.T1_LATTICE])
        assert templates == (1075.0,)


class TestContinuousMode:
    def test_beats_lattice(self, toy_profile, toy_table, policy, toy_hp):
        _, lattice_max = lattice_argmax(
            toy_profile, toy_table, policy, toy_hp, [toy.T1_LATTICE, toy.T2_LATTICE]
        )
        cont = maximize(
            toy_profile, toy_hp, toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=6, seed=1),
        )
        assert cont.log10_max >= lattice_max - 1e-9

    def test_seed_determinism(self, toy_profile, toy_table, policy, toy_hp):
        spec = SearchSpec(c2=12.0, n_starts=4, seed=7)
        a = maximize(toy_profile, toy_hp, toy_table, policy, search=spec)
        b = maximize(toy_profile, toy_hp, toy_table, policy, search=spec)
        assert a.log10_max == b.log10_max
        assert a.params.templates == b.params.templates

    def test_multistart_agreement(self, toy_profile, toy_table, policy, toy_hd):
        # many restarts from different seeds land on the same optimum
        values = [
            maximize(
                toy_profile, toy_hd, toy_table, policy,
                search=SearchSpec(c2=12.0, n_starts=4, seed=s),
            ).log10_max
            for s in range(5)
        ]
        assert max(values) - min(values) < 0.01

    def test_warm_start_never_beaten_down(self, toy_profile, toy_table, policy, toy_hp):
        warm = MassParams((1025.0, 50.0), 12.0)
        ev = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        warm_ll = ev.marginal_log10_params(warm)
        res = maximize(
            toy_profile, toy_hp, toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=1, max_iter=3, extra_starts=(warm,)),
        )
        assert res.log10_max >= warm_ll

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_start_is_polished_in_its_face(self, policy, seed):
        # one peak: a second contributor only costs dropout mass, so the
        # two-contributor optimum is the one-contributor one padded with 0.
        # A warm start on that face, short of its optimum, must be polished
        # there even without boundary passes.
        profile = Profile({"L": [Peak("A", 1000.0)]}, 50.0)
        table = FrequencyTable({"L": {"A": 0.3, "B": 0.3, "C": 0.4}}, n_individuals=500)
        one = maximize(profile, Proposition(noc=1), table, policy, search=SearchSpec(c2=12.0))
        warm = MassParams((0.7 * one.params.templates[0], 0.0), 12.0)
        two = maximize(
            profile, Proposition(noc=2), table, policy,
            search=SearchSpec(
                c2=12.0, n_starts=1, seed=seed, boundary_passes=False, extra_starts=(warm,)
            ),
        )
        assert two.log10_max == pytest.approx(one.log10_max, abs=1e-9)

    def test_structural_exclusion(self, toy_profile, toy_table, policy):
        # a fixed CC contributor cannot explain either observed peak
        prop = Proposition(noc=1, fixed_contributors={0: {"L": Genotype("C", "C")}})
        res = maximize(
            toy_profile, prop, toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=2),
        )
        assert res.log10_max == NEG_INF
        assert not res.converged


    def test_stutter_degradation_free_c2(self, policy):
        profile = Profile(
            {
                "L": [Peak("12", 800.0, size=150.0), Peak("11", 90.0, size=146.0)],
                "M": [Peak("8", 420.0, size=250.0), Peak("9", 210.0, size=254.0)],
            },
            50.0,
        )
        table = FrequencyTable(
            {"L": {"11": 0.2, "12": 0.3}, "M": {"8": 0.25, "9": 0.25}}, n_individuals=500
        )
        config = ModelConfig(back_stutter=True, degradation=True)
        prop = Proposition(noc=1)
        spec = SearchSpec(n_starts=2, seed=4)
        res = maximize(profile, prop, table, policy, config, search=spec)
        p = res.params
        assert 0.0 <= p.templates[0] <= spec.template_hi
        lo, hi = spec.c2_bounds
        assert lo * (1 - 1e-12) <= p.variance_c2 <= hi * (1 + 1e-12)
        assert spec.slope_bounds[0] <= p.degradation_slope <= spec.slope_bounds[1]
        assert 0.0 <= p.bw_stutter_prop <= spec.stutter_hi
        assert p.fw_stutter_prop == 0.0
        sets = enumerate_sets(profile, prop, table, policy, config)
        assert res.log10_max == pytest.approx(
            full_log10_likelihood(profile, sets, p, config), abs=1e-9
        )

    def test_excluded_face_does_not_stall_the_search(self, policy):
        # the POI's 12,12 explains the 11 peak only as back stutter, so every
        # point with bw = 0 is excluded; the first projected step lands there
        profile = Profile({"L": [Peak("12", 800.0), Peak("11", 60.0)]}, 50.0)
        table = FrequencyTable({"L": {"11": 0.2, "12": 0.3}}, n_individuals=500)
        config = ModelConfig(back_stutter=True)
        prop = Proposition(noc=1, fixed_contributors={0: {"L": Genotype("12", "12")}})
        ev = build_evaluator(profile, prop, table, policy, config)
        near_optimum = ev.marginal_log10_params(MassParams((415.0,), 12.0, bw_stutter_prop=0.1))
        for seed in range(3):
            res = maximize(
                profile, prop, table, policy, config,
                search=SearchSpec(c2=12.0, n_starts=2, seed=seed),
            )
            assert res.converged
            assert res.log10_max >= near_optimum


class TestBoxFaces:
    def test_c2_reaches_its_lower_bound_exactly(self, policy):
        # two balanced peaks fit exactly by one contributor: the likelihood
        # keeps rising as c2 falls, so the optimum sits on the c2_lo face
        profile = Profile({"L": [Peak("A", 1000.0), Peak("B", 1000.0)]}, 50.0)
        table = FrequencyTable({"L": {"A": 0.4, "B": 0.4}}, n_individuals=500)
        spec = SearchSpec(n_starts=2, seed=0)
        res = maximize(profile, Proposition(noc=1), table, policy, search=spec)
        assert res.params.variance_c2 == spec.c2_bounds[0]
        assert res.faces == ("c2_lo",)
        assert res.converged
        ev = build_evaluator(profile, Proposition(noc=1), table, policy, ModelConfig())
        for t in (990.0, 1000.0, 1010.0):
            assert res.log10_max >= ev.marginal_log10_params(MassParams((t,), 2.0))

    def test_interior_optimum_touches_no_face(self, toy_profile, toy_table, policy, toy_hd):
        res = maximize(
            toy_profile, toy_hd, toy_table, policy, search=SearchSpec(c2=12.0, n_starts=2)
        )
        assert res.faces == ()

    def test_boundary_pass_reports_the_pinned_template(self, toy_profile, toy_table, policy):
        # a second unknown only costs dropout mass, so the best fit drops it
        res = maximize(
            toy_profile, Proposition(noc=2), toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=4, seed=1),
        )
        assert 0.0 in res.params.templates
        assert res.faces == (f"template{res.params.templates.index(0.0)}_lo",)


class TestEvaluationCount:
    def test_counts_parameter_points(self, toy_profile, toy_table, policy, toy_hp):
        ev = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        points = []
        kernel = ev.marginal_log10

        def counted(templates, *scalars):
            points.append(len(templates))
            return kernel(templates, *scalars)

        ev.marginal_log10 = counted
        res = maximize(
            toy_profile, toy_hp, toy_table, policy,
            search=SearchSpec(n_starts=2, seed=3), evaluator=ev,
        )
        assert res.function_evals == sum(points)
        # each call scores every live run: its point and a step each way
        # along each axis, 7 points in the interior (two templates and c2)
        # and 5 on a face that pins one template. The 2 interior and 4
        # boundary runs only ever end, and each call splits one way.
        live = []
        for batch in points:
            (split,) = [(a, b) for a in range(3) for b in range(5) if 7 * a + 5 * b == batch]
            live.append(split)
        assert live[0] == (2, 4)
        assert all(p[0] >= q[0] and p[1] >= q[1] for p, q in zip(live, live[1:]))
        # fewer calls than the runs would make one after another
        assert len(points) < sum(a + b for a, b in live)


def drive(fun, x0, lower, upper, xtol, max_iter):
    """(fun, x, nit, success, objective calls) of `mle._lbfgsb` on fun."""
    driver = _lbfgsb(np.asarray(x0, dtype=float), lower, upper, xtol, max_iter)
    calls = 0
    u = next(driver)
    try:
        while True:
            calls += 1
            u = driver.send(fun(u))
    except StopIteration as stop:
        return (*stop.value, calls)


def scipy_lbfgsb(fun, x0, lower, upper, xtol, max_iter):
    """The same five figures from scipy.optimize.minimize."""
    calls = 0

    def counted(u):
        nonlocal calls
        calls += 1
        return fun(u)

    r = minimize(
        counted, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lower, upper)),
        options={"gtol": xtol, "maxiter": max_iter},
    )
    return r.fun, r.x, r.nit, r.success, calls


def toy_objective(profile, table, policy, prop):
    """-log10 L of the toy kernel on its cube, with a central-difference
    gradient; a cube box that keeps every template above zero."""
    ev = build_evaluator(profile, prop, table, policy, ModelConfig())
    space = ParamSpace(prop.noc, ModelConfig(), SearchSpec())

    def fun(u):
        steps = np.vstack([u, u + 1e-6 * np.eye(len(u)), u - 1e-6 * np.eye(len(u))])
        ll = ev.marginal_log10(*space.from_cube(steps))
        n = len(u)
        return -ll[0], -(ll[1 : n + 1] - ll[n + 1 :]) / 2e-6

    lower = np.full(space.ndim, 1e-3)
    return fun, lower, np.full(space.ndim, 1.0 - 1e-3)


class TestLbfgsbDriver:
    """`mle._lbfgsb` loops over scipy's private L-BFGS-B core; it must take
    the steps scipy.optimize.minimize takes, bit for bit."""

    def assert_same(self, fun, x0, lower, upper, xtol=1e-6, max_iter=500):
        mine = drive(fun, x0, lower, upper, xtol, max_iter)
        ref = scipy_lbfgsb(fun, x0, lower, upper, xtol, max_iter)
        assert repr(float(mine[0])) == repr(float(ref[0]))
        assert mine[1].tobytes() == ref[1].tobytes()
        assert mine[2:] == ref[2:]
        return mine

    def test_quadratic_with_an_active_bound(self):
        centre = np.array([0.3, 1.4, -0.2])

        def fun(u):
            return float(np.sum((u - centre) ** 2)), 2 * (u - centre)

        # the start lies outside the box on its first axis and is clipped
        _, x, _, success, _ = self.assert_same(fun, [1.3, 0.5, 0.5], np.zeros(3), np.ones(3))
        assert success
        assert x[1] == 1.0 and x[2] == 0.0

    def test_stopped_by_max_iter(self):
        def rosenbrock(u):
            x, y = 4 * u - 2
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
            return f, 4 * g

        _, _, nit, success, _ = self.assert_same(
            rosenbrock, [0.1, 0.9], np.zeros(2), np.ones(2), max_iter=3
        )
        assert nit == 3 and not success

    def test_toy_kernel_objective(self, toy_profile, toy_table, policy, toy_hp):
        fun, lower, upper = toy_objective(toy_profile, toy_table, policy, toy_hp)
        for x0 in ([0.2, 0.7, 0.5], [0.9, 0.1, 0.05]):
            self.assert_same(fun, x0, lower, upper)

    def test_start_on_an_excluded_point(self):
        # the left half of the box is excluded: infinite value, no gradient
        def fun(u):
            if u[0] < 0.5:
                return np.inf, np.zeros(2)
            return float(np.sum((u - 0.7) ** 2)), 2 * (u - 0.7)

        fun_, *_ = self.assert_same(fun, [0.2, 0.4], np.zeros(2), np.ones(2))
        assert fun_ == np.inf


class PinnedSpace:
    """The reduced cube of one face, as `maximize` built it before its faces
    became template axes held at 0 in one cube: the templates not pinned,
    then the scalars, with the pinned templates filled in as 0."""

    def __init__(self, noc, config, box, pinned):
        self.noc, self.box, self.pinned = noc, box, tuple(sorted(pinned))
        self.free_templates = np.array([i for i in range(noc) if i not in self.pinned], dtype=int)
        ranges = {
            "c2": (math.log(box.c2_bounds[0]), math.log(box.c2_bounds[1])),
            "slope": box.slope_bounds, "bw": (0.0, box.stutter_hi), "fw": (0.0, box.stutter_hi),
        }
        active = {
            "c2": box.c2 is None, "slope": config.degradation,
            "bw": config.back_stutter, "fw": config.forward_stutter,
        }
        self.scalars = [name for name, on in active.items() if on]
        self.axes = [f"template{i}" for i in self.free_templates] + self.scalars
        bounds = [(0.0, box.template_hi)] * len(self.free_templates)
        bounds += [ranges[name] for name in self.scalars]
        self.ndim = len(bounds)
        lo, hi = np.array(bounds, dtype=float).reshape(-1, 2).T
        self.lo, self.span = lo, hi - lo
        self.lower = np.zeros(self.ndim)
        self.lower[: len(self.free_templates)] = mle._TEMPLATE_FLOOR

    def from_cube(self, u):
        x = self.lo + u * self.span
        nt = len(self.free_templates)
        templates = x[:, :nt]
        if nt < self.noc:
            templates = np.zeros((len(x), self.noc))
            templates[:, self.free_templates] = x[:, :nt]
        scalars = {"c2": self.box.c2, "slope": 1.0, "bw": 0.0, "fw": 0.0}
        for j, name in enumerate(self.scalars, nt):
            scalars[name] = x[:, j]
        if self.box.c2 is None:
            lo, hi = self.box.c2_bounds
            scalars["c2"] = np.where(
                u[:, nt] == 0.0, lo, np.where(u[:, nt] == 1.0, hi, np.exp(scalars["c2"]))
            )
        return (templates, *scalars.values())

    def to_cube(self, params):
        natural = {
            "c2": math.log(params.variance_c2), "slope": params.degradation_slope,
            "bw": params.bw_stutter_prop, "fw": params.fw_stutter_prop,
        }
        x = np.array(
            [params.templates[i] for i in self.free_templates]
            + [natural[name] for name in self.scalars],
            dtype=float,
        )
        return (x - self.lo) / self.span

    def params(self, u):
        templates, *scalars = self.from_cube(np.asarray(u, dtype=float).reshape(1, -1))
        c2, slope, bw, fw = (float(np.ravel(v)[0]) for v in scalars)
        return MassParams(tuple(templates[0]), c2, slope, bw, fw)

    def faces(self, u):
        faces = [f"template{i}_lo" for i in self.pinned]
        for name, x, lo in zip(self.axes, u, self.lower):
            if x <= lo:
                faces.append(f"{name}_lo")
            elif x >= 1.0:
                faces.append(f"{name}_hi")
        return tuple(sorted(faces))

    def stratified_starts(self, n, rng):
        fracs = np.empty((n, self.ndim))
        for d in range(self.ndim):
            strata = rng.permutation(n)
            fracs[:, d] = (strata + rng.uniform(0.05, 0.95, size=n)) / n
        return fracs


def sequential_maximize(profile, proposition, table, policy, config, search):
    """`maximize` as it ran before its runs moved into lockstep and its faces
    into one cube: face by face, each on its own `PinnedSpace`, each start
    through scipy.optimize.minimize on its own, one kernel call per
    objective call. The oracle for the lockstep search."""
    ev = build_evaluator(profile, proposition, table, policy, config)

    def run_lbfgsb(space, starts):
        lower, upper = space.lower, np.ones(space.ndim)
        n = space.ndim
        evals = 0
        excluded = None

        def value_and_gradient(u):
            nonlocal evals, excluded
            up, down = np.minimum(u + mle._FD_STEP, upper), np.maximum(u - mle._FD_STEP, lower)
            pts = np.repeat(u[None], 2 * n + 1, axis=0)
            pts[1 : n + 1][np.diag_indices(n)] = up
            pts[n + 1 :][np.diag_indices(n)] = down
            ll = ev.marginal_log10(*space.from_cube(pts))
            evals += len(pts)
            if excluded is None:
                excluded = np.inf if ll[0] == NEG_INF else (
                    -ll[0] + mle._EXCLUDED_SCALE * max(1.0, abs(ll[0]))
                )
            if ll[0] == NEG_INF:
                return excluded, np.zeros(n)
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
                value_and_gradient, np.clip(u0, lower, upper), jac=True,
                method="L-BFGS-B", bounds=list(zip(lower, upper)),
                options={"gtol": search.xtol, "maxiter": search.max_iter},
            )
            iters += r.nit
            if excluded == np.inf:
                continue
            if -r.fun > best_ll:
                best_ll, best_u, ok = -float(r.fun), r.x, bool(r.success)
        return best_ll, best_u, iters, evals, ok

    rng = np.random.default_rng(search.seed)
    noc = proposition.noc
    n_strat = {(): search.n_starts}
    if search.boundary_passes:
        n_boundary = max(2, search.n_starts // 4)
        for size in range(1, noc):
            n_strat.update((pin, n_boundary) for pin in combinations(range(noc), size))
    warm_by_face = {}
    best_ll, best_params, best_faces = NEG_INF, None, ()
    for w in search.extra_starts:
        face = tuple(i for i, t in enumerate(w.templates) if t == 0.0)
        warm_by_face.setdefault(face, []).append(w)
        ll = ev.marginal_log10_params(w)
        if ll > best_ll:
            sub = PinnedSpace(noc, config, search, face)
            best_ll, best_params, best_faces = ll, w, sub.faces(sub.to_cube(w))
    iters = evals = 0
    for face in [*n_strat, *(f for f in warm_by_face if f not in n_strat)]:
        if len(face) == noc:
            continue
        sub = PinnedSpace(noc, config, search, face)
        starts = list(sub.stratified_starts(n_strat.get(face, 0), rng))
        starts += [sub.to_cube(w) for w in warm_by_face.get(face, ())]
        ll, u, it, ev_count, ok = run_lbfgsb(sub, starts)
        iters += it
        evals += ev_count
        if face == ():
            converged = ok
        if ll > best_ll:
            best_ll, best_params, best_faces = ll, sub.params(u), sub.faces(u)
    if best_params is None:
        best_params = MassParams(
            templates=tuple(0.0 for _ in range(noc)),
            variance_c2=search.c2 if search.c2 is not None else search.c2_bounds[0],
        )
        converged = False
    return MleResult(
        hypothesis=proposition.label, params=best_params, log10_max=best_ll,
        converged=converged, n_starts=search.n_starts, iterations=iters,
        function_evals=evals, faces=best_faces,
    )


TOY = Profile({"L": [Peak("A", 1000.0), Peak("B", 1100.0)]}, 50.0)
TOY_TABLE = FrequencyTable({"L": {"A": 0.4, "B": 0.4}}, n_individuals=500)
THREE = Profile(
    {"L": [Peak("A", 1000.0), Peak("B", 600.0), Peak("C", 250.0)],
     "M": [Peak("D", 900.0), Peak("E", 500.0)]},
    50.0,
)
THREE_TABLE = FrequencyTable(
    {"L": {"A": 0.3, "B": 0.3, "C": 0.2}, "M": {"D": 0.4, "E": 0.3}}, n_individuals=500
)
THREE_STUTTER = Profile(
    {"L": [Peak("10", 1000.0), Peak("11", 600.0), Peak("12", 300.0), Peak("9", 90.0)]}, 50.0
)
THREE_STUTTER_TABLE = FrequencyTable(
    {"L": {"9": 0.2, "10": 0.3, "11": 0.3, "12": 0.2}}, n_individuals=500
)
STUTTER = Profile({"L": [Peak("12", 800.0), Peak("11", 60.0)]}, 50.0)
STUTTER_TABLE = FrequencyTable({"L": {"11": 0.2, "12": 0.3}}, n_individuals=500)
POI_BB = Proposition(noc=2, fixed_contributors={1: {"L": Genotype("B", "B")}}, label="Hp")
LOCKSTEP_CASES = {
    "toy_hp": (TOY, TOY_TABLE, POI_BB, ModelConfig(), SearchSpec()),
    "toy_hd": (TOY, TOY_TABLE, Proposition(noc=1, label="Hd"), ModelConfig(), SearchSpec()),
    "three_hd_boundary_passes": (
        THREE, THREE_TABLE, Proposition(noc=3, label="Hd"), ModelConfig(),
        SearchSpec(n_starts=4, seed=2, xtol=1e-4),
    ),
    "warm_starts_with_a_zero_template": (
        TOY, TOY_TABLE, Proposition(noc=2), ModelConfig(),
        SearchSpec(
            n_starts=2, seed=5,
            extra_starts=(
                MassParams((900.0, 0.0), 12.0),
                MassParams((0.0, 1000.0), 5.0),
                MassParams((600.0, 500.0), 20.0),
            ),
        ),
    ),
    # faces of 5, 4 and 3 axes live in one round, the scalars after the templates
    "three_hd_stutter_warm_start_on_an_edge": (
        THREE_STUTTER, THREE_STUTTER_TABLE, Proposition(noc=3, label="Hd"),
        ModelConfig(back_stutter=True),
        SearchSpec(
            n_starts=4, seed=3, xtol=1e-4,
            extra_starts=(MassParams((1500.0, 0.0, 0.0), 12.0, bw_stutter_prop=0.05),),
        ),
    ),
    # the optimum drops a contributor: a face run wins, while every
    # interior run stops unconverged at max_iter
    "face_wins_over_an_unconverged_interior": (
        TOY, TOY_TABLE, Proposition(noc=2), ModelConfig(),
        SearchSpec(c2=12.0, n_starts=4, seed=1, max_iter=8),
    ),
    "excluded_proposition": (
        TOY, TOY_TABLE, Proposition(noc=1, fixed_contributors={0: {"L": Genotype("C", "C")}}),
        ModelConfig(), SearchSpec(n_starts=2),
    ),
    "excluded_points_mid_run": (
        STUTTER, STUTTER_TABLE,
        Proposition(noc=1, fixed_contributors={0: {"L": Genotype("12", "12")}}),
        ModelConfig(back_stutter=True), SearchSpec(c2=12.0, n_starts=3, seed=1),
    ),
}


class TestLockstep:
    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_matches_the_sequential_search(self, policy, case):
        profile, table, prop, config, search = LOCKSTEP_CASES[case]
        got = maximize(profile, prop, table, policy, config, search)
        want = sequential_maximize(profile, prop, table, policy, config, search)
        assert got == want
        assert repr(got) == repr(want)


class TestLrHelpers:
    def _result(self, ll):
        return MleResult("h", MassParams((100.0,), 12.0), ll, True, 1, 0, 0)

    def test_ratios(self):
        assert lr_ml(self._result(1.0), self._result(0.0)) == pytest.approx(10.0)
        assert log10_lr(self._result(-2.0), self._result(1.0)) == pytest.approx(-3.0)

    def test_exclusion_propagation(self):
        assert lr_ml(self._result(NEG_INF), self._result(0.0)) == 0.0
        assert lr_ml(self._result(0.0), self._result(NEG_INF)) == float("inf")
        assert lr_from_log10(NEG_INF) == 0.0

    def test_ratio_beyond_the_float_range(self):
        assert lr_ml(self._result(400.0), self._result(0.0)) == float("inf")
        assert lr_ml(self._result(-400.0), self._result(0.0)) == 0.0
        assert lr_from_log10(400.0) == float("inf")

    def test_bounds_degenerate(self, toy_profile, toy_table, policy, toy_hp):
        # M1 == M2 collapses both bounds onto the same frozen ratio
        ev = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        m = MassParams((1025.0, 50.0), 12.0)
        lo, hi = bounded_lrs(ev, ev, m, m)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_bounds_reject_mismatched_spaces(self, toy_profile, toy_table, policy, toy_hp, toy_hd):
        ev_p = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        ev_d = build_evaluator(toy_profile, toy_hd, toy_table, policy, ModelConfig())
        with pytest.raises(ValueError):
            bounded_lrs(ev_p, ev_d, MassParams((1000.0, 50.0), 12.0), MassParams((1000.0,), 12.0))


class TestFitBoth:
    def test_toy_same_noc_bracket(self, toy_profile, toy_table, policy):
        hp = Proposition(noc=2, fixed_contributors={1: {"L": Genotype("B", "B")}}, label="Hp")
        hd = Proposition(noc=2, label="Hd")
        rep = fit_both(
            toy_profile, hp, hd, toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=3, seed=3),
        )
        assert rep.lr_bound_low is not None
        assert rep.lr_bound_low <= rep.lr_ml + 1e-9
        assert rep.lr_ml <= rep.lr_bound_high + 1e-9

    def test_mismatched_noc_omits_bounds(self, toy_profile, toy_table, policy, toy_hp, toy_hd):
        rep = fit_both(
            toy_profile, toy_hp, toy_hd, toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=2, seed=0),
        )
        assert rep.lr_bound_low is None and rep.lr_bound_high is None
        assert rep.lr_ml > 0

    def test_nesting_monotone(self, toy_profile, toy_table, policy, toy_hd):
        # adding a contributor, warm-started from the smaller optimum padded
        # with a zero template, can only raise the maximum
        res1 = maximize(
            toy_profile, toy_hd, toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=3, seed=5),
        )
        padded = MassParams(res1.params.templates + (0.0,), 12.0)
        res2 = maximize(
            toy_profile, Proposition(noc=2), toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=3, seed=5, extra_starts=(padded,)),
        )
        assert res2.log10_max >= res1.log10_max - 1e-9

    def test_free_c2_beats_pinned(self, toy_profile, toy_table, policy, toy_hd):
        pinned = maximize(
            toy_profile, toy_hd, toy_table, policy,
            search=SearchSpec(c2=12.0, n_starts=3, seed=2),
        )
        free = maximize(
            toy_profile, toy_hd, toy_table, policy,
            search=SearchSpec(n_starts=6, seed=2),
        )
        assert free.log10_max >= pinned.log10_max - 1e-6
