import gc
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
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
    bounded_lrs,
    build_evaluator,
    fit_both,
    log10_lr,
    lr_from_log10,
    lr_ml,
    maximize,
    polish,
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


def same_but_evals(a, b):
    """a and b agree by repr in everything but function_evals."""
    return repr(replace(a, function_evals=0)) == repr(replace(b, function_evals=0))


def count_points(ev):
    """A list that each kernel call of ev appends its batch size to."""
    points = []
    kernel = ev.marginal_log10

    def counted(templates, *scalars):
        points.append(len(templates))
        return kernel(templates, *scalars)

    ev.marginal_log10 = counted
    return points


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


class TestNanLikelihood:
    def test_is_an_error_naming_the_run(self, toy_profile, toy_table, policy, toy_hp):
        # a kernel that returns NaN must stop the search, not pass as an
        # exclusion
        ev = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        kernel = ev.marginal_log10

        def broken(templates, *scalars):
            out = kernel(templates, *scalars)
            out[templates[:, 0] > 1500.0] = np.nan
            return out

        ev.marginal_log10 = broken
        with pytest.raises(FloatingPointError, match=r"NaN near run \d+"):
            maximize(
                toy_profile, toy_hp, toy_table, policy,
                search=SearchSpec(c2=12.0, n_starts=4, seed=1), evaluator=ev,
            )


def test_fitting_never_loads_scipy_optimize():
    # importing mixlr and its CLI and running one fit must not import
    # scipy.optimize: loading it adds set-up time and memory to every process
    src = os.path.dirname(os.path.dirname(mle.__file__))
    code = (
        "import sys, mixlr, mixlr.cli\n"
        "from mixlr import FrequencyTable, Peak, Profile, Proposition, RareAllelePolicy\n"
        "from mixlr import SearchSpec, maximize\n"
        "profile = Profile({'L': [Peak('A', 1000.0), Peak('B', 1100.0)]}, 50.0)\n"
        "table = FrequencyTable({'L': {'A': 0.4, 'B': 0.4}}, n_individuals=500)\n"
        "fit = maximize(profile, Proposition(noc=2), table, RareAllelePolicy.five_over_2n(),\n"
        "               search=SearchSpec(c2=12.0, n_starts=2, seed=0))\n"
        "print(fit.converged, 'scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["True", "False"]


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
        points = count_points(ev)
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


def drive(fun, x0, lower, upper, xtol=1e-6, max_iter=500):
    """`mle._quasi_newton` from each row of x0 on the box [lower, upper] with
    fun(u) -> (f, g) applied to each point it asks for; returns its
    (f, x, iterations, success, started excluded) and the points it asked
    for."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    lower, upper = np.broadcast_to(lower, x0.shape), np.broadcast_to(upper, x0.shape)
    driver = mle._quasi_newton(x0.tolist(), lower.tolist(), upper.tolist(), xtol, max_iter)
    asked = []
    runs, pts = next(driver)
    try:
        while True:
            runs, pts = np.array(runs), np.array(pts)
            asked.append((runs, pts))
            values = [fun(u) for u in pts]
            f = [float(v[0]) for v in values]
            g = [np.asarray(v[1], dtype=float).tolist() for v in values]
            runs, pts = driver.send((f, g))
    except StopIteration as stop:
        return tuple(np.array(v) for v in stop.value), asked


def scipy_minimum(fun, x0, lower, upper):
    """scipy's L-BFGS-B minimum of fun from x0: an independent reference."""
    return minimize(
        fun, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lower, upper)),
        options={"gtol": 1e-8, "ftol": 1e-14, "maxiter": 2000},
    ).fun


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


class TestQuasiNewton:
    """`mle._quasi_newton`, the lockstep bounded quasi-Newton driver, against
    scipy's L-BFGS-B as an independent reference for the optimum."""

    def test_start_outside_the_box_stays_in_bounds(self):
        centre = np.array([0.3, 1.4, -0.2])

        def fun(u):
            return float(np.sum((u - centre) ** 2)), 2 * (u - centre)

        lower, upper = np.zeros(3), np.ones(3)
        (f, x, _, success, excluded), asked = drive(fun, [1.3, 0.5, 0.5], lower, upper)
        assert all(((p >= lower) & (p <= upper)).all() for _, p in asked)
        assert success[0] and not excluded[0]
        # the optimum sits exactly on two faces of the box
        assert x[0, 1] == 1.0 and x[0, 2] == 0.0
        assert f[0] == pytest.approx(scipy_minimum(fun, [1.0, 0.5, 0.5], lower, upper), abs=1e-6)

    def test_stopped_by_max_iter(self):
        def rosenbrock(u):
            x, y = 4 * u - 2
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
            return f, 4 * g

        (_, _, nit, success, _), _ = drive(rosenbrock, [0.1, 0.9], np.zeros(2), np.ones(2), max_iter=3)
        assert nit[0] == 3 and not success[0]
        (f, _, nit, success, _), _ = drive(rosenbrock, [0.1, 0.9], np.zeros(2), np.ones(2))
        assert success[0] and 3 < nit[0] < 500
        assert f[0] == pytest.approx(0.0, abs=1e-6)

    def test_toy_kernel_objective(self, toy_profile, toy_table, policy, toy_hp):
        fun, lower, upper = toy_objective(toy_profile, toy_table, policy, toy_hp)
        starts = [[0.2, 0.7, 0.5], [0.9, 0.1, 0.05]]
        (f, x, _, success, _), _ = drive(fun, starts, lower, upper)
        assert success.all()
        # log10 units: the best optimum against the reference's best, to 1e-6
        # (from one start the two may reach different local optima)
        want = min(scipy_minimum(fun, x0, lower, upper) for x0 in starts)
        assert f.min() == pytest.approx(want, abs=1e-6)

    def test_start_on_an_excluded_point(self):
        # the left half of the box is excluded: infinite value, no gradient
        def fun(u):
            if u[0] < 0.5:
                return np.inf, np.zeros(2)
            return float(np.sum((u - 0.7) ** 2)), 2 * (u - 0.7)

        (f, x, nit, success, excluded), asked = drive(fun, [[0.2, 0.4], [0.9, 0.9]], np.zeros(2), np.ones(2))
        # the first run ends at its start; the second never leaves the
        # allowed half, although the unconstrained step would
        assert f[0] == np.inf and excluded[0] and not success[0] and nit[0] == 0
        assert x[0].tolist() == [0.2, 0.4]
        assert all(0 not in runs for runs, _ in asked[1:])
        assert not excluded[1] and success[1]
        assert f[1] == pytest.approx(0.0, abs=1e-10)

    def test_excluded_trial_is_a_failed_step(self):
        # the quadratic's minimum lies in the excluded half, so steps towards
        # it land there and must back off
        def fun(u):
            if u[0] < 0.5:
                return np.inf, np.zeros(2)
            return float(np.sum((u - [0.2, 0.7]) ** 2)), 2 * (u - [0.2, 0.7])

        (f, x, *_), asked = drive(fun, [0.95, 0.1], np.zeros(2), np.ones(2))
        assert np.isfinite(f[0]) and x[0, 0] >= 0.5
        assert f[0] < fun(np.array([0.95, 0.1]))[0]
        assert any(p[0, 0] < 0.5 for _, p in asked)

    def test_failed_line_search_is_not_converged(self):
        # f falls along -g, but every point more than 1e-12 past the start
        # that way is excluded, so the line search shrinks its step until
        # the decrease it predicts is negligible, far from a stationary point
        def fun(u):
            if u[0] < 0.5 - 1e-12:
                return np.inf, np.zeros(2)
            return float(np.sum((u - [0.0, 0.5]) ** 2)), 2 * (u - [0.0, 0.5])

        (f, x, nit, success, excluded), asked = drive(fun, [0.5, 0.5], np.zeros(2), np.ones(2))
        assert all(fun(p[0])[0] == np.inf for _, p in asked[1:])
        assert not success[0] and not excluded[0] and nit[0] == 0
        assert x[0].tolist() == [0.5, 0.5] and f[0] == 0.25

    def test_minimum_narrower_than_the_relative_stop_is_converged(self):
        # the projected gradient is far above xtol, but f rises at every
        # trial step the line search can resolve: the decrease left, 1e-10,
        # is below the relative-decrease stop's 2.2e-9
        def fun(u):
            return 1.0 + 1e8 * float(np.sum((u - 0.5) ** 2)), 2e8 * (u - 0.5)

        (f, x, nit, success, _), asked = drive(fun, [0.5 + 1e-9, 0.5], np.zeros(2), np.ones(2))
        assert len(asked) > 2 and all(fun(p[0])[0] > 1.0 + 1e-10 for _, p in asked[1:])
        assert success[0] and nit[0] == 0 and f[0] == pytest.approx(1.0, abs=1e-9)

    def test_a_run_takes_the_steps_it_takes_alone(self, toy_profile, toy_table, policy, toy_hp):
        fun, lower, upper = toy_objective(toy_profile, toy_table, policy, toy_hp)
        starts = np.array([[0.2, 0.7, 0.5], [0.9, 0.1, 0.05], [0.5, 0.5, 0.9]])
        together, _ = drive(fun, starts, lower, upper)
        for i, x0 in enumerate(starts):
            alone, _ = drive(fun, x0, lower, upper)
            for got, want in zip(together, alone):
                assert np.asarray(got[i]).tobytes() == np.asarray(want[0]).tobytes()


def test_two_person_check_fit_reaches_the_reference(policy):
    # the int_2p benchmark's check fit of its seed-2237 inputs (case 0, Hp,
    # search seed 0). A start from large templates can creep to the
    # spurious optimum where the free template is about 3 rfu (log10 L
    # -1.644); scipy's L-BFGS-B reaches 0.86240 here, and the benchmark's
    # prior mean of the likelihood is 10**-3.126
    table = FrequencyTable(
        {f"L{i}": {"10": 0.45, "11": 0.3, "12": 0.25} for i in range(2)}, n_individuals=500
    )
    profile = Profile(
        {
            "L0": [Peak("10", 1188.6606828662807), Peak("12", 703.6409345942885),
                   Peak("11", 1415.6275640122994)],
            "L1": [Peak("10", 769.7804299517721), Peak("12", 732.1902595903),
                   Peak("11", 1446.693883928546)],
        },
        50.0,
    )
    donor = {"L0": Genotype("10", "12"), "L1": Genotype("10", "12")}
    hp = Proposition(noc=2, fixed_contributors={0: donor}, label="Hp")
    search = SearchSpec(c2=12.0, seed=0, n_starts=2, xtol=1e-3, max_iter=150, boundary_passes=False)
    fit = maximize(profile, hp, table, policy, search=search)
    assert fit.converged
    assert fit.log10_max >= 0.8623991031173907 - 1e-6


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
    through `mle._quasi_newton` on its own, one kernel call per objective
    call. The oracle for the lockstep search."""
    ev = build_evaluator(profile, proposition, table, policy, config)

    def run_starts(space, starts):
        lower, upper = space.lower, np.ones(space.ndim)
        n = space.ndim
        evals = 0

        def value_and_gradient(u):
            nonlocal evals
            up, down = np.minimum(u + mle._FD_STEP, upper), np.maximum(u - mle._FD_STEP, lower)
            pts = np.repeat(u[None], 2 * n + 1, axis=0)
            pts[1 : n + 1][np.diag_indices(n)] = up
            pts[n + 1 :][np.diag_indices(n)] = down
            ll = ev.marginal_log10(*space.from_cube(pts))
            evals += len(pts)
            if ll[0] == NEG_INF:
                return np.inf, np.zeros(n)
            ll_up, ll_down = ll[1 : n + 1], ll[n + 1 :]
            ok_up, ok_down = ll_up > NEG_INF, ll_down > NEG_INF
            rise = np.where(ok_up, ll_up, ll[0]) - np.where(ok_down, ll_down, ll[0])
            width = np.where(ok_up, up, u) - np.where(ok_down, down, u)
            grad = np.divide(rise, width, out=np.zeros(n), where=width > 0)
            return -ll[0], -grad

        best_ll, best_u, iters, ok, oks = NEG_INF, None, 0, False, []
        for u0 in starts:
            (fun,), (u,), (nit,), (success,), (excluded,) = drive(
                value_and_gradient, u0, lower, upper, search.xtol, search.max_iter
            )[0]
            iters += int(nit)
            oks.append(bool(success))
            if excluded:
                continue
            if -fun > best_ll:
                best_ll, best_u, ok = -float(fun), u, bool(success)
        return best_ll, best_u, iters, evals, ok, oks

    rng = np.random.default_rng(search.seed)
    noc = proposition.noc
    n_strat = {(): search.n_starts}
    if search.boundary_passes:
        n_boundary = max(2, search.n_starts // 4)
        for size in range(1, noc):
            n_strat.update((pin, n_boundary) for pin in combinations(range(noc), size))
    warm_by_face = {}
    best_ll, best_params, best_faces, best_warm = NEG_INF, None, (), None
    for w in search.extra_starts:
        face = tuple(i for i, t in enumerate(w.templates) if t == 0.0)
        warm_by_face.setdefault(face, []).append(w)
        ll = ev.marginal_log10_params(w)
        if ll > best_ll:
            sub = PinnedSpace(noc, config, search, face)
            best_ll, best_params, best_faces = ll, w, sub.faces(sub.to_cube(w))
            best_warm = (face, len(warm_by_face[face]) - 1)
    # converged is the reported point's run; a warm start reported as it
    # stands takes the run started from it
    iters = evals = 0
    converged = False
    for face in [*n_strat, *(f for f in warm_by_face if f not in n_strat)]:
        if len(face) == noc:
            continue
        sub = PinnedSpace(noc, config, search, face)
        starts = list(sub.stratified_starts(n_strat.get(face, 0), rng))
        starts += [sub.to_cube(w) for w in warm_by_face.get(face, ())]
        ll, u, it, ev_count, ok, oks = run_starts(sub, starts)
        iters += it
        evals += ev_count
        if best_warm is not None and best_warm[0] == face:
            converged = oks[n_strat.get(face, 0) + best_warm[1]]
        if ll > best_ll:
            best_ll, best_params, best_faces, converged = ll, sub.params(u), sub.faces(u), ok
            best_warm = None
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
    # the optimum drops a contributor: a face run wins, and converges,
    # while every interior run stops unconverged at max_iter
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

    def test_converged_is_the_reported_runs(self, policy):
        profile, table, prop, config, search = LOCKSTEP_CASES[
            "face_wins_over_an_unconverged_interior"
        ]
        res = maximize(profile, prop, table, policy, config, search)
        # either mirror of the one-contributor optimum may win
        assert res.faces in {("template0_lo",), ("template1_lo",)} and res.converged
        # that face optimum as a warm start is reported as it stands: its run
        # converges, while the one interior run stops at max_iter
        again = replace(
            search, n_starts=1, max_iter=1, boundary_passes=False, extra_starts=(res.params,)
        )
        warm = maximize(profile, prop, table, policy, config, again)
        assert warm.params is res.params and warm.converged
        assert warm == sequential_maximize(profile, prop, table, policy, config, again)


class TestExclusionRounds:
    def test_runs_of_different_widths_share_an_excluded_stencil(self, policy):
        # a 3-person Hd whose likelihood is cut to -inf below c2 = 10.
        # Interior runs (three templates and c2) and runs on the face that
        # holds template1 at 0 press against the cut in the same rounds, so
        # those rounds take the exclusion path with runs of 4 and 3 axes
        prop = Proposition(noc=3, label="Hd")
        search = SearchSpec(n_starts=4, seed=0, xtol=1e-4, template_hi=3000.0)
        space = ParamSpace(3, ModelConfig(), search)
        ev = build_evaluator(THREE, prop, THREE_TABLE, policy, ModelConfig())
        kernel = ev.marginal_log10
        mixed_rounds = []

        def cut(templates, c2, *scalars):
            out = kernel(templates, c2, *scalars)
            out[c2 < 10.0] = NEG_INF
            # the block holds each run's centre, then 2 steps per axis; a
            # run's width is its count of templates not held at 0, plus c2
            centres, widths, row = [], [], 0
            while row < len(out):
                k = space.ndim - int((templates[row] == 0).sum())
                centres.append(row)
                widths.append(k)
                row += 2 * k + 1
            stencil_cut = any(
                out[c] > NEG_INF and (out[c + 1 : c + 2 * k + 1] == NEG_INF).any()
                for c, k in zip(centres, widths)
            )
            if stencil_cut and len(set(widths)) > 1:
                mixed_rounds.append(widths)
            return out

        ev.marginal_log10 = cut
        rng = np.random.default_rng(0)
        starts = [(np.arange(4), u) for u in mle._stratified_starts(4, 2, rng)]
        starts += [(np.array([0, 2, 3]), u) for u in mle._stratified_starts(3, 2, rng)]
        together, _ = mle._search(ev, space, starts, search)
        assert mixed_rounds
        # runs of both widths end on a finite optimum
        assert {len(x) for f, x, *_ in together if f < math.inf} == {3, 4}
        for got, start in zip(together, starts):
            (alone,), _ = mle._search(ev, space, [start], search)
            assert repr(got) == repr(alone)


class TestRunReuse:
    """`maximize` reuses every run it has finished on the same evaluator."""

    def test_polish_after_a_one_start_fit_runs_only_the_warm_start(
        self, toy_profile, toy_table, policy, toy_hp
    ):
        config, search = ModelConfig(), SearchSpec(n_starts=1, seed=4)
        ev = build_evaluator(toy_profile, toy_hp, toy_table, policy, config)
        fit = maximize(toy_profile, toy_hp, toy_table, policy, config, search, evaluator=ev)
        start = MassParams((700.0, 300.0), 10.0)
        # a best that any fit beats, so polish returns its own fit
        floor = replace(fit, log10_max=NEG_INF)
        points = count_points(ev)
        got = polish(floor, start, toy_profile, toy_hp, toy_table, policy, config, search, ev)
        # the first call scores the warm start as it stands, which is no
        # search point
        assert got is not floor and points[0] == 1
        assert got.function_evals == sum(points[1:]) > 0

        # the fit's interior start is polish's stratified start, so only the
        # run from `start` is searched
        space = ParamSpace(toy_hp.noc, config, search)
        fresh = build_evaluator(toy_profile, toy_hp, toy_table, policy, config)
        _, warm_evals = mle._search(
            fresh, space, [(np.arange(space.ndim), space.to_cube(start))], search
        )
        assert got.function_evals == warm_evals

        fresh = build_evaluator(toy_profile, toy_hp, toy_table, policy, config)
        want = polish(floor, start, toy_profile, toy_hp, toy_table, policy, config, search, fresh)
        assert want.function_evals > got.function_evals
        assert same_but_evals(got, want)

    def test_a_repeated_fit_evaluates_nothing(self, toy_profile, toy_table, policy, toy_hp):
        search = SearchSpec(n_starts=3, seed=2)
        ev = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        first = maximize(toy_profile, toy_hp, toy_table, policy, search=search, evaluator=ev)
        points = count_points(ev)
        again = maximize(toy_profile, toy_hp, toy_table, policy, search=search, evaluator=ev)
        assert points == [] and again.function_evals == 0
        assert same_but_evals(again, first)
        # runs never cross evaluators, even of the same proposition
        other = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        assert maximize(
            toy_profile, toy_hp, toy_table, policy, search=search, evaluator=other
        ) == first

    @pytest.mark.parametrize(
        "change",
        [
            dict(xtol=1e-5),
            dict(max_iter=5),
            dict(c2_bounds=(3.0, 40.0)),
            dict(template_hi=2500.0),
            dict(config=ModelConfig(forward_stutter=True)),
        ],
    )
    def test_another_setting_runs_again(self, policy, change):
        # the evaluator models both stutters, so a config that frees the
        # forward proportion instead of the back one moves other axes
        both = ModelConfig(back_stutter=True, forward_stutter=True)
        prop = Proposition(noc=2)
        config = ModelConfig(back_stutter=True)
        search = SearchSpec(n_starts=2, seed=1, xtol=1e-4, template_hi=3000.0)
        ev = build_evaluator(STUTTER, prop, STUTTER_TABLE, policy, both)
        maximize(STUTTER, prop, STUTTER_TABLE, policy, config, search, evaluator=ev)
        change = dict(change)
        config = change.pop("config", config)
        search = replace(search, **change)
        points = count_points(ev)
        got = maximize(STUTTER, prop, STUTTER_TABLE, policy, config, search, evaluator=ev)
        fresh = build_evaluator(STUTTER, prop, STUTTER_TABLE, policy, both)
        want = maximize(STUTTER, prop, STUTTER_TABLE, policy, config, search, evaluator=fresh)
        assert got.function_evals == sum(points) > 0
        assert repr(got) == repr(want)

    def test_kept_runs_die_with_their_evaluator(self, toy_profile, toy_table, policy, toy_hp):
        ev = build_evaluator(toy_profile, toy_hp, toy_table, policy, ModelConfig())
        count_points(ev)
        maximize(toy_profile, toy_hp, toy_table, policy, search=SearchSpec(n_starts=1), evaluator=ev)
        ref = weakref.ref(ev)
        del ev
        gc.collect()
        assert ref() is None


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
