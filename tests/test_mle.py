import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlr import toy
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
        # every feature on and c2 free: noc templates minus the pinned ones
        # plus c2, slope, bw and fw
        pinned = data.draw(st.sets(st.integers(0, noc - 1), max_size=noc - 1))
        space = ParamSpace(noc, EVERY_FEATURE, SearchSpec(), pinned=pinned)
        assert space.ndim == noc - len(pinned) + 4
        u = np.array(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=space.ndim, max_size=space.ndim))
        )
        templates = space.from_cube(u[None])[0]
        assert all(templates[0, i] == 0.0 for i in pinned)
        params = space.params(u)
        assert all(params.templates[i] == 0.0 for i in pinned)
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
        # every objective call is one batch: the point and a step each way
        # along each of its axes
        assert set(points) <= {2 * 3 + 1, 2 * 2 + 1}


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
