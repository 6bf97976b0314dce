import itertools
from collections import Counter

import numpy as np
import pytest

from mixlr import toy
from mixlr.genotypes import FrequencyTable, RareAllelePolicy
from mixlr.integrate import (
    DimensionalityError,
    IntegralResult,
    PriorSpec,
    _midpoint_mesh,
    lr_int,
    marginal_monte_carlo,
    marginal_quadrature,
)
from mixlr.likelihood import NEG_INF, build_evaluator
from mixlr.model import Genotype, ModelConfig, ParamSpace, Peak, Profile, Proposition


PINNED = PriorSpec(c2=12.0)


class _ConstantEvaluator:
    """Stub whose likelihood is exactly 1 everywhere on the prior."""

    n_contrib = 1

    def marginal_log10(self, templates, c2, slope=1.0, bw=0.0, fw=0.0):
        return np.zeros(np.atleast_2d(templates).shape[0])


class TestQuadrature:
    def test_toy_single_contributor(self, toy_profile, toy_table, policy, toy_hd):
        res = marginal_quadrature(toy_profile, toy_hd, toy_table, policy, prior=PINNED)
        # genotype prior Pr(AB) = 0.32 times the template-prior average of
        # the two-peak density, which the benchmark reports as ~0.2050
        assert res.marginal == pytest.approx(0.32 * 0.20502, rel=2e-3)
        assert res.converged

    def test_constant_integrand(self, toy_profile, toy_table, policy, toy_hd):
        res = marginal_quadrature(
            toy_profile, toy_hd, toy_table, policy, prior=PINNED,
            evaluator=_ConstantEvaluator(),
        )
        assert res.marginal == pytest.approx(1.0, abs=1e-12)

    def test_structural_exclusion(self, toy_profile, toy_table, policy):
        prop = Proposition(noc=1, fixed_contributors={0: {"L": Genotype("C", "C")}})
        res = marginal_quadrature(toy_profile, prop, toy_table, policy, prior=PINNED)
        assert res.marginal == 0.0
        assert res.log10_marginal == NEG_INF

    def test_dimension_cap(self, toy_profile, toy_table, policy):
        # 3 templates + c2 + slope + two stutter proportions = 7 axes
        config = ModelConfig(back_stutter=True, forward_stutter=True, degradation=True)
        with pytest.raises(DimensionalityError):
            marginal_quadrature(
                toy_profile, Proposition(noc=3), toy_table, policy, config=config
            )

    def test_unconverged_reports_evaluated_resolution(
        self, toy_profile, toy_table, policy, toy_hd
    ):
        res = marginal_quadrature(
            toy_profile, toy_hd, toy_table, policy, prior=PINNED, max_levels=1
        )
        assert not res.converged and res.levels == 1
        assert res.resolution == 128

    def test_resolution_override_deterministic(self, toy_profile, toy_table, policy, toy_hd):
        a = marginal_quadrature(
            toy_profile, toy_hd, toy_table, policy, prior=PINNED, resolution=64
        )
        b = marginal_quadrature(
            toy_profile, toy_hd, toy_table, policy, prior=PINNED, resolution=64
        )
        assert a.marginal == b.marginal

    def test_marginal_beyond_the_float_range(self, policy):
        # 120 balanced heterozygote loci at c2 0.05: the largest log10
        # likelihood on the mesh is above 308, so 10**max is not a float
        profile = Profile({f"L{i}": [Peak("A", 1000.0), Peak("B", 1000.0)] for i in range(120)}, 50.0)
        table = FrequencyTable({f"L{i}": {"A": 0.5, "B": 0.5} for i in range(120)}, 500)
        prior = PriorSpec(c2=0.05, template_hi=3000.0)
        quad = marginal_quadrature(
            profile, Proposition(noc=1), table, policy, prior=prior, resolution=64, max_levels=1,
        )
        assert quad.marginal == float("inf")
        assert 308.0 < quad.log10_marginal < float("inf")
        mc = marginal_monte_carlo(
            profile, Proposition(noc=1), table, policy, prior=prior, n_samples=1000,
        )
        assert mc.marginal == mc.std_error == float("inf")
        assert 308.0 < mc.log10_marginal < float("inf")

    def test_refinement_converges_beyond_the_float_range(self, policy):
        # 400 heterozygote loci: every level's marginal is inf, so the
        # relative change between levels comes from the log10 marginals
        profile = Profile({f"L{i}": [Peak("A", 1000.0), Peak("B", 1000.0)] for i in range(400)}, 50.0)
        table = FrequencyTable({f"L{i}": {"A": 0.5, "B": 0.49} for i in range(400)}, 500)
        quad = marginal_quadrature(
            profile, Proposition(noc=1), table, policy,
            prior=PriorSpec(c2=1.0, template_hi=3000.0), resolution=256, rtol=0.1,
        )
        assert quad.marginal == float("inf")
        assert 308.0 < quad.log10_marginal < float("inf")
        assert quad.converged and quad.levels < 4


# three peaks at one locus with numeric alleles, so back stutter has sources
MIX_PROFILE = Profile(
    {"L0": [Peak("10", 300.0), Peak("11", 900.0), Peak("12", 600.0)]},
    analytical_threshold=50.0,
)
MIX_TABLE = FrequencyTable({"L0": {"10": 0.3, "11": 0.3, "12": 0.3}}, n_individuals=500)


class _CountingEvaluator:
    """Delegates to an evaluator and records the batch of every call."""

    def __init__(self, ev):
        self.ev = ev
        self.batches = []

    def marginal_log10(self, templates, *args):
        self.batches.append(len(templates))
        return self.ev.marginal_log10(templates, *args)


class TestOrbitMesh:
    @pytest.mark.parametrize(
        "n, ndim, exchangeable",
        [
            (5, 2, (0, 1)),  # two unknowns
            (4, 4, (0, 1, 2)),  # three unknowns and a c2 axis
            (4, 3, (1, 2)),  # a fixed contributor and two unknowns
            (3, 4, (0, 2)),  # exchangeable axes that are not adjacent
        ],
    )
    def test_weights_are_orbit_sizes(self, n, ndim, exchangeable):
        points, weights = _midpoint_mesh(n, ndim, exchangeable)
        cells = np.rint(points * n - 0.5).astype(int)
        np.testing.assert_array_equal((cells + 0.5) / n, points)
        # brute force: key every cell of the full mesh by its sorted
        # exchangeable indices and count the cells per key
        ex = list(exchangeable)
        orbits = Counter()
        for cell in itertools.product(range(n), repeat=ndim):
            key = np.array(cell)
            key[ex] = np.sort(key[ex])
            orbits[tuple(key)] += 1
        assert sorted(map(tuple, cells)) == sorted(orbits)
        for cell, w in zip(map(tuple, cells), weights):
            assert w == orbits[cell]
        assert weights.sum() == n**ndim

    def test_without_an_orbit_is_the_full_mesh(self):
        full, ones = _midpoint_mesh(3, 3)
        cells = np.array(list(itertools.product(range(3), repeat=3)))
        np.testing.assert_array_equal(full, (cells + 0.5) / 3)
        assert (ones == 1.0).all()
        points, weights = _midpoint_mesh(3, 3, (1,))
        np.testing.assert_array_equal(points, full)
        np.testing.assert_array_equal(weights, ones)

    @pytest.mark.parametrize(
        "proposition, config, prior, n",
        [
            (Proposition(noc=2), ModelConfig(), PriorSpec(c2=12.0, template_hi=3000.0), 8),
            (Proposition(noc=3), ModelConfig(), PriorSpec(template_hi=3000.0), 4),
            (
                Proposition(noc=3, fixed_contributors={0: {"L0": Genotype("10", "11")}}),
                ModelConfig(back_stutter=True),
                PriorSpec(c2=12.0, template_hi=3000.0),
                4,
            ),
        ],
        ids=["hd-2-unknowns-c2-pinned", "hd-3-unknowns-c2-free", "hp-2-unknowns-stutter"],
    )
    def test_equals_the_full_mesh_mean(self, policy, proposition, config, prior, n):
        ev = build_evaluator(MIX_PROFILE, proposition, MIX_TABLE, policy, config)
        space = ParamSpace(proposition.noc, config, prior)
        full, _ = _midpoint_mesh(n, space.ndim)
        lls = ev.marginal_log10(*space.from_cube(full))
        m = float(np.max(lls))
        want = 10.0**m * float(np.mean(10.0 ** (lls - m)))
        res = marginal_quadrature(
            MIX_PROFILE, proposition, MIX_TABLE, policy, config, prior,
            resolution=n, max_levels=1, evaluator=ev,
        )
        assert want > 0
        assert res.marginal == pytest.approx(want, rel=1e-12)

    def test_two_unknowns_score_one_point_per_orbit(self, policy):
        hd = Proposition(noc=2)
        ev = _CountingEvaluator(build_evaluator(MIX_PROFILE, hd, MIX_TABLE, policy))
        res = marginal_quadrature(
            MIX_PROFILE, hd, MIX_TABLE, policy, prior=PriorSpec(c2=12.0),
            resolution=4, rtol=0.0, max_levels=3, evaluator=ev,
        )
        assert res.levels == 3
        assert ev.batches == [n * (n + 1) // 2 for n in (4, 8, 16)]


class TestMonteCarlo:
    def test_agrees_with_quadrature(self, toy_profile, toy_table, policy, toy_hd):
        quad = marginal_quadrature(toy_profile, toy_hd, toy_table, policy, prior=PINNED)
        mc = marginal_monte_carlo(
            toy_profile, toy_hd, toy_table, policy, prior=PINNED,
            n_samples=20000, seed=11,
        )
        assert mc.std_error is not None and mc.std_error > 0
        assert abs(mc.marginal - quad.marginal) < 3 * mc.std_error

    def test_seed_determinism(self, toy_profile, toy_table, policy, toy_hd):
        kw = dict(prior=PINNED, n_samples=2000, seed=5)
        a = marginal_monte_carlo(toy_profile, toy_hd, toy_table, policy, **kw)
        b = marginal_monte_carlo(toy_profile, toy_hd, toy_table, policy, **kw)
        assert a.marginal == b.marginal

    def test_constant_integrand_zero_error(self, toy_profile, toy_table, policy, toy_hd):
        res = marginal_monte_carlo(
            toy_profile, toy_hd, toy_table, policy, prior=PINNED,
            n_samples=1000, evaluator=_ConstantEvaluator(),
        )
        assert res.marginal == pytest.approx(1.0, abs=1e-12)
        assert res.std_error == pytest.approx(0.0, abs=1e-12)

    def test_sample_floor(self, toy_profile, toy_table, policy, toy_hd):
        with pytest.raises(ValueError):
            marginal_monte_carlo(
                toy_profile, toy_hd, toy_table, policy, n_samples=10
            )


class TestLrInt:
    def _res(self, marginal):
        import math

        l = NEG_INF if marginal == 0 else math.log10(marginal)
        return IntegralResult("h", marginal, l, "QUADRATURE", 0, True, 1, None)

    def test_ratio(self):
        assert lr_int(self._res(0.0018), self._res(0.205)) == pytest.approx(
            0.0018 / 0.205, rel=1e-12
        )

    def test_exclusion_propagation(self):
        assert lr_int(self._res(0.0), self._res(0.2)) == 0.0
        assert lr_int(self._res(0.2), self._res(0.0)) == float("inf")

    def test_beyond_the_float_range(self):
        # both marginals are positive; their ratio is not a float
        big = IntegralResult("h", 1.0, 0.0, "QUADRATURE", 0, True, 1, None)
        tiny = IntegralResult("h", 0.0, -400.0, "QUADRATURE", 0, True, 1, None)
        assert lr_int(big, tiny) == float("inf")
        assert lr_int(tiny, big) == 0.0

    def test_toy_lr_int(self, toy_profile, toy_table, policy, toy_hp, toy_hd):
        num = marginal_quadrature(toy_profile, toy_hp, toy_table, policy, prior=PINNED)
        den = marginal_quadrature(toy_profile, toy_hd, toy_table, policy, prior=PINNED)
        # hypothesis-specific genotype priors scale both sides; the template
        # integral ratio stays in the published band
        assert num.marginal > 0 and den.marginal > 0

