import numpy as np
import pytest

from mixlr import toy
from mixlr.genotypes import RareAllelePolicy
from mixlr.integrate import (
    DimensionalityError,
    IntegralResult,
    PriorSpec,
    lr_int,
    marginal_monte_carlo,
    marginal_quadrature,
)
from mixlr.likelihood import NEG_INF
from mixlr.model import Genotype, ModelConfig, Proposition


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

    def test_toy_lr_int(self, toy_profile, toy_table, policy, toy_hp, toy_hd):
        num = marginal_quadrature(toy_profile, toy_hp, toy_table, policy, prior=PINNED)
        den = marginal_quadrature(toy_profile, toy_hd, toy_table, policy, prior=PINNED)
        # hypothesis-specific genotype priors scale both sides; the template
        # integral ratio stays in the published band
        assert num.marginal > 0 and den.marginal > 0

