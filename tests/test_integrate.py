import math

import numpy as np
import pytest

from mixlr import toy
from mixlr.genotypes import RareAllelePolicy, enumerate_sets
from mixlr.integrate import (
    DimensionalityError,
    IntegralResult,
    PriorSpec,
    deconvolution_weights,
    lr_int,
    marginal_monte_carlo,
    marginal_quadrature,
)
from mixlr.likelihood import NEG_INF, log10sumexp, set_log_likelihood
from mixlr.model import Genotype, GenotypeSet, MassParams, ModelConfig, Proposition


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


class TestDeconvolution:
    def test_toy_single_contributor(self, toy_profile, toy_table, policy):
        weights = deconvolution_weights(
            toy_profile, 1, toy_table, policy, prior=PINNED
        )
        total = sum(w for _, w in weights)
        assert total == pytest.approx(1.0, abs=1e-9)
        best_assignment, best_w = max(weights, key=lambda x: x[1])
        assert best_assignment["L"] == GenotypeSet([Genotype("A", "B")])
        # AB is the only genotype that explains both peaks
        assert best_w == pytest.approx(1.0, abs=1e-9)

    def test_two_contributor_symmetry(self, toy_profile, toy_table, policy):
        weights = deconvolution_weights(
            toy_profile, 2, toy_table, policy, prior=PINNED, resolution=24
        )
        by_set = {
            tuple(tuple(g.alleles) for g in a["L"]): w for a, w in weights
        }
        aa_bb = by_set.get((("A", "A"), ("B", "B")), 0.0)
        bb_aa = by_set.get((("B", "B"), ("A", "A")), 0.0)
        assert aa_bb == pytest.approx(bb_aa, rel=1e-6)
        assert aa_bb > 0

    def test_pruned_sets_get_zero_weight(self, toy_profile, toy_table, policy):
        n = 6
        weights = deconvolution_weights(
            toy_profile, 2, toy_table, policy, prior=PINNED, resolution=n
        )
        # oracle: prior times the scalar likelihood summed over the same nodes
        sets = enumerate_sets(toy_profile, Proposition(noc=2), toy_table, policy)["L"]
        axis = (np.arange(n) + 0.5) / n * PINNED.template_hi
        log_w = np.array(
            [
                math.log10(ws.prior)
                + log10sumexp(
                    np.array(
                        [
                            set_log_likelihood(
                                toy_profile, ws.set, MassParams((t1, t2), PINNED.c2)
                            )
                            for t1 in axis
                            for t2 in axis
                        ]
                    )
                )
                for ws in sets
            ]
        )
        want = np.power(10.0, log_w - log_w.max())
        want /= want.sum()
        assert len(weights) == len(sets)
        assert np.any(log_w == NEG_INF)
        for (assignment, w), ws, lw, expect in zip(weights, sets, log_w, want):
            assert assignment["L"] == ws.set
            if lw == NEG_INF:
                assert w == 0.0
            else:
                assert w == pytest.approx(expect, rel=1e-9, abs=1e-300)

    def test_joint_cap_raises(self, toy_profile, toy_table, policy):
        with pytest.raises(ValueError):
            deconvolution_weights(
                toy_profile, 1, toy_table, policy, prior=PINNED, max_joint_sets=1
            )

    def test_all_excluded_raises(self, toy_table, policy):
        # three peaks at one locus cannot come from a single contributor
        from mixlr.genotypes import FrequencyTable
        from mixlr.model import Peak, Profile

        profile = Profile(
            {"L": [Peak("A", 900.0), Peak("B", 800.0), Peak("C", 700.0)]}, 50.0
        )
        table = FrequencyTable(
            {"L": {"A": 0.3, "B": 0.3, "C": 0.3}}, n_individuals=500
        )
        with pytest.raises(ValueError):
            deconvolution_weights(profile, 1, table, policy, prior=PINNED)
