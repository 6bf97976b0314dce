import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixlr.genotypes import (
    FrequencyTable,
    RareAllelePolicy,
    WeightedGenotypeSet,
    candidate_alleles,
    enumerate_locus_sets,
    enumerate_sets,
    genotype_prior,
    q_residual_mass,
    rare_allele_probability,
)
from mixlr.model import (
    Genotype,
    GenotypeSet,
    ModelConfig,
    Peak,
    Profile,
    Proposition,
    Q_ALLELE,
)


@pytest.fixture
def table():
    return FrequencyTable({"L": {"A": 0.4, "B": 0.4}}, n_individuals=500)


class TestRareAlleleProbability:
    def test_five_over_2n(self, table):
        assert rare_allele_probability(RareAllelePolicy.five_over_2n(), table, "L") == 0.005

    def test_beta_mean(self):
        t = FrequencyTable(
            {"L": {"A": 0.5}}, n_individuals=500, n_allele_classes={"L": 20}
        )
        got = rare_allele_probability(RareAllelePolicy.beta_mean(), t, "L")
        assert got == pytest.approx(1.0 / 20020.0, rel=1e-12)

    def test_fixed_passthrough(self, table):
        assert rare_allele_probability(RareAllelePolicy.fixed(0.001), table, "L") == 0.001

    def test_degenerate_database_rejected(self):
        t = FrequencyTable({"L": {"A": 0.5}}, n_individuals=2)
        with pytest.raises(ValueError):
            rare_allele_probability(RareAllelePolicy.five_over_2n(), t, "L")

    @given(n=st.integers(1, 10**6), k=st.integers(1, 100))
    def test_beta_mean_below_five_over_2n(self, n, k):
        assert 1.0 / (k * (2 * n + 1)) < 5.0 / (2 * n)


class TestGenotypePrior:
    def test_homozygote(self, table):
        g = Genotype("A", "A")
        assert genotype_prior(g, table, RareAllelePolicy.five_over_2n(), "L") == pytest.approx(
            0.16
        )

    def test_heterozygote(self):
        t = FrequencyTable({"L": {"A": 0.2, "B": 0.1}}, n_individuals=500)
        g = Genotype("A", "B")
        assert genotype_prior(g, t, RareAllelePolicy.five_over_2n(), "L") == pytest.approx(0.04)

    def test_unseen_allele_takes_policy_value(self):
        t = FrequencyTable({"L": {"A": 0.2}}, n_individuals=500)
        g = Genotype("A", Q_ALLELE)
        got = genotype_prior(g, t, RareAllelePolicy.five_over_2n(), "L")
        assert got == pytest.approx(2 * 0.2 * 0.005)


class TestEnumeration:
    def test_toy_hd_six_sets_summing_to_one(self, table):
        prof = Profile({"L": [Peak("A", 1000.0), Peak("B", 1100.0)]}, 50.0)
        sets = enumerate_locus_sets(
            prof, Proposition(noc=1), table, RareAllelePolicy.five_over_2n(), "L"
        )
        assert len(sets) == 6  # AA AB AQ BB BQ QQ
        assert sum(ws.prior for ws in sets) == pytest.approx(1.0, abs=1e-9)

    def test_toy_hp_fixed_slot(self, table):
        prof = Profile({"L": [Peak("A", 1000.0), Peak("B", 1100.0)]}, 50.0)
        hp = Proposition(noc=2, fixed_contributors={1: {"L": Genotype("B", "B")}})
        sets = enumerate_locus_sets(prof, hp, table, RareAllelePolicy.five_over_2n(), "L")
        assert len(sets) == 6
        assert all(ws.set.contributors[1] == Genotype("B", "B") for ws in sets)
        assert sum(ws.prior for ws in sets) == pytest.approx(1.0, abs=1e-9)

    def test_fully_conditioned_single_set(self, table):
        prof = Profile({"L": [Peak("A", 1000.0)]}, 50.0)
        prop = Proposition(noc=1, fixed_contributors={0: {"L": Genotype("A", "A")}})
        sets = enumerate_locus_sets(prof, prop, table, RareAllelePolicy.five_over_2n(), "L")
        assert len(sets) == 1 and sets[0].prior == 1.0

    @pytest.mark.parametrize("n_obs,u", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3)])
    def test_enumeration_size(self, n_obs, u):
        labels = ["A", "B", "C"][:n_obs]
        prof = Profile({"L": [Peak(a, 500.0) for a in labels]}, 50.0)
        t = FrequencyTable(
            {"L": {a: 0.2 for a in labels}}, n_individuals=500
        )
        sets = enumerate_locus_sets(
            prof, Proposition(noc=u), t, RareAllelePolicy.five_over_2n(), "L"
        )
        g = n_obs + 1  # observed plus Q
        assert len(sets) == (g * (g + 1) // 2) ** u

    def test_policy_swap_touches_only_unseen_priors(self, table):
        prof = Profile({"L": [Peak("A", 1000.0), Peak("B", 1100.0)]}, 50.0)
        # saturate the locus so the Q residual is zero and the policy floor rules
        t = FrequencyTable({"L": {"A": 0.5, "B": 0.5}}, n_individuals=500)
        a = enumerate_locus_sets(prof, Proposition(noc=1), t, RareAllelePolicy.five_over_2n(), "L")
        b = enumerate_locus_sets(prof, Proposition(noc=1), t, RareAllelePolicy.beta_mean(), "L")
        for wa, wb in zip(a, b):
            assert wa.set == wb.set
            touches_q = any(Q_ALLELE in g.alleles for g in wa.set)
            if touches_q:
                assert wa.prior != wb.prior
            else:
                assert wa.prior == wb.prior

    def test_per_locus_enumeration_covers_all_loci(self, table):
        prof = Profile(
            {"L": [Peak("A", 1000.0)], "M": [Peak("B", 800.0)]},
            50.0,
        )
        t = FrequencyTable(
            {"L": {"A": 0.4}, "M": {"B": 0.3}}, n_individuals=500
        )
        out = enumerate_sets(prof, Proposition(noc=1), t, RareAllelePolicy.five_over_2n())
        assert set(out) == {"L", "M"}
        for sets in out.values():
            assert sum(ws.prior for ws in sets) == pytest.approx(1.0, abs=1e-9)


def _product_reference(profile, prop, table, policy, locus):
    """(slot genotypes, prior) per set: a loop over itertools.product of the
    unknowns' candidate genotypes, the prior multiplied in slot order."""
    cands = candidate_alleles(profile, locus)
    residual = q_residual_mass(table, locus, cands)
    genotypes = [Genotype(a, b) for a, b in combinations_with_replacement(cands, 2)]
    priors = [genotype_prior(g, table, policy, locus, residual) for g in genotypes]
    out = []
    for combo in product(range(len(genotypes)), repeat=len(prop.unknown_indices)):
        slots = [prop.fixed_contributors[i][locus] if i in prop.fixed_contributors else None
                 for i in range(prop.noc)]
        prior = 1.0
        for slot, g in zip(prop.unknown_indices, combo):
            slots[slot] = genotypes[g]
            prior *= priors[g]
        out.append((tuple(slots), prior))
    return out


class TestEnumerationArrays:
    """The index arrays against an itertools.product reference, bit for bit."""

    PROFILE = Profile({"L": [Peak("A", 900.0), Peak("B", 500.0), Peak("C", 300.0)]}, 50.0)
    TABLE = FrequencyTable({"L": {"A": 0.3, "B": 0.25, "C": 0.2, "D": 0.1}}, n_individuals=500)
    AB, CD = Genotype("A", "B"), Genotype("C", "D")

    @pytest.mark.parametrize(
        "noc, fixed",
        [
            (1, {}),
            (2, {0: AB}),
            (2, {1: AB}),
            (3, {1: AB}),
            (3, {0: AB, 2: CD}),  # D is no candidate: it shows no peak
            (2, {0: AB, 1: CD}),  # no unknowns
            (3, {}),  # 10**3 sets
        ],
    )
    def test_order_and_priors_match_itertools_product(self, noc, fixed):
        prop = Proposition(noc=noc, fixed_contributors={i: {"L": g} for i, g in fixed.items()})
        policy = RareAllelePolicy.five_over_2n()
        sets = enumerate_locus_sets(self.PROFILE, prop, self.TABLE, policy, "L")
        want = _product_reference(self.PROFILE, prop, self.TABLE, policy, "L")
        assert len(sets) == len(want) == 10 ** (noc - len(fixed))
        assert sets.index.shape == (len(want), noc)
        assert [tuple(sets.genotypes[g] for g in row) for row in sets.index] == [
            slots for slots, _ in want
        ]
        assert [p.hex() for p in sets.priors.tolist()] == [p.hex() for _, p in want]
        if noc == len(fixed):
            assert sets.priors.tolist() == [1.0]
        # items, indexed as `sets[i] for i in lev.live_sets` does
        for i in np.unique(np.linspace(0, len(want) - 1, 7).astype(np.int64)):
            slots, prior = want[i]
            item = sets[i]
            assert item == WeightedGenotypeSet(GenotypeSet(slots), prior)
            assert item.prior.hex() == prior.hex()
        assert sets[-1] == WeightedGenotypeSet(GenotypeSet(want[-1][0]), want[-1][1])
        assert [ws.set.contributors for ws in sets] == [slots for slots, _ in want]


def test_candidate_alleles_include_stutter_parents():
    prof = Profile({"L": [Peak("12", 500.0)]}, 50.0)
    plain = candidate_alleles(prof, "L", ModelConfig())
    assert plain == ("12", Q_ALLELE)
    with_stutter = candidate_alleles(
        prof, "L", ModelConfig(back_stutter=True, forward_stutter=True)
    )
    assert set(with_stutter) == {"12", "13", "11", Q_ALLELE}


def test_q_residual_mass(table):
    assert q_residual_mass(table, "L", ["A", "B", Q_ALLELE]) == pytest.approx(0.2)
    assert q_residual_mass(table, "L", ["A"]) == pytest.approx(0.6)


def test_frequency_table_validation():
    with pytest.raises(ValueError):
        FrequencyTable({"L": {"A": 0.0}}, n_individuals=500)
    with pytest.raises(ValueError):
        FrequencyTable({"L": {"A": 0.7, "B": 0.5}}, n_individuals=500)
    with pytest.raises(ValueError):
        FrequencyTable({"L": {"A": 0.5}}, n_individuals=0)


def test_priors_form_product_measure_with_q_floor():
    # when the policy value exceeds the residual, the total exceeds 1 slightly
    # by design (substitution, not renormalisation)
    t = FrequencyTable({"L": {"A": 0.5, "B": 0.499}}, n_individuals=500)
    prof = Profile({"L": [Peak("A", 1000.0), Peak("B", 1100.0)]}, 50.0)
    sets = enumerate_locus_sets(
        prof, Proposition(noc=1), t, RareAllelePolicy.five_over_2n(), "L"
    )
    total = sum(ws.prior for ws in sets)
    assert total == pytest.approx((0.5 + 0.499 + 0.005) ** 2, rel=1e-12)
    assert total > 1.0
