import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mixlr import likelihood
from mixlr.genotypes import RareAllelePolicy, FrequencyTable, enumerate_sets
from mixlr.likelihood import (
    NEG_INF,
    MixtureEvaluator,
    dropout_mass,
    full_likelihood,
    full_log10_likelihood,
    locus_log_likelihood,
    log10_peak_density,
    log10sumexp,
    peak_density,
    set_log_likelihood,
)
from mixlr.model import (
    HP,
    Genotype,
    GenotypeSet,
    MassParams,
    ModelConfig,
    Peak,
    Profile,
    Proposition,
)

# independently computed with 50-digit arithmetic
TWO_PEAK_AT_1075 = 13.580576561217
TWO_PEAK_AT_1025_50 = 14.109281206100


class TestPeakDensity:
    def test_two_peak_product_one_contributor(self):
        got = peak_density(1000.0, 1075.0, 12.0) * peak_density(1100.0, 1075.0, 12.0)
        assert got == pytest.approx(TWO_PEAK_AT_1075, rel=1e-10)

    def test_two_peak_product_two_contributors(self):
        got = peak_density(1000.0, 1025.0, 12.0) * peak_density(1100.0, 1125.0, 12.0)
        assert got == pytest.approx(TWO_PEAK_AT_1025_50, rel=1e-10)

    def test_mode_height(self):
        # O = E and variance c2/E = 0.01: the normal mode 1/(0.1 sqrt(2 pi))
        e = 100.0
        got = peak_density(e, e, 0.01 * e)
        assert got == pytest.approx(1.0 / (0.1 * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_zero_expectation_is_density_zero(self):
        assert peak_density(500.0, 0.0, 12.0) == 0.0

    def test_normalises_to_one(self):
        # density of x = log10(O/E); +-50 sd covers all the mass
        for e, c2 in ((1075.0, 12.0), (150.0, 30.0), (2000.0, 5.0)):
            half = 50.0 * math.sqrt(c2 / e)
            total, err = quad(lambda x: peak_density(e * 10**x, e, c2), -half, half)
            assert abs(total - 1.0) < 1e-6

    def test_log_matches_linear(self):
        for o, e in ((1000.0, 1075.0), (500.0, 100.0), (80.0, 900.0)):
            assert 10 ** log10_peak_density(o, e, 12.0) == pytest.approx(
                peak_density(o, e, 12.0), rel=1e-9
            )


class TestDropoutMass:
    def test_median_at_threshold(self):
        assert dropout_mass(50.0, 50.0, 12.0) == pytest.approx(0.5, abs=1e-12)

    def test_tall_expectation_never_drops(self):
        assert dropout_mass(2000.0, 50.0, 12.0) < 1e-6

    def test_zero_expectation_always_drops(self):
        assert dropout_mass(0.0, 50.0, 12.0) == 1.0

    def test_complementarity_with_density(self):
        for e in (60.0, 200.0, 1000.0):
            at, c2 = 50.0, 12.0
            above, _ = quad(
                lambda x: peak_density(e * 10**x, e, c2),
                math.log10(at / e),
                math.log10(at / e) + 50.0 * math.sqrt(c2 / e),
            )
            assert abs(dropout_mass(e, at, c2) + above - 1.0) < 1e-6


class TestSetLogLikelihood:
    def test_toy_single_contributor(self, toy_profile):
        ll = set_log_likelihood(
            toy_profile, GenotypeSet([Genotype("A", "B")]), MassParams((1075.0,), 12.0)
        )
        assert ll == pytest.approx(math.log10(TWO_PEAK_AT_1075), rel=1e-10)

    def test_unexplained_peak_is_exclusion(self, toy_profile):
        ll = set_log_likelihood(
            toy_profile, GenotypeSet([Genotype("B", "B")]), MassParams((1000.0,), 12.0)
        )
        assert ll == NEG_INF

    def test_empty_profile_vacuous(self):
        prof = Profile({}, 50.0)
        ll = set_log_likelihood(prof, {}, MassParams((0.0,), 12.0))
        assert ll == 0.0

    def test_permutation_invariance(self, toy_profile):
        a = set_log_likelihood(
            toy_profile,
            GenotypeSet([Genotype("A", "B"), Genotype("B", "B")]),
            MassParams((1025.0, 50.0), 12.0),
        )
        b = set_log_likelihood(
            toy_profile,
            GenotypeSet([Genotype("B", "B"), Genotype("A", "B")]),
            MassParams((50.0, 1025.0), 12.0),
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_dropout_term_applied_for_absent_position(self):
        prof = Profile({"L": [Peak("A", 1000.0)]}, 50.0)
        # heterozygote AB expects a B peak that is absent
        ll = set_log_likelihood(
            prof, GenotypeSet([Genotype("A", "B")]), MassParams((1000.0,), 12.0)
        )
        expect = math.log10(peak_density(1000.0, 1000.0, 12.0)) + math.log10(
            dropout_mass(1000.0, 50.0, 12.0)
        )
        assert ll == pytest.approx(expect, rel=1e-12)


class TestFullLikelihood:
    def test_single_set_prior_one(self, toy_profile, toy_table, policy):
        prop = Proposition(noc=1, fixed_contributors={0: {"L": Genotype("A", "B")}})
        sets = enumerate_sets(toy_profile, prop, toy_table, policy)
        got = full_likelihood(toy_profile, sets, MassParams((1075.0,), 12.0))
        assert got == pytest.approx(TWO_PEAK_AT_1075, rel=1e-9)

    def test_equal_sets_fixed_point(self, toy_profile, toy_table, policy):
        # two copies of the same genotype with half prior each: exactly L
        from mixlr.genotypes import WeightedGenotypeSet

        gs = GenotypeSet([Genotype("A", "B")])
        sets = {"L": [WeightedGenotypeSet(gs, 0.5), WeightedGenotypeSet(gs, 0.5)]}
        got = full_likelihood(toy_profile, sets, MassParams((1075.0,), 12.0))
        assert got == pytest.approx(TWO_PEAK_AT_1075, rel=1e-9)

    def test_toy_hd_dominated_by_ab(self, toy_profile, toy_table, policy, toy_hd):
        sets = enumerate_sets(toy_profile, toy_hd, toy_table, policy)
        got = full_likelihood(toy_profile, sets, MassParams((1075.0,), 12.0))
        # every other enumerated genotype leaves a peak unexplained
        assert got == pytest.approx(0.32 * TWO_PEAK_AT_1075, rel=1e-9)

    def test_exclusion_only_when_all_sets_excluded(self, toy_profile, toy_table, policy):
        prop = Proposition(noc=1, fixed_contributors={0: {"L": Genotype("B", "B")}})
        sets = enumerate_sets(toy_profile, prop, toy_table, policy)
        assert full_likelihood(toy_profile, sets, MassParams((1000.0,), 12.0)) == 0.0


def test_log10sumexp():
    vals = np.array([0.0, 1.0, 2.0])
    assert log10sumexp(vals) == pytest.approx(math.log10(1 + 10 + 100), rel=1e-12)
    assert log10sumexp(np.array([NEG_INF, NEG_INF])) == NEG_INF
    assert log10sumexp(np.array([NEG_INF, 3.0])) == pytest.approx(3.0, rel=1e-12)


class TestVectorisedAgreement:
    """The batch evaluator must match the scalar path to 1e-9."""

    def _compare(self, profile, table, prop, policy, params, config):
        sets = enumerate_sets(profile, prop, table, policy, config)
        scalar = full_log10_likelihood(profile, sets, params, config)
        ev = MixtureEvaluator(profile, sets, config)
        vec = ev.marginal_log10_params(params)
        if scalar == NEG_INF:
            assert vec == NEG_INF
        else:
            assert vec == pytest.approx(scalar, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        t1=st.floats(10.0, 3000.0),
        t2=st.floats(10.0, 3000.0),
        c2=st.floats(2.0, 50.0),
    )
    def test_plain_model(self, t1, t2, c2):
        profile = Profile(
            {"L": [Peak("A", 900.0), Peak("B", 400.0)], "M": [Peak("A", 700.0)]}, 50.0
        )
        table = FrequencyTable(
            {"L": {"A": 0.3, "B": 0.3}, "M": {"A": 0.5}}, n_individuals=500
        )
        prop = Proposition(noc=2)
        self._compare(
            profile,
            table,
            prop,
            RareAllelePolicy.five_over_2n(),
            MassParams((t1, t2), c2),
            ModelConfig(),
        )

    @settings(max_examples=20, deadline=None)
    @given(
        t=st.floats(100.0, 3000.0),
        bw=st.one_of(st.just(0.0), st.floats(1e-6, 0.3)),
        slope=st.floats(0.5, 1.0),
    )
    def test_stutter_and_degradation(self, t, bw, slope):
        profile = Profile(
            {"L": [Peak("12", 800.0, size=150.0), Peak("11", 90.0, size=146.0)]}, 50.0
        )
        table = FrequencyTable({"L": {"12": 0.3, "11": 0.2}}, n_individuals=500)
        config = ModelConfig(back_stutter=True, degradation=True)
        self._compare(
            profile,
            table,
            Proposition(noc=1),
            RareAllelePolicy.five_over_2n(),
            MassParams((t,), 12.0, degradation_slope=slope, bw_stutter_prop=bw),
            config,
        )

    def test_batch_shape(self, toy_profile, toy_table, policy, toy_hd):
        sets = enumerate_sets(toy_profile, toy_hd, toy_table, policy)
        ev = MixtureEvaluator(toy_profile, sets)
        out = ev.marginal_log10(np.array([[1075.0], [500.0], [100.0]]), 12.0)
        assert out.shape == (3,)
        assert out[0] > out[1] > out[2]


class TestPruning:
    """Sets the evaluator drops are -inf for every parameter point; the
    sets it keeps still agree with the scalar oracle to 1e-9."""

    @staticmethod
    def _agrees(got, want):
        if want == NEG_INF:
            return got == NEG_INF
        return abs(got - want) <= 1e-9

    def test_excluded_poi_locus_is_exact_exclusion(self, policy):
        profile = Profile(
            {
                "L": [Peak("A", 900.0), Peak("B", 700.0), Peak("C", 500.0)],
                "M": [Peak("A", 800.0)],
            },
            50.0,
        )
        table = FrequencyTable(
            {"L": {"A": 0.3, "B": 0.3, "C": 0.3}, "M": {"A": 0.5}}, n_individuals=500
        )
        # the POI carries none of L's alleles and one unknown covers at most two
        poi = {"L": Genotype("D", "D"), "M": Genotype("A", "A")}
        hp = Proposition(noc=2, fixed_contributors={0: poi}, label=HP)
        sets = enumerate_sets(profile, hp, table, policy)
        ev = MixtureEvaluator(profile, sets)
        assert len(ev.evaluators[0].log10_priors) == 0
        assert len(ev.evaluators[1].log10_priors) > 0
        batch = np.array([[1000.0, 500.0], [0.0, 800.0], [3000.0, 3000.0]])
        assert np.all(ev.marginal_log10(batch, 12.0) == NEG_INF)
        for row in batch:
            params = MassParams(tuple(row), 12.0)
            assert full_log10_likelihood(profile, sets, params) == NEG_INF
            assert ev.marginal_log10_params(params) == NEG_INF

    def test_locus_with_no_live_set_has_no_columns(self, toy_profile, toy_table, policy):
        # a BB POI leaves the A peak unexplained, so its one set is dead
        prop = Proposition(noc=1, fixed_contributors={0: {"L": Genotype("B", "B")}})
        lev = MixtureEvaluator(
            toy_profile, enumerate_sets(toy_profile, prop, toy_table, policy)
        ).evaluators[0]
        assert len(lev.live_sets) == 0
        for batch in (1, 3):
            templates = np.full((batch, 1), 1000.0)
            per_set = lev.set_log10_likelihoods(templates, 12.0, 1.0, 0.0, 0.0)
            assert per_set.shape == (batch, 0)

    def test_peak_covered_only_by_forward_stutter_stays_live(self, policy):
        # 12,12 explains the 13 peak only as forward stutter out of 12
        profile = Profile({"L": [Peak("12", 800.0), Peak("13", 60.0)]}, 50.0)
        table = FrequencyTable({"L": {"12": 0.3, "13": 0.2}}, n_individuals=500)
        homozygote = GenotypeSet([Genotype("12", "12")])
        config = ModelConfig(forward_stutter=True)
        sets = enumerate_sets(profile, Proposition(noc=1), table, policy, config)["L"]
        lev = MixtureEvaluator(profile, {"L": sets}, config).evaluators[0]
        assert homozygote in [sets[i].set for i in lev.live_sets]
        plain = MixtureEvaluator(profile, {"L": sets}).evaluators[0]
        assert homozygote not in [sets[i].set for i in plain.live_sets]
        for fw in (0.0, 0.05, 0.2):
            per_set = lev.set_log10_likelihoods(
                np.array([[800.0]]), [12.0], [1.0], [0.0], [fw]
            )[0]
            got = dict(zip(lev.live_sets, per_set))
            params = MassParams((800.0,), 12.0, fw_stutter_prop=fw)
            for i, ws in enumerate(sets):
                want = set_log_likelihood(profile, ws.set, params, config)
                assert self._agrees(got.get(i, NEG_INF), want), (ws.set, fw)

    def test_zero_template_rows(self, policy):
        profile = Profile(
            {"L": [Peak("A", 900.0), Peak("B", 400.0)], "M": [Peak("A", 700.0)]}, 50.0
        )
        table = FrequencyTable({"L": {"A": 0.3, "B": 0.3}, "M": {"A": 0.5}}, n_individuals=500)
        sets = enumerate_sets(profile, Proposition(noc=2), table, policy)
        ev = MixtureEvaluator(profile, sets)
        batch = np.array([[900.0, 0.0], [0.0, 400.0], [0.0, 0.0], [900.0, 400.0]])
        got = ev.marginal_log10(batch, 12.0)
        for row, value in zip(batch, got):
            want = full_log10_likelihood(profile, sets, MassParams(tuple(row), 12.0))
            assert self._agrees(value, want), row
        assert got[2] == NEG_INF and np.isfinite(got[0])

    def test_chunked_batch_is_bit_identical(self, monkeypatch, policy):
        profile = Profile(
            {
                "L": [Peak("12", 900.0, 150.0), Peak("11", 400.0, 146.0)],
                "M": [Peak("9", 700.0, 210.0)],
            },
            50.0,
        )
        table = FrequencyTable(
            {"L": {"11": 0.2, "12": 0.3}, "M": {"9": 0.4}}, n_individuals=500
        )
        config = ModelConfig(back_stutter=True, degradation=True)
        sets = enumerate_sets(profile, Proposition(noc=3), table, policy, config)
        ev = MixtureEvaluator(profile, sets, config)
        rng = np.random.default_rng(3)
        batch = rng.uniform(0.0, 2000.0, size=(37, 3))
        args = (rng.uniform(2, 50, 37), rng.uniform(0.5, 1, 37), rng.uniform(0, 0.3, 37))
        # c2, slope and bw as numbers, and the same numbers as (batch,) arrays
        numbers = (12.0, 0.8, 0.1)
        arrays = tuple(np.full(len(batch), v) for v in numbers)
        width = max(lev.copies.shape[0] * lev.copies.shape[2] for lev in ev.evaluators)
        monkeypatch.setattr(likelihood, "_CHUNK_ELEMENTS", len(batch) * width)
        whole = ev.marginal_log10(batch, *args)
        whole_numbers = ev.marginal_log10(batch, *numbers)
        assert np.array_equal(ev.marginal_log10(batch, *arrays), whole_numbers)
        for rows in (1, 5):
            monkeypatch.setattr(likelihood, "_CHUNK_ELEMENTS", rows * width)
            assert np.array_equal(ev.marginal_log10(batch, *args), whole)
            assert np.array_equal(ev.marginal_log10(batch, *numbers), whole_numbers)
            assert np.array_equal(ev.marginal_log10(batch, *arrays), whole_numbers)

    def test_batch_size_changes_no_bit_at_four_contributors(self, policy):
        # a row's expectation can sum four templates, and a sum of more than
        # two terms rounds by the order it is taken in
        profile = Profile({"L": [Peak("A", 900.0), Peak("B", 400.0)]}, 50.0)
        table = FrequencyTable({"L": {"A": 0.5, "B": 0.4}}, n_individuals=500)
        sets = enumerate_sets(profile, Proposition(noc=4), table, policy)
        lev = MixtureEvaluator(profile, sets).evaluators[0]
        templates = np.random.default_rng(11).uniform(0.0, 2000.0, size=(64, 4))
        whole = lev.set_log10_likelihoods(templates, 12.0, 1.0, 0.0, 0.0)
        for i in range(len(templates)):
            one = lev.set_log10_likelihoods(templates[i : i + 1], 12.0, 1.0, 0.0, 0.0)
            assert np.array_equal(one, whole[i : i + 1]), i


class TestDistinctRows:
    """The kernel evaluates each distinct expectation row once; per set it
    must still match the scalar oracle."""

    ALLELES = ("10", "11", "12", "13")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_per_set_matches_scalar_oracle(self, data):
        noc = data.draw(st.integers(1, 3), label="noc")
        n_loci = data.draw(st.integers(1, 2), label="loci")
        config = ModelConfig(
            back_stutter=data.draw(st.booleans(), label="back"),
            forward_stutter=data.draw(st.booleans(), label="forward"),
            degradation=data.draw(st.booleans(), label="degradation"),
        )
        loci = {}
        for i in range(n_loci):
            seen = data.draw(
                st.lists(st.sampled_from(self.ALLELES), min_size=1, max_size=3, unique=True)
            )
            loci[f"L{i}"] = [
                Peak(a, data.draw(st.floats(60.0, 3000.0)), size=100.0 + 4 * int(a))
                for a in seen
            ]
        profile = Profile(loci, 50.0)
        table = FrequencyTable(
            {locus: {a: 0.2 for a in self.ALLELES} for locus in loci}, n_individuals=500
        )
        # three contributors fix one, so the oracle has at most two unknowns
        # to walk; the fixed one may carry alleles no peak shows
        fixed = {}
        if noc == 3 or data.draw(st.booleans(), label="fixed"):
            pool = st.sampled_from(("9",) + self.ALLELES + ("14",))
            fixed = {0: {locus: Genotype(data.draw(pool), data.draw(pool)) for locus in loci}}
        prop = Proposition(noc=noc, fixed_contributors=fixed)
        sets = enumerate_sets(profile, prop, table, RareAllelePolicy.five_over_2n(), config)

        # a free row, a row with one template at zero, and all templates
        # zero; templates below 1 rfu and stutter proportions below 1e-6 reach
        # expected heights down to the smallest subnormal
        template = st.one_of(
            st.just(0.0), st.floats(0.0, 1.0, exclude_min=True), st.floats(1.0, 3000.0)
        )
        t = np.array([data.draw(template) for _ in range(noc)])
        zeroed = t.copy()
        zeroed[data.draw(st.integers(0, noc - 1))] = 0.0
        templates = np.stack([t, zeroed, np.zeros(noc)])
        c2 = data.draw(st.floats(2.0, 50.0))
        slope = data.draw(st.floats(0.5, 1.0)) if config.degradation else 1.0
        stutter = st.one_of(
            st.just(0.0), st.floats(0.0, 1e-6, exclude_min=True), st.floats(1e-6, 0.3)
        )
        bw = data.draw(stutter) if config.back_stutter else 0.0
        fw = data.draw(stutter) if config.forward_stutter else 0.0

        ev = MixtureEvaluator(profile, sets, config)
        for lev in ev.evaluators:
            got = lev.set_log10_likelihoods(templates, [c2] * 3, [slope] * 3, [bw] * 3, [fw] * 3)
            for row, per_set in zip(templates, got):
                params = MassParams(tuple(row), c2, slope, bw, fw)
                by_set = dict(zip(lev.live_sets, per_set))
                for i, ws in enumerate(sets[lev.locus]):
                    want = locus_log_likelihood(profile, ws.set, params, lev.locus)
                    value = by_set.get(i, NEG_INF)
                    if want == NEG_INF:
                        assert value == NEG_INF, (ws.set, row)
                    else:
                        assert abs(value - want) <= 1e-9 * max(1.0, abs(want)), (ws.set, row)

    @pytest.mark.parametrize("shape, high", [((500, 5), 3), ((400, 60), 3), ((300, 2), 40)])
    def test_distinct_rows_match_numpy_unique(self, shape, high):
        # 60 ternary columns overflow int64 codes, so the ranks take over
        table = np.random.default_rng(7).integers(0, high, size=shape).astype(np.int16)
        rows, inverse = likelihood._distinct_rows(table)
        want_rows, want_inverse = np.unique(table, axis=0, return_inverse=True)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(inverse, want_inverse.reshape(-1))

    def test_rows_are_bounded_by_copy_patterns(self, policy):
        # every allele observed at one locus, three unknowns: the 1000-set Hd
        profile = Profile(
            {"L": [Peak("10", 900.0), Peak("11", 600.0), Peak("12", 300.0)]}, 50.0
        )
        table = FrequencyTable({"L": {"10": 0.33, "11": 0.33, "12": 0.32}}, n_individuals=500)
        sets = enumerate_sets(profile, Proposition(noc=3), table, policy)
        assert len(sets["L"]) == 1000
        lev = MixtureEvaluator(profile, sets).evaluators[0]
        n_pos = len(lev.positions)
        # without stutter a row is one position's copy pattern, each
        # contributor carrying 0, 1 or 2 copies there
        per_position = np.bincount(lev.row_positions, minlength=n_pos)
        assert per_position.max() <= 3**3
        assert len(lev.row_positions) * 10 < len(lev.live_sets) * n_pos
