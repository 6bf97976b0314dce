from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import study_table
from mixlr import mle as mle_mod, study as study_mod
from mixlr.model import HD, HP, Genotype, MassParams
from mixlr.genotypes import FrequencyTable
from mixlr.study import (
    ENGINE_INT,
    ENGINE_MLE,
    NONDONOR_RESAMPLED,
    RANDOM,
    RESAMPLED,
    TRUE_DONOR,
    LrRecord,
    StudyConfig,
    TrueScenario,
    divergence_summary,
    gen_nondonor,
    run_study,
    sample_genotypes,
    simulate_profile,
)


class TestSimulateProfile:
    def _scenario(self, c2=12.0, seed=0, at=50.0):
        return TrueScenario(
            genotypes=({"L": Genotype("10", "11")}, {"L": Genotype("11", "12")}),
            params=MassParams((800.0, 300.0), c2),
            analytical_threshold=at,
            seed=seed,
        )

    def test_deterministic(self):
        a = simulate_profile(self._scenario())
        b = simulate_profile(self._scenario())
        assert [(p.allele, p.height) for p in a.peaks("L")] == [
            (p.allele, p.height) for p in b.peaks("L")
        ]

    def test_tiny_variance_recovers_expectations(self):
        prof = simulate_profile(self._scenario(c2=1e-8))
        heights = {p.allele: p.height for p in prof.peaks("L")}
        # E(10) = 800, E(11) = 800 + 300, E(12) = 300
        assert heights["10"] == pytest.approx(800.0, rel=1e-4)
        assert heights["11"] == pytest.approx(1100.0, rel=1e-4)
        assert heights["12"] == pytest.approx(300.0, rel=1e-4)

    def test_sub_threshold_dropout(self):
        scen = TrueScenario(
            genotypes=({"L": Genotype("10", "11")},),
            params=MassParams((20.0,), 1e-8),
            analytical_threshold=50.0,
            seed=3,
        )
        prof = simulate_profile(scen)
        assert prof.peaks("L") == ()

    def test_log_residuals_standard_normal(self):
        # many independent homozygous single-donor loci; z = log10(O/E)
        # scaled by sqrt(E / c2) should be standard normal
        n, t, c2 = 2000, 1000.0, 12.0
        genotypes = ({f"L{i}": Genotype("10", "10") for i in range(n)},)
        scen = TrueScenario(genotypes, MassParams((t,), c2), 1.0, seed=42)
        prof = simulate_profile(scen)
        e = 2.0 * t
        z = np.array(
            [
                np.log10(p.height / e) * np.sqrt(e / c2)
                for i in range(n)
                for p in prof.peaks(f"L{i}")
            ]
        )
        assert len(z) == n
        assert stats.kstest(z, "norm").pvalue > 0.01


class TestGenotypes:
    def test_sample_normalises(self):
        table = FrequencyTable({"L": {"A": 0.5}}, n_individuals=500)
        g = sample_genotypes(table, np.random.default_rng(0))
        assert g["L"] == Genotype("A", "A")

    def test_resampled_pool_frequencies(self):
        donors = ({"L": Genotype("A", "A")}, {"L": Genotype("B", "B")})
        table = FrequencyTable({"L": {"A": 0.01, "B": 0.01, "C": 0.98}}, n_individuals=500)
        rng = np.random.default_rng(1)
        counts = {"AA": 0, "AB": 0, "BB": 0}
        n = 4000
        for _ in range(n):
            g = gen_nondonor(RESAMPLED, table, donors, rng)["L"]
            counts["".join(sorted(g.alleles))] += 1
        # pool {A, A, B, B}: AA 1/4, AB 1/2, BB 1/4 regardless of the table
        chi2 = stats.chisquare(
            [counts["AA"], counts["AB"], counts["BB"]], [n / 4, n / 2, n / 4]
        )
        assert chi2.pvalue > 0.001

    def test_resampled_requires_donors(self):
        table = FrequencyTable({"L": {"A": 0.5}}, n_individuals=500)
        with pytest.raises(ValueError):
            gen_nondonor(RESAMPLED, table, (), np.random.default_rng(0))

    def test_random_ignores_donors(self):
        table = FrequencyTable({"L": {"A": 0.5}}, n_individuals=500)
        g = gen_nondonor(RANDOM, table, (), np.random.default_rng(0))
        assert g["L"] == Genotype("A", "A")


def _key(profile, poi):
    """A candidate's genotypes at the profile's loci."""
    return tuple(poi[locus] for locus in profile.loci)


@pytest.fixture
def drawn(monkeypatch):
    """The non-donors run_study draws, in order."""
    out = []
    real = study_mod.gen_nondonor

    def recording(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(study_mod, "gen_nondonor", recording)
    return out


class TestRunStudy:
    def _config(self, **kw):
        base = dict(
            table=study_table(n_loci=2, freqs=(0.4, 0.3, 0.2)),
            noc=1,
            n_cases=2,
            n_nondonors_per_case=2,
            engines=(ENGINE_MLE,),
            mc_samples=1000,
            n_starts=2,
        )
        base.update(kw)
        return StudyConfig(**base)

    def test_empty_study(self):
        assert run_study(self._config(n_cases=0), seed=0) == []

    def test_record_counts_and_labels(self):
        records = run_study(self._config(engines=(ENGINE_MLE, ENGINE_INT)), seed=1)
        # per case: 1 true donor + 2 non-donors, each scored by 2 engines
        assert len(records) == 2 * 3 * 2
        labels = {r.donor_label for r in records}
        assert labels == {TRUE_DONOR, NONDONOR_RESAMPLED}

    def test_deterministic(self):
        cfg = self._config()
        a = run_study(cfg, seed=9)
        b = run_study(cfg, seed=9)
        assert [(r.case_id, r.donor_label, r.log10_lr) for r in a] == [
            (r.case_id, r.donor_label, r.log10_lr) for r in b
        ]

    def test_int_records_report_convergence(self):
        records = run_study(self._config(engines=(ENGINE_MLE, ENGINE_INT)), seed=1)
        ints = [r for r in records if r.engine == ENGINE_INT]
        # one quadrature level cannot show convergence
        assert ints and all(r.converged is False for r in ints)
        groups = divergence_summary(records)["groups"]
        for label in (TRUE_DONOR, NONDONOR_RESAMPLED):
            g = groups[f"{ENGINE_INT}/{label}"]
            assert g["n_nonconverged"] == g["n"]
            assert "n_c2_on_face" not in g
            assert "n_c2_on_face" in groups[f"{ENGINE_MLE}/{label}"]

    def test_one_evaluator_per_proposition(self, monkeypatch, drawn):
        built = []
        real = study_mod.build_evaluator

        def counting(profile, prop, *args):
            built.append((profile, prop))
            return real(profile, prop, *args)

        monkeypatch.setattr(study_mod, "build_evaluator", counting)
        cfg = self._config(engines=(ENGINE_MLE, ENGINE_INT))
        records = run_study(cfg, seed=1)
        assert len({r.case_id for r in records}) == cfg.n_cases
        # per case: Hd, then the Hp of each distinct candidate in order of
        # first appearance, the true donor first
        hds = [i for i, (_, prop) in enumerate(built) if prop.label == HD]
        assert len(hds) == cfg.n_cases
        n, repeats = cfg.n_nondonors_per_case, 0
        for case, (lo, hi) in enumerate(zip(hds, hds[1:] + [len(built)])):
            profile = built[lo][0]
            hp_keys = [_key(profile, prop.fixed_contributors[0]) for _, prop in built[lo + 1 : hi]]
            keys = [hp_keys[0]] + [_key(profile, g) for g in drawn[case * n : (case + 1) * n]]
            assert hp_keys == list(dict.fromkeys(keys))
            repeats += len(keys) - len(hp_keys)
        assert repeats > 0  # the study repeats a candidate

    def test_true_donor_fitted_once(self, monkeypatch, drawn):
        fits = []
        real = mle_mod.maximize

        def counting(profile, prop, *args, **kwargs):
            res = real(profile, prop, *args, **kwargs)
            fits.append((profile, prop, res.log10_max))
            return res

        # `fit_pair`, `fit_hp` and `polish` call maximize through mixlr.mle
        monkeypatch.setattr(mle_mod, "maximize", counting)
        cfg = self._config(n_cases=1)
        run_study(cfg, seed=1)
        # the Hd fit, the true donor's Hp fit, the guard's polish of Hd from
        # it, then one Hp fit per non-donor that differs from every earlier
        # candidate. The polish does not raise Hd here, by more than the
        # polish margin that would replace it, so the guard stops after one
        # round and its Hp fit serves as the true donor's.
        profile, donor = fits[1][0], fits[1][1].fixed_contributors[0]
        keys = [_key(profile, g) for g in [donor, *drawn]]
        assert len(set(keys)) < len(keys)
        assert [prop.label for _, prop, _ in fits] == [HD, HP, HD] + [HP] * (len(set(keys)) - 1)
        assert fits[2][2] <= fits[0][2] + mle_mod.POLISH_MARGIN

    def test_each_distinct_candidate_is_scored_once(self, monkeypatch, drawn):
        fits, marginals = [], []
        real_pair, real_hp = mle_mod.fit_pair, mle_mod.fit_hp
        real_marginal = study_mod.marginal_quadrature

        def pair(profile, hp, hd, *args):
            fits.append((profile, hd))
            return real_pair(profile, hp, hd, *args)

        def fit_hp(profile, prop, *args):
            fits.append((profile, prop))
            return real_hp(profile, prop, *args)

        def marginal(profile, prop, *args, **kwargs):
            marginals.append(prop)
            return real_marginal(profile, prop, *args, **kwargs)

        # an Hd fit per `fit_pair` call, and an Hp fit per `fit_hp` call,
        # the study's own and the one `fit_pair` makes
        monkeypatch.setattr(study_mod, "fit_pair", pair)
        monkeypatch.setattr(study_mod, "fit_hp", fit_hp)
        monkeypatch.setattr(mle_mod, "fit_hp", fit_hp)
        monkeypatch.setattr(study_mod, "marginal_quadrature", marginal)
        cfg = self._config(n_cases=1, n_nondonors_per_case=4, engines=(ENGINE_MLE, ENGINE_INT))
        records = run_study(cfg, seed=0)
        profile, donor = fits[1][0], fits[1][1].fixed_contributors[0]
        keys = [_key(profile, g) for g in [donor, *drawn]]
        distinct = list(dict.fromkeys(keys))
        assert len(distinct) < len(keys)
        # two candidates that match at one locus but not at the other
        assert len(profile.loci) == 2
        assert any(sum(x == y for x, y in zip(a, b)) == 1 for a in distinct for b in distinct)
        # each engine scores Hd once, then each distinct candidate once
        hp_fits = [_key(profile, p.fixed_contributors[0]) for _, p in fits if p.label == HP]
        hp_marginals = [_key(profile, p.fixed_contributors[0]) for p in marginals if p.label == HP]
        assert hp_fits == distinct and hp_marginals == distinct
        assert len(fits) == len(marginals) == 1 + len(distinct)
        # a repeat's records are its first occurrence's but for the label
        by_engine = (records[: len(keys)], records[len(keys) :])
        for engine, rs in zip((ENGINE_MLE, ENGINE_INT), by_engine):
            assert [r.engine for r in rs] == [engine] * len(keys)
            for r, k in zip(rs, keys):
                first = rs[keys.index(k)]
                assert repr(replace(r, donor_label="")) == repr(replace(first, donor_label=""))

    def test_each_case_fits_hd_through_fit_pair(self, monkeypatch):
        pairs = []
        real = study_mod.fit_pair

        def counting(profile, hp, hd, *args):
            pairs.append((hp.label, hd.label))
            return real(profile, hp, hd, *args)

        monkeypatch.setattr(study_mod, "fit_pair", counting)
        cfg = self._config()
        records = run_study(cfg, seed=1)
        assert len({r.case_id for r in records}) == cfg.n_cases
        assert pairs == [(HP, HD)] * cfg.n_cases

    def test_true_donor_supported(self):
        records = run_study(self._config(), seed=4)
        true = [r for r in records if r.donor_label == TRUE_DONOR]
        assert true and all(not r.excluded for r in true)
        # the true donor should be favoured in a single-source profile
        assert all(r.log10_lr > 0 for r in true)


class TestDivergenceSummary:
    def test_fraction_and_quantiles(self):
        records = [
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_MLE, 1.0, c2_hp=20.0, c2_hd=10.0),
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_MLE, -1.0, c2_hp=12.0, c2_hd=12.0),
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_MLE, 2.0),
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_MLE, None),
        ]
        s = divergence_summary(records)
        g = s["groups"][f"{ENGINE_MLE}/{NONDONOR_RESAMPLED}"]
        assert g["n"] == 4
        assert g["fraction_lr_gt_1"] == 0.5
        assert g["fraction_excluded"] == 0.25
        assert g["log10_lr_quantiles"][1] == pytest.approx(1.0)
        assert g["median_c2_hp_minus_hd"] == pytest.approx(5.0)
        assert g["max_c2_ratio"] == pytest.approx(2.0)

    def test_all_exclusions(self):
        records = [LrRecord(0, NONDONOR_RESAMPLED, ENGINE_MLE, None)] * 3
        s = divergence_summary(records)
        g = s["groups"][f"{ENGINE_MLE}/{NONDONOR_RESAMPLED}"]
        assert g["fraction_excluded"] == 1.0
        assert g["fraction_lr_gt_1"] == 0.0
        assert g["log10_lr_quantiles"] is None

    def test_paired_deltas(self):
        records = [
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_MLE, 2.0),
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_MLE, 0.0),
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_INT, 0.5),
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_INT, -1.0),
            LrRecord(0, TRUE_DONOR, ENGINE_MLE, 9.0),
            LrRecord(0, TRUE_DONOR, ENGINE_INT, 1.0),
        ]
        s = divergence_summary(records)
        assert s["paired"]["n_nondonor_pairs"] == 2
        assert s["paired"]["median_log10_lr_ml_minus_int"] == pytest.approx(1.25)
