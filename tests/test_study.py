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

    def test_one_evaluator_per_proposition(self, monkeypatch):
        built = []
        real = study_mod.build_evaluator

        def counting(profile, prop, *args):
            built.append(prop)
            return real(profile, prop, *args)

        monkeypatch.setattr(study_mod, "build_evaluator", counting)
        cfg = self._config(engines=(ENGINE_MLE, ENGINE_INT))
        records = run_study(cfg, seed=1)
        # per case: Hd, and the Hp of the true donor and of each non-donor
        assert len(built) == cfg.n_cases * (2 + cfg.n_nondonors_per_case)
        assert len({r.case_id for r in records}) == cfg.n_cases

    def test_true_donor_fitted_once(self, monkeypatch):
        fits = []
        real = study_mod.maximize

        def counting(profile, prop, *args, **kwargs):
            res = real(profile, prop, *args, **kwargs)
            fits.append((prop.label, res.log10_max))
            return res

        # the Hd re-polish calls maximize through mixlr.mle
        monkeypatch.setattr(study_mod, "maximize", counting)
        monkeypatch.setattr(mle_mod, "maximize", counting)
        cfg = self._config(n_cases=1)
        run_study(cfg, seed=1)
        # the Hd fit, the true donor's Hp fit that probes Hd, the Hd
        # re-polish, then one Hp fit per non-donor. The re-polish does not
        # raise Hd here, so the probe serves as the true donor's fit.
        labels = [label for label, _ in fits]
        assert labels == [HD, HP, HD] + [HP] * cfg.n_nondonors_per_case
        assert fits[2][1] <= fits[0][1]

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
