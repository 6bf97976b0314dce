"""The benchmark's seeded workloads: inputs, timed rounds and output checks.

One operation is one likelihood ratio (LR). A workload draws its inputs
from the benchmark seed when it is built (that is the set-up), runs one
round at a time (one LR, or one study case and the LRs it scores), keeps
what each round returned, and checks those results after the timed phase
against an independent computation or a property the method must have.

Every entry point is called through its module (`study.run_study`, not a
bare `run_study`), so the span wrappers of a traced run see the call.
"""

from __future__ import annotations

import math

import numpy as np

from mixlr import genotypes, integrate, likelihood, mle, study, toy
from mixlr.genotypes import FrequencyTable, RareAllelePolicy
from mixlr.model import HD, HP, Genotype, MassParams, Peak, Profile, Proposition

# Relative agreement required between the batch kernel and the scalar oracle.
ORACLE_RTOL = 1e-9

POLICY = RareAllelePolicy.five_over_2n()

# Two-contributor cases in the criterion-3 shape: two loci with three
# alleles each, templates U[300, 1200] rfu, c2 = 12, threshold 50 rfu.
TWO_PERSON_FREQS = (0.45, 0.30, 0.25)
TWO_PERSON_C2 = 12.0

# The criterion-3 search, used by the checks that need an MLE optimum.
CHECK_SEARCH = dict(n_starts=2, xtol=1e-3, max_iter=150, boundary_passes=False)


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _full_pattern(profile: Profile, table: FrequencyTable) -> bool:
    """Every allele of the table observed at every locus."""
    return all(
        len(profile.peaks(locus)) == len(table.frequencies[locus]) for locus in table.loci()
    )


def two_person_cases(seed: int, n: int):
    """n seeded (profile, donors) pairs, keeping only profiles that show
    every allele at both loci, so every case has the same genotype-set
    counts."""
    table = FrequencyTable(
        {f"L{i}": {str(10 + a): f for a, f in enumerate(TWO_PERSON_FREQS)} for i in range(2)},
        n_individuals=500,
    )
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        donors = tuple(study.sample_genotypes(table, rng) for _ in range(2))
        templates = tuple(rng.uniform(300.0, 1200.0, size=2))
        scenario = study.TrueScenario(
            donors, MassParams(templates, TWO_PERSON_C2), 50.0, seed=int(rng.integers(2**63))
        )
        profile = study.simulate_profile(scenario)
        if _full_pattern(profile, table):
            cases.append((profile, donors))
    return table, cases


def propositions(noc: int, poi):
    return (
        Proposition(noc=noc, fixed_contributors={0: dict(poi)}, label=HP),
        Proposition(noc=noc, label=HD),
    )


def oracle_failures(tag, profile, table, proposition, params, kernel_log10) -> list[str]:
    """Re-score one parameter point with the scalar oracle."""
    sets = genotypes.enumerate_sets(profile, proposition, table, POLICY)
    want = likelihood.full_log10_likelihood(profile, sets, params)
    if _close(kernel_log10, want, ORACLE_RTOL):
        return []
    return [f"{tag}: kernel {kernel_log10!r} != oracle {want!r}"]


class Int2p:
    """marginal_quadrature for Hp and Hd under a pinned-c2 prior.

    Every kernel call is a large batch. The refinement loop is the
    engine's own (rtol and level cap at their defaults) from 16 points per
    axis, so an LR evaluates up to 43,520 points; the default 48 per axis
    takes 9-21 s per LR, too long for a run of this length.
    """

    name = "int_2p"
    lrs_per_round = 1
    pool = 64
    resolution = 16
    prior = integrate.PriorSpec(c2=TWO_PERSON_C2)

    def __init__(self, seed: int):
        self.table, self.cases = two_person_cases(seed, self.pool)
        self.results = []

    def run_round(self, k: int) -> int:
        profile, donors = self.cases[k % len(self.cases)]
        hp, hd = propositions(2, donors[0])
        res_p = integrate.marginal_quadrature(
            profile, hp, self.table, POLICY, prior=self.prior, resolution=self.resolution
        )
        res_d = integrate.marginal_quadrature(
            profile, hd, self.table, POLICY, prior=self.prior, resolution=self.resolution
        )
        integrate.lr_int(res_p, res_d)
        self.results.append((k, res_p, res_d))
        return 1

    def _node_failures(self, k, profile, prop) -> list[str]:
        """Kernel against oracle at the first-level nodes that carry the most
        mass, plus the two corners of the grid."""
        sets = genotypes.enumerate_sets(profile, prop, self.table, POLICY)
        ev = likelihood.MixtureEvaluator(profile, sets)
        axis = (np.arange(self.resolution) + 0.5) / self.resolution
        mesh = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
        templates = self.prior.template_hi * mesh
        values = ev.marginal_log10(templates, self.prior.c2)
        picks = list(np.argsort(values)[-3:]) + [0, len(values) - 1]
        failures = []
        for j in picks:
            params = MassParams(tuple(float(t) for t in templates[j]), self.prior.c2)
            want = likelihood.full_log10_likelihood(profile, sets, params)
            if not _close(float(values[j]), want, ORACLE_RTOL):
                failures.append(
                    f"round {k} {prop.label} node {j}: kernel {values[j]!r} != oracle {want!r}"
                )
        return failures

    def check(self) -> list[str]:
        failures = self._toy_failures()
        rounds = {}
        for k, res_p, res_d in self.results:
            rounds.setdefault(k, (res_p, res_d))
        for i, (k, (res_p, res_d)) in enumerate(rounds.items()):
            profile, donors = self.cases[k % len(self.cases)]
            hp, hd = propositions(2, donors[0])
            for prop in (hp, hd):
                failures += self._node_failures(k, profile, prop)
            if i > 0:
                continue
            # a prior mean of the likelihood cannot exceed its supremum; one
            # round's two fits keep the check short
            search = mle.SearchSpec(c2=self.prior.c2, seed=k, **CHECK_SEARCH)
            for prop, res in ((hp, res_p), (hd, res_d)):
                fit = mle.maximize(profile, prop, self.table, POLICY, search=search)
                if res.log10_marginal > fit.log10_max + 1e-9:
                    failures.append(
                        f"round {k} {prop.label}: marginal 10^{res.log10_marginal} "
                        f"exceeds the MLE maximum 10^{fit.log10_max}"
                    )
        return failures

    def _toy_failures(self) -> list[str]:
        """Toy one-contributor marginal against toy._refine_1d, a density
        path that shares no code with the kernel."""
        profile = Profile({"L": [Peak("A", toy.O_A), Peak("B", toy.O_B)]}, 50.0)
        table = FrequencyTable({"L": {"A": 0.4, "B": 0.4}}, n_individuals=500)
        res = integrate.marginal_quadrature(
            profile, Proposition(noc=1, label=HD), table, POLICY,
            prior=integrate.PriorSpec(c2=toy.C2),
        )
        # only the AB genotype explains both peaks
        prior_ab = genotypes.genotype_prior(Genotype("A", "B"), table, POLICY, "L")
        want = prior_ab * toy._refine_1d(0.0, toy.PRIOR_HI) / toy.PRIOR_HI
        if abs(res.marginal - want) <= 1e-4 * want:
            return []
        return [f"toy Hd marginal {res.marginal!r} != independent {want!r}"]


class Study3p:
    """run_study, both engines, on three-contributor single-locus cases.

    Each case shows all three alleles of its locus, so Hd enumerates
    10^3 = 1000 genotype sets in every case. A round is one study case:
    the true donor and four random non-donors, each scored by both engines
    (10 LRs). With every allele observed and two free unknowns, no
    candidate is a structural exclusion, so the exclusion check catches
    an engine that excludes spuriously.
    """

    name = "study_3p"
    pool = 64
    freqs = (0.33, 0.33, 0.32)

    def __init__(self, seed: int):
        table = FrequencyTable(
            {"L0": {str(10 + a): f for a, f in enumerate(self.freqs)}}, n_individuals=500
        )
        self.cfg = study.StudyConfig(
            table=table,
            noc=3,
            n_cases=1,
            n_nondonors_per_case=4,
            nondonor_mode=study.RANDOM,
            mc_samples=1296,
            n_starts=1,
            prior=integrate.PriorSpec(template_hi=3000.0),
        )
        self.lrs_per_round = (1 + self.cfg.n_nondonors_per_case) * len(self.cfg.engines)
        self.cases = []
        k = 0
        while len(self.cases) < self.pool:
            study_seed = (seed << 20) + k
            profile = self.predicted_profile(study_seed)
            if _full_pattern(profile, table):
                self.cases.append((study_seed, profile))
            k += 1
        self.results = []

    def predicted_profile(self, study_seed: int) -> Profile:
        """The profile run_study simulates for its first case under this seed.

        Follows run_study's seed derivation. Were that derivation to change,
        the cases would no longer all show three alleles, and
        genotypes.sets per LR in the traced run would move.
        """
        cfg = self.cfg
        sim_seq = np.random.SeedSequence(study_seed).spawn(1)[0].spawn(3)[0]
        rng = np.random.default_rng(sim_seq)
        donors = tuple(study.sample_genotypes(cfg.table, rng) for _ in range(cfg.noc))
        templates = tuple(rng.uniform(*cfg.template_range, size=cfg.noc))
        c2 = float(rng.uniform(*cfg.true_c2_range))
        scenario = study.TrueScenario(
            donors, MassParams(templates, c2), cfg.analytical_threshold,
            seed=int(rng.integers(2**63)),
        )
        return study.simulate_profile(scenario, cfg.config)

    def run_round(self, k: int) -> int:
        study_seed, _ = self.cases[k % len(self.cases)]
        records = study.run_study(self.cfg, seed=study_seed)
        self.results.append((k, records))
        return len(records)

    def check(self) -> list[str]:
        failures = []
        n_candidates = 1 + self.cfg.n_nondonors_per_case
        for k, records in self.results:
            want = n_candidates * len(self.cfg.engines)
            if len(records) != want:
                failures.append(f"round {k}: {len(records)} records, expected {want}")
                continue
            by_engine = [[r for r in records if r.engine == e] for e in self.cfg.engines]
            excluded = [[r.excluded for r in rs] for rs in by_engine]
            if any(e != excluded[0] for e in excluded):
                failures.append(f"round {k}: engines exclude different candidates {excluded}")
        if self.results:
            failures += self._hd_failures(self.results[0][0])
        return failures

    def _hd_failures(self, k: int) -> list[str]:
        """An Hd optimum over the round's 1000 genotype sets re-scores with
        the scalar oracle."""
        _, profile = self.cases[k % len(self.cases)]
        hd = Proposition(noc=self.cfg.noc, label=HD)
        search = mle.SearchSpec(seed=k, **CHECK_SEARCH)
        fit = mle.maximize(profile, hd, self.cfg.table, self.cfg.policy, search=search)
        return oracle_failures(
            f"round {k} Hd optimum", profile, self.cfg.table, hd, fit.params, fit.log10_max
        )


WORKLOADS = {"int_2p": Int2p, "study_3p": Study3p}
