"""Seeded simulation studies comparing the two LR engines.

A study simulates mixtures from known ground truth, generates non-donor
candidates, runs both engines per candidate POI, and summarises the
divergence diagnostics: fraction of non-donor LRs above 1 per engine,
fitted peak-height variance under Hp vs Hd, and mixture-proportion
divergence between the two fits.

All randomness flows from one study seed through numpy SeedSequence
spawning, so a (config, seed) pair regenerates every record exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .genotypes import FrequencyTable, RareAllelePolicy
from .integrate import (
    MAX_QUADRATURE_DIMS,
    PriorSpec,
    marginal_monte_carlo,
    marginal_quadrature,
)
from .likelihood import NEG_INF, build_evaluator, log10_ratio
from .mle import SearchSpec, log10_lr, maximize, polish
from .model import (
    HD,
    HP,
    Genotype,
    GenotypeSet,
    MassParams,
    ModelConfig,
    ParamSpace,
    Peak,
    Profile,
    Proposition,
    expected_heights,
)

TRUE_DONOR = "TRUE_DONOR"
NONDONOR_RANDOM = "NONDONOR_RANDOM"
NONDONOR_RESAMPLED = "NONDONOR_RESAMPLED"

ENGINE_MLE = "MLE"
ENGINE_INT = "INT"

RANDOM = "RANDOM"
RESAMPLED = "RESAMPLED"


@dataclass(frozen=True)
class TrueScenario:
    """Ground truth for one simulated mixture."""

    genotypes: tuple[Mapping[str, Genotype], ...]  # per contributor, locus -> Genotype
    params: MassParams  # the true M0
    analytical_threshold: float
    seed: int

    @property
    def noc(self) -> int:
        return len(self.genotypes)

    def __post_init__(self):
        if len(self.genotypes) != len(self.params.templates):
            raise ValueError("one template per true contributor required")
        if all(t == 0 for t in self.params.templates):
            raise ValueError("at least one true template must be positive")


@dataclass(frozen=True)
class LrRecord:
    """One engine's verdict on one candidate POI against one simulated case."""

    case_id: int
    donor_label: str
    engine: str
    log10_lr: Optional[float]  # None encodes an exclusion (LR = 0)
    c2_hp: Optional[float] = None
    c2_hd: Optional[float] = None
    mixprop_divergence: Optional[float] = None
    # converged: both MLE fits, or both INT marginals, converged. MLE only:
    # parameter points the Hp and the Hd fit evaluated; either fitted c2 on
    # a face of its box
    converged: Optional[bool] = None
    function_evals: Optional[int] = None
    c2_on_face: Optional[bool] = None

    @property
    def excluded(self) -> bool:
        return self.log10_lr is None


@dataclass(frozen=True)
class StudyConfig:
    """Shape and budgets of one simulation study."""

    table: FrequencyTable
    noc: int = 2
    n_cases: int = 4
    n_nondonors_per_case: int = 50
    nondonor_mode: str = RESAMPLED
    engines: tuple[str, ...] = (ENGINE_MLE, ENGINE_INT)
    policy: RareAllelePolicy = field(default_factory=RareAllelePolicy.five_over_2n)
    config: ModelConfig = field(default_factory=ModelConfig)
    analytical_threshold: float = 50.0
    template_range: tuple[float, float] = (400.0, 1600.0)
    true_c2_range: tuple[float, float] = (8.0, 20.0)
    prior: PriorSpec = field(default_factory=PriorSpec)
    mc_samples: int = 1500
    n_starts: int = 3

    def __post_init__(self):
        if self.noc < 1 or self.n_cases < 0 or self.n_nondonors_per_case < 0:
            raise ValueError("study sizes must be non-negative, NoC >= 1")
        if self.nondonor_mode not in (RANDOM, RESAMPLED):
            raise ValueError(f"unknown non-donor mode {self.nondonor_mode!r}")
        for e in self.engines:
            if e not in (ENGINE_MLE, ENGINE_INT):
                raise ValueError(f"unknown engine {e!r}")


def _locus_sampler(table: FrequencyTable, locus: str):
    alleles = list(table.frequencies[locus])
    p = np.array([table.frequencies[locus][a] for a in alleles])
    p = p / p.sum()
    return alleles, p


def sample_genotypes(table: FrequencyTable, rng: np.random.Generator) -> dict[str, Genotype]:
    """One multi-locus genotype drawn from the frequency table."""
    out = {}
    for locus in table.loci():
        alleles, p = _locus_sampler(table, locus)
        pair = rng.choice(len(alleles), size=2, p=p)
        out[locus] = Genotype(alleles[pair[0]], alleles[pair[1]])
    return out


def simulate_profile(scenario: TrueScenario, config: Optional[ModelConfig] = None) -> Profile:
    """Run the peak-height model generatively: O = E * 10^z, z ~ N(0, c2/E).

    Peaks falling below the analytical threshold are discarded (dropout).
    Deterministic per scenario seed.
    """
    config = config or ModelConfig()
    config.validate_params(scenario.params)
    rng = np.random.default_rng(scenario.seed)
    loci: dict[str, list[Peak]] = {}
    locus_names = sorted({l for g in scenario.genotypes for l in g})
    for locus in locus_names:
        gset = GenotypeSet([g[locus] for g in scenario.genotypes])
        universe: list[str] = []
        for g in scenario.genotypes:
            for a in g[locus].alleles:
                if a not in universe:
                    universe.append(a)
        expected = expected_heights(gset, scenario.params, locus, universe)
        peaks = []
        c2 = scenario.params.variance_c2
        for a in universe:
            e = expected[a]
            if e <= 0:
                continue
            z = rng.normal(0.0, math.sqrt(c2 / e))
            o = e * 10.0**z
            if o >= scenario.analytical_threshold:
                peaks.append(Peak(a, o))
        if peaks:
            loci[locus] = peaks
    return Profile(loci, scenario.analytical_threshold)


def gen_nondonor(
    mode: str,
    table: FrequencyTable,
    true_donors: Sequence[Mapping[str, Genotype]],
    rng: np.random.Generator,
) -> dict[str, Genotype]:
    """A non-donor genotype: database-random, or resampled from donor alleles.

    RESAMPLED draws each locus's two alleles uniformly with replacement
    from the pooled true-donor alleles there, deliberately inflating the
    allele-sharing rate.
    """
    if mode == RANDOM:
        return sample_genotypes(table, rng)
    if mode != RESAMPLED:
        raise ValueError(f"unknown non-donor mode {mode!r}")
    if not true_donors:
        raise ValueError("RESAMPLED needs true donor genotypes")
    out = {}
    for locus in table.loci():
        pool = [a for g in true_donors for a in g[locus].alleles]
        pair = rng.choice(len(pool), size=2)
        out[locus] = Genotype(pool[pair[0]], pool[pair[1]])
    return out


def _hp_proposition(noc: int, poi: Mapping[str, Genotype]) -> Proposition:
    return Proposition(noc=noc, fixed_contributors={0: dict(poi)}, label=HP)


def _mle_record(case_id: int, donor_label: str, res_p, res_d) -> LrRecord:
    l = log10_lr(res_p, res_d)
    if l == NEG_INF:
        # structural exclusion: there is no Hp fit to diagnose
        return LrRecord(case_id, donor_label, ENGINE_MLE, None)
    props_p = res_p.params.mixture_proportions
    props_d = res_d.params.mixture_proportions
    return LrRecord(
        case_id=case_id,
        donor_label=donor_label,
        engine=ENGINE_MLE,
        log10_lr=float(l),
        c2_hp=res_p.params.variance_c2,
        c2_hd=res_d.params.variance_c2,
        mixprop_divergence=max(abs(a - b) for a, b in zip(sorted(props_p), sorted(props_d))),
        converged=res_p.converged and res_d.converged,
        function_evals=res_p.function_evals + res_d.function_evals,
        c2_on_face=any(f in r.faces for r in (res_p, res_d) for f in ("c2_lo", "c2_hi")),
    )


def _int_record(case_id: int, donor_label: str, int_p, int_d) -> LrRecord:
    l = log10_ratio(int_p.log10_marginal, int_d.log10_marginal)
    return LrRecord(
        case_id=case_id,
        donor_label=donor_label,
        engine=ENGINE_INT,
        log10_lr=None if l == NEG_INF else l,
        converged=int_p.converged and int_d.converged,
    )


def run_study(cfg: StudyConfig, seed: int = 0) -> list[LrRecord]:
    """Simulate cases and score every candidate POI with every engine.

    Per case the Hd work (fit or marginal) is done once and shared across
    candidates; the Hd optimum also warm-starts each Hp fit. Each
    proposition's genotype sets are enumerated and wrapped in an evaluator
    once, and both engines score it through that evaluator. A case lists
    its MLE records before its INT records. An exception from either
    engine propagates and ends the study; a structural exclusion is not a
    failure but a record with no LR.
    """
    records: list[LrRecord] = []
    root = np.random.SeedSequence(seed)
    case_seeds = root.spawn(cfg.n_cases)
    for case_id in range(cfg.n_cases):
        sim_seq, nd_seq, eng_seq = case_seeds[case_id].spawn(3)
        rng = np.random.default_rng(sim_seq)
        donors = tuple(sample_genotypes(cfg.table, rng) for _ in range(cfg.noc))
        templates = tuple(rng.uniform(*cfg.template_range, size=cfg.noc))
        true_c2 = float(rng.uniform(*cfg.true_c2_range))
        scenario = TrueScenario(
            genotypes=donors,
            params=MassParams(templates=templates, variance_c2=true_c2),
            analytical_threshold=cfg.analytical_threshold,
            seed=int(rng.integers(2**63)),
        )
        profile = simulate_profile(scenario, cfg.config)
        if not profile.loci:
            continue  # total dropout; nothing to score

        nd_rng = np.random.default_rng(nd_seq)
        label = NONDONOR_RANDOM if cfg.nondonor_mode == RANDOM else NONDONOR_RESAMPLED
        candidates = [(TRUE_DONOR, donors[0])] + [
            (label, gen_nondonor(cfg.nondonor_mode, cfg.table, donors, nd_rng))
            for _ in range(cfg.n_nondonors_per_case)
        ]
        hd = Proposition(noc=cfg.noc, label=HD)
        hps = [_hp_proposition(cfg.noc, poi) for _, poi in candidates]
        engine_seeds = {e: s for e, s in zip(cfg.engines, eng_seq.spawn(len(cfg.engines)))}

        def evaluator(prop):
            return build_evaluator(profile, prop, cfg.table, cfg.policy, cfg.config)

        # the true donor's Hp evaluator also serves the MLE Hd probe
        ev_d, ev_donor = evaluator(hd), evaluator(hps[0])

        if ENGINE_MLE in cfg.engines:
            # the study's box, so the engines differ only in maximising
            # versus integrating over it
            search = SearchSpec(
                **asdict(cfg.prior),
                n_starts=cfg.n_starts,
                seed=int(np.random.default_rng(engine_seeds[ENGINE_MLE]).integers(2**31)),
            )
            res_d = maximize(
                profile, hd, cfg.table, cfg.policy, cfg.config, search, evaluator=ev_d
            )
            # per-candidate Hp fits trade tolerance for speed: the study needs
            # directional statistics, not 1e-6 optima; the Hd optimum warm-starts
            # every candidate, and the iteration budget grows with the
            # dimension of the template space
            warm = replace(
                search,
                n_starts=1,
                xtol=1e-4,
                max_iter=150 * cfg.noc,
                boundary_passes=False,
                extra_starts=(res_d.params,),
            )
            # every candidate's LR shares this denominator, so guard against
            # a boundary-trapped Hd optimum: probe the profile through the
            # true donor's Hp fit and re-polish Hd from that point, which
            # can only raise the Hd maximum. The probe is the donor's own
            # fit unless Hd moves.
            donor_fit = maximize(
                profile, hps[0], cfg.table, cfg.policy, cfg.config, warm,
                evaluator=ev_donor,
            )
            if donor_fit.log10_max > NEG_INF:
                polished = polish(
                    res_d, donor_fit.params, profile, hd, cfg.table, cfg.policy,
                    cfg.config, search, ev_d,
                )
                if polished is not res_d:
                    res_d = polished
                    warm = replace(warm, extra_starts=(res_d.params,))
                    donor_fit = None

        if ENGINE_INT in cfg.engines:
            # every hypothesis in a case is scored by the same estimator, so
            # its error largely cancels in the ratio: the same full-mesh
            # midpoint sum when the prior is low-dimensional (each side
            # evaluates one point per orbit of its unknowns, which leaves
            # the sum unchanged), common-random-number sampling otherwise
            ndim = ParamSpace(cfg.noc, cfg.config, cfg.prior).ndim
            mc_seed = int(np.random.default_rng(engine_seeds[ENGINE_INT]).integers(2**31))
            use_grid = ndim <= MAX_QUADRATURE_DIMS
            resolution = max(4, round(cfg.mc_samples ** (1.0 / ndim)))

            def int_marginal(prop, ev):
                if use_grid:
                    return marginal_quadrature(
                        profile, prop, cfg.table, cfg.policy, cfg.config,
                        cfg.prior, resolution=resolution, max_levels=1, evaluator=ev,
                    )
                return marginal_monte_carlo(
                    profile, prop, cfg.table, cfg.policy, cfg.config,
                    cfg.prior, n_samples=cfg.mc_samples, seed=mc_seed, evaluator=ev,
                )

            int_d = int_marginal(hd, ev_d)

        # one candidate's evaluator at a time, so memory does not grow with
        # the number of candidates
        mle_records, int_records = [], []
        for i, ((donor_label, _), hp) in enumerate(zip(candidates, hps)):
            ev_p = ev_donor if i == 0 else evaluator(hp)
            if ENGINE_MLE in cfg.engines:
                res_p = donor_fit if i == 0 and donor_fit is not None else maximize(
                    profile, hp, cfg.table, cfg.policy, cfg.config, warm, evaluator=ev_p
                )
                mle_records.append(_mle_record(case_id, donor_label, res_p, res_d))
            if ENGINE_INT in cfg.engines:
                int_records.append(
                    _int_record(case_id, donor_label, int_marginal(hp, ev_p), int_d)
                )
        records += mle_records + int_records
    return records


def divergence_summary(records: Sequence[LrRecord]) -> dict:
    """Fractions, quantiles, and fitted-parameter diagnostics per engine/label.

    An exclusion counts in fraction_excluded and never as LR > 1; the
    quantiles cover finite log10 LRs only. Groups whose records say whether
    they converged count the records whose fits or marginals did not
    (n_nonconverged); groups of MLE records also count those with a fitted
    c2 on a face of its box (n_c2_on_face).
    """
    out: dict = {"groups": {}, "paired": {}}
    groups: dict[tuple[str, str], list[LrRecord]] = {}
    for r in records:
        groups.setdefault((r.engine, r.donor_label), []).append(r)
    for (engine, label), rs in sorted(groups.items()):
        finite = [r.log10_lr for r in rs if r.log10_lr is not None and math.isfinite(r.log10_lr)]
        n = len(rs)
        entry = {
            "n": n,
            "fraction_lr_gt_1": sum(1 for r in rs if r.log10_lr is not None and r.log10_lr > 0)
            / n,
            "fraction_excluded": sum(1 for r in rs if r.excluded) / n,
            "log10_lr_quantiles": (
                [float(q) for q in np.quantile(finite, [0.25, 0.5, 0.75])] if finite else None
            ),
        }
        c2_pairs = [
            (r.c2_hp, r.c2_hd) for r in rs if r.c2_hp is not None and r.c2_hd is not None
        ]
        if c2_pairs:
            diffs = [a - b for a, b in c2_pairs]
            ratios = [a / b for a, b in c2_pairs if b > 0]
            entry["median_c2_hp_minus_hd"] = float(np.median(diffs))
            entry["max_c2_ratio"] = float(max(ratios)) if ratios else None
        fits = [r for r in rs if r.converged is not None]
        if fits:
            entry["n_nonconverged"] = sum(1 for r in fits if not r.converged)
        faces = [r for r in rs if r.c2_on_face is not None]
        if faces:
            entry["n_c2_on_face"] = sum(1 for r in faces if r.c2_on_face)
        divs = [r.mixprop_divergence for r in rs if r.mixprop_divergence is not None]
        if divs:
            entry["median_mixprop_divergence"] = float(np.median(divs))
        out["groups"][f"{engine}/{label}"] = entry

    # paired MLE-minus-INT deltas per candidate, non-donors only
    by_key: dict[tuple, dict[str, Optional[float]]] = {}
    nondonor = [r for r in records if r.donor_label != TRUE_DONOR]
    order: dict[tuple[int, str], int] = {}
    for r in nondonor:
        k = (r.case_id, r.engine)
        order[k] = order.get(k, 0)
        by_key.setdefault((r.case_id, order[k]), {})[r.engine] = r.log10_lr
        order[k] += 1
    deltas = [
        d[ENGINE_MLE] - d[ENGINE_INT]
        for d in by_key.values()
        if d.get(ENGINE_MLE) is not None and d.get(ENGINE_INT) is not None
        and math.isfinite(d[ENGINE_MLE]) and math.isfinite(d[ENGINE_INT])
    ]
    if deltas:
        out["paired"]["n_nondonor_pairs"] = len(deltas)
        out["paired"]["median_log10_lr_ml_minus_int"] = float(np.median(deltas))
    return out
