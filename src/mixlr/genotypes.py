"""Genotype-set enumeration under a proposition, Hardy-Weinberg priors,
and the two minimum-allele-probability policies.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Mapping, Optional

import numpy as np

from .model import Q_ALLELE, Genotype, GenotypeSet, ModelConfig, Profile, Proposition, shift_allele

SUM_TOL = 1e-9


class FrequencyTable:
    """Per-locus allele frequencies with database size N and class counts k."""

    def __init__(
        self,
        frequencies: Mapping[str, Mapping[str, float]],
        n_individuals: int,
        n_allele_classes: Optional[Mapping[str, int]] = None,
    ):
        if n_individuals < 1:
            raise ValueError("n_individuals must be >= 1")
        self.n_individuals = int(n_individuals)
        freqs: dict[str, dict[str, float]] = {}
        for locus, table in frequencies.items():
            for allele, f in table.items():
                if not 0 < f < 1:
                    raise ValueError(f"frequency of {locus}:{allele} must be in (0,1), got {f}")
            total = sum(table.values())
            if total > 1 + SUM_TOL:
                raise ValueError(f"frequencies at {locus} sum to {total} > 1")
            freqs[locus] = dict(table)
        self.frequencies = freqs
        if n_allele_classes is None:
            n_allele_classes = {locus: len(t) for locus, t in freqs.items()}
        self.n_allele_classes = dict(n_allele_classes)
        for locus, k in self.n_allele_classes.items():
            if k < 1:
                raise ValueError(f"n_allele_classes at {locus} must be >= 1")

    def loci(self) -> tuple[str, ...]:
        return tuple(self.frequencies)

    def frequency(self, locus: str, allele: str) -> Optional[float]:
        return self.frequencies.get(locus, {}).get(allele)

    def k(self, locus: str) -> int:
        return self.n_allele_classes.get(locus, len(self.frequencies.get(locus, {})) or 1)


@dataclass(frozen=True)
class RareAllelePolicy:
    """Substitute frequency for alleles absent from the database."""

    variant: str  # FIVE_OVER_2N | BETA_MEAN | FIXED
    value: Optional[float] = None

    FIVE_OVER_2N = "FIVE_OVER_2N"
    BETA_MEAN = "BETA_MEAN"
    FIXED = "FIXED"

    def __post_init__(self):
        if self.variant not in (self.FIVE_OVER_2N, self.BETA_MEAN, self.FIXED):
            raise ValueError(f"unknown rare-allele policy {self.variant}")
        if self.variant == self.FIXED:
            if self.value is None or not 0 < self.value < 1:
                raise ValueError("FIXED policy needs a value in (0,1)")

    @classmethod
    def five_over_2n(cls) -> "RareAllelePolicy":
        return cls(cls.FIVE_OVER_2N)

    @classmethod
    def beta_mean(cls) -> "RareAllelePolicy":
        return cls(cls.BETA_MEAN)

    @classmethod
    def fixed(cls, value: float) -> "RareAllelePolicy":
        return cls(cls.FIXED, value)


@dataclass(frozen=True)
class WeightedGenotypeSet:
    """A genotype set together with its prior probability under a proposition."""

    set: GenotypeSet
    prior: float

    def __post_init__(self):
        if not self.prior > 0:
            raise ValueError("genotype-set prior must be > 0")


def rare_allele_probability(policy: RareAllelePolicy, table: FrequencyTable, locus: str) -> float:
    """Probability assigned to a previously unseen allele.

    FIVE_OVER_2N -> 5/(2N); BETA_MEAN -> the Beta posterior mean
    1/(k(2N+1)); FIXED -> the configured value.
    """
    if policy.variant == RareAllelePolicy.FIXED:
        return policy.value
    n = table.n_individuals
    if policy.variant == RareAllelePolicy.FIVE_OVER_2N:
        p = 5.0 / (2 * n)
    else:
        p = 1.0 / (table.k(locus) * (2 * n + 1))
    if p >= 1:
        raise ValueError(f"rare-allele probability {p} >= 1 (database too small)")
    return p


def allele_probability(
    allele: str,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    locus: str,
    q_residual: float = 0.0,
) -> float:
    """Frequency of one allele, substituting the policy value when unseen.

    The aggregate Q allele carries whichever is larger of the residual
    database mass not attributable to the candidate alleles and the policy
    value, so enumerations over rich databases keep a proper product
    measure while a saturated locus still gets the policy floor.
    """
    if allele == Q_ALLELE:
        return max(q_residual, rare_allele_probability(policy, table, locus))
    f = table.frequency(locus, allele)
    if f is None:
        return rare_allele_probability(policy, table, locus)
    return f


def genotype_prior(
    g: Genotype,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    locus: str,
    q_residual: float = 0.0,
) -> float:
    """Hardy-Weinberg prior: p^2 for a homozygote, 2pq for a heterozygote."""
    a, b = g.alleles
    pa = allele_probability(a, table, policy, locus, q_residual)
    if g.is_homozygote:
        return pa * pa
    pb = allele_probability(b, table, policy, locus, q_residual)
    return 2 * pa * pb


def candidate_alleles(
    profile: Profile,
    locus: str,
    config: Optional[ModelConfig] = None,
) -> tuple[str, ...]:
    """Candidate alleles for unknown contributors at a locus.

    Observed alleles plus the aggregate Q; when stutter is modelled, the
    parent positions that could explain an observed peak as stutter join
    the pool.
    """
    observed = list(profile.observed_alleles(locus))
    cands = list(observed)
    if config is not None:
        for a in observed:
            if config.back_stutter:
                parent = shift_allele(a, +1)
                if parent is not None and parent not in cands:
                    cands.append(parent)
            if config.forward_stutter:
                source = shift_allele(a, -1)
                if source is not None and source not in cands:
                    cands.append(source)
    cands.append(Q_ALLELE)
    return tuple(cands)


def q_residual_mass(table: FrequencyTable, locus: str, candidates: Sequence[str]) -> float:
    """Database mass not carried by the (non-Q) candidate alleles."""
    used = 0.0
    for a in candidates:
        if a == Q_ALLELE:
            continue
        f = table.frequency(locus, a)
        if f is not None:
            used += f
    return max(0.0, 1.0 - used)


class LocusSets(Sequence):
    """One locus's genotype sets under a proposition, as index arrays.

    `genotypes` lists the genotypes a contributor slot can take: the
    unknowns' candidate genotypes, then each fixed contributor's genotype.
    `index` (sets, contributors) names each set's genotype per slot, and
    `priors` (sets,) holds each set's prior. The items are
    `WeightedGenotypeSet`s, built on demand for the scalar oracle; the
    batch evaluator reads the arrays.
    """

    def __init__(self, genotypes: Sequence[Genotype], index: np.ndarray, priors: np.ndarray):
        self.genotypes = tuple(genotypes)
        self.index = index
        self.priors = priors

    def __len__(self) -> int:
        return len(self.priors)

    def __getitem__(self, i) -> WeightedGenotypeSet:
        i = operator.index(i)
        gset = GenotypeSet([self.genotypes[g] for g in self.index[i]])
        return WeightedGenotypeSet(gset, float(self.priors[i]))


def enumerate_locus_sets(
    profile: Profile,
    proposition: Proposition,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    locus: str,
    config: Optional[ModelConfig] = None,
) -> LocusSets:
    """All genotype sets for one locus compatible with the proposition.

    Fixed contributors appear verbatim with prior factor 1; unknown
    contributors range over unordered pairs of the candidate alleles with
    Hardy-Weinberg priors. The sets come in `itertools.product` order over
    the unknowns' candidate genotypes, the last unknown varying fastest,
    and a set's prior is the product of its unknowns' genotype priors
    taken in slot order. Priors are not renormalised: for each hypothesis
    they sum to 1 by the product measure (the Q allele absorbs the
    residual frequency mass).
    """
    cands = candidate_alleles(profile, locus, config)
    residual = q_residual_mass(table, locus, cands)
    genotypes = [Genotype(a, b) for a, b in combinations_with_replacement(cands, 2)]
    priors = np.array([genotype_prior(g, table, policy, locus, residual) for g in genotypes])

    unknown = list(proposition.unknown_indices)
    n_sets = len(genotypes) ** len(unknown)
    index = np.empty((n_sets, proposition.noc), dtype=np.intp)
    index[:, unknown] = np.indices((len(genotypes),) * len(unknown)).reshape(-1, n_sets).T
    for idx, multi in sorted(proposition.fixed_contributors.items()):
        if locus not in multi:
            raise ValueError(f"fixed contributor {idx} has no genotype at locus {locus}")
        index[:, idx] = len(genotypes)
        genotypes.append(multi[locus])
    set_priors = np.ones(n_sets)
    for slot in unknown:
        set_priors *= priors[index[:, slot]]
    return LocusSets(genotypes, index, set_priors)


def enumerate_sets(
    profile: Profile,
    proposition: Proposition,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    config: Optional[ModelConfig] = None,
) -> dict[str, LocusSets]:
    """Per-locus genotype-set enumeration for a proposition.

    The profile likelihood factorises over loci given the mass parameters,
    so the enumeration is kept per locus rather than materialising the
    cross-locus Cartesian product.
    """
    return {
        locus: enumerate_locus_sets(profile, proposition, table, policy, locus, config)
        for locus in profile.loci
    }
