"""Peak-height density, dropout mass, per-genotype-set likelihood, and
the genotype-marginalised full likelihood.

Two evaluation paths exist on purpose: plain scalar functions that follow
the model definition term by term, and a vectorised batch evaluator used
by the engines. Tests hold them to 1e-9 relative agreement.

The batch evaluator holds only the live genotype sets of each locus. A
set that leaves an observed peak with no allelic copy, and with no parent
or source allele that an enabled stutter could carry into it, has zero
expectation at that peak for every parameter point: the stutter terms are
then zero, and the degradation factor is always > 0. Its likelihood is
-inf everywhere, so dropping it at construction changes no result; a
locus with no live set excludes every point.

Within a locus the batch evaluator computes each distinct expectation row's
complete log10 term once, not once per (position, set): the peak
log-density on a row at an observed position, the dropout log-mass on any
other. A set's expected height at a position depends on the set only
through the copies each contributor carries there and at the position's
modelled stutter sources, each 0, 1 or 2, so without stutter a position
has at most 3**NoC rows however many sets the locus enumerates. The terms
form one (rows, batch) table; one gather takes each set's rows, which are
summed over positions in position order. Each element goes through the
same floating-point operations as it would in a kernel that scores every
set on its own and sums its position terms, so sharing rows changes no
result, bit for bit.

The density is the normal law of log10(O/E) with mean 0 and variance
c2/E, taken in log-ratio space (no Jacobian back to height space); allelic
and stutter peaks share the one c2. A structural exclusion is the ordinary
float -inf in log10 space and is a legal value end to end.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy.special import log_ndtr, ndtr

from .genotypes import FrequencyTable, RareAllelePolicy, WeightedGenotypeSet, enumerate_sets
from .model import (
    GenotypeSet,
    MassParams,
    ModelConfig,
    Profile,
    Proposition,
    expected_heights,
    shift_allele,
)

LN10 = math.log(10.0)
NEG_INF = float("-inf")


def log10_ratio(num: float, den: float) -> float:
    """log10 of a likelihood ratio from the log10 numerator and denominator.

    A -inf numerator is an exclusion (-inf) whatever the denominator; a
    -inf denominator under a possible numerator gives +inf.
    """
    if num == NEG_INF:
        return NEG_INF
    if den == NEG_INF:
        return math.inf
    return num - den


def peak_density(observed: float, expected: float, c2: float) -> float:
    """Density of an observed peak given its expectation.

    Normal density of log10(O/E) with variance c2/E; an expected height of
    zero makes any observed peak impossible (density 0, not an error).
    """
    if not observed > 0:
        raise ValueError("observed height must be > 0")
    if not c2 > 0:
        raise ValueError("c2 must be > 0")
    if expected <= 0:
        return 0.0
    var = c2 / expected
    x = math.log10(observed / expected)
    return math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)


def dropout_mass(expected: float, threshold: float, c2: float) -> float:
    """Model mass below the analytical threshold for one expected peak."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if not c2 > 0:
        raise ValueError("c2 must be > 0")
    if expected <= 0:
        return 1.0
    z = math.log10(threshold / expected) / math.sqrt(c2 / expected)
    return float(ndtr(z))


# The log10 forms take logs before they divide, and scale by the precision
# E/c2 rather than divide by the variance c2/E, so an expected height down
# to the smallest subnormal gives a finite value instead of overflowing.
def log10_peak_density(observed: float, expected: float, c2: float) -> float:
    if expected <= 0:
        return NEG_INF
    precision = expected / c2
    x = math.log10(observed) - math.log10(expected)
    return (
        -x * x * precision / 2 - 0.5 * (math.log(2 * math.pi * c2) - math.log(expected))
    ) / LN10


def log10_dropout_mass(expected: float, threshold: float, c2: float) -> float:
    if expected <= 0:
        return 0.0
    z = (math.log10(threshold) - math.log10(expected)) * math.sqrt(expected / c2)
    return float(log_ndtr(z)) / LN10


def position_universe(
    genotype_set: GenotypeSet,
    observed: Sequence[str],
    params: MassParams,
) -> list[str]:
    """Allele positions that can carry expectation or observation."""
    universe: list[str] = []

    def add(a: str):
        if a not in universe:
            universe.append(a)

    for a in observed:
        add(a)
    for g in genotype_set:
        for a in g.alleles:
            add(a)
            if params.bw_stutter_prop > 0:
                target = shift_allele(a, -1)
                if target is not None:
                    add(target)
            if params.fw_stutter_prop > 0:
                target = shift_allele(a, +1)
                if target is not None:
                    add(target)
    return universe


def locus_log_likelihood(
    profile: Profile,
    genotype_set: GenotypeSet,
    params: MassParams,
    locus: str,
) -> float:
    """log10 Pr(peaks at one locus | genotype set, mass parameters).

    Observed peaks with positive expectation contribute their density,
    expected-but-absent positions contribute dropout mass, and an observed
    peak with zero expectation is a structural exclusion (-inf).
    """
    peaks = profile.peaks(locus)
    observed = {p.allele: p for p in peaks}
    universe = position_universe(genotype_set, list(observed), params)
    sizes = {p.allele: p.size for p in peaks if p.size is not None}
    expected = expected_heights(genotype_set, params, locus, universe, sizes)

    total = 0.0
    at = profile.analytical_threshold
    for a in universe:
        e = expected[a]
        if a in observed:
            if e <= 0:
                return NEG_INF
            total += log10_peak_density(observed[a].height, e, params.variance_c2)
        elif e > 0:
            total += log10_dropout_mass(e, at, params.variance_c2)
    return total


def set_log_likelihood(
    profile: Profile,
    genotype_sets: Union[GenotypeSet, Mapping[str, GenotypeSet]],
    params: MassParams,
    config: Optional[ModelConfig] = None,
) -> float:
    """log10 profile likelihood for one genotype-set assignment.

    genotype_sets is a per-locus mapping, or a single GenotypeSet for a
    single-locus profile.
    """
    if config is not None:
        config.validate_params(params)
    if isinstance(genotype_sets, GenotypeSet):
        if len(profile.loci) > 1:
            raise ValueError("a bare GenotypeSet only applies to a single-locus profile")
        genotype_sets = {locus: genotype_sets for locus in profile.loci}
    total = 0.0
    for locus in profile.loci:
        if locus not in genotype_sets:
            raise ValueError(f"no genotype set supplied for locus {locus}")
        ll = locus_log_likelihood(profile, genotype_sets[locus], params, locus)
        if ll == NEG_INF:
            return NEG_INF
        total += ll
    return total


# np.exp takes a slow path, up to 100x slower per element, when its result
# is subnormal or underflows to 0 (an exponent below about -708). Clipping
# the exponent at -700 keeps it on the fast path. A clipped term, a -inf one
# included, is then below 1e-304 against the largest term, which is 1, so
# it cannot change the rounded sum.
_MIN_LN = -700.0


def log10sumexp(values: np.ndarray, axis=None) -> np.ndarray:
    """Stable log10 of a sum of 10**values."""
    values = np.asarray(values, dtype=float)
    m = np.max(values, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.maximum(LN10 * (values - m_safe), _MIN_LN)
        s = np.sum(np.exp(d), axis=axis, keepdims=True)
        out = m_safe + np.log10(s)
    out = np.where(np.isfinite(m), out, NEG_INF)
    return np.squeeze(out, axis=axis) if axis is not None else float(out.item())


def full_log10_likelihood(
    profile: Profile,
    weighted_sets: Mapping[str, Sequence[WeightedGenotypeSet]],
    params: MassParams,
    config: Optional[ModelConfig] = None,
) -> float:
    """log10 of the genotype-marginalised likelihood Pr(O) = sum_j Pr(S_j) Pr(O|S_j).

    weighted_sets maps locus -> enumeration for one hypothesis; loci
    factorise given the mass parameters.
    """
    if config is not None:
        config.validate_params(params)
    total = 0.0
    for locus in profile.loci:
        sets = weighted_sets.get(locus)
        if not sets:
            raise ValueError(f"empty genotype-set enumeration at locus {locus}")
        terms = np.array(
            [
                math.log10(ws.prior) + locus_log_likelihood(profile, ws.set, params, locus)
                for ws in sets
            ]
        )
        locus_total = log10sumexp(terms)
        if locus_total == NEG_INF:
            return NEG_INF
        total += locus_total
    return total


def full_likelihood(
    profile: Profile,
    weighted_sets: Mapping[str, Sequence[WeightedGenotypeSet]],
    params: MassParams,
    config: Optional[ModelConfig] = None,
) -> float:
    """Linear-domain genotype-marginalised likelihood."""
    ll = full_log10_likelihood(profile, weighted_sets, params, config)
    return 0.0 if ll == NEG_INF else 10.0**ll


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows in lexicographic order, row of each input row) of a 2-D
    table of small non-negative integers.

    Each row is read as one mixed-radix integer, its first column the most
    significant digit, so a 1-D sort does what np.unique(axis=0) does with a
    much slower sort of whole rows. Where the next digit could overflow
    int64, the codes so far are replaced by their ranks, which keeps their
    order.
    """
    code = np.zeros(len(table), dtype=np.int64)
    bound = 1
    for column in table.T:
        radix = int(column.max(initial=0)) + 1
        if bound * radix >= 1 << 62:
            _, code = np.unique(code, return_inverse=True)
            bound = int(code.max(initial=0)) + 1
        code = code * radix + column
        bound *= radix
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return table[first], inverse.reshape(-1)


# Elements (batch rows x live sets x positions) in one kernel temporary, so
# memory per chunk stays bounded at any NoC and any batch size. 2**15
# float64 values (256 KiB) keep a chunk's temporaries in a core's L2 cache:
# on a 2-core Xeon with 2 MiB of L2 per core this was 20-40% faster per
# point than 2**20 for the 2- and 3-contributor Hd kernels.
_CHUNK_ELEMENTS = 1 << 15


class LocusEvaluator:
    """Vectorised per-locus likelihood over batches of mass parameters.

    The constructor does, once per locus enumeration, everything that does
    not depend on the parameter point: it keeps only the live genotype sets
    (see `live_sets`), lays out the copy-number tensor with the observed
    positions first, notes which model terms the config and the fragment
    sizes leave neutral, and reduces the tensor to its distinct expectation
    rows.

    The expected height of a set at position p is
    deg(p) * (sum_c t_c W[c, p] + bw sum_c t_c W[c, p+1] + fw sum_c t_c W[c, p-1]),
    with a stutter term only where the config models it and its source is a
    position. It depends on the set only through the copy vectors it reads,
    each entry 0, 1 or 2, so sets that read the same vectors at p share one
    row (`row_positions` gives each row's position). A call computes each
    row's complete log10 term into one (rows, batch) table: the peak
    log-density on a row at an observed position (-inf where the expectation
    is 0) and the dropout log-mass on any other (0 where it is 0). One
    gather then takes the row of each (position, set), and the terms are
    summed over positions in position order. Every element goes through the
    floating-point operations it would if each set were computed on its own
    and its position terms summed, so the results are those of such a
    per-set kernel, bit for bit; the cost of the transcendental work grows
    with the rows, not with the sets.

    `copies` (live sets, contributors, positions) and `log10_priors` hold
    the live sets only; `live_sets` maps them back to their index in the
    enumeration.
    """

    def __init__(
        self,
        profile: Profile,
        weighted_sets: Sequence[WeightedGenotypeSet],
        locus: str,
        config: Optional[ModelConfig] = None,
    ):
        config = config or ModelConfig()
        peaks = profile.peaks(locus)
        self.locus = locus
        self.threshold = profile.analytical_threshold
        self.n_contrib = len(weighted_sets[0].set)

        # every allele of the enumeration, observed peaks first
        positions: list[str] = [p.allele for p in peaks]
        pos_index = {a: i for i, a in enumerate(positions)}
        for ws in weighted_sets:
            for g in ws.set:
                for a in g.alleles:
                    if a not in pos_index:
                        pos_index[a] = len(positions)
                        positions.append(a)
        copies = np.zeros((len(weighted_sets), self.n_contrib, len(positions)))
        for s, ws in enumerate(weighted_sets):
            for c, g in enumerate(ws.set):
                for a in g.alleles:
                    copies[s, c, pos_index[a]] += 1.0

        # A peak at a gets expectation from an allelic copy at a, from its
        # back-stutter parent one repeat above, or from its forward-stutter
        # source one repeat below, each only when that stutter is modelled.
        shifts = [d for d, on in ((+1, config.back_stutter), (-1, config.forward_stutter)) if on]
        carried = copies.sum(axis=1) > 0
        live = np.ones(len(weighted_sets), dtype=bool)
        for i, p in enumerate(peaks):
            cover = [i] + [
                pos_index[t]
                for t in (shift_allele(p.allele, d) for d in shifts)
                if t is not None and t in pos_index
            ]
            live &= carried[:, cover].any(axis=1)
        self.live_sets = np.flatnonzero(live)

        # observed positions, the live sets' alleles, and where they stutter to
        n_obs = len(peaks)
        carried_live = carried[live].any(axis=0)
        kept = [j for j in range(len(positions)) if j < n_obs or carried_live[j]]
        self.positions = [positions[j] for j in kept]
        for j in np.flatnonzero(carried_live):
            for d in shifts:
                t = shift_allele(positions[j], -d)
                if t is not None and t not in self.positions:
                    self.positions.append(t)
        # (contributors, positions, live sets)
        work = np.zeros((self.n_contrib, len(self.positions), len(self.live_sets)))
        work[:, : len(kept)] = copies[live][:, :, kept].transpose(1, 2, 0)
        self.copies = work.transpose(2, 0, 1)
        self.log10_priors = np.log10(np.array([weighted_sets[s].prior for s in self.live_sets]))
        self._ln_threshold = math.log(self.threshold)

        index = {a: i for i, a in enumerate(self.positions)}

        def pairs(shift: int):
            """(positions, source positions) for positions whose source is a position."""
            rows = [(i, index[t]) for i, a in enumerate(self.positions)
                    if (t := shift_allele(a, shift)) is not None and t in index]
            return tuple(np.array(col, dtype=int) for col in zip(*rows)) if rows else None

        # One key per (position, set): the position, then the copy vectors
        # its expectation reads, its own and those of each modelled stutter
        # source (zero where the source is not a position). _distinct_rows
        # sorts the keys, so rows come in position order, the observed
        # positions' rows first.
        self._stutter = (config.back_stutter, config.forward_stutter)
        n_parts = 1 + sum(self._stutter)
        n_c = self.n_contrib
        n_pos, n_live = work.shape[1:]
        own = work.transpose(1, 2, 0)  # (positions, live sets, contributors)
        key = np.zeros((n_pos, n_live, 1 + n_parts * n_c), dtype=np.int16)
        key[:, :, 0] = np.arange(n_pos)[:, None]
        key[:, :, 1 : 1 + n_c] = own
        part = 1
        for shift, on in zip((+1, -1), self._stutter):
            if on:
                if (pair := pairs(shift)) is not None:
                    targets, sources = pair
                    key[targets, :, 1 + part * n_c : 1 + (part + 1) * n_c] = own[sources]
                part += 1
        rows, inverse = _distinct_rows(key.reshape(n_pos * n_live, key.shape[2]))
        # the row of each (position, live set)
        self._row_index = inverse.reshape(n_pos, n_live)
        self.row_positions = rows[:, 0].astype(int)
        self._n_obs_rows = int(np.searchsorted(self.row_positions, n_obs))
        self._ln_obs = np.log([p.height for p in peaks])[
            self.row_positions[: self._n_obs_rows], None
        ]
        # (contributors, parts x rows, 1): every row's own copies, then every
        # row's copies at each modelled stutter source
        vectors = rows[:, 1:].reshape(len(rows), n_parts, n_c)
        self._row_copies = np.ascontiguousarray(
            vectors.transpose(2, 1, 0).reshape(n_c, -1), dtype=float
        )[..., None]

        sizes = {p.allele: p.size for p in peaks if p.size is not None}
        exponent = np.array(
            [(sizes[a] - 100.0) / 100.0 if sizes.get(a) is not None else 0.0
             for a in self.positions]
        )
        self._size_exponent = (
            exponent.reshape(-1, 1) if config.degradation and np.any(exponent) else None
        )

    def set_log10_likelihoods(
        self,
        templates: np.ndarray,
        c2: np.ndarray,
        slope: np.ndarray,
        bw: np.ndarray,
        fw: np.ndarray,
    ) -> np.ndarray:
        """(batch, live sets) array of log10 per-set locus likelihoods.

        templates has shape (batch, n_contrib); the scalar parameters are
        (batch,) arrays or numbers. Terms of a feature the model config
        disables are not used.
        """
        templates = np.atleast_2d(np.asarray(templates, dtype=float))
        c2, slope, bw, fw = (np.asarray(v, dtype=float) for v in (c2, slope, bw, fw))

        # (linear terms, batch), summed in contributor order: a sum of three
        # or more templates rounds by its order, and a BLAS matrix product
        # changes that order with the batch size
        copies = self._row_copies
        lin = copies[0] * templates[:, 0]
        for c in range(1, self.n_contrib):
            lin += copies[c] * templates[:, c]

        # (rows, batch) expectations; a row whose stutter source is not a
        # position adds prop * 0, which leaves it unchanged
        n_rows = len(self.row_positions)
        e = lin[:n_rows]
        props = [prop for prop, on in zip((bw, fw), self._stutter) if on]
        for j, prop in enumerate(props, 1):
            e += prop * lin[j * n_rows : (j + 1) * n_rows]
        if self._size_exponent is not None:
            e *= np.power(slope, self._size_exponent).take(self.row_positions, axis=0)

        # (rows, batch) log10 terms: the peak density on the observed rows,
        # the dropout mass on the others
        n_obs_rows = self._n_obs_rows
        term = np.empty_like(e)
        with np.errstate(divide="ignore", invalid="ignore"):
            # normal log-density of x = log10(O/E) with variance c2/E:
            # -x^2 E / (2 c2) - ln(2 pi c2) / 2 + ln(E) / 2, in natural logs
            eo, obs = e[:n_obs_rows], term[:n_obs_rows]
            np.log(eo, out=obs)
            sq = self._ln_obs - obs
            sq *= sq
            sq *= eo
            sq /= c2 * (LN10 * LN10)
            obs -= np.log(2 * math.pi * c2)
            obs -= sq
            obs /= 2 * LN10
            # an observed peak with zero expectation excludes its set
            obs[eo == 0] = NEG_INF
            # dropout mass below the threshold at unobserved positions
            eu, z = e[n_obs_rows:], term[n_obs_rows:]
            np.log(eu, out=z)
            np.subtract(self._ln_threshold, z, out=z)
            z *= np.sqrt(eu)
            z /= LN10 * np.sqrt(c2)
            # a position with no expectation adds nothing
            z[eu == 0] = np.inf
            log_ndtr(z, out=z)
            z /= LN10
        # gathered to (positions, sets, batch) and summed over positions in
        # position order; row-major (batch, sets), so a row's sum over sets
        # runs in one order whatever the batch size
        return np.ascontiguousarray(term.take(self._row_index, axis=0).sum(axis=0).T)


class MixtureEvaluator:
    """Vectorised full-likelihood evaluator across all loci of a profile."""

    def __init__(
        self,
        profile: Profile,
        weighted_sets: Mapping[str, Sequence[WeightedGenotypeSet]],
        config: Optional[ModelConfig] = None,
    ):
        config = config or ModelConfig()
        self.profile = profile
        self.evaluators = [
            LocusEvaluator(profile, weighted_sets[locus], locus, config=config)
            for locus in profile.loci
        ]
        self.n_contrib = self.evaluators[0].n_contrib if self.evaluators else 0
        # a locus with no live set excludes every parameter point
        self.excluded = any(ev.copies.shape[0] == 0 for ev in self.evaluators)
        self._width = max(
            (ev.copies.shape[0] * ev.copies.shape[2] for ev in self.evaluators), default=1
        )

    def marginal_log10(
        self,
        templates: np.ndarray,
        c2,
        slope=1.0,
        bw=0.0,
        fw=0.0,
    ) -> np.ndarray:
        """(batch,) log10 marginal likelihood for a batch of parameter vectors.

        templates is (batch, n_contrib). c2, slope, bw and fw are each a
        number, which holds for every row, or a (batch,) array. The batch
        is evaluated in chunks of rows whose temporaries stay within
        _CHUNK_ELEMENTS elements; a chunk takes its slice of each array.
        """
        templates = np.atleast_2d(np.asarray(templates, dtype=float))
        batch = templates.shape[0]
        if self.excluded:
            return np.full(batch, NEG_INF)
        scalars = [np.asarray(v) for v in (c2, slope, bw, fw)]
        rows = max(1, _CHUNK_ELEMENTS // max(self._width, 1))
        total = np.zeros(batch)
        for lo in range(0, batch, rows):
            part = slice(lo, lo + rows)
            args = [v[part] if v.ndim else v for v in scalars]
            for ev in self.evaluators:
                per_set = ev.set_log10_likelihoods(templates[part], *args)
                total[part] += log10sumexp(ev.log10_priors + per_set, axis=-1)
        return total

    def marginal_log10_params(self, params: MassParams) -> float:
        """Scalar convenience wrapper taking a MassParams."""
        return float(
            self.marginal_log10(
                np.array([params.templates]),
                params.variance_c2,
                params.degradation_slope,
                params.bw_stutter_prop,
                params.fw_stutter_prop,
            )[0]
        )


def build_evaluator(
    profile: Profile,
    proposition: Proposition,
    table: FrequencyTable,
    policy: RareAllelePolicy,
    config: Optional[ModelConfig] = None,
) -> MixtureEvaluator:
    """Enumerate genotype sets for the proposition and wrap them for batch evaluation."""
    config = config or ModelConfig()
    sets = enumerate_sets(profile, proposition, table, policy, config)
    return MixtureEvaluator(profile, sets, config)
