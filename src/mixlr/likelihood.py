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
added one position at a time in position order. Each element goes through
the same floating-point operations as it would in a kernel that scores
every set on its own and sums its position terms, so sharing rows changes
no result, bit for bit.

On a mesh the rule extends from sets to points. A caller that passes each
point's integer cells (`MixtureEvaluator.marginal_log10`'s `cells`, one
column per array-valued argument; the quadrature passes its mesh indices)
promises that points with the same cell in a column have the same value
there. A row's term reads only some of those columns: the templates with a
copy in its own or its stutter sources' vectors, and c2, the slope and the
stutter proportions where they are arrays and the row depends on them.
Rows that read the same columns form a group, and a group whose columns
have few enough combinations for the call's points is scored once per
combination, at one point of each, over the whole call; each point then
takes its group's term by its combination. The other rows are scored per
point, as without cells. Which rows form which group depends only on which
of c2, the slope and the stutter proportions are arrays, so each evaluator
works its groups and its gather order out once per such pattern and keeps
them; a call only counts the codes, picks the groups that pay and scores
their tables. The bits hold because the term of
a row at a point is the same sequence of operations on the same values:
a template the row does not read enters its expectation as 0 * t, which is
exactly 0 for a finite t, a stutter term it does not read as prop * 0, and a slope it
does not read as slope**0 = 1, so the representative's other values cannot
reach the result; and the cube decodes each axis elementwise, so equal
cells give equal values.

The rows scored per point are scored for several chunks of points in one
pass, as long as the pass's temporaries stay small, so the fixed cost of
its numpy calls is paid once per block of chunks; each chunk then gathers
its own slice of the terms. An element's term does not depend on which
pass computes it.

The per-set sums stay a (sets, batch) block, so the steps over the batch
run along its long contiguous axis; the locus evaluator returns the block
as its (batch, sets) transposed view. The marginal adds the log priors in
place and reduces over sets: the max, exact in any order, along the longer
axis of the block, and the sum of exponentials so that each point's sets
are summed in numpy's order for one row of them. A block with no fewer
points than sets is summed along its batch axis, one row operation per
step of that order; a narrower one over a (batch, sets)-contiguous copy,
by numpy itself. Neither sum depends on the batch size or on chunking.

The density is the normal law of log10(O/E) with mean 0 and variance
c2/E, taken in log-ratio space (no Jacobian back to height space); allelic
and stutter peaks share the one c2. A structural exclusion is the ordinary
float -inf in log10 space and is a legal value end to end.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.special import log_ndtr, ndtr

from .genotypes import (
    FrequencyTable,
    LocusSets,
    RareAllelePolicy,
    WeightedGenotypeSet,
    enumerate_sets,
)
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


def lr_from_log10(l: float) -> float:
    """A likelihood ratio from its log10: 0 for an exclusion (-inf), and
    inf where 10**l is beyond the float range."""
    if l == NEG_INF:
        return 0.0
    try:
        return 10.0**l
    except OverflowError:
        return math.inf


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


def log10sumexp(values: np.ndarray) -> float:
    """Stable log10 of a sum of 10**values."""
    values = np.asarray(values, dtype=float)
    m = np.max(values)
    if m == NEG_INF:
        return NEG_INF
    d = np.maximum(LN10 * (values - m), _MIN_LN)
    return float(m + np.log10(np.sum(np.exp(d))))


def _pairwise_sum_rows(rows: np.ndarray) -> np.ndarray:
    """(batch,) the sum over the first axis of a (n, batch) block, which it
    may overwrite, each column summed in the order numpy's pairwise sum
    takes one contiguous row of n values.

    That order is: below 8 values, one after another; up to 128, eight
    accumulators over the values strided by 8, combined as
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then the tail one after
    another; above 128, the two halves split at a multiple of 8, each summed
    so. Every step here is one row operation over the whole batch.
    """
    n = len(rows)
    if n > 128:
        half = n // 2
        half -= half % 8
        total = _pairwise_sum_rows(rows[:half])
        total += _pairwise_sum_rows(rows[half:])
        return total
    if n < 8:
        total = rows[0]
        for row in rows[1:]:
            total += row
        return total
    whole = n - n % 8
    acc = rows[:8]
    for i in range(8, whole, 8):
        acc += rows[i : i + 8]
    acc[0::2] += acc[1::2]
    acc[0::4] += acc[2::4]
    total = acc[0]
    total += acc[4]
    for row in rows[whole:]:
        total += row
    return total


def _log10sumexp_sets(values: np.ndarray) -> np.ndarray:
    """(batch,) log10 of the sum over sets of 10**values, for (sets, batch)
    values, which it may overwrite.

    A point whose sets are all -inf is -inf, and a NaN among a point's sets
    makes it NaN: only -inf is an exclusion. The max over sets is exact in
    any order, so it and the element-wise steps run along the longer axis
    of the block. Each point's sets are summed in numpy's order for one
    row, whatever the batch size: a wide block (no fewer points than sets)
    is summed along its batch axis in that order (`_pairwise_sum_rows`),
    with no copy; a narrow one, whose short rows would make many small
    steps, by numpy's own row sum over a (batch, sets)-contiguous copy.
    """
    wide = values.shape[1] >= values.shape[0]
    if not wide:
        values = np.ascontiguousarray(values.T)
    m = values.max(axis=0 if wide else 1, keepdims=True)
    excluded = m == NEG_INF
    m[excluded] = 0.0
    values -= m
    values *= LN10
    np.maximum(values, _MIN_LN, out=values)
    np.exp(values, out=values)
    sums = _pairwise_sum_rows(values) if wide else values.sum(axis=1)
    out = m.reshape(-1) + np.log10(sums)
    out[excluded.reshape(-1)] = NEG_INF
    return out


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
# memory per chunk stays bounded at any NoC and any batch size: 2**16
# float64 values, 512 KiB. On a 2-core Xeon with 2 MiB of L2 per core, with
# each chunk's gather freed before the next chunk allocates its own, CPU time
# per point relative to 2**16 (medians of two in-process runs of 5 and 7
# alternations; outputs bit-identical): 2**15 took 1.27-1.31 on the study_3p
# three-person Hd (1728 set-positions) at batch 33 and 336, and 1.08-1.38 on
# the int_2p Hp at batch 16384 and its Hd at batch 8256. 2**17 took 0.88-0.99
# on that Hd and 0.97-1.00 on the int_2p shapes, and 2**18 took 2.0 on the
# int_2p Hp. No larger chunk gains on both workloads, so 2**16 stays. 2**13
# and 2**14 were 55-70% and 13-23% slower per point than 2**15 on the int_2p
# shapes. Those timings scored the per-point rows chunk by chunk; they are
# now scored for a block of chunks at a time (_BLOCK_ELEMENTS), which takes
# part of the per-call cost that made small chunks slow off each chunk.
_CHUNK_ELEMENTS = 1 << 16

# Row terms a row group must save, against scoring it at every point, to be
# scored once per cell combination instead: scoring a group costs one more
# pass of about 25 numpy calls (about 35 us on a 2-core Xeon), while a row
# term costs 10-40 ns, and each chunk then takes the group's terms with one
# more call. Which rows form the groups is worked out once per evaluator,
# so only those passes and takes count against the saving. Below about
# 4096 saved terms, as on int_2p's levels of 16 and 32 points per axis or a
# study's 336-point grid, a group costs more than it saves.
_SHARED_ROW_SAVING = 4096

# Elements in the largest temporary of one pass over the rows scored per
# point, when the pass covers several chunks: 2**14 float64 values, 128 KiB,
# under glibc's default mmap threshold, so the pass's temporaries come from
# the heap rather than from fresh pages.
_BLOCK_ELEMENTS = 1 << 14


class _Rows(NamedTuple):
    """Some of a locus's expectation rows, in ascending order, so the
    observed positions' rows come first."""

    copies: np.ndarray  # (contributors, parts x rows, 1), part by part
    positions: np.ndarray  # (rows,) position of each row
    n_obs: int  # rows at an observed position
    ln_obs: np.ndarray  # (observed rows, 1) ln of the observed heights
    zero_fill: np.ndarray  # (rows, 1) each row's term where its expectation is 0


class _CallRows(NamedTuple):
    """How one call scores a locus's rows.

    `rest` are the rows scored per point; `tables` holds each group scored
    once per combination of its cells, as its (rows, codes) terms with the
    code of every point of the call; `row_index` is the row of each
    (position, live set) in the order [rest, then each table's rows]."""

    rest: _Rows
    tables: list
    row_index: np.ndarray


class _CellCombinations:
    """The combinations of one call's cells over a subset of their columns.

    A column's cells are shifted to start at 0, so a combination's code is
    a mixed-radix number below the product of the columns' spans. Each
    code that occurs is given one of its points; a code that does not
    occur is given point 0, whose table entry no point takes.
    """

    def __init__(self, cells: np.ndarray):
        self.batch = len(cells)
        columns = np.array(cells.T, dtype=np.intp, order="C")
        columns -= columns.min(axis=1, keepdims=True)
        self._columns = columns
        self._spans = [int(s) + 1 for s in columns.max(axis=1)]
        self._found: dict = {}

    def count(self, columns: tuple) -> int:
        """The number of codes of the columns."""
        return math.prod(self._spans[c] for c in columns)

    def find(self, columns: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(a point of each code, each point's code)."""
        if columns not in self._found:
            code = np.zeros(self.batch, dtype=np.intp)
            for c in columns:
                code *= self._spans[c]
                code += self._columns[c]
            first = np.zeros(self.count(columns), dtype=np.intp)
            first[code] = np.arange(self.batch)
            self._found[columns] = first, code
        return self._found[columns]


class LocusEvaluator:
    """Vectorised per-locus likelihood over batches of mass parameters.

    The constructor does, once per locus enumeration, everything that does
    not depend on the parameter point: it keeps only the live genotype sets
    (see `live_sets`), lays out the copy-number tensor with the observed
    positions first, notes which model terms the config and the fragment
    sizes leave neutral, and reduces the tensor to its distinct expectation
    rows. It reads the enumeration's index arrays (`LocusSets`) and makes no
    object per set: a set is live by the positions its slot genotypes carry,
    the copy tensor is one gather, by the live sets' (sets, contributors)
    index, of each slot genotype's copy row, and the other positions follow
    in the order the sets first show their alleles.

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
    added one position at a time in position order into a (live sets,
    batch) array, which is returned as its (batch, live sets) transposed
    view. Every element goes through the
    floating-point operations it would if each set were computed on its own
    and its position terms summed, so the results are those of such a
    per-set kernel, bit for bit; the cost of the transcendental work grows
    with the rows, not with the sets.

    With cells (see the module docstring), a call first groups the rows by
    the cell columns their term reads, from each row's copy vectors, its
    position's size exponent and which of c2, slope, bw and fw are arrays.
    A group is scored once per code of its columns (as many codes as the
    product of their cell spans) over the whole call where that saves at
    least _SHARED_ROW_SAVING row terms against scoring it at every point,
    smallest table first within a budget of max(points, _CHUNK_ELEMENTS)
    elements per locus; a group that reads no column is its zero fill. The
    groups, their row blocks and the gather order are kept on the evaluator
    per pattern of array-valued scalars (`_groups`, `_order`), so a call
    only counts codes, picks groups and scores their tables. Each chunk
    then takes the remaining rows' per-point terms and each grouped row's
    term by its points' codes into one (rows, batch) table, in a row order
    the call's gather index follows. With c2 pinned, an int_2p locus's rows
    that read one template take n values on a level of n**2 or n(n+1)/2
    points. One routine, `_row_terms`, scores rows on both paths, so the
    density and dropout math are written once.

    With or without cells, the rows scored per point are scored in one
    pass for a block of several chunks where the pass's largest temporary
    stays within _BLOCK_ELEMENTS elements, and in one pass per chunk where
    it would not (`_add_log10_marginals`). `set_log10_likelihoods` is still
    called once per chunk, with that chunk's points and terms.

    `copies` (live sets, contributors, positions) and `log10_priors` hold
    the live sets only; `live_sets` maps them back to their index in the
    enumeration.
    """

    def __init__(
        self,
        profile: Profile,
        sets: LocusSets,
        locus: str,
        config: Optional[ModelConfig] = None,
    ):
        config = config or ModelConfig()
        peaks = profile.peaks(locus)
        self.locus = locus
        self.threshold = profile.analytical_threshold
        self.n_contrib = sets.index.shape[1]

        # every allele of the enumeration, observed peaks first, then in the
        # order the sets first show them: the genotypes in the order of
        # their first appearance in the index, each one's alleles in order
        _, first = np.unique(sets.index, return_index=True)
        shown = sets.index.reshape(-1)[np.sort(first)]
        positions: list[str] = [p.allele for p in peaks]
        pos_index = {a: i for i, a in enumerate(positions)}
        for g in shown:
            for a in sets.genotypes[g].alleles:
                if a not in pos_index:
                    pos_index[a] = len(positions)
                    positions.append(a)
        # each slot genotype's copies per position, and (sets, positions):
        # whether any contributor of a set carries an allele there
        genotype_copies = np.zeros((len(sets.genotypes), len(positions)))
        for g in shown:
            for a in sets.genotypes[g].alleles:
                genotype_copies[g, pos_index[a]] += 1.0
        carries = genotype_copies > 0
        carried = carries[sets.index[:, 0]]
        for column in sets.index.T[1:]:
            carried |= carries[column]

        # A peak at a gets expectation from an allelic copy at a, from its
        # back-stutter parent one repeat above, or from its forward-stutter
        # source one repeat below, each only when that stutter is modelled.
        shifts = [d for d, on in ((+1, config.back_stutter), (-1, config.forward_stutter)) if on]
        live = np.ones(len(sets), dtype=bool)
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
        # (contributors, positions, live sets): one gather of the live sets'
        # per-genotype copy rows; no float copies are made for dead sets
        work = np.zeros((self.n_contrib, len(self.positions), len(self.live_sets)))
        work[:, : len(kept)] = genotype_copies[:, kept][sets.index[live]].transpose(1, 2, 0)
        self.copies = work.transpose(2, 0, 1)
        self.log10_priors = np.log10(sets.priors[self.live_sets])
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
        n_rows = len(rows)
        # the row of each (position, live set)
        self._row_index = inverse.reshape(n_pos, n_live)
        self.row_positions = rows[:, 0].astype(int)
        self._n_obs_rows = int(np.searchsorted(self.row_positions, n_obs))
        self._ln_obs = np.log([p.height for p in peaks])[
            self.row_positions[: self._n_obs_rows], None
        ]
        # each row's term where its expectation is 0
        self._zero_fill = np.zeros((n_rows, 1))
        self._zero_fill[: self._n_obs_rows] = NEG_INF
        # (contributors, parts, rows): every row's own copies, then every
        # row's copies at each modelled stutter source
        vectors = rows[:, 1:].reshape(n_rows, n_parts, n_c)
        self._row_copies = np.ascontiguousarray(vectors.transpose(2, 1, 0), dtype=float)

        sizes = {p.allele: p.size for p in peaks if p.size is not None}
        exponent = np.array(
            [(sizes[a] - 100.0) / 100.0 if sizes.get(a) is not None else 0.0
             for a in self.positions]
        )
        self._size_exponent = (
            exponent.reshape(-1, 1) if config.degradation and np.any(exponent) else None
        )
        self._all_rows = _Rows(
            self._row_copies.reshape(n_c, -1, 1),
            self.row_positions,
            self._n_obs_rows,
            self._ln_obs,
            self._zero_fill,
        )
        self._every_row = _CallRows(self._all_rows, [], self._row_index)
        # the mesh plan, made on the calls with cells that first need each
        # part: the row groups per pattern of array-valued scalars (see
        # _groups), and the per-point rows and gather index per choice of
        # groups scored apart (see _order)
        self._plan_groups: dict = {}
        self._plan_orders: dict = {}

    def _read_keys(self) -> np.ndarray:
        """(rows,) the parameter slots each row's term reads, as bits: bit c
        for template c, then c2, slope, bw and fw.

        A row reads a template through a copy of any part, a stutter
        proportion through a copy at its source, and c2 and the slope (where
        its position has a nonzero size exponent) if it reads any template;
        a row with no copy is 0 at every point and reads nothing.
        """
        copied = self._row_copies != 0  # (contributors, parts, rows)
        templates = copied.any(axis=1)
        scored = templates.any(axis=0)
        none = np.zeros_like(scored)
        slope = none if self._size_exponent is None else (
            scored & (self._size_exponent[self.row_positions, 0] != 0)
        )
        sources = iter(copied.any(axis=0)[1:])
        bw, fw = (next(sources) if on else none for on in self._stutter)
        reads = np.vstack([templates, scored, slope, bw, fw]).astype(np.int64)
        return (reads << np.arange(len(reads))[:, None]).sum(axis=0)

    def _rows(self, rows: np.ndarray) -> _Rows:
        """The block of the given rows, which are in ascending order."""
        n_obs = int(np.searchsorted(rows, self._n_obs_rows))
        return _Rows(
            self._row_copies[:, :, rows].reshape(self.n_contrib, -1, 1),
            self.row_positions[rows],
            n_obs,
            self._ln_obs[rows[:n_obs]],
            self._zero_fill[rows],
        )

    def _row_terms(self, rows: _Rows, templates, c2, slope, bw, fw, out: np.ndarray) -> None:
        """The complete log10 term of each of the rows at each point, into
        out, (rows, batch): the peak density on an observed position's row,
        the dropout mass on any other."""
        # (linear terms, batch), summed in contributor order: a sum of three
        # or more templates rounds by its order, and a BLAS matrix product
        # changes that order with the batch size
        copies, positions, n_obs, ln_obs, zero_fill = rows
        columns = np.ascontiguousarray(templates.T)
        lin = copies[0] * columns[0]
        for c in range(1, self.n_contrib):
            lin += copies[c] * columns[c]

        # (rows, batch) expectations; a row whose stutter source is not a
        # position adds prop * 0, which leaves it unchanged
        n_rows = len(positions)
        e = lin[:n_rows]
        props = [prop for prop, on in zip((bw, fw), self._stutter) if on]
        for j, prop in enumerate(props, 1):
            e += prop * lin[j * n_rows : (j + 1) * n_rows]
        if self._size_exponent is not None:
            e *= np.power(slope, self._size_exponent).take(positions, axis=0)

        term = out
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(e, out=term)
            # normal log-density of x = log10(O/E) with variance c2/E:
            # -x^2 E / (2 c2) - ln(2 pi c2) / 2 + ln(E) / 2, in natural logs
            eo, obs = e[:n_obs], term[:n_obs]
            sq = ln_obs - obs
            sq *= sq
            sq *= eo
            sq /= c2 * (LN10 * LN10)
            obs -= np.log(2 * math.pi * c2)
            obs -= sq
            obs /= 2 * LN10
            # dropout mass below the threshold at unobserved positions
            eu, z = e[n_obs:], term[n_obs:]
            np.subtract(self._ln_threshold, z, out=z)
            z *= np.sqrt(eu)
            z /= LN10 * np.sqrt(c2)
            log_ndtr(z, out=z)
            z /= LN10
        # a row with zero expectation: an observed peak there excludes its
        # set, and an unobserved position adds nothing
        np.copyto(term, zero_fill, where=e == 0)

    def _groups(self, arrays: tuple) -> list:
        """(cell columns, rows, row block) of each group of rows that read
        the same cell columns, for calls whose c2, slope, bw and fw are
        arrays where `arrays` says; made on the first such call and kept.

        The cells have a column for each template and for each of those
        scalars that is an array.
        """
        groups = self._plan_groups.get(arrays)
        if groups is None:
            slots = (True,) * self.n_contrib + arrays
            column = np.cumsum(slots) - 1  # the cell column of each array slot
            mask = sum(1 << slot for slot, on in enumerate(slots) if on)
            keys, group_of_row = np.unique(self._read_keys() & mask, return_inverse=True)
            groups = []
            for g, key in enumerate(keys.tolist()):
                rows = np.flatnonzero(group_of_row == g)
                columns = tuple(int(column[slot]) for slot in range(len(slots)) if key >> slot & 1)
                groups.append((columns, rows, self._rows(rows)))
            self._plan_groups[arrays] = groups
        return groups

    def _order(self, arrays: tuple, taken: tuple) -> tuple[_Rows, np.ndarray]:
        """(the rows scored per point, the row of each (position, live set)
        in the order [those rows, then each taken group's rows]) when the
        groups `taken` of `_groups(arrays)` are scored apart; kept."""
        key = arrays, taken
        if key not in self._plan_orders:
            groups = self._groups(arrays)
            grouped = [groups[g][1] for g in taken]
            rest = np.ones(len(self.row_positions), dtype=bool)
            rest[np.concatenate(grouped)] = False
            order = np.concatenate([np.flatnonzero(rest), *grouped])
            rank = np.empty(len(order), dtype=np.intp)
            rank[order] = np.arange(len(order))
            self._plan_orders[key] = self._rows(np.flatnonzero(rest)), rank[self._row_index]
        return self._plan_orders[key]

    def _call_rows(
        self,
        templates: np.ndarray,
        scalars: Sequence[np.ndarray],
        combos: Optional[_CellCombinations],
    ) -> _CallRows:
        """How one call scores this locus's rows.

        scalars are c2, slope, bw and fw as float arrays, each 0-d or one
        value per point. Without cells every row is scored per point. With
        them, a group of `_groups` is scored once per code of its columns
        where that saves at least _SHARED_ROW_SAVING row terms against
        scoring it at every point, smallest table first, while the tables
        fit a budget of max(points, _CHUNK_ELEMENTS) elements per locus; a
        group that reads no column is its zero fill. The other rows are
        scored per point, and come first in the row order.
        """
        if combos is None:
            return self._every_row
        arrays = tuple(v.ndim > 0 for v in scalars)
        groups = self._groups(arrays)
        sizes = [len(rows) * combos.count(columns) for columns, rows, _ in groups]
        budget = max(combos.batch, _CHUNK_ELEMENTS)
        taken = []
        for g in sorted(range(len(groups)), key=sizes.__getitem__):
            if len(groups[g][1]) * combos.batch - sizes[g] < _SHARED_ROW_SAVING:
                continue
            if sizes[g] > budget:
                break
            budget -= sizes[g]
            taken.append(g)
        if not taken:
            return self._every_row
        tables = []
        for g in taken:
            columns, _, block = groups[g]
            first, code = combos.find(columns)
            if columns:
                table = np.empty((len(block.positions), len(first)))
                at_first = (v[first] if v.ndim else v for v in scalars)
                self._row_terms(block, templates[first], *at_first, table)
            else:
                table = block.zero_fill
            tables.append((table, code))
        rest, row_index = self._order(arrays, tuple(taken))
        return _CallRows(rest, tables, row_index)

    def _add_log10_marginals(
        self,
        templates: np.ndarray,
        scalars: Sequence[np.ndarray],
        combos: Optional[_CellCombinations],
        rows: int,
        total: np.ndarray,
    ) -> None:
        """Add each point's log10 marginal over this locus's sets to total,
        in chunks of `rows` points; scalars as for `_call_rows`.

        Each chunk's row terms form one (rows, points) table, which
        `set_log10_likelihoods` gathers and sums. The rows scored per point
        are scored for a block of several chunks in one pass, so the numpy
        calls of a pass are paid once per block, while the pass's
        temporaries stay within _BLOCK_ELEMENTS elements.
        """
        rest, tables, row_index = self._call_rows(templates, scalars, combos)
        n_rest, batch = len(rest.positions), len(templates)
        span = rows * max(1, _BLOCK_ELEMENTS // (rows * max(1, rest.copies.shape[1])))
        for start in range(0, batch, span):
            stop = min(start + span, batch)
            ahead = None
            if n_rest and stop - start > rows:
                block = slice(start, stop)
                ahead = np.empty((n_rest, stop - start))
                self._row_terms(rest, templates[block], *_points(scalars, block), ahead)
            for lo in range(start, stop, rows):
                part = slice(lo, min(lo + rows, stop))
                args = _points(scalars, part)
                term = np.empty((len(self.row_positions), part.stop - lo))
                if ahead is not None:
                    term[:n_rest] = ahead[:, lo - start : part.stop - start]
                elif n_rest:
                    self._row_terms(rest, templates[part], *args, term[:n_rest])
                at = n_rest
                for table, code in tables:
                    np.take(table, code[part], axis=1, out=term[at : at + len(table)], mode="clip")
                    at += len(table)
                per_set = self.set_log10_likelihoods(
                    templates[part], *args, shared=(term, row_index)
                ).T
                per_set += self.log10_priors[:, None]
                total[part] += _log10sumexp_sets(per_set)
                # per_set holds the chunk's whole gather: freed, with the
                # chunk's terms, before the next chunk allocates its own,
                # the gather reuses its pages instead of faulting in fresh
                # ones
                del per_set, term

    def set_log10_likelihoods(
        self,
        templates: np.ndarray,
        c2: np.ndarray,
        slope: np.ndarray,
        bw: np.ndarray,
        fw: np.ndarray,
        shared: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """(batch, live sets) log10 per-set locus likelihoods: the transposed
        view of a (live sets, batch) array. That array is the first position
        of the call's whole (positions, live sets, batch) gather, and keeps
        all of it alive: a caller drops the result before its next call, so
        the next gather reuses the pages instead of taking fresh ones.

        templates has shape (batch, n_contrib); the scalar parameters are
        (batch,) arrays or numbers. Terms of a feature the model config
        disables are not used. Each set's position terms are added one
        position at a time in position order, so a value does not depend
        on the batch size. `shared`, which `MixtureEvaluator.marginal_log10`
        passes, is these points' row terms, already scored, as a (rows,
        batch) table, with the row of each (position, live set) in it.
        """
        if shared is None:
            templates = np.atleast_2d(np.asarray(templates, dtype=float))
            c2, slope, bw, fw = (np.asarray(v, dtype=float) for v in (c2, slope, bw, fw))
            term = np.empty((len(self.row_positions), len(templates)))
            self._row_terms(self._all_rows, templates, c2, slope, bw, fw, term)
            row_index = self._row_index
        else:
            term, row_index = shared

        # gathered to (positions, live sets, batch) and summed one position at
        # a time: numpy's sum would take a (positions, 1, 1) block, one set
        # at batch 1, pairwise
        gathered = term.take(row_index, axis=0)
        total = gathered[0]
        for terms in gathered[1:]:
            total += terms
        return total.T


def _points(scalars: Sequence[np.ndarray], part: slice) -> list:
    """The scalars at the points of `part`: an array's slice, a number as
    it is."""
    return [v[part] if v.ndim else v for v in scalars]


class MixtureEvaluator:
    """Vectorised full-likelihood evaluator across all loci of a profile."""

    def __init__(
        self,
        profile: Profile,
        sets: Mapping[str, LocusSets],
        config: Optional[ModelConfig] = None,
    ):
        config = config or ModelConfig()
        self.profile = profile
        self.evaluators = [
            LocusEvaluator(profile, sets[locus], locus, config=config)
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
        cells: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(batch,) log10 marginal likelihood for a batch of parameter vectors.

        templates is (batch, n_contrib). c2, slope, bw and fw are each a
        number, which holds for every row, or a (batch,) array. The batch
        is evaluated in chunks of rows whose temporaries stay within
        _CHUNK_ELEMENTS elements; a chunk takes its slice of each array.

        cells, when given, is a (batch, k) integer array with a column for
        each template and then for each of c2, slope, bw and fw that is an
        array, in that order; points with the same cell in a column must
        have the same finite value there. A mesh's cell indices are such
        cells. A row group whose term reads few cell combinations for the
        batch is then scored once per combination (see `LocusEvaluator`),
        with the same bits as scoring every point.
        """
        templates = np.atleast_2d(np.asarray(templates, dtype=float))
        batch = templates.shape[0]
        if templates.ndim != 2 or (self.evaluators and templates.shape[1] != self.n_contrib):
            raise ValueError(
                f"templates must be (batch, {self.n_contrib}), got shape {templates.shape}"
            )
        scalars = [np.asarray(v) for v in (c2, slope, bw, fw)]
        for name, v in zip(("c2", "slope", "bw", "fw"), scalars):
            if v.ndim and v.shape != (batch,):
                raise ValueError(
                    f"{name} must be a number or a ({batch},) array, got shape {v.shape}"
                )
        if cells is not None:
            cells = np.asarray(cells)
            want = (batch, templates.shape[1] + sum(v.ndim for v in scalars))
            if cells.dtype.kind not in "iu" or cells.shape != want:
                raise ValueError(
                    f"cells must be an integer array of shape {want}, got "
                    f"{cells.dtype} of shape {cells.shape}"
                )
        if self.excluded:
            return np.full(batch, NEG_INF)
        rows = max(1, _CHUNK_ELEMENTS // max(self._width, 1))
        scalars = [np.asarray(v, dtype=float) for v in scalars]
        combos = _CellCombinations(cells) if cells is not None and batch > 1 else None
        total = np.zeros(batch)
        for ev in self.evaluators:
            ev._add_log10_marginals(templates, scalars, combos, rows, total)
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
