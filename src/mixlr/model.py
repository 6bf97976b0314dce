"""Core domain types: profiles, genotypes, propositions, mass parameters,
the expected-peak-height model, and the parameter box both engines explore.

`ParamBox` is the one description of the box of mass parameters: the MLE
engine maximises over it and the INT engine integrates over it.
`ParamSpace` lays the box's free dimensions out as a unit cube, with one
map each way, so the two engines cannot drift onto different boxes.

All types are immutable after construction and safe to share across
workers; every operation here is a pure function.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Mapping, Optional, Sequence

import numpy as np

# Reserved label for the aggregated unobserved allele. It may appear in
# genotype hypotheses but never as an observed peak.
Q_ALLELE = "Q"

HP = "Hp"
HD = "Hd"

_NUMERIC_LABEL = re.compile(r"^(\d+)(\.\d+)?$")


def shift_allele(label: str, repeats: int) -> Optional[str]:
    """Shift an allele label by a whole number of repeat units.

    Numeric labels ("12", "13.2") shift on their integer part; anything
    else (toy labels "A"/"B", the Q allele) has no repeat structure and
    returns None.
    """
    m = _NUMERIC_LABEL.match(label)
    if m is None:
        return None
    base = int(m.group(1)) + repeats
    if base <= 0:
        return None
    return f"{base}{m.group(2) or ''}"


@dataclass(frozen=True)
class Peak:
    """One observed peak: allele label, height in rfu, optional fragment size."""

    allele: str
    height: float
    size: Optional[float] = None

    def __post_init__(self):
        if not self.allele:
            raise ValueError("empty allele label")
        if self.allele == Q_ALLELE:
            raise ValueError("the reserved allele 'Q' cannot be observed")
        if not 0 < self.height < math.inf:
            raise ValueError(f"peak height must be positive and finite, got {self.height}")
        if self.size is not None and not 0 < self.size < math.inf:
            raise ValueError(f"fragment size must be positive and finite, got {self.size}")


class Profile:
    """Observed evidence profile: per-locus peak lists plus an analytical threshold."""

    def __init__(self, loci: Mapping[str, Sequence[Peak]], analytical_threshold: float):
        if not analytical_threshold > 0:
            raise ValueError("analytical threshold must be positive")
        clean: dict[str, tuple[Peak, ...]] = {}
        for locus, peaks in loci.items():
            peaks = tuple(peaks)
            labels = [p.allele for p in peaks]
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate allele labels at locus {locus}")
            for p in peaks:
                if p.height < analytical_threshold:
                    raise ValueError(
                        f"peak {locus}:{p.allele} at {p.height} rfu is below "
                        f"the analytical threshold {analytical_threshold}"
                    )
            clean[locus] = peaks
        self.loci: Mapping[str, tuple[Peak, ...]] = clean
        self.analytical_threshold = float(analytical_threshold)

    def peaks(self, locus: str) -> tuple[Peak, ...]:
        return self.loci.get(locus, ())

    def observed_alleles(self, locus: str) -> tuple[str, ...]:
        return tuple(p.allele for p in self.peaks(locus))

    def __repr__(self):
        n = sum(len(v) for v in self.loci.values())
        return f"Profile({len(self.loci)} loci, {n} peaks, AT={self.analytical_threshold})"


@dataclass(frozen=True)
class Genotype:
    """Unordered pair of allele labels; a homozygote repeats its label."""

    alleles: tuple[str, str]

    def __init__(self, a: str, b: str):
        if not a or not b:
            raise ValueError("empty allele label in genotype")
        object.__setattr__(self, "alleles", (a, b) if a <= b else (b, a))

    def copies(self, allele: str) -> int:
        return (self.alleles[0] == allele) + (self.alleles[1] == allele)

    @property
    def is_homozygote(self) -> bool:
        return self.alleles[0] == self.alleles[1]

    def __repr__(self):
        return f"Genotype({self.alleles[0]},{self.alleles[1]})"


@dataclass(frozen=True)
class GenotypeSet:
    """Ordered per-contributor genotype assignment at one locus."""

    contributors: tuple[Genotype, ...]

    def __init__(self, contributors: Sequence[Genotype]):
        object.__setattr__(self, "contributors", tuple(contributors))
        if not self.contributors:
            raise ValueError("genotype set needs at least one contributor")

    def __len__(self):
        return len(self.contributors)

    def __iter__(self):
        return iter(self.contributors)


@dataclass(frozen=True)
class Proposition:
    """A proposition: number of contributors and any fixed (conditioned) genotypes.

    fixed_contributors maps contributor slot -> multi-locus genotype
    (locus -> Genotype), e.g. the POI under Hp or a conditioned victim profile.
    """

    noc: int
    fixed_contributors: Mapping[int, Mapping[str, Genotype]] = field(default_factory=dict)
    label: str = HD

    def __post_init__(self):
        if self.noc < 1:
            raise ValueError("NoC must be >= 1")
        if len(self.fixed_contributors) > self.noc:
            raise ValueError("more fixed contributors than NoC")
        for idx in self.fixed_contributors:
            if not 0 <= idx < self.noc:
                raise ValueError(f"fixed contributor index {idx} out of range for NoC={self.noc}")
        object.__setattr__(
            self, "fixed_contributors", {k: dict(v) for k, v in self.fixed_contributors.items()}
        )

    @property
    def unknown_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.noc) if i not in self.fixed_contributors)


@dataclass(frozen=True)
class MassParams:
    """The continuous nuisance parameters of the peak-height model.

    Canonical storage is per-contributor template (rfu); mixture
    proportions are derived. variance_c2 is the c2 constant of the
    log-normal peak model, shared by allelic and stutter peaks.
    """

    templates: tuple[float, ...]
    variance_c2: float
    degradation_slope: float = 1.0
    bw_stutter_prop: float = 0.0
    fw_stutter_prop: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "templates", tuple(float(t) for t in self.templates))
        if not all(0 <= t < math.inf for t in self.templates):
            raise ValueError(f"templates must be finite and >= 0, got {self.templates}")
        if not 0 < self.variance_c2 < math.inf:
            raise ValueError(f"variance_c2 must be finite and > 0, got {self.variance_c2}")
        if not 0 < self.degradation_slope <= 1:
            raise ValueError("degradation_slope must be in (0, 1]")
        for name in ("bw_stutter_prop", "fw_stutter_prop"):
            v = getattr(self, name)
            if not 0 <= v <= 0.3:
                raise ValueError(f"{name} must be in [0, 0.3]")

    @property
    def total_template(self) -> float:
        return sum(self.templates)

    @property
    def mixture_proportions(self) -> tuple[float, ...]:
        tot = self.total_template
        if tot == 0:
            return tuple(0.0 for _ in self.templates)
        return tuple(t / tot for t in self.templates)


@dataclass(frozen=True)
class ModelConfig:
    """Feature toggles for the peak-height model.

    A disabled feature requires the corresponding MassParams field at its
    neutral value (stutter proportion 0, slope 1).
    """

    back_stutter: bool = False
    forward_stutter: bool = False
    degradation: bool = False

    def __post_init__(self):
        for f in fields(self):
            if not isinstance(getattr(self, f.name), bool):
                raise TypeError(f"{f.name} must be true or false, got {getattr(self, f.name)!r}")

    def validate_params(self, params: MassParams) -> None:
        if not self.back_stutter and params.bw_stutter_prop != 0:
            raise ValueError("back stutter disabled but bw_stutter_prop != 0")
        if not self.forward_stutter and params.fw_stutter_prop != 0:
            raise ValueError("forward stutter disabled but fw_stutter_prop != 0")
        if not self.degradation and params.degradation_slope != 1:
            raise ValueError("degradation disabled but slope != 1")


@dataclass(frozen=True)
class ParamBox:
    """The box of mass parameters both engines explore.

    Templates range over [0, template_hi] per contributor. c2 is pinned at
    `c2`, or free over c2_bounds, uniformly in log c2. The degradation
    slope ranges over slope_bounds and each stutter proportion over
    [0, stutter_hi], each only when the model config enables the feature.
    The MLE engine maximises over the box; the INT engine integrates over
    it with independent uniform priors on these scales.
    """

    template_hi: float = 30000.0
    c2: Optional[float] = None  # pinned value; None leaves c2 free
    c2_bounds: tuple[float, float] = (2.0, 50.0)
    slope_bounds: tuple[float, float] = (0.5, 1.0)
    stutter_hi: float = 0.3

    def __post_init__(self):
        if not 0 < self.template_hi < math.inf:
            raise ValueError(f"template_hi must be positive and finite, got {self.template_hi}")
        if self.c2 is not None and not 0 < self.c2 < math.inf:
            raise ValueError(f"a pinned c2 must be positive and finite, got {self.c2}")
        if not 0 < self.stutter_hi <= 0.3:
            raise ValueError(f"stutter_hi must be in (0, 0.3], got {self.stutter_hi}")
        for lo, hi in (self.c2_bounds, self.slope_bounds):
            if not (0 < lo < hi and math.isfinite(hi)):
                raise ValueError("box bounds must be finite and ordered")
        # a pair read from JSON is a list; as a tuple the box is hashable
        object.__setattr__(self, "c2_bounds", tuple(self.c2_bounds))
        object.__setattr__(self, "slope_bounds", tuple(self.slope_bounds))


class ParamSpace:
    """The free dimensions of a ParamBox under a model config, as a unit cube.

    The axes are every template, in contributor order, then the scalars: c2
    when the box leaves it free, then the slope and the back and forward
    stutter proportions when the config enables them; `axes` names them
    ("template<i>", "c2", "slope", "bw", "fw"). Every axis is affine in the
    cube except c2, which is affine in log c2. A template axis at 0 decodes
    to exactly 0.
    """

    def __init__(self, noc: int, config: ModelConfig, box: ParamBox):
        self.noc = noc
        self.box = box
        ranges = {
            "c2": (math.log(box.c2_bounds[0]), math.log(box.c2_bounds[1])),
            "slope": box.slope_bounds,
            "bw": (0.0, box.stutter_hi),
            "fw": (0.0, box.stutter_hi),
        }
        active = {
            "c2": box.c2 is None,
            "slope": config.degradation,
            "bw": config.back_stutter,
            "fw": config.forward_stutter,
        }
        self.scalars = [name for name, on in active.items() if on]
        self.axes = [f"template{i}" for i in range(noc)] + self.scalars
        # each scalar's pinned or neutral value, used where it has no axis
        self._fixed = list(zip(active.values(), (box.c2, 1.0, 0.0, 0.0)))
        bounds = [(0.0, box.template_hi)] * noc + [ranges[name] for name in self.scalars]
        self.ndim = len(bounds)
        lo, hi = np.array(bounds, dtype=float).reshape(-1, 2).T
        self._lo = lo
        self._span = hi - lo

    def from_cube(self, u: np.ndarray):
        """(batch, ndim) cube points -> (templates, c2, slope, bw, fw).

        templates is (batch, noc). A scalar with an axis is a (batch,)
        array; one without is its pinned or neutral value as a float.
        """
        x = self._lo + u * self._span
        cols = iter(x.T[self.noc :])
        c2, *rest = (next(cols) if on else value for on, value in self._fixed)
        if self.box.c2 is None:
            # exp(log(b)) need not be b: a face of the cube decodes to its
            # bound exactly
            c2 = np.exp(c2)
            u_c2 = u[:, self.noc]
            c2[u_c2 == 0.0], c2[u_c2 == 1.0] = self.box.c2_bounds
        return (x[:, : self.noc], c2, *rest)

    def to_cube(self, params: MassParams) -> np.ndarray:
        """The (ndim,) cube point of params; the inverse of from_cube."""
        natural = {
            "c2": math.log(params.variance_c2),
            "slope": params.degradation_slope,
            "bw": params.bw_stutter_prop,
            "fw": params.fw_stutter_prop,
        }
        x = np.array(
            [*params.templates, *(natural[name] for name in self.scalars)], dtype=float
        )
        return (x - self._lo) / self._span

    def params(self, u: np.ndarray) -> MassParams:
        """The MassParams at one (ndim,) cube point."""
        templates, *scalars = self.from_cube(np.asarray(u, dtype=float).reshape(1, -1))
        c2, slope, bw, fw = (float(np.ravel(v)[0]) for v in scalars)
        return MassParams(tuple(templates[0]), c2, slope, bw, fw)


def degradation_factor(slope: float, size: Optional[float]) -> float:
    """Exponential length-dependent amplification decay, neutral at slope 1.

    The factor is slope**((size_bp - 100) / 100); an unknown fragment size
    is treated as neutral.
    """
    if slope == 1.0 or size is None:
        return 1.0
    return slope ** ((size - 100.0) / 100.0)


def expected_heights(
    genotype_set: GenotypeSet,
    params: MassParams,
    locus: str,
    allele_universe: Sequence[str],
    sizes: Optional[Mapping[str, float]] = None,
) -> dict[str, float]:
    """Expected peak height (rfu) at every allele position of the universe.

    Allelic contribution is template x copy number (a homozygote puts both
    copies into one peak). Back/forward stutter adds the configured
    proportion of the parent position's allelic expectation; degradation
    then scales the total.
    """
    if len(genotype_set) != len(params.templates):
        raise ValueError(
            f"genotype set has {len(genotype_set)} contributors but "
            f"{len(params.templates)} templates supplied"
        )
    universe = list(allele_universe)
    allelic: dict[str, float] = {a: 0.0 for a in universe}
    for genotype, t in zip(genotype_set, params.templates):
        for a in genotype.alleles:
            if a not in allelic:
                raise ValueError(f"allele {a} of genotype set missing from universe at {locus}")
            allelic[a] += t

    out: dict[str, float] = {}
    for a in universe:
        e = allelic[a]
        if params.bw_stutter_prop > 0:
            parent = shift_allele(a, +1)
            if parent is not None and parent in allelic:
                e += params.bw_stutter_prop * allelic[parent]
        if params.fw_stutter_prop > 0:
            source = shift_allele(a, -1)
            if source is not None and source in allelic:
                e += params.fw_stutter_prop * allelic[source]
        size = sizes.get(a) if sizes else None
        out[a] = degradation_factor(params.degradation_slope, size) * e
    return out
