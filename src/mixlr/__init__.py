"""Continuous DNA-mixture likelihood ratios with two engines —
per-hypothesis maximum likelihood and prior-weighted integration — plus
divergence studies and calibration audits.
"""

from .model import (
    HD,
    HP,
    Q_ALLELE,
    Genotype,
    GenotypeSet,
    MassParams,
    ModelConfig,
    Peak,
    Profile,
    Proposition,
    expected_heights,
)
from .genotypes import (
    FrequencyTable,
    RareAllelePolicy,
    WeightedGenotypeSet,
    enumerate_sets,
    genotype_prior,
    rare_allele_probability,
)
from .likelihood import (
    MixtureEvaluator,
    dropout_mass,
    full_likelihood,
    peak_density,
    set_log_likelihood,
)
from .mle import MleResult, MlLrReport, SearchSpec, fit_both, lr_ml, maximize
from .integrate import (
    IntegralResult,
    PriorSpec,
    lr_int,
    marginal_monte_carlo,
    marginal_quadrature,
)
from .study import LrRecord, StudyConfig, TrueScenario, divergence_summary, run_study
from .calibration import calibrate, expected_posterior_bounds, frequency_interval
from .toy import toy_grid, toy_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
