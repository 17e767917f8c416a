"""Document measurements and complexity fitting — substrate S10 (slide 19).

The hot-path counters of the complexity analysis live on
:data:`repro.obs.metrics.process_registry`.
"""

from repro.analysis.complexity import (
    Fit,
    classify_growth,
    fit_exponential,
    fit_power_law,
    measure,
)
from repro.analysis.metrics import (
    FuzzyStats,
    distribution_entropy,
    fuzzy_stats,
    tree_stats,
)

__all__ = [
    "FuzzyStats",
    "fuzzy_stats",
    "tree_stats",
    "distribution_entropy",
    "Fit",
    "fit_power_law",
    "fit_exponential",
    "classify_growth",
    "measure",
]
