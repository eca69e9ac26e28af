"""Simultaneous confidence bands for PIT ECDFs and rank-based
same-distribution tests across MCMC chains.

The short tour: turn draws into PIT values or pooled fractional ranks
(`transform`), calibrate a pointwise level whose per-quantile intervals
reach a joint coverage target (`bands_single`, `bands_multi`), pick the
calibration method and reuse stored grids (`gamma_cache.calibrate`),
study sensitivity under controlled departures (`power`), handle
autocorrelated chains (`thinning`), and draw the results (`report`).
The `ecdf-bands` console script in `cli` ties these together.
"""

from .bands_multi import (
    MultiTestReport,
    bands_from_gamma_multi,
    coverage_probability_multi,
    gamma_optimize_multi,
    gamma_simulate_multi,
    test_multi,
)
from .bands_single import (
    ConfidenceBands,
    Exceedance,
    GammaResult,
    TestReport,
    band_exceedances,
    bands_from_gamma,
    coverage_probability,
    gamma_optimize,
    gamma_simulate,
    test_single,
)
from .gamma_cache import (
    GammaGrid,
    GridEntry,
    build_grid,
    calibrate,
    interpolate,
    load_grid,
    save_grid,
)
from .power import (
    PowerCurve,
    Transformation,
    apply_transform,
    power_sweep,
)
from .report import PlotSpec, RankHistogram, diff_transform, plot_data, rank_hist, render_svg
from .thinning import EssReport, ThinningPlan, ar1_simulate, ess_report, thin, thinning_factor
from .transform import (
    ChainSet,
    EcdfTrajectory,
    EvaluationGrid,
    PitValues,
    default_grid,
    ecdf_eval,
    empirical_pit,
    joint_fractional_ranks,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChainSet",
    "ConfidenceBands",
    "EcdfTrajectory",
    "EssReport",
    "EvaluationGrid",
    "Exceedance",
    "GammaGrid",
    "GammaResult",
    "GridEntry",
    "MultiTestReport",
    "PitValues",
    "PlotSpec",
    "PowerCurve",
    "RankHistogram",
    "TestReport",
    "ThinningPlan",
    "Transformation",
    "apply_transform",
    "ar1_simulate",
    "band_exceedances",
    "bands_from_gamma",
    "bands_from_gamma_multi",
    "build_grid",
    "calibrate",
    "coverage_probability",
    "coverage_probability_multi",
    "default_grid",
    "diff_transform",
    "ecdf_eval",
    "empirical_pit",
    "ess_report",
    "gamma_optimize",
    "gamma_optimize_multi",
    "gamma_simulate",
    "gamma_simulate_multi",
    "interpolate",
    "joint_fractional_ranks",
    "load_grid",
    "plot_data",
    "power_sweep",
    "rank_hist",
    "render_svg",
    "save_grid",
    "test_multi",
    "test_single",
    "thin",
    "thinning_factor",
]
