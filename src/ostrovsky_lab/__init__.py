"""Numerical laboratory for the linear Ostrovsky propagator.

Spectral profiles on uniform frequency grids, the unimodular dispersive
propagator exp(i*t*(xi^3 +/- 1/xi)) with a phase-resolution guard,
dyadic and unit-window frequency decompositions, deterministic estimate
checks over a profile corpus, maximal-function scaling experiments, and
counter-based Gaussian randomization studies.
"""

__version__ = "0.1.0"

from .corpus import (
    CorpusEntry,
    band_profile,
    default_corpus,
    gaussian_profile,
    observation_grid,
    parseval_grid,
    profile_from_function,
)
from .lemmas import (
    LemmaReport,
    check_high_frequency,
    check_low_frequency,
    check_square_function,
    check_wiener_low,
    delta_epsilon,
    run_corpus,
)
from .randomized import (
    KhinchineResult,
    TailCurve,
    gaussian_coefficients,
    khinchine_analytic_ratio,
    khinchine_check,
    randomize,
    randomized_point_samples,
    stochastic_continuity,
    tail_bound_curve,
    wilson_interval,
)
from .rough import (
    CounterexampleSpec,
    MaximalScan,
    ScalingFit,
    convergence_trace,
    counterexample_profile,
    counterexample_ratio,
    maximal_scan,
    maximal_time_grid,
    scaling_fit,
)
from .spectral import (
    MAX_PHASE_INCREMENT,
    ResolutionError,
    ResolutionReport,
    SpaceField,
    SpaceGrid,
    SpectralProfile,
    evolution_multipliers,
    evolve_spectral,
    hs_norm,
    lp_norm_space,
    phase,
    phase_derivative,
    propagate,
    quadrature_row,
    require_resolution,
    synthesize,
    trapezoid_weights,
    validate_resolution,
)
from .windows import (
    WienerDecomposition,
    dyadic_cutoff,
    project_low,
    square_function,
    wiener_decompose,
    wiener_project,
    wiener_range,
    wiener_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]
