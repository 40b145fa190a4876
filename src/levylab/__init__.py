"""Numerical laboratory for reflected backward doubly stochastic equations
driven by finite-activity jump processes.

Pipeline: a jump driver (:mod:`levylab.levy`) induces an orthonormal
martingale basis (:mod:`levylab.teugels`); forward scenarios with
clamp-reflected state and boundary local time come from
:mod:`levylab.paths`; the backward equations are solved by penalized or
projected least-squares Monte Carlo (:mod:`levylab.solver`) and
cross-validated against a finite-difference obstacle solver whose jump
generator and local-time source phi dA are the reflected state's own
(:mod:`levylab.pdie`).  Experiment
configs, verification suites (every gate declared once, in
:data:`levylab.suites.GATES`) and the command line live in
:mod:`levylab.config`, :mod:`levylab.suites` and :mod:`levylab.cli`.
"""

from .errors import (
    CFLViolation,
    ConfigParseError,
    DuplicateJumpSize,
    GridIncompatible,
    InitialPointOutsideDomain,
    InvalidClock,
    LevyLabError,
    NonpositiveIntensity,
    RankMismatch,
    SingularRegressionWarning,
    TerminalBelowObstacle,
    UnknownCoefficientName,
    ZeroJumpSize,
    ZeroSpread,
)
from .levy import LevySpec
from .paths import (
    ClockEvents,
    PathEnsemble,
    TimeGrid,
    derived_rng,
    simulate_brownian,
    simulate_ensemble,
    simulate_reflected_x,
    skorokhod_minimality_gap,
)
from .pdie import (
    FkReport,
    PidieGrid,
    PidieGridSpec,
    representation_check,
    solve_obstacle_pidie,
)
from .problems import REGISTRY, ProblemSpec, build_problem
from .solver import EnsembleSolution, SolverConfig, solve_penalized
from .teugels import TeugelsBasis, basis_for, teugels_increments

__version__ = "0.1.0"
