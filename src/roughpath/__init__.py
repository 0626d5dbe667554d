"""Deterministic integration over irregular paths.

The library represents a continuous path through its dyadic samples, builds
the exact multiresolution table of cell averages, and from that table does
four things: decides whether the staircase integral of a Hölder integrand
exists (diagnostics), computes the integral as a limit of staircase line
integrals (integrator), evaluates it through classical identities
(calculus), and solves path-driven differential equations by Picard
iteration (ode).
"""

from .calculus import (
    GreenEvaluation,
    green_eval,
    integration_by_parts,
    ito_compare,
    ito_reference,
    time_integral_of_state,
)
from .diagnostics import (
    DiagnosticsReport,
    ScalingNormEstimate,
    WIENER_CONSTANT,
    existence_report,
    gap_functional,
    levy_area,
    operator_tail_constant,
    scaling_norm,
    wiener_ensemble,
    wiener_statistic,
)
from .dyadic import (
    AveragePyramid,
    DyadicPath,
    HolderEstimate,
    average_pyramid,
    holder_seminorm,
)
from .errors import (
    BadExponents,
    BadInterval,
    LengthMismatch,
    LevelOutOfRange,
    MissingDerivative,
    NonDyadicGrid,
    NonFinite,
    NonFiniteIterate,
    QuadratureFailure,
    ResolutionTooCoarse,
    RoughPathError,
    SchemaError,
    WindowUnderflow,
)
from .fields import BUILTIN_FIELDS, field_from_expression, resolve_field
from .generators import (
    gen_analytic,
    gen_brownian,
    gen_counterexample,
    gen_oscillatory,
    oscillation_levels,
)
from .integrator import (
    ConvergenceConfig,
    IntegralResult,
    ScalarField,
    adversarial_integrand,
    cumulative_increments,
    indefinite_integral,
    integrate,
    integrate_state_only,
    staircase_integral,
)
from .ode import (
    FieldComponent,
    MatrixField,
    OdeProblem,
    OdeSolution,
    SolverConfig,
    continuity_experiment,
    picard_operator,
    solve,
)

__version__ = "0.1.0"
