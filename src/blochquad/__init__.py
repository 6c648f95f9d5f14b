"""Quadratic qubit channels on the Bloch ball.

Represents unital maps from 2x2 matrices into their tensor square by real
coefficient blocks, certifies whether the induced quadratic Bloch map
preserves the unit sphere (a verdict from a certified, rotation-invariant
interval around the largest sphere deviation), proves or refutes
positivity (closed forms and a branch and bound on the sphere, with
negativity witnesses), and simulates the induced nonlinear dynamics.
"""

from .catalog import CatalogEntry, delta0, delta1, linear_family
from .channel import (
    DeltaCoefficients,
    check_coassociativity,
    has_haar_trace,
    induced_qmap,
    is_symmetric,
    is_trace_preserving,
)
from .dynamics import (
    FixedComponent,
    FixedSet,
    Trajectory,
    circle_restriction_step,
    estimate_divergence_rate,
    fixed_points_sphere,
    fixed_set_sphere,
    iterate,
    logistic_conjugacy_residual,
    verify_collapse,
)
from .errors import NotApplicableError
from .pauli import kron
from .positivity import PositivityVerdict, Witness, check_positivity
from .purity import (
    check_linear_isometry,
    check_q_purity,
    monte_carlo_sphere,
    sphere_deviation,
)
from .qmap import QuadraticMapCoeffs, evaluate, is_haar_form

__all__ = [
    "CatalogEntry",
    "DeltaCoefficients",
    "FixedComponent",
    "FixedSet",
    "NotApplicableError",
    "PositivityVerdict",
    "QuadraticMapCoeffs",
    "Trajectory",
    "Witness",
    "check_coassociativity",
    "check_linear_isometry",
    "check_positivity",
    "check_q_purity",
    "circle_restriction_step",
    "delta0",
    "delta1",
    "estimate_divergence_rate",
    "evaluate",
    "fixed_points_sphere",
    "fixed_set_sphere",
    "has_haar_trace",
    "induced_qmap",
    "is_haar_form",
    "is_symmetric",
    "is_trace_preserving",
    "iterate",
    "kron",
    "linear_family",
    "logistic_conjugacy_residual",
    "monte_carlo_sphere",
    "sphere_deviation",
    "verify_collapse",
]

__version__ = "0.1.0"
