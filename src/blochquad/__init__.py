"""Quadratic qubit channels on the Bloch ball.

Represents unital maps from 2x2 matrices into their tensor square by real
coefficient blocks, certifies whether the induced quadratic Bloch map
preserves the unit sphere (an exact residual certificate, and a certified
interval around the largest sphere deviation), proves or refutes
positivity (closed forms and a branch and bound on the sphere, with
negativity witnesses), and simulates the induced nonlinear dynamics.
"""

from .catalog import CatalogEntry, delta0, delta1, linear_family
from .channel import (
    DeltaCoefficients,
    HaarEntries,
    apply,
    apply_haar_closed_form,
    check_coassociativity,
    dual_pair,
    has_haar_trace,
    induced_qmap,
    is_symmetric,
    is_trace_preserving,
    split,
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
from .errors import (
    NotApplicableError,
    NotHaarFormError,
    NotHermitianError,
    NotSelfAdjointError,
    NotSymmetricError,
)
from .pauli import (
    BlochState,
    PauliElement,
    decompose,
    is_positive_element,
    kron,
    recompose,
    state_eval,
    swap_conjugate,
)
from .positivity import (
    PositivityVerdict,
    Witness,
    check_linear_positivity,
    check_positivity,
    eigvals_hermitian4,
    operator_norm3,
    simple_form_eigs,
    theorem_witness_eigs,
)
from .purity import (
    CertificateReport,
    check_haar_conditions,
    check_linear_isometry,
    check_sphere_conditions,
    monte_carlo_sphere,
    sphere_deviation,
)
from .qmap import (
    QuadraticMapCoeffs,
    evaluate,
    homogeneous_part,
    is_haar_form,
    linear_part,
)

__all__ = [
    "BlochState",
    "CatalogEntry",
    "CertificateReport",
    "DeltaCoefficients",
    "FixedComponent",
    "FixedSet",
    "HaarEntries",
    "NotApplicableError",
    "NotHaarFormError",
    "NotHermitianError",
    "NotSelfAdjointError",
    "NotSymmetricError",
    "PauliElement",
    "PositivityVerdict",
    "QuadraticMapCoeffs",
    "Trajectory",
    "Witness",
    "apply",
    "apply_haar_closed_form",
    "check_coassociativity",
    "check_haar_conditions",
    "check_linear_isometry",
    "check_linear_positivity",
    "check_positivity",
    "check_sphere_conditions",
    "circle_restriction_step",
    "decompose",
    "delta0",
    "delta1",
    "dual_pair",
    "eigvals_hermitian4",
    "estimate_divergence_rate",
    "evaluate",
    "fixed_points_sphere",
    "fixed_set_sphere",
    "has_haar_trace",
    "homogeneous_part",
    "induced_qmap",
    "is_haar_form",
    "is_positive_element",
    "is_symmetric",
    "is_trace_preserving",
    "iterate",
    "kron",
    "linear_family",
    "linear_part",
    "logistic_conjugacy_residual",
    "monte_carlo_sphere",
    "operator_norm3",
    "recompose",
    "simple_form_eigs",
    "sphere_deviation",
    "split",
    "state_eval",
    "swap_conjugate",
    "theorem_witness_eigs",
    "verify_collapse",
]

__version__ = "0.1.0"
