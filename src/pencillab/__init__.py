"""Numerical canonical-pencil toolkit for complex and mixed polynomial
map-germs: member-set geometry, sphere-transversality certification,
phase-monodromy and tube flows, and link-surface Euler characteristics.
"""

from .errors import (AxisApproach, AxisProximity, BallExit,
                     CompletenessViolation, DegenerateAfterRetries,
                     DegenerateGradient, GermSyntaxError, GramSingular,
                     KernelOverflow, PencilLabError, PositivityViolation,
                     ProjectionFailure, StepCollapse, Unstable, UsageError)
from .flows import (FlowKind, FlowSpec, MonodromyReturn, TransportRecord,
                    equivalence_transport, integrate, monodromy_return,
                    synthesize_field)
from .germ import (MixedGerm, differential_sample, evaluate, format_germ,
                   jacobian_rank_margin, parse_germ, real_gradients,
                   real_hessians, wirtinger_gradient, wirtinger_hessian)
from .pencil import (FiberSample, blowup_residual, h_theta, sample_fiber,
                     side_indicator, spherefication_batch,
                     stereographic_project)
from .regularity import (RadialScanEntry, ScanReport, TransversalityReport,
                         critical_value_isolation_scan, d_regularity_search,
                         radial_lambda_scan, strong_milnor_check,
                         tube_sphere_transversality)
from .topology import (DoubleFiberReport, MilnorNumberResult, MorseInventory,
                       closed_form_mu, double_fiber_consistency,
                       link_surface_euler, staircase_mu)

__version__ = "0.1.0"

__all__ = [
    "AxisApproach", "AxisProximity", "BallExit", "CompletenessViolation",
    "DegenerateAfterRetries", "DegenerateGradient", "DoubleFiberReport",
    "FiberSample", "FlowKind", "FlowSpec", "GermSyntaxError", "GramSingular",
    "KernelOverflow", "MilnorNumberResult", "MixedGerm",
    "MonodromyReturn", "MorseInventory", "PencilLabError",
    "PositivityViolation", "ProjectionFailure", "RadialScanEntry",
    "ScanReport", "StepCollapse", "TransportRecord", "TransversalityReport",
    "Unstable", "UsageError", "blowup_residual", "closed_form_mu",
    "critical_value_isolation_scan", "d_regularity_search",
    "differential_sample", "double_fiber_consistency",
    "equivalence_transport", "evaluate", "format_germ", "h_theta",
    "integrate", "jacobian_rank_margin", "link_surface_euler",
    "monodromy_return", "parse_germ", "radial_lambda_scan", "real_gradients",
    "real_hessians", "sample_fiber", "side_indicator", "spherefication_batch",
    "staircase_mu", "stereographic_project", "strong_milnor_check",
    "synthesize_field", "tube_sphere_transversality", "wirtinger_gradient",
    "wirtinger_hessian",
]
