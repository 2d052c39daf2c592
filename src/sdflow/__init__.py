"""Numerical laboratory for the surface diffusion flow of entire graphs.

Soliton profile shooting with breakdown certificates, convexity
identity checks, a periodic graph-flow solver, and parametric curve
diffusion for closed curves.
"""

__version__ = "0.1.0"

from .geometry import GraphField, surface_diffusion_operator
from .soliton import (
    BreakdownCertificate,
    ClassificationReport,
    IntegratorOptions,
    IntegratorStats,
    ProfileState,
    SolitonKind,
    Trajectory,
    integrate,
    run_sweep,
    sample_initial_state,
    seeded_initial_states,
    shoot_batch,
    shoot_bidirectional,
    vector_field,
)
from .identities import (
    IdentityReport,
    QParams,
    convexity_residual_m,
    convexity_residual_q,
    m_value,
    q_paper_constants,
    q_upper_bound_residual,
    q_value,
    reduction_residual,
    steady_first_integral_residuals,
    tangential_identity_residual,
)
from .graphpde import FlowConfig, FrameMonitors, RescaleParams, evolve, rescale, step
from .curveflow import (
    ClosedCurve,
    CurveMonitors,
    FlowOutcome,
    FlowResult,
    curvature_profile,
    flow,
    hausdorff_distance,
    normal_velocity,
    open_curvature_profile,
    open_normal_velocity,
    resample_uniform,
    seed_circle,
    seed_clothoid,
    seed_ellipse,
    seed_lemniscate,
)
