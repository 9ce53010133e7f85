"""Numerical laboratory for diffusive mixing in a reversible two-species system.

Solve similarity profiles of the scaled reaction-diffusion pair on the line,
integrate the scaled system, evaluate relative-entropy functionals, and check
measured decay against explicit rate certificates.
"""

__version__ = "0.1.0"

from .certificates import (
    ConstantsReport,
    RateCertificate,
    VerificationVerdict,
    compute_constants,
    gronwall_envelope,
    select_certificate,
    verify_decay,
)
from .conjugate import PhiFamily, c_tilde, m_hat, phi, phi_conjugate_bound, phi_conjugate_numeric
from .entropy import (
    DiagnosticsRecord,
    RelativeDensities,
    State,
    F_p,
    F_p_conjugate,
    dissipation_total,
    fisher_information,
    gamma_fn,
    hellinger_sq,
    lambda_B,
    mixed_term,
    reactive_dissipation,
    relative_densities,
    relative_entropy,
    split_mixed_term,
)
from .grids import Grid, default_half_width, derivative1, integrate
from .profile import (
    ProblemData,
    ProfileSolution,
    closed_form_profile,
    linear_diffusion_profile,
    profile_invariants,
    solve_profile,
)
from .simulate import (
    InitialConditionSpec,
    LinearRecord,
    RunResult,
    SimConfig,
    build_initial_state,
    conserved_moment,
    run,
    run_linear,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
