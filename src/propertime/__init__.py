"""Proper-time electrodynamics and relativistic mechanics toolkit.

Dual-clock kinematics, the nonlinear transformation group that fixes the
source clock, retarded fields with their radiation-reaction terms,
canonical proper-time dynamics for one and many particles, and the
nonlocal square-root operator kernel.
"""

from .kinematics import (
    NATURAL,
    SI,
    ElapsedTime,
    KinematicState,
    RedshiftResult,
    UnitSystem,
    collaborative_speed,
    elapsed_observer_time,
    gamma,
    observer_from_proper,
    proper_from_observer,
    redshift_z,
)
from .group import (
    BoostParameters,
    SourceDensities,
    boost_acceleration,
    boost_acceleration_inverse,
    boost_event,
    boost_event_inverse,
    boost_lightspeed,
    boost_lightspeed_inverse,
    boost_sources,
    boost_velocity,
    boost_velocity_inverse,
    convective_density_ratio,
    density_transform_general,
    dstar,
)
from .fields import (
    FieldGeometry,
    PhotonMassResult,
    SourceTrajectory,
    dissipative_coefficient,
    effective_photon_mass,
    electric_field,
    electric_field_terms,
    field_geometry,
    fields_at,
    magnetic_field,
    magnetic_field_terms,
    retarded_time,
)
from .dynamics import (
    FieldConfiguration,
    ForceDecomposition,
    OrbitTrajectory,
    PhaseState,
    TimeReversalRecord,
    approximate_rhs,
    b_kinetic,
    canonical_K,
    coulomb_critical_radius,
    effective_mass_tilde,
    h_zero,
    hamilton_rhs,
    hamiltonian_H,
    integrate_orbit,
    kinetic_momentum,
    lagrangian,
    metric_deformation,
    propertime_force,
    time_reversal_check,
)
from .many import (
    CenterOfMass,
    ClusterSummary,
    FreeTrajectory,
    GlobalInvariants,
    ParticleSystem,
    center_of_mass,
    clock_ratio,
    clock_ratio_speeds,
    cluster_split,
    evolve_observable,
    free_flight,
    generating_identity_residual,
    per_particle_speeds,
    phase_gradient,
    poisson_bracket,
    system_invariants,
    verify_algebra,
)
from .spectral import (
    KernelParameters,
    RadialGridFunction,
    SqrtOperator1D,
    apply_sqrt_operator,
    dirac_to_K_eigenvalue,
    fit_kernel_decay,
    line_kernel_weight,
    momentum_oracle,
    sqrt_kernel_weight,
)

__version__ = "0.1.0"
