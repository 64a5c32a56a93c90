"""ledlab: Lorentz electrodynamics of a spinning extended charge.

Library layers:
  minkowski      flat-spacetime four-vector / rank-2 tensor algebra
  kinematics     worldline and gyrograph kinematics, admissibility checks
  bare_particle  gyrational mass, bare spin, Minkowski inertia, inversion
  fields         stationary bound states and field functionals
  forces         Minkowski force/torque, Nodvik mass, pseudo-inertia
  gyrodynamics   fixed-center field-particle evolution and Picard iteration
  renormflow     stationary renormalization flow to vanishing bare mass
  admissibility  Nodvik/Abraham initial-data classifiers
  cli            command-line front end
"""

from .minkowski import (
    FourVector,
    Rank2Tensor,
    METRIC_TENSOR,
    inner,
    outer,
    wedge_up,
    wedge_down,
    trace,
    commutators,
    split_space_time,
    dual_vector,
    dual_tensor,
)
from .kinematics import (
    four_velocity,
    fermi_walker,
    thomas_precession,
    validate_state,
    WorldlineSample,
    GyrographSample,
)
from .bare_particle import (
    DensityProfile,
    GyrationCurve,
    GyroMassCurve,
    gyrational_mass,
    maclaurin_check,
    bare_spin,
    omega_from_spin,
    minkowski_inertia,
)
from .fields import (
    StationaryState,
    stationary_state,
    magnetic_moment,
    field_energy,
    field_spin,
    stress_energy,
    comoving_fields,
    conserved_functionals,
    ComplexField3,
)
from .forces import (
    FieldSnapshot,
    minkowski_force,
    force_dot_u,
    minkowski_torque,
    nodvik_mass,
    pseudo_inertia,
    invertibility_report,
)
from .gyrodynamics import GyroSolver, GyroEvolutionState, ToroidalFieldState
from .renormflow import (
    PhysicalConstants,
    RenormPoint,
    omega_of_R,
    mb_of_R,
    R_of_mb,
    observables,
    observables_from_mb,
    flow_sweep,
    limit_constants,
)
from .admissibility import (
    InitialData,
    nodvik_check,
    abraham_spin_check,
    abraham_nospin_check,
    semirel_functionals,
)

__version__ = "0.1.0"
