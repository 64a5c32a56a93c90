"""ledlab: Lorentz electrodynamics of a spinning extended charge.

Library layers:
  bare_particle  density profiles, gyrational mass, the gyration curve
  fields         stationary bound states and field functionals
  forces         rest-frame Minkowski force/torque, Nodvik mass, pseudo-inertia
  gyrodynamics   fixed-center field-particle evolution and Picard iteration
  renormflow     stationary renormalization flow to vanishing bare mass
  roots          bracketed scalar root (Brent's method)
  admissibility  Nodvik/Abraham initial-data classifiers
  cli            command-line front end
"""

from .bare_particle import (
    DensityProfile,
    GyrationCurve,
    gyrational_mass,
)
from .fields import (
    StationaryState,
    stationary_state,
    magnetic_moment,
    field_energy,
    field_spin,
)
from .forces import (
    FourVector,
    Rank2Tensor,
    FieldSnapshot,
    minkowski_force,
    force_dot_u,
    minkowski_torque,
    nodvik_mass,
    pseudo_inertia,
)
from .gyrodynamics import GyroSolver, GyroEvolutionState
from .renormflow import (
    PhysicalConstants,
    RenormPoint,
    omega_of_R,
    mb_of_R,
    flow_sweep,
    limit_constants,
)
from .admissibility import (
    InitialData,
    nodvik_check,
    abraham_spin_check,
    abraham_nospin_check,
)

__version__ = "0.1.0"
