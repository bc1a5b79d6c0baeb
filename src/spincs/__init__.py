"""Spin coherent states with arbitrary fiducial vectors: exact quadrature
overcompleteness, discrete path-integral propagators, geometric structure,
semiclassical dynamics, and the large-spin contraction to canonical
coherent states."""

__version__ = "0.1.0"

from .coherent import (CoherentState, FiducialVector, MatrixElementSet,
                       QuadratureGrid, build_grid, coherent_state,
                       generating_function, grid_amplitudes, make_fiducial,
                       matrix_elements, overlap, random_fiducial,
                       resolution_residual, structure_pair)
from .contraction import (CanonicalCS, FockVector, annihilation_degree_residual,
                          canonical_cs, ccs_canonical_rhs, ccs_kinetic_term,
                          ccs_resolution_residual, displacement_matrix,
                          dns_amplitudes, dns_number_check, fock_annihilation,
                          hp_contract_state, hp_measure_ratio, make_fock,
                          normal_ordered_matrix)
from .errors import (AmplitudesTooLarge, ConfigInvalid, DecompositionPole, GridCoarseWarning,
                     GridTooCoarse, InconsistentSystem, LengthMismatch,
                     NoConvergence, NotFinite, NotHermitian, NotNormalized, NotUnitary,
                     NumericalFailure, OrthogonalPair, PathTooShort, PoleMargin,
                     SpincsError, SubsidiaryViolation, TimesNotMonotone, ZOriginSingular,
                     ZeroVector)
from .geometry import (GaugePotential, OneForm, TwoForm, gauge_potential,
                       geometric_phase, kinetic_term, one_form, path_velocities,
                       two_form)
from .parametrizations import (ACoords, ZCoords, a_measure_weight, a_to_omega,
                               kinetic_term_a, kinetic_term_z, omega_to_a,
                               omega_to_z, z3_of, z_measure_weight, z_to_omega)
from .propagator import (HamiltonianSpec, MonomialTerm, PropagatorResult,
                         action_along_path, discrete_cspi, exact_propagator,
                         h_expectation, h_ratio, hamiltonian_matrix,
                         infinitesimal_overlap, midpoint_product,
                         transition_amplitude)
from .semiclassical import (Trajectory, VelocitySystem, build_system, h_gradient,
                            integrate_trajectory, solve_velocities)
from .spin_core import (EulerAngles, RotationMatrix, Spin, SpinOperators, big_r,
                        compose_euler, conjugate_spin_ops, euler_from_su2,
                        gaussian_decompose, invert_euler, ladder_factor, little_d,
                        spin_operators, su2_matrix)
